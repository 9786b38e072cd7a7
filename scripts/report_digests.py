#!/usr/bin/env python3
"""Print the exit code, report sha256s and argv of a fixed grid of CLI commands.

Two trees write the same reports when this script prints the same lines on
both.  Run it on each tree's ``src`` and compare::

    PYTHONPATH=src python scripts/report_digests.py > after.txt
    PYTHONPATH=/path/to/other/tree/src python scripts/report_digests.py > before.txt
    diff before.txt after.txt

Each command runs in this process through ``cli.main`` with ``--out`` a
temporary file.  A line holds the exit code (``raised <Error>`` for an
exception that escapes ``main``), the sha256 of the report's bytes, the
sha256 of its value (both ``-`` when no file was left), the sha256 of the
start of stderr, and the argv.  The value digest is taken over the report
parsed as JSON and written again with fixed separators, so it stays the
same when only the layout of a report changes; a report that is not JSON
(a bound CSV or SVG) is its own value, and its value digest is its byte
digest.  The grid
covers every circuit kind and ``parity_conditioned`` tag pair, every
backend and readout, pure and mixed inputs, with and without
``--disentangle``, at N = 3, 4 and 9; ``--post-select`` at N <= 4; the pure
dense runs at N = 20; every kind and readout on the collective backend's
pure block-bit states at N = 40, past the dense cap, with and without
``--disentangle``; the same for the mixed inputs of ``parity_collective``
and each ``parity_conditioned`` tag pair at N = 40 and epsilon 0.3, which
the ``auto`` backend runs as a sector mixture, and again at N = 300 with
the resolving and threshold readouts and a theta table that is zero on a
run of sectors; ``bound`` sweeps in each format, at epsilon 0, across
N = 50 and 51, over unsorted and repeated N, on the benchmark's 1:1000 grid
and refused; ``simulate`` and ``bound`` with an epsilon and a polarization
that disagree, NaN among them, and with a NaN epsilon, which must be refused
before any report is written; and ``verify``.  It takes a few minutes.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import shlex
import sys
import tempfile

from mesoparity import cli

KINDS = (
    ("--kind", "parity_collective"),
    ("--kind", "hamming_half"),
    ("--kind", "ghz_local"),
) + tuple(
    ("--kind", "parity_conditioned", "--v-odd", odd, "--v-even", even)
    for odd, even in itertools.product(("identity", "collective_flip"), repeat=2)
)
BACKENDS = ("auto", "dense", "collective")
STDERR_HEAD = 200


def _readouts(n: int) -> tuple:
    theta = ",".join(repr(0.37 * m) for m in range(n + 1))
    return (
        ("--measurement", "sector_pvm"),
        ("--measurement", "threshold_pvm"),
        ("--measurement", "two_outcome", "--theta", theta),
        ("--measurement", "two_outcome", "--g", "0.3", "--t-m", "1.1"),
    )


def grid() -> list:
    """Every command of the grid, each an argv without ``--out``."""
    commands = []
    for n in (3, 4, 9):
        for kind, backend, readout, eps, disentangle in itertools.product(
                KINDS, BACKENDS, _readouts(n), ("0", "0.3"), (False, True)):
            argv = ("simulate", *kind, "--backend", backend, *readout,
                    "--n", str(n), "--epsilon", eps)
            if disentangle:
                argv += ("--disentangle",)
            commands.append(argv)
            if n <= 4 and readout[1] == "sector_pvm":
                commands.append(argv + ("--post-select", "1"))
    for kind in ("parity_collective", "hamming_half"):
        for extra in ((), ("--disentangle",)):
            commands.append(("simulate", "--kind", kind, "--backend", "dense", "--n", "20",
                             *extra))
    for kind, readout, extra in itertools.product(KINDS, _readouts(40),
                                                  ((), ("--disentangle",))):
        commands.append(("simulate", *kind, "--backend", "collective", *readout,
                         "--n", "40", "--epsilon", "0", *extra))
    # the parity family's mixed inputs past the dense cap, where auto picks
    # the sector mixture
    for kind, readout, extra in itertools.product(KINDS[:1] + KINDS[3:], _readouts(40),
                                                  ((), ("--disentangle",))):
        commands.append(("simulate", *kind, *readout, "--n", "40", "--epsilon", "0.3",
                         *extra))
    # the same mixtures at N = 300, whose sector rows are past numpy's
    # 128-entry pairwise-sum block, with the resolving and threshold readouts
    # and a theta table that is zero on the sectors m < 150
    theta = ",".join("0" if m < 150 else repr(0.37 * m) for m in range(301))
    mixture_readouts = (("--measurement", "sector_pvm"), ("--measurement", "threshold_pvm"),
                        ("--measurement", "two_outcome", "--theta", theta))
    for kind, readout, extra in itertools.product(KINDS[:1] + KINDS[3:], mixture_readouts,
                                                  ((), ("--disentangle",))):
        commands.append(("simulate", *kind, *readout, "--n", "300", "--epsilon", "0.3",
                         *extra))
    for fmt in ("csv", "json", "svg"):
        commands.append(("bound", "--n", "1:40", "--polarization", "0.2,0.5,0.9",
                         "--format", fmt))
    commands.append(("bound", "--n", "2,8,300", "--epsilon", "0.1,0.6"))
    # the sweep's edges: the one-hot rows at epsilon 0, the pmf's switch from
    # exact products to log space past N = 50, unsorted and repeated N, the
    # benchmark's grid, and refused grids
    for fmt in ("csv", "json", "svg"):
        commands.append(("bound", "--n", "1:120", "--epsilon", "0,0.3,0.999",
                         "--format", fmt))
    commands.append(("bound", "--n", "52,50,51,7,50,2000,1,51", "--epsilon", "0.9,0,0.25,0"))
    commands.append(("bound", "--n", "1:1000", "--polarization",
                     "0.28125,0.40625,0.59375,0.71875"))
    for n, eps in (("3,0", "0.2,1.0"), ("3,0", "0.2"), ("4", "0.5,-0.1")):
        commands.append(("bound", "--n", n, "--epsilon", eps))
    commands.append(("bound", "--n", "3", "--polarization", "0"))
    # parse-time refusals: epsilon and polarization that disagree, NaN among them
    for pair in (("--epsilon", "0.3", "--polarization", "nan"),
                 ("--epsilon", "0.3", "--polarization", "0.6"),
                 ("--epsilon", "nan")):
        commands.append(("simulate", "--n", "3", *pair))
        commands.append(("bound", "--n", "1:3", *pair))
    for seed in ("0", "1"):
        commands.append(("verify", "all", "--seed", seed))
    return commands


def value_sha256(data: bytes) -> str:
    """The sha256 of a report's value: JSON parsed and written again with
    fixed separators and its own key order; other text as it is."""
    try:
        data = json.dumps(json.loads(data), separators=(",", ":")).encode()
    except ValueError:
        pass
    return hashlib.sha256(data).hexdigest()


def digest(argv, out: str) -> tuple:
    """(exit code, report sha256, report value sha256, stderr sha256) of
    ``main([*argv, "--out", out])``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = str(cli.main([*argv, "--out", out]))
        except Exception as exc:  # an escaping error is part of the record
            code = f"raised {type(exc).__name__}"
    report = value = "-"
    if os.path.exists(out):
        with open(out, "rb") as fh:
            data = fh.read()
        report, value = hashlib.sha256(data).hexdigest(), value_sha256(data)
        os.remove(out)
    head = err.getvalue()[:STDERR_HEAD].encode()
    return code, report, value, hashlib.sha256(head).hexdigest()[:16]


def lines(commands):
    """One line per command, as `main` prints them."""
    with tempfile.TemporaryDirectory() as work:
        out = os.path.join(work, "report")
        for argv in commands:
            code, report, value, err = digest(argv, out)
            yield f"{code}\t{report}\t{value}\t{err}\t{shlex.join(argv)}"


def main() -> int:
    for line in lines(grid()):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
