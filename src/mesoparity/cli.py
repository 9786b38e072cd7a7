"""Command-line front end.

Subcommands: ``simulate`` (run one scenario, emit a JSON report), ``bound``
(sweep the fidelity ceiling over a grid, emit CSV/JSON/SVG), ``verify`` (run a
diagnostic suite, emit a JSON summary), ``plot`` (turn a bound CSV into an SVG
chart).  ``simulate`` and ``bound`` also read a flat key=value file
(``--config``): each key is the name of one of the subcommand's flags with
'_' for '-', and its value is parsed by that flag, so every input has one
cast, one set of choices and one default, all in `build_parser`.  Flags on
the command line beat the file.

Outputs are deterministic: floats are printed with 17 significant digits, a
JSON list of scalars is written on one line, grid sweeps are written sorted
by N and epsilon, and charts use fixed 2-decimal coordinates.  JSON reports
are written to ``--out`` as they are emitted, never held whole in memory;
``simulate`` writes each outcome's entry as soon as that outcome is
measured.  A report that fails partway, measuring included, leaves no file
behind; under ``--out -`` stdout keeps the entries already written.  Exit
codes: 0 ok, 1 verification failure, 2 usage/config error, 3 representation
error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
from array import array
from collections import namedtuple
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from typing import Optional

import numpy as np

from . import bounds, circuits, measurement, svgchart, verify
from .collective import MsConfig, RepresentationError, sector_probabilities
# fidelity is not called here but stays importable from this module, where
# the benchmark's tracer wraps it
from .metrics import average_fidelity, fidelity
from .states import LayoutError, ValidationError
from .tolerances import TOL

CSV_SCHEMA_LINE = "# schema=1"
CSV_HEADER = "N,epsilon,polarization,f_avg_max"

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_REPRESENTATION = 3
EXIT_IO = 4


class UsageError(ValueError):
    """Bad flags, config keys, or inconsistent scenario parameters."""


# ---------------------------------------------------------------------------
# deterministic emitters


def _format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValidationError("refusing to serialize a non-finite number")
    return "%.17g" % x


def _emit_float_array(arr: np.ndarray) -> str:
    """Bulk form of the generic one-line list path for a 1-D float64 array:
    one vectorised finiteness check, and only the nonzero entries (``-0.0``
    included) go through ``%.17g``; exact zeros print as "0", a run of them
    as one repeated string."""
    if not arr.size:
        return "[]"
    if not np.isfinite(arr).all():
        raise ValidationError("refusing to serialize a non-finite number")
    zero = "0, "
    # each item is a run of zeros, written as one repeated string, and the
    # nonzero entry that ends it; the trailing run of zeros comes last
    items, start = [], 0
    nonzero = np.flatnonzero((arr != 0) | np.signbit(arr))
    for i, x in zip(nonzero.tolist(), arr[nonzero].tolist()):
        items.append(zero * (i - start) + "%.17g" % x)
        start = i + 1
    if start < arr.size:
        items.append(zero * (arr.size - start - 1) + "0")
    return "[" + ", ".join(items) + "]"


def _scalar_json(obj) -> Optional[str]:
    """The JSON text of None, a bool, a str, an int or a float (numpy's
    included), or None for any other value."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    return None


def _scalar_line(seq) -> Optional[str]:
    """The one-line JSON text ``[a, b, c]`` of a sequence whose members are
    all scalars, or None as soon as a member is not."""
    texts = []
    for v in seq:
        text = _scalar_json(v)
        if text is None:
            return None
        texts.append(text)
    return "[" + ", ".join(texts) + "]"


@lru_cache(maxsize=1024)
def _key_json(key: str) -> str:
    """The JSON text of a dict key and its colon; a report has few distinct
    keys but writes some of them once per outcome."""
    return f"{json.dumps(key)}: "


def emit_json(obj, indent: int = 0, write=None) -> Optional[str]:
    """Hand-rolled JSON so float formatting is pinned (17 significant digits),
    None maps to null, and key order follows insertion order.

    With ``write`` the text is passed to it piece by piece as it is made,
    and nothing is returned; without, the whole text is returned.  A list,
    tuple or array whose members are all scalars is written on one line,
    ``[a, b, c]``.  Any other container writes one member per line: each
    scalar member inline, recursing through this module-level name only
    into members that are containers or arrays.  An iterator is written as
    a list, one member per line, each drawn as its turn comes, and a
    zero-argument callable as the value it returns when called at its
    turn, so a report can be written while its parts are still computed.
    A 1-D float64 ndarray is written in bulk by ``_emit_float_array``, with
    the same bytes as its ``tolist()`` but O(1) Python calls instead of one
    per entry.  Every other array (float32, integer, 2-D) takes the generic
    path, one member at a time."""
    if write is None:
        parts = []
        emit_json(obj, indent, parts.append)
        return "".join(parts)
    if callable(obj):
        obj = obj()
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype == np.float64:
        write(_emit_float_array(obj))
        return None
    text = _scalar_json(obj)
    if text is not None:
        write(text)
        return None
    if isinstance(obj, dict):
        members = ((_key_json(str(k)), v) for k, v in obj.items())
        opening, closing = "{", "}"
    elif isinstance(obj, (list, tuple, np.ndarray, Iterator)):
        # an iterator's members cannot be looked at before they are drawn
        line = None if isinstance(obj, Iterator) else _scalar_line(obj)
        if line is not None:
            write(line)
            return None
        members = (("", v) for v in obj)
        opening, closing = "[", "]"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    first = True
    for key, v in members:
        head = f"{opening if first else ','}\n{inner}{key}"
        first = False
        text = _scalar_json(v)
        if text is None:
            write(head)
            emit_json(v, indent + 1, write)
        else:
            write(head + text)
    write(opening + closing if first else "\n" + pad + closing)
    return None


@contextmanager
def _output(path: str):
    """The write function of an output: stdout for '-', else the file at
    ``path``.  If writing fails partway, a regular file is removed again, so
    no cut-short file is left; stdout keeps what was written."""
    if path == "-":
        yield sys.stdout.write
        return
    fh = open(path, "w", encoding="utf-8")
    try:
        with fh:
            yield fh.write
    except BaseException:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.remove(path)
        raise


def _write_text(path: str, text: str) -> None:
    with _output(path) as write:
        write(text)


def _write_json(path: str, obj) -> None:
    """Stream ``obj`` to ``path`` as it is emitted, with a final newline."""
    with _output(path) as write:
        emit_json(obj, 0, write)
        write("\n")


# ---------------------------------------------------------------------------
# config plumbing


def read_flat_config(path: str) -> dict:
    """Flat key=value lines; '#' starts a comment; values stay strings."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _as_bool(raw: str) -> bool:
    text = raw.strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"not a boolean: {raw!r}")


def _float_list(raw: str) -> tuple:
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


def _int_grid(raw: str) -> tuple:
    """Accept '4', '1,2,5', or an inclusive range '1:100'."""
    text = raw.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise argparse.ArgumentTypeError(f"range syntax is lo:hi[:step], got {text!r}")
        lo, hi = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
        if step < 1 or hi < lo:
            raise argparse.ArgumentTypeError(f"empty range {text!r}")
        return tuple(range(lo, hi + 1, step))
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _resolve_epsilon(epsilon, polarization) -> tuple:
    """Exactly one of epsilon/polarization, or both consistent; returns both."""
    if epsilon is None and polarization is None:
        return 0.0, 1.0
    if epsilon is None:
        return 1.0 - polarization, polarization
    if polarization is None:
        return epsilon, 1.0 - epsilon
    if not abs((1.0 - polarization) - epsilon) <= TOL.param_agreement:
        raise UsageError(
            f"epsilon={epsilon} and polarization={polarization} disagree "
            f"(need polarization = 1 - epsilon)"
        )
    return epsilon, polarization


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulate run: circuit, MS, measurement, and reporting options."""

    kind: str
    n: int
    epsilon: float
    polarization: float
    backend: str
    measurement: str
    theta: Optional[tuple]
    g: Optional[float]
    t_m: Optional[float]
    v_odd: str
    v_even: str
    post_select: Optional[int]
    disentangle: bool
    seed: int

    def __post_init__(self):
        if self.measurement == "two_outcome":
            has_theta = self.theta is not None
            has_gt = self.g is not None and self.t_m is not None
            if has_theta == has_gt:
                raise UsageError(
                    "two_outcome needs either theta=<comma list of n+1 angles> "
                    "or both g= and t_m="
                )
            if has_theta and len(self.theta) != self.n + 1:
                raise UsageError(
                    f"theta table needs n+1={self.n + 1} entries, got {len(self.theta)}"
                )


def _scenario_from_args(args: argparse.Namespace) -> ScenarioConfig:
    if args.n is None:
        raise UsageError("scenario needs n (number of MS sites)")
    epsilon, polarization = _resolve_epsilon(args.epsilon, args.polarization)
    return ScenarioConfig(**{
        **{f.name: getattr(args, f.name) for f in fields(ScenarioConfig)},
        "epsilon": epsilon,
        "polarization": polarization,
    })


@dataclass(frozen=True)
class SweepConfig:
    """Bound sweep grid: sites x epsilon (with polarization mirrored)."""

    n_values: tuple
    pairs: tuple  # (epsilon, polarization) per series
    out: str
    fmt: str

    def __post_init__(self):
        if not self.n_values or not self.pairs:
            raise UsageError("sweep needs a non-empty N grid and epsilon/polarization list")


def _sweep_from_args(args: argparse.Namespace) -> SweepConfig:
    if args.n is None:
        raise UsageError("sweep needs n (grid of MS sizes, e.g. 1:100 or 2,4,8)")
    eps_list, pol_list = args.epsilon, args.polarization
    if eps_list is None and pol_list is None:
        raise UsageError("sweep needs epsilon=<list> or polarization=<list>")
    if eps_list is not None and pol_list is not None and len(eps_list) != len(pol_list):
        raise UsageError("epsilon and polarization lists differ in length")
    count = len(eps_list) if eps_list is not None else len(pol_list)
    pairs = tuple(
        _resolve_epsilon(
            eps_list[i] if eps_list is not None else None,
            pol_list[i] if pol_list is not None else None,
        )
        for i in range(count)
    )
    return SweepConfig(args.n, pairs, args.out, args.format or "csv")


# ---------------------------------------------------------------------------
# simulate


def _build_spec(cfg: ScenarioConfig) -> circuits.CircuitSpec:
    return circuits.CircuitSpec(cfg.kind, MsConfig(cfg.n, cfg.epsilon), backend=cfg.backend,
                                v_odd=cfg.v_odd, v_even=cfg.v_even)


def _readout(cfg: ScenarioConfig):
    if cfg.measurement == "sector_pvm":
        return measurement.sector_pvm(cfg.n)
    if cfg.measurement == "threshold_pvm":
        return measurement.threshold_pvm(cfg.n)
    if cfg.theta is not None:
        table = measurement.TwoOutcomeTheta(np.asarray(cfg.theta))
        return measurement.povm_from_theta(table)
    # with (g, t_m) given, run the explicit probe-qubit readout circuit
    return measurement.ApparatusSpec(cfg.g, cfg.t_m)


def _report_outcome(cfg: ScenarioConfig, spec, rec) -> dict:
    """The report entry of one outcome's record.

    Post states are asked for only under ``--disentangle``, and the entry
    then reports the record of the disentangled state; otherwise the
    record itself."""
    if rec.post_state is not None:
        post = circuits.disentangle(spec, rec.post_state)
        rec = measurement.post_record(rec.outcome, rec.probability, post, keep=False)
    return {
        "id": int(rec.outcome),
        "p": float(rec.probability),
        "f_odd": rec.fidelity_odd,
        "f_even": rec.fidelity_even,
        "f_best": rec.fidelity_best,
        "sectors": rec.sectors,
    }


_KeptRecord = namedtuple("_KeptRecord", "probability fidelity_best")


class _KeptOutcomes:
    """All that `average_fidelity` reads of each reported outcome, p and
    F_best, in two float arrays (8 B each per outcome).  F_best is NaN for an
    outcome below the probability floor, which `average_fidelity` skips.
    Each iteration yields the records afresh, in report order."""

    def __init__(self):
        self.p, self.f_best = array("d"), array("d")

    def append(self, entry: dict) -> None:
        self.p.append(entry["p"])
        self.f_best.append(math.nan if entry["f_best"] is None else entry["f_best"])

    def __iter__(self):
        return map(_KeptRecord, self.p, self.f_best)


def _branch_phase_diagnostics(cfg: ScenarioConfig, state):
    """For the locally-built entangler: phase of each qubit branch relative to
    the collective-flip circuit (pure states only), whose branches are the MS
    ground state |0...0> on the even branches and |1...1> on the odd ones."""
    if cfg.kind != "ghz_local":
        return None
    try:
        got = circuits.branch_ms_states(state)
    except RepresentationError:
        return None
    return {f"{j}{k}": None if v is None or w < TOL.branch_weight
            else float(np.angle(v[-1] if j ^ k else v[0]))
            for (j, k), (w, v) in got.items()}


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run one scenario and write its report as one pipeline: each outcome is
    measured, turned into its entry and written before the next is measured.
    Only p and F_best per outcome stay, for ``f_avg``, and the one entry
    that ``--post-select`` names; ``f_avg`` and the diagnostics are computed
    once the outcome list is closed, so the key order and bytes are those of
    the whole report built first."""
    cfg = _scenario_from_args(args)
    if (args.format or "json") != "json":
        raise UsageError("simulate reports are JSON only")
    spec = _build_spec(cfg)
    backend = spec.resolved_backend()
    # the readout fixes the outcome ids before any state is built
    readout = _readout(cfg)
    ids = range(readout.n_outcomes)
    if cfg.post_select is not None and cfg.post_select not in ids:
        raise UsageError(f"post_select={cfg.post_select} is not an outcome of this measurement")
    state = circuits.evolve(spec)
    kept, chosen = _KeptOutcomes(), []

    def outcomes():
        for rec in measurement.measure_each(state, readout, post_states=cfg.disentangle):
            entry = _report_outcome(cfg, spec, rec)
            # drop the post state before the next one is built
            del rec
            kept.append(entry)
            if entry["id"] == cfg.post_select:
                chosen.append(entry)
            yield entry

    def diagnostics():
        out = {
            "backend": backend,
            "pre_measurement_sectors": sector_probabilities(state),
            "branch_phases_vs_collective_flip": _branch_phase_diagnostics(cfg, state),
        }
        if cfg.post_select is not None:
            out["post_selected"] = dict(chosen[0])
        return out

    report = {
        "scenario": asdict(cfg),
        "outcomes": outcomes(),
        "f_avg": lambda: average_fidelity(kept),
        "diagnostics": diagnostics,
    }
    _write_json(args.out, report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bound sweep


def compute_bound_rows(sweep: SweepConfig) -> list:
    """Every grid row, each cross-checked between two forms, sorted by N and
    epsilon."""
    grid = bounds.bound_grid(sweep.n_values, [eps for eps, _ in sweep.pairs])
    rows = [(n, eps, pol, value)
            for n, values in zip(sweep.n_values, grid)
            for (eps, pol), value in zip(sweep.pairs, values)]
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows


def _rows_to_csv(rows) -> str:
    lines = [CSV_SCHEMA_LINE, CSV_HEADER]
    for n, eps, pol, value in rows:
        lines.append(f"{n},{eps!r},{pol!r},{value!r}")
    return "\n".join(lines) + "\n"


def _rows_to_series(rows):
    by_pol = {}
    for n, eps, pol, value in rows:
        by_pol.setdefault(pol, []).append((n, value))
    series = []
    for pol in sorted(by_pol):
        pts = sorted(by_pol[pol])
        series.append(svgchart.Series(
            f"polarization {pol:g}",
            tuple(p[0] for p in pts),
            tuple(p[1] for p in pts),
        ))
    return series


def _rows_to_svg(rows) -> str:
    return svgchart.polyline_chart(
        _rows_to_series(rows),
        x_label="number of MS sites N",
        y_label="ceiling on average Bell fidelity",
        title="Fidelity ceiling under limited polarization",
        y_range=(0.5, 1.0),
    )


def cmd_bound(args: argparse.Namespace) -> int:
    sweep = _sweep_from_args(args)
    rows = compute_bound_rows(sweep)
    fmt = sweep.fmt
    if fmt == "csv":
        _write_text(sweep.out, _rows_to_csv(rows))
    elif fmt == "json":
        payload = {
            "schema": 1,
            "rows": [
                {"n": n, "epsilon": eps, "polarization": pol, "f_avg_max": value}
                for n, eps, pol, value in rows
            ],
        }
        _write_json(sweep.out, payload)
    else:
        _write_text(sweep.out, _rows_to_svg(rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args: argparse.Namespace) -> int:
    if (args.format or "json") != "json":
        raise UsageError("verify summaries are JSON only")
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    results = [verify.run_suite(name, seed=args.seed) for name in names]
    payload = {
        "seed": args.seed,
        "passed": all(r.passed for r in results),
        "suites": [
            {
                "suite": r.suite,
                "passed": r.passed,
                "checks": [dict(c) for c in r.checks],
            }
            for r in results
        ],
    }
    _write_json(args.out, payload)
    return EXIT_OK if payload["passed"] else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# plot


def read_bound_csv(path: str) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        # (file line number, text) of every non-blank line
        body = [(i, ln.rstrip("\n")) for i, ln in enumerate(fh, 1) if ln.strip()]
    if not body or body[0][1].strip() != CSV_SCHEMA_LINE:
        raise UsageError(f"{path}: missing '{CSV_SCHEMA_LINE}' leading comment")
    if len(body) < 2 or body[1][1].strip() != CSV_HEADER:
        raise UsageError(f"{path}: expected header '{CSV_HEADER}'")
    rows = []
    for lineno, line in body[2:]:
        parts = line.split(",")
        if len(parts) != 4:
            raise UsageError(f"{path}:{lineno}: expected 4 columns, got {len(parts)}")
        try:
            row = (int(parts[0]), float(parts[1]), float(parts[2]), float(parts[3]))
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: {exc}") from exc
        if not all(math.isfinite(v) for v in row[1:]):
            raise UsageError(f"{path}:{lineno}: non-finite value in {line.strip()!r}")
        rows.append(row)
    if not rows:
        raise UsageError(f"{path}: no data rows")
    return rows


def cmd_plot(args: argparse.Namespace) -> int:
    if (args.format or "svg") != "svg":
        raise UsageError("plot emits SVG only")
    rows = read_bound_csv(args.input)
    _write_text(args.out, _rows_to_svg(rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="base RNG seed")
    common.add_argument("--out", default="-", help="output path ('-' for stdout)")
    common.add_argument("--format", choices=("csv", "json", "svg"), default=None,
                        help="output format (default depends on the subcommand)")

    parser = argparse.ArgumentParser(
        prog="mesoparity",
        description="Indirect two-qubit parity measurement through a mesoscopic "
                    "spin system: simulation, fidelity ceiling, diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", parents=[common],
                         help="run one scenario and report per-outcome fidelities")
    sim.add_argument("--config", help="flat key=value scenario file")
    sim.add_argument("--kind", default="parity_collective",
                     choices=circuits.CIRCUIT_KINDS)
    sim.add_argument("--n", type=int, help="number of MS sites")
    sim.add_argument("--epsilon", type=float)
    sim.add_argument("--polarization", type=float)
    sim.add_argument("--backend", default="auto", choices=circuits.BACKENDS)
    sim.add_argument("--measurement", default="sector_pvm",
                     choices=("sector_pvm", "threshold_pvm", "two_outcome"))
    sim.add_argument("--theta", type=_float_list,
                     help="two_outcome angle table, comma-separated (n+1 entries)")
    sim.add_argument("--g", type=float, help="probe coupling strength")
    sim.add_argument("--t-m", type=float, help="probe interaction time")
    for flag in ("--v-odd", "--v-even"):
        sim.add_argument(flag, default=circuits.TAG_IDENTITY,
                         choices=(circuits.TAG_IDENTITY, circuits.TAG_FLIP),
                         help=f"MS operation on the {flag[4:]} qubit branches "
                              "(parity_conditioned only)")
    sim.add_argument("--post-select", type=int,
                     help="outcome id to highlight in diagnostics")
    sim.add_argument("--disentangle", nargs="?", const=True, default=False, type=_as_bool,
                     help="apply the reversing gate to each post-measurement branch")
    sim.set_defaults(func=cmd_simulate,
                     config_keys=tuple(f.name for f in fields(ScenarioConfig)))

    bnd = sub.add_parser("bound", parents=[common],
                         help="sweep the average-fidelity ceiling over a grid")
    bnd.add_argument("--config", help="flat key=value sweep file")
    bnd.add_argument("--n", type=_int_grid, help="N grid: '4', '2,4,8', or '1:100'")
    bnd.add_argument("--epsilon", type=_float_list, help="comma-separated epsilons")
    bnd.add_argument("--polarization", type=_float_list,
                     help="comma-separated polarizations (1 - epsilon)")
    bnd.set_defaults(func=cmd_bound, config_keys=("n", "epsilon", "polarization"))

    ver = sub.add_parser("verify", parents=[common],
                         help="run a diagnostic suite and report residuals")
    ver.add_argument("suite", choices=verify.SUITES + ("all",))
    ver.set_defaults(func=cmd_verify)

    plt = sub.add_parser("plot", parents=[common],
                         help="render a bound CSV as an SVG chart")
    plt.add_argument("input", help="CSV file produced by the bound subcommand")
    plt.set_defaults(func=cmd_plot)
    return parser


def _config_argv(argv: list, args: argparse.Namespace) -> list:
    """The command line with the config file's keys spliced in as flags right
    after the subcommand, so that flags typed after them win.  The ``=`` form
    keeps a value that starts with '-' (``theta=-1,0.5``) a value."""
    file_cfg = read_flat_config(args.config)
    unknown = set(file_cfg) - set(args.config_keys)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in file_cfg.items()]
    return argv[:1] + flags + argv[1:]


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            args = parser.parse_args(_config_argv(argv, args))
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RepresentationError, LayoutError) as exc:
        print(f"representation error: {exc}", file=sys.stderr)
        return EXIT_REPRESENTATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
