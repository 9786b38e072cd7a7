"""The benchmark workloads: CLI arguments drawn from a seed, and an output
check against an oracle that shares no code with mesoparity.

The oracle is the closed-form ceiling on the average Bell fidelity, computed
with ``scipy.stats.binom``:

    odd N:  B((N-1)/2; N, eps/2)
    even N: B(N/2 - 1; N, eps/2) + b(N/2; N, eps/2) / 2

The optimal strategy (odd branch flipped, sectors read out exactly) meets it,
and at eps = 0 it is 1, which is what the pure-state circuit reaches.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

ORACLE_TOL = 1e-10

# N per workload.  mixture-large is the quadratic SectorMixture path, scaled
# from the 4000 of the first probe to 2000 so that one timed run holds several
# invocations; emission still dominates it.  dense-mixed and dense-pure sit at
# the dense caps (2^11 density, 2^22 amplitudes).
MIXTURE_N = 2000
DENSE_MIXED_N = 9
DENSE_PURE_N = 20
SWEEP_N_MAX = 1000
SWEEP_SERIES = 4

# The live-outcome count of the mixture path, and so its time and report size,
# grows with eps; a narrow range keeps runs at different seeds comparable.
MIXTURE_EPS_RANGE = (0.49, 0.51)
WIDE_RANGE = (0.2, 0.8)
# Odd multiples of 1/32 in WIDE_RANGE: p and 1 - p both print with five
# decimals, so the CSV size does not depend on which ones the seed picks.
SWEEP_POLARIZATIONS = tuple(k / 32 for k in range(7, 26, 2))


@dataclass(frozen=True)
class Invocation:
    """One CLI call: arguments after ``python -m mesoparity`` (``--out`` is
    added by the harness) and the drawn inputs recorded with the results."""

    workload: str
    argv: tuple
    inputs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    report_suffix: str

    def invocation(self, seed: int, n: int | None = None) -> Invocation:
        return _INVOCATIONS[self.name](seed, n)

    def check(self, inv: Invocation, text: str) -> list:
        """Problems found in a report; empty when it matches the oracle."""
        try:
            return _CHECKERS[self.name](inv, text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable report: {type(exc).__name__}: {exc}"]


def _draw(seed: int, lo: float, hi: float) -> float:
    return round(random.Random(seed).uniform(lo, hi), 4)


def _mixture_argv(n: int, eps: float) -> tuple:
    return ("simulate", "--kind", "parity_conditioned", "--v-odd", "collective_flip",
            "--measurement", "sector_pvm", "--n", str(n), "--epsilon", repr(eps))


def _mixture_large(seed, n):
    n = MIXTURE_N if n is None else n
    eps = _draw(seed, *MIXTURE_EPS_RANGE)
    return Invocation("mixture-large", _mixture_argv(n, eps), {"n": n, "epsilon": eps})


def _dense_mixed(seed, n):
    n = DENSE_MIXED_N if n is None else n
    eps = _draw(seed, *WIDE_RANGE)
    return Invocation("dense-mixed", _mixture_argv(n, eps), {"n": n, "epsilon": eps})


def _dense_pure(seed, n):
    n = DENSE_PURE_N if n is None else n
    argv = ("simulate", "--kind", "ghz_local", "--n", str(n), "--disentangle")
    return Invocation("dense-pure", argv, {"n": n, "epsilon": 0.0})


def _bound_sweep(seed, n):
    n = SWEEP_N_MAX if n is None else n
    pols = sorted(random.Random(seed).sample(SWEEP_POLARIZATIONS, SWEEP_SERIES))
    argv = ("bound", "--n", f"1:{n}", "--polarization", ",".join(map(repr, pols)),
            "--format", "csv")
    return Invocation("bound-sweep", argv, {"n_max": n, "polarization": pols})


def ceiling(n, epsilon):
    """Oracle ceiling for scalar or array n (numpy broadcasting)."""
    import numpy as np
    from scipy.stats import binom

    n = np.asarray(n)
    p = epsilon / 2.0
    odd = binom.cdf((n - 1) // 2, n, p)
    even = binom.cdf(n // 2 - 1, n, p) + 0.5 * binom.pmf(n // 2, n, p)
    return np.where(n % 2 == 1, odd, even)


def _check_simulate(inv: Invocation, text: str) -> list:
    report = json.loads(text)
    n, eps = inv.inputs["n"], inv.inputs["epsilon"]
    probs = [o["p"] for o in report["outcomes"]]
    problems = []
    if len(probs) != n + 1:
        problems.append(f"{len(probs)} outcomes, expected {n + 1}")
    total = math.fsum(probs)
    if abs(total - 1.0) > ORACLE_TOL:
        problems.append(f"outcome probabilities sum to {total!r}")
    want = float(ceiling(n, eps))
    got = report["f_avg"]
    if abs(got - want) > ORACLE_TOL:
        problems.append(f"f_avg {got!r} differs from the ceiling {want!r}")
    return problems


def _check_sweep(inv: Invocation, text: str) -> list:
    import numpy as np

    lines = text.splitlines()
    if lines[:2] != ["# schema=1", "N,epsilon,polarization,f_avg_max"]:
        return [f"unexpected CSV head {lines[:2]!r}"]
    pols = inv.inputs["polarization"]
    n_max = inv.inputs["n_max"]
    got = {}
    problems = []
    for line in lines[2:]:
        n, _eps, pol, value = line.split(",")
        key = (int(n), float(pol))
        if key in got:
            problems.append(f"duplicate row for N={key[0]}, polarization={key[1]}")
        got[key] = float(value)
    want_keys = {(n, pol) for n in range(1, n_max + 1) for pol in pols}
    if set(got) != want_keys:
        problems.append(f"{len(set(got) ^ want_keys)} grid points missing or unexpected")
    ns = np.arange(1, n_max + 1)
    for pol in pols:
        want = ceiling(ns, 1.0 - pol)
        have = np.array([got.get((int(n), pol), np.nan) for n in ns])
        worst = np.nanmax(np.abs(have - want)) if np.isfinite(have).any() else np.inf
        if not worst <= ORACLE_TOL:
            problems.append(f"polarization {pol}: worst row off the oracle by {worst!r}")
    return problems


_INVOCATIONS = {
    "mixture-large": _mixture_large,
    "dense-mixed": _dense_mixed,
    "dense-pure": _dense_pure,
    "bound-sweep": _bound_sweep,
}
_CHECKERS = {
    "mixture-large": _check_simulate,
    "dense-mixed": _check_simulate,
    "dense-pure": _check_simulate,
    "bound-sweep": _check_sweep,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("mixture-large",
                 "SectorMixture simulate at N=2000: the only path past the dense cap; "
                 "report emission dominates", ".json"),
        Workload("dense-mixed",
                 "DensityOperator simulate at the 2^11 cap: the exact mixed-state "
                 "reference; density updates dominate", ".json"),
        Workload("dense-pure",
                 "PureState ghz_local simulate at the 2^22 cap with disentangle: "
                 "ket gates, entangler and branch diagnostics", ".json"),
        Workload("bound-sweep",
                 "bound over N=1..1000 at 4 polarizations: the paper's figure; "
                 "only bounds and the cli pool run", ".csv"),
    )
}
