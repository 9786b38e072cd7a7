"""The paper's claim at the paper's scale: the sector mixture past the dense
cap meets the fidelity ceiling with the optimal strategy and stays below it
with random ones; and its Hamming-weight generalization, post-selecting
weight one, up to N = 400.

The ceiling is not asserted to be at most 1 here: from N = 2000 on, the
binomial rows put both the simulated average and the closed form a few
1e-13 above 1 (N = 8000 reads 1.0000000000016682).  The smallest N is 10,
the first past the dense cap.
"""

import math

import numpy as np
import pytest

import helpers
from mesoparity import bounds
from mesoparity.circuits import TAG_FLIP, TAG_IDENTITY, CircuitSpec, evolve
from mesoparity.collective import MsConfig, SectorMixture
from mesoparity.measurement import measure, measure_each
from mesoparity.metrics import average_fidelity
from mesoparity.tolerances import TOL

TAGS = (TAG_IDENTITY, TAG_FLIP)


def _mixture(n, eps, v_odd, v_even=TAG_IDENTITY):
    state = evolve(CircuitSpec("parity_conditioned", MsConfig(n, eps),
                               v_odd=v_odd, v_even=v_even))
    assert isinstance(state, SectorMixture)
    return state


@pytest.mark.parametrize("n", [10, 200, 2000, 2001, 8000])
@pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
def test_optimal_strategy_meets_the_ceiling(n, eps):
    strat = bounds.optimal_strategy(n)
    state = _mixture(n, eps, strat.v_odd, strat.v_even)
    f_avg = average_fidelity(list(measure_each(state, strat.povm, post_states=False)))
    assert abs(f_avg - bounds.bound_closed_form(n, eps)) <= TOL.accumulated


def test_random_strategies_stay_below_the_ceiling():
    rng = np.random.default_rng(20260)
    violations, worst = 0, -1.0
    for _ in range(200):
        n = int(rng.integers(10, 400))
        eps = float(rng.uniform(0.05, 0.95))
        v_odd, v_even = (TAGS[i] for i in rng.integers(0, 2, size=2))
        state = _mixture(n, eps, v_odd, v_even)
        povm = bounds.random_collective_povm(n, rng)
        f_avg = average_fidelity(measure(state, povm, post_states=False))
        excess = f_avg - bounds.bound_closed_form(n, eps)
        worst = max(worst, excess)
        violations += excess > TOL.violation
    assert violations == 0, f"largest excess over the ceiling {worst}"


def _weight_one(n, eps):
    """p and F_odd of the ``hamming_half`` scenario post-selected on weight
    one, the sector readout's outcome N/2, with the MS disentangled: from
    `helpers.hamming_half_mixed`, and from first principles.

    With a and b excitations in the two halves, i.i.d. Binomial(N/2, eps/2),
    branch 01 or 10 lands on sector N/2 when a = b and branch 00 or 11 when
    a + b = N/2 (a Binomial(N, eps/2) event).  The odd branches return to one
    basis state and add coherently, and so do the even ones, so
    p = (P[a = b] + P[a + b = N/2]) / 2 and F_odd = P[a = b] / (2 p)."""
    row = np.zeros(n + 1)
    row[n // 2] = 1.0
    p, f_odd, _, _ = helpers.hamming_half_mixed(n, eps, [row], disentangle=True)[0]
    half, q = n // 2, eps / 2.0
    pmf = [math.comb(half, k) * q**k * (1.0 - q) ** (half - k) for k in range(half + 1)]
    equal = math.fsum(w * w for w in pmf)
    balanced = math.comb(n, half) * q**half * (1.0 - q) ** half
    return (p, f_odd), ((equal + balanced) / 2.0, equal / (equal + balanced))


EPSILONS = (0.0, 1e-6, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)


@pytest.mark.parametrize("n", [4, 6, 10, 40, 100, 400])
def test_hamming_weight_one_post_selection(n):
    values = [_weight_one(n, eps) for eps in EPSILONS]
    for eps, ((p, f_odd), (p_want, f_want)) in zip(EPSILONS, values):
        assert p == pytest.approx(p_want, abs=TOL.roundoff, rel=0), eps
        assert f_odd == pytest.approx(f_want, abs=TOL.roundoff, rel=0), eps
    p, f = np.array([got for got, _ in values]).T
    # the ideal values at eps = 0: weight one half the time, an odd Bell pair
    assert p[0] == pytest.approx(0.5, abs=TOL.roundoff, rel=0)
    assert f[0] == pytest.approx(1.0, abs=TOL.roundoff, rel=0)
    # a fully mixed MS leaves a fully mixed pair on the odd-even line
    assert f[-1] == pytest.approx(0.5, abs=TOL.roundoff, rel=0)
    # p leaves 1/2 with slope -N/4 (P[a != b] ~ N eps / 2), and stays below
    assert (0.5 - p[1]) / EPSILONS[1] == pytest.approx(n / 4, rel=n * 1e-5)
    assert np.all(p[1:] < 0.5)
    # F falls from 1 to 1/2 as eps grows, never rising
    assert np.all(np.diff(f) <= TOL.roundoff)
    assert np.all(f[1:-1] > 0.5) and f[-2] < 1.0
