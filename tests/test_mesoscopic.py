"""The paper's claim at the paper's scale: the sector mixture past the dense
cap meets the fidelity ceiling with the optimal strategy and stays below it
with random ones.

The ceiling is not asserted to be at most 1 here: from N = 2000 on, the
binomial rows put both the simulated average and the closed form a few
1e-13 above 1 (N = 8000 reads 1.0000000000016682).  The smallest N is 10,
the first past the dense cap.
"""

import numpy as np
import pytest

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
