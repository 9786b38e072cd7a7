"""Every gate and measurement leaves a random joint density a density.

The joint (q1, q2, MS) density of up to four sites, any rank, goes through
each collective gate, three per-branch tables and each post-state of each
readout; every result must pass `validate_density` (Hermitian, unit trace,
no eigenvalue below the positivity tolerance).
"""

import numpy as np
from hypothesis import given, strategies as st

from mesoparity.bounds import haar_unitary
from mesoparity.collective import (
    branch_conditional,
    collective_flip,
    edge_phase_gate,
    ghz_entangler,
)
from mesoparity.measurement import (
    TwoOutcomeTheta,
    apparatus_measure,
    measure,
    povm_from_theta,
    sector_pvm,
    threshold_pvm,
)
from mesoparity.states import (
    LABEL_MS,
    LABEL_Q1,
    LABEL_Q2,
    DensityOperator,
    SubsystemLayout,
    validate_density,
)

from helpers import HAMMING_TABLE, PARITY_TABLE, random_density_matrix


def _haar_odd_flip_even(rho, n, rng):
    haar = haar_unitary(1 << n, rng)
    return branch_conditional(rho, {(0, 0): (0,), (0, 1): haar, (1, 0): haar, (1, 1): (0,)})


GATES = {
    "flip": lambda rho, n, rng: collective_flip(rho),
    "flip_q1": lambda rho, n, rng: collective_flip(rho, controlled_on=LABEL_Q1),
    "flip_q2": lambda rho, n, rng: collective_flip(rho, controlled_on=LABEL_Q2),
    # block 0 is the first site, or all of them at n = 1
    "flip_block_0": lambda rho, n, rng: collective_flip(
        rho, blocks=(0,), block_sizes=(1, n - 1) if n > 1 else None),
    "ghz": lambda rho, n, rng: ghz_entangler(rho),
    "ghz_inverse": lambda rho, n, rng: ghz_entangler(rho, inverse=True),
    "edge_q1": lambda rho, n, rng: edge_phase_gate(rho, LABEL_Q1),
    "edge_q2": lambda rho, n, rng: edge_phase_gate(rho, LABEL_Q2),
    "parity_table": lambda rho, n, rng: branch_conditional(rho, PARITY_TABLE),
    # two halves of n // 2 and n - n // 2 sites (the first empty at n = 1)
    "hamming_table": lambda rho, n, rng: branch_conditional(
        rho, HAMMING_TABLE, block_sizes=(n // 2, n - n // 2)),
    "haar_odd_flip_even_table": _haar_odd_flip_even,
}


@st.composite
def joint_densities(draw):
    n = draw(st.integers(1, 4))
    dim = 4 << n
    rank = draw(st.integers(1, dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = SubsystemLayout((2, 2, 1 << n), (LABEL_Q1, LABEL_Q2, LABEL_MS))
    return n, DensityOperator(random_density_matrix(rng, dim, rank), layout), rng


@given(joint_densities())
def test_every_gate_output_is_a_density(case):
    n, rho, rng = case
    for name, gate in GATES.items():
        out = gate(rho, n, rng)
        assert isinstance(out, DensityOperator), name
        validate_density(out)


@given(joint_densities())
def test_every_post_state_is_a_density(case):
    n, rho, rng = case
    theta = TwoOutcomeTheta(rng.uniform(0.0, np.pi, n + 1))
    readouts = [
        measure(rho, sector_pvm(n)),
        measure(rho, threshold_pvm(n)),
        measure(rho, povm_from_theta(theta)),
        apparatus_measure(rho, theta),
    ]
    for records in readouts:
        for rec in records:
            if rec.post_state is not None:
                validate_density(rec.post_state)
