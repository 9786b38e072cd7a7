"""Every gate and measurement leaves a random joint density a density.

The joint (q1, q2, MS) density of up to four sites, any rank, goes through
each collective gate, two per-branch tables and each post-state of each
readout; every result must pass `validate_density` (Hermitian, unit trace,
no eigenvalue below the positivity tolerance).

The outputs built through the `trusted` constructors, which skip the
Hermiticity scan, must be Hermitian bit for bit when their input is: the
block flips, the edge phase, `renormalized`, the support update's post
states and the prepared input.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mesoparity.circuits import CircuitSpec, evolve, prepare_inputs
from mesoparity.collective import (
    MsConfig,
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
    LayoutError,
    PureState,
    SubsystemLayout,
    ValidationError,
    hermiticity_residual,
    renormalized,
    validate_density,
)
from mesoparity.tolerances import TOL

from helpers import HAMMING_TABLE, PARITY_TABLE, random_density_matrix


GATES = {
    "flip": lambda rho, n: collective_flip(rho),
    "flip_q1": lambda rho, n: collective_flip(rho, controlled_on=LABEL_Q1),
    "flip_q2": lambda rho, n: collective_flip(rho, controlled_on=LABEL_Q2),
    # block 0 is the first site, or all of them at n = 1
    "flip_block_0": lambda rho, n: collective_flip(
        rho, blocks=(0,), block_sizes=(1, n - 1) if n > 1 else None),
    "ghz": lambda rho, n: ghz_entangler(rho),
    "ghz_inverse": lambda rho, n: ghz_entangler(rho, inverse=True),
    "edge_q1": lambda rho, n: edge_phase_gate(rho, LABEL_Q1),
    "edge_q2": lambda rho, n: edge_phase_gate(rho, LABEL_Q2),
    "parity_table": lambda rho, n: branch_conditional(rho, PARITY_TABLE),
    # two halves of n // 2 and n - n // 2 sites (the first empty at n = 1)
    "hamming_table": lambda rho, n: branch_conditional(
        rho, HAMMING_TABLE, block_sizes=(n // 2, n - n // 2)),
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
    n, rho, _ = case
    for name, gate in GATES.items():
        out = gate(rho, n)
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


# the gates whose outputs are built `trusted`: all but the GHZ entangler,
# whose complex coefficient rounds differently on the two sides
TRUSTED_GATES = {name: gate for name, gate in GATES.items() if not name.startswith("ghz")}


def _assert_exact_density(rho):
    assert isinstance(rho, DensityOperator)
    assert hermiticity_residual(rho.matrix) == 0.0
    assert abs(rho.matrix.trace().real - 1.0) <= TOL.norm


@st.composite
def exact_joint_densities(draw):
    """A `joint_densities` case whose matrix is Hermitian bit for bit."""
    n, rho, rng = draw(joint_densities())
    m = rho.matrix + rho.matrix.conj().T
    return n, DensityOperator(m / m.trace().real, rho.layout), rng


@given(exact_joint_densities())
def test_trusted_gate_outputs_keep_exact_hermiticity(case):
    n, rho, _ = case
    _assert_exact_density(rho)
    for name, gate in TRUSTED_GATES.items():
        _assert_exact_density(gate(rho, n))


@given(exact_joint_densities(), st.floats(0.01, 100.0))
def test_renormalized_keeps_exact_hermiticity(case, scale):
    _, rho, _ = case
    t = scale * rho.as_tensor()
    _assert_exact_density(renormalized(rho, t, float(t.reshape(rho.matrix.shape).trace().real)))


@given(exact_joint_densities())
def test_support_update_post_states_keep_exact_hermiticity(case):
    n, rho, rng = case
    theta = TwoOutcomeTheta(rng.uniform(0.0, np.pi, n + 1))
    for povm in (sector_pvm(n), threshold_pvm(n), povm_from_theta(theta)):
        for rec in measure(rho, povm, post_states=True):
            if rec.post_state is not None:
                _assert_exact_density(rec.post_state)


@given(st.integers(1, 4), st.floats(0.01, 0.99),
       st.sampled_from(("parity_collective", "parity_conditioned")))
def test_prepared_and_evolved_inputs_keep_exact_hermiticity(n, eps, kind):
    spec = CircuitSpec(kind, MsConfig(n, eps), backend="dense")
    _assert_exact_density(prepare_inputs(spec))
    _assert_exact_density(evolve(spec))


class TestTrustedConstructors:
    """`DensityOperator.trusted` skips only the Hermiticity scan; its cap,
    shape and trace checks stay.  `PureState.trusted` is the constructor,
    whose checks are all O(d)."""

    LAYOUT = SubsystemLayout((2, 2), (LABEL_Q1, LABEL_Q2))

    def test_density_hermiticity_is_not_scanned(self):
        m = np.eye(4) / 4.0
        m[0, 1] = 0.5
        with pytest.raises(ValidationError):
            DensityOperator(m, self.LAYOUT)
        assert DensityOperator.trusted(m, self.LAYOUT).matrix[0, 1] == 0.5

    @pytest.mark.parametrize("m, error", [
        (np.eye(4), ValidationError),
        (np.full((4, 4), np.nan), ValidationError),
        (np.eye(3) / 3.0, LayoutError),
    ], ids=["trace", "nan", "shape"])
    def test_density_keeps_its_linear_checks(self, m, error):
        with pytest.raises(error):
            DensityOperator.trusted(m, self.LAYOUT)

    @pytest.mark.parametrize("amps, error", [
        (np.ones(4), ValidationError),
        (np.array([np.nan, 0.0, 0.0, 1.0]), ValidationError),
        (np.ones(3) / np.sqrt(3.0), LayoutError),
    ], ids=["norm", "nan", "size"])
    def test_pure_state_keeps_its_linear_checks(self, amps, error):
        with pytest.raises(error):
            PureState.trusted(amps, self.LAYOUT)

    def test_only_checked_constructions_call_the_hook(self, monkeypatch):
        # the validating hook that each constructor calls, and only it
        calls = []
        for cls in (PureState, DensityOperator):
            monkeypatch.setattr(cls, "__post_init__", lambda self: calls.append(type(self)))
        DensityOperator.trusted(np.eye(4) / 4.0, self.LAYOUT)
        assert calls == []
        DensityOperator(np.eye(4) / 4.0, self.LAYOUT)
        PureState.trusted(np.array([1.0, 0.0, 0.0, 0.0]), self.LAYOUT)
        assert calls == [DensityOperator, PureState]
