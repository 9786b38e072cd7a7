import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mesoparity.bounds import CoefficientProgram
from mesoparity.measurement import CollectivePOVM
from mesoparity.metrics import (
    BELL_EVEN_PLUS,
    BELL_ODD_PLUS,
    BellTarget,
    OutcomeDistribution,
    average_fidelity,
    classical_trace_distance,
    fidelity,
    quantum_trace_distance,
)
from mesoparity.states import (
    LABEL_Q1,
    LABEL_Q2,
    DensityOperator,
    SubsystemLayout,
    ValidationError,
)

from helpers import random_density_matrix, random_unit_vector


NAN = float("nan")


@pytest.mark.parametrize("build", [
    lambda: CollectivePOVM([[NAN, 0.5], [0.5, 0.5]]),
    lambda: OutcomeDistribution([NAN, 0.5, 0.5]),
    lambda: CoefficientProgram(np.array([0.5, 0.25]), (1, 2), np.array([NAN, 0.5])),
    lambda: CoefficientProgram(np.array([NAN, 0.25]), (2, 2), np.array([1.0, 1.0])),
    lambda: CoefficientProgram(np.array([NAN]), (1,), np.array([1.0])),
    lambda: BellTarget("even_plus", np.array([NAN, 0, 0, 1.0])),
], ids=["povm", "distribution", "program-beta", "program-classes", "program-one-class",
        "bell-target"])
def test_nan_entry_refused(build):
    """Every bound check fails on NaN, which compares False both ways."""
    with pytest.raises(ValidationError):
        build()


class FakeRecord:
    def __init__(self, probability, fidelity_best):
        self.probability = probability
        self.fidelity_best = fidelity_best


def _density(v):
    return DensityOperator(np.outer(v, v.conj()), SubsystemLayout((2, 2), (LABEL_Q1, LABEL_Q2)))


class TestBellTargets:
    def test_vectors(self):
        s = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(BELL_EVEN_PLUS.vector, [s, 0, 0, s])
        np.testing.assert_allclose(BELL_ODD_PLUS.vector, [0, s, s, 0])

    def test_targets_are_orthogonal(self):
        assert abs(np.vdot(BELL_EVEN_PLUS.vector, BELL_ODD_PLUS.vector)) < 1e-15

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            BellTarget("psi_minus", BELL_EVEN_PLUS.vector)

    def test_non_unit_vector_rejected(self):
        with pytest.raises(ValidationError):
            BellTarget("even_plus", np.array([1.0, 1.0, 0.0, 0.0]))


class TestFidelity:
    def test_bell_states_have_unit_self_fidelity(self):
        assert fidelity(_density(BELL_EVEN_PLUS.vector), BELL_EVEN_PLUS) == pytest.approx(1.0)
        assert fidelity(_density(BELL_ODD_PLUS.vector), BELL_ODD_PLUS) == pytest.approx(1.0)

    def test_cross_fidelity_vanishes(self):
        assert fidelity(_density(BELL_EVEN_PLUS.vector), BELL_ODD_PLUS) == pytest.approx(0.0, abs=1e-15)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_overlap_for_pure_states(self, seed):
        rng = np.random.default_rng(seed)
        v = random_unit_vector(rng, 4)
        got = fidelity(_density(v), BELL_EVEN_PLUS)
        want = abs(np.vdot(BELL_EVEN_PLUS.vector, v)) ** 2
        assert got == pytest.approx(want, abs=1e-12)

    def test_rejects_wrong_dimension(self):
        lay = SubsystemLayout((2,), ("ms",))
        with pytest.raises(ValidationError):
            fidelity(DensityOperator(np.eye(2) / 2.0, lay), BELL_EVEN_PLUS)


class TestAverageFidelity:
    def test_weighted_sum(self):
        records = [FakeRecord(0.5, 1.0), FakeRecord(0.25, 0.5), FakeRecord(0.25, 0.75)]
        assert average_fidelity(records) == pytest.approx(0.5 + 0.125 + 0.1875)

    def test_zero_probability_records_skipped(self):
        records = [FakeRecord(1.0, 0.9), FakeRecord(0.0, None)]
        assert average_fidelity(records) == pytest.approx(0.9)

    def test_unnormalized_probabilities_rejected(self):
        with pytest.raises(ValidationError):
            average_fidelity([FakeRecord(0.5, 1.0)])


class TestDistributions:
    def test_negative_entries_rejected(self):
        with pytest.raises(ValidationError):
            OutcomeDistribution([1.2, -0.2])

    def test_unnormalized_rejected(self):
        with pytest.raises(ValidationError):
            OutcomeDistribution([0.4, 0.4])

    def test_classical_distance_oracle(self):
        p = OutcomeDistribution([0.7, 0.3])
        q = OutcomeDistribution([0.2, 0.8])
        assert classical_trace_distance(p, q) == pytest.approx(0.5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            classical_trace_distance([1.0], [0.5, 0.5])


class TestQuantumTraceDistance:
    def test_commuting_states_reduce_to_classical(self):
        lay = SubsystemLayout((4,), ("ms",))
        p = np.array([0.4, 0.3, 0.2, 0.1])
        q = np.array([0.1, 0.2, 0.3, 0.4])
        d = quantum_trace_distance(
            DensityOperator(np.diag(p), lay), DensityOperator(np.diag(q), lay)
        )
        assert d == pytest.approx(classical_trace_distance(p, q), abs=1e-14)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_pure_state_formula(self, seed):
        # for pure states: D = sqrt(1 - |<a|b>|^2)
        rng = np.random.default_rng(seed)
        lay = SubsystemLayout((5,), ("ms",))
        a = random_unit_vector(rng, 5)
        b = random_unit_vector(rng, 5)
        d = quantum_trace_distance(
            DensityOperator(np.outer(a, a.conj()), lay),
            DensityOperator(np.outer(b, b.conj()), lay),
        )
        want = math.sqrt(max(0.0, 1.0 - abs(np.vdot(a, b)) ** 2))
        assert d == pytest.approx(want, abs=1e-10)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_bounds_any_diagonal_measurement(self, seed):
        rng = np.random.default_rng(seed)
        lay = SubsystemLayout((6,), ("ms",))
        rho1 = DensityOperator(random_density_matrix(rng, 6), lay)
        rho2 = DensityOperator(random_density_matrix(rng, 6), lay)
        d_q = quantum_trace_distance(rho1, rho2)
        d_diag = classical_trace_distance(
            np.diagonal(rho1.matrix).real, np.diagonal(rho2.matrix).real
        )
        assert d_diag <= d_q + 1e-12

    def test_layout_mismatch_rejected(self):
        a = DensityOperator(np.eye(2) / 2.0, SubsystemLayout((2,), ("ms",)))
        b = DensityOperator(np.eye(2) / 2.0, SubsystemLayout((2,), ("q1",)))
        with pytest.raises(ValidationError):
            quantum_trace_distance(a, b)
