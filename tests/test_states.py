import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from mesoparity.states import (
    DENSE_STATE_DIM_CAP,
    HERMITICITY_TILE,
    LABEL_MS,
    LABEL_Q1,
    LABEL_Q2,
    DensityOperator,
    LayoutError,
    PureState,
    SubsystemLayout,
    ValidationError,
    hermiticity_residual,
    partial_trace,
    validate_density,
)
from mesoparity.tolerances import TOL

from helpers import random_density_matrix, random_unit_vector, to_density


def qubit_pair_layout():
    return SubsystemLayout((2, 2), (LABEL_Q1, LABEL_Q2))


def three_slot_layout(ms_dim=4):
    return SubsystemLayout((2, 2, ms_dim), (LABEL_Q1, LABEL_Q2, LABEL_MS))


class TestSubsystemLayout:
    def test_basic_accessors(self):
        lay = three_slot_layout(8)
        assert lay.total_dim == 32
        assert lay.n_slots == 3
        assert lay.slot(LABEL_MS) == 2
        assert lay.slots(LABEL_Q1) == (0,)

    def test_ambiguous_label_resolution_rejected(self):
        lay = SubsystemLayout((2, 2), (LABEL_Q1, LABEL_Q1))
        assert lay.slots(LABEL_Q1) == (0, 1)
        with pytest.raises(LayoutError):
            lay.slot(LABEL_Q1)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(LayoutError):
            SubsystemLayout((2, 2, 4), (LABEL_Q1, LABEL_Q2))

    def test_nonpositive_dims_rejected(self):
        with pytest.raises(LayoutError):
            SubsystemLayout((2, 0), (LABEL_Q1, LABEL_Q2))

    def test_keep(self):
        kept = three_slot_layout(8).keep((2, 0))
        assert kept.dims == (8, 2)
        assert kept.labels == (LABEL_MS, LABEL_Q1)


def _density_with_nan(i, j, dtype=complex):
    m = np.eye(4, dtype=dtype) / 4.0
    m[i, j] = np.nan
    return DensityOperator(m, qubit_pair_layout())


class TestStateValidation:
    def test_pure_state_norm_enforced(self):
        lay = qubit_pair_layout()
        with pytest.raises(ValidationError):
            PureState(np.array([1.0, 1.0, 0.0, 0.0]), lay)

    def test_pure_state_length_enforced(self):
        with pytest.raises(LayoutError):
            PureState(np.zeros(3), qubit_pair_layout())

    def test_density_hermiticity_enforced(self):
        lay = qubit_pair_layout()
        m = np.eye(4) / 4.0
        m[0, 1] = 0.5
        with pytest.raises(ValidationError):
            DensityOperator(m, lay)

    def test_density_trace_enforced(self):
        with pytest.raises(ValidationError):
            DensityOperator(np.eye(4), qubit_pair_layout())

    @pytest.mark.parametrize("build", [
        lambda: _density_with_nan(0, 1),
        lambda: _density_with_nan(2, 2),
        lambda: PureState(np.array([np.nan, 0.0, 0.0, 1.0]), qubit_pair_layout()),
        lambda: _density_with_nan(2, 3, np.float64),
    ], ids=["density-off-diagonal", "density-diagonal", "pure-amplitude", "real-density"])
    def test_nan_entry_refused(self, build):
        # a NaN residual, trace or norm compares False against any tolerance,
        # so each check must be written to fail on it
        with pytest.raises(ValidationError):
            build()

    def test_validate_density_flags_negative_eigenvalues(self):
        lay = SubsystemLayout((2,), (LABEL_MS,))
        rho = DensityOperator(np.diag([1.5, -0.5]), lay)
        with pytest.raises(ValidationError):
            validate_density(rho)

    def test_dimension_cap(self):
        with pytest.raises(LayoutError):
            dim = DENSE_STATE_DIM_CAP * 2
            PureState(np.zeros(dim), SubsystemLayout((dim,), (LABEL_MS,)))


class TestDensityStorage:
    """A float64 matrix is kept real; every other dtype becomes complex."""

    def test_float64_matrix_is_kept_read_only_without_a_copy(self):
        m = np.diag([0.5, 0.25, 0.25, 0.0])
        rho = DensityOperator(m, qubit_pair_layout())
        assert rho.matrix is m
        assert rho.matrix.dtype == np.float64 and not m.flags.writeable
        assert rho.with_tensor(rho.as_tensor()).matrix.dtype == np.float64

    def test_complex_matrix_stays_complex(self):
        m = np.eye(4, dtype=complex) / 4.0
        rho = DensityOperator(m, qubit_pair_layout())
        assert rho.matrix is m and rho.matrix.dtype == np.complex128

    @pytest.mark.parametrize("m", [
        np.diag([1, 0, 0, 0]),
        np.eye(4, dtype=np.float32) / 4,
        np.eye(4, dtype=np.complex64) / 4,
    ], ids=["int", "float32", "complex64"])
    def test_other_dtypes_become_complex(self, m):
        rho = DensityOperator(m, qubit_pair_layout())
        assert rho.matrix.dtype == np.complex128
        np.testing.assert_array_equal(rho.matrix, m)


# whole tiles, partial last tiles and a single partial tile, up to the density cap
RESIDUAL_DIMS = sorted({1, 3, 255, 256, 257, 1000, 2048,
                        HERMITICITY_TILE - 1, HERMITICITY_TILE, HERMITICITY_TILE + 1})


def _exactly_hermitian(rng, d):
    """Unit-trace matrix with M[j, i] == conj(M[i, j]) bit for bit."""
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = (a + a.conj().T) * (0.5 / d)
    np.fill_diagonal(m, 1.0 / d)
    return m


class TestHermiticityResidual:
    @given(st.sampled_from(RESIDUAL_DIMS), st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, 1e-12, 1e-8, 1.0]))
    def test_equals_the_whole_matrix_residual(self, d, seed, skew):
        rng = np.random.default_rng(seed)
        m = _exactly_hermitian(rng, d)
        m += skew * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        assert hermiticity_residual(m) == np.abs(m - m.conj().T).max()

    def test_nan_propagates(self):
        m = np.eye(300, dtype=complex) / 300
        m[299, 1] = np.nan
        assert np.isnan(hermiticity_residual(m))

    @given(st.sampled_from([d for d in RESIDUAL_DIMS if d > 1]).flatmap(
               lambda d: st.tuples(st.just(d), st.integers(0, d - 1), st.integers(0, d - 1))),
           st.integers(0, 2**32 - 1))
    @example((257, 256, 3), 0)
    @example((257, 3, 256), 0)
    @example((1000, 999, 961), 1)
    @example((2048, 2047, 0), 2)
    @example((HERMITICITY_TILE + 1, HERMITICITY_TILE, HERMITICITY_TILE - 1), 3)
    def test_one_off_diagonal_perturbation_is_refused(self, dij, seed):
        d, i, j = dij
        assume(i != j)
        lay = SubsystemLayout((d,), (LABEL_MS,))
        m = _exactly_hermitian(np.random.default_rng(seed), d)
        DensityOperator(m, lay)
        bad = m.copy()
        bad[i, j] += 10 * TOL.hermiticity
        with pytest.raises(ValidationError, match="Hermitian"):
            DensityOperator(bad, lay)


class TestPartialTrace:
    def test_against_loop_oracle(self, rng):
        lay = three_slot_layout(3)
        rho = DensityOperator(random_density_matrix(rng, 12), lay)
        got = partial_trace(rho, keep=(0, 1))
        t = rho.matrix.reshape(2, 2, 3, 2, 2, 3)
        want = np.zeros((4, 4), dtype=complex)
        for j in range(2):
            for k in range(2):
                for j2 in range(2):
                    for k2 in range(2):
                        want[2 * j + k, 2 * j2 + k2] = sum(
                            t[j, k, m, j2, k2, m] for m in range(3)
                        )
        np.testing.assert_allclose(got.matrix, want, atol=1e-13)
        assert got.layout.labels == (LABEL_Q1, LABEL_Q2)

    def test_trace_of_product_state_recovers_factor(self, rng):
        a = PureState(random_unit_vector(rng, 4), qubit_pair_layout())
        b = random_unit_vector(rng, 5)
        joint = to_density(PureState(np.kron(a.amplitudes, b), three_slot_layout(5)))
        reduced = partial_trace(joint, keep=(0, 1))
        np.testing.assert_allclose(
            reduced.matrix, np.outer(a.amplitudes, a.amplitudes.conj()), atol=1e-13
        )

    @given(seed=st.integers(0, 2**32 - 1))
    def test_reduced_state_is_a_density(self, seed):
        rng = np.random.default_rng(seed)
        lay = three_slot_layout(4)
        rho = DensityOperator(random_density_matrix(rng, 16, rank=3), lay)
        reduced = partial_trace(rho, keep=(2,))
        validate_density(reduced)

