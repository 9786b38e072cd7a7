import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from mesoparity.bounds import (
    BoundResult,
    CoefficientProgram,
    DomainError,
    ViolationReport,
    _exact_sum,
    _sum_forms,
    bound_closed_form,
    bound_coefficient_program,
    bound_grid,
    bound_sum_form,
    bound_violation_search,
    haar_unitary,
    optimal_outcome_distributions,
    optimal_strategy,
    random_collective_povm,
)
from mesoparity import bounds
from mesoparity.circuits import TAG_FLIP, TAG_IDENTITY
from mesoparity.collective import binomial_pmf
from mesoparity.states import DensityOperator, ValidationError
from mesoparity.tolerances import TOL

from helpers import exact_bound


SMALLEST_NORMAL = 2.2250738585072014e-308

# exact zeros, subnormals and normal values from 1e-300 to 1, as in a pmf's tails
SUMMANDS = st.one_of(
    st.just(0.0),
    st.floats(5e-324, SMALLEST_NORMAL, exclude_max=True),
    st.floats(1e-300, 1.0),
)


@st.composite
def permuted_summands(draw):
    arr = draw(arrays(np.float64, st.integers(0, 300), elements=SUMMANDS))
    return arr[draw(st.permutations(range(arr.size)))] if arr.size else arr


class TestExactSum:
    @given(permuted_summands())
    def test_equals_fsum_in_any_order(self, arr):
        assert _exact_sum(arr) == math.fsum(list(arr))

    def test_pmf_tails_bit_for_bit(self):
        for n, p in ((1, 0.5), (51, 0.140625), (1000, 0.359375), (2001, 0.01)):
            pmf = binomial_pmf(n, p)
            assert _exact_sum(pmf) == math.fsum(list(pmf))
            assert _exact_sum(pmf[: n // 2]) == math.fsum(list(pmf[: n // 2]))


class TestClosedForm:
    @pytest.mark.parametrize("n,eps,want", [
        (1, 0.5, 0.75),
        (2, 0.5, 0.75),
        (3, 0.5, 0.84375),
        (1, 0.0, 1.0),
        (6, 0.0, 1.0),
    ])
    def test_known_values(self, n, eps, want):
        assert bound_closed_form(n, eps) == pytest.approx(want, abs=1e-15)

    def test_large_ensemble_point(self):
        # fifty sites at half polarization already push the ceiling to 0.9999
        assert bound_closed_form(50, 0.5) == pytest.approx(0.9999, abs=5e-5)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    def test_exact_rational_brute_force(self, n):
        for eps in (Fraction(1, 2), Fraction(1, 3), Fraction(4, 5)):
            want = float(exact_bound(n, eps))
            assert bound_closed_form(n, float(eps)) == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("bad", [
        (0, 0.5), (-2, 0.5), (2.5, 0.5), (3, 1.0), (3, 1.2), (3, -0.01),
    ])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            bound_closed_form(*bad)

    def test_monotone_in_size_and_polarization(self):
        for pol in (0.5, 0.7, 0.9, 0.99):
            values = [bound_closed_form(n, 1.0 - pol) for n in range(1, 61)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        for n in (1, 4, 9, 40):
            values = [bound_closed_form(n, eps) for eps in np.linspace(0.9, 0.0, 19)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestFormAgreement:
    @given(n=st.integers(1, 120), eps=st.floats(0.0, 0.999, exclude_max=True))
    def test_three_forms_agree(self, n, eps):
        result, _ = bound_coefficient_program(n, eps)
        vals = (result.closed_form, result.sum_form, result.program_form)
        assert max(vals) - min(vals) < 1e-10

    def test_sum_form_oracle(self):
        n, eps = 5, 0.3
        p_even = binomial_pmf(n, eps / 2.0)
        p_odd = binomial_pmf(n, 1.0 - eps / 2.0)
        want = 0.5 * float(np.maximum(p_even, p_odd).sum())
        assert bound_sum_form(n, eps) == pytest.approx(want, abs=1e-14)

    def test_inconsistent_triple_rejected(self):
        with pytest.raises(ValidationError):
            BoundResult(2, 0.5, 0.75, 0.75, 0.80)

    def test_out_of_range_value_rejected(self):
        with pytest.raises(ValidationError):
            BoundResult(2, 0.5, 0.40, 0.40, 0.40)


class TestCoefficientProgram:
    def test_odd_size_beta_is_binary(self):
        _, prog = bound_coefficient_program(5, 0.4)
        assert set(np.round(prog.beta, 12)) <= {0.0, 2.0}
        mass = sum(b * m for b, m in zip(prog.beta, prog.multiplicities))
        assert mass == pytest.approx(1 << 5, abs=1e-9)

    def test_even_size_splits_median_class(self):
        n = 4
        _, prog = bound_coefficient_program(n, 0.4)
        # classes 0..n/2-1 covered fully, the central class takes half its
        # multiplicity fractionally, everything above gets nothing
        covered = sum(prog.multiplicities[: n // 2])
        expected_take = (1 << (n - 1)) - covered
        assert prog.beta[n // 2] == pytest.approx(
            2.0 * expected_take / prog.multiplicities[n // 2]
        )
        assert np.all(prog.beta[n // 2 + 1:] == 0.0)

    def test_values_descend_with_multiplicity_comb(self):
        n, eps = 6, 0.3
        _, prog = bound_coefficient_program(n, eps)
        q = 1.0 - eps / 2.0
        np.testing.assert_allclose(
            prog.distinct_values,
            [q ** (n - l) * (1 - q) ** l for l in range(n + 1)],
            atol=1e-15,
        )
        assert prog.multiplicities == tuple(math.comb(n, l) for l in range(n + 1))
        assert np.all(np.diff(prog.distinct_values) <= 0)

    def test_invalid_program_rejected(self):
        with pytest.raises(ValidationError):
            CoefficientProgram(np.array([0.5, 0.5]), (1, 1), np.array([2.0, 1.0]))

    @pytest.mark.parametrize("eps", [0.05, 0.3, 0.9])
    def test_program_agrees_with_the_closed_form_at_its_limit(self, eps):
        assert bounds.PROGRAM_N_MAX == 1023
        result, _ = bound_coefficient_program(1023, eps)
        assert abs(result.program_form - result.closed_form) <= TOL.bound_forms

    @pytest.mark.parametrize("n", [1024, 1030, 5000])
    def test_program_past_its_limit_is_refused(self, n):
        with pytest.raises(DomainError, match=r"N <= 1023, got %d" % n):
            bound_coefficient_program(n, 0.3)


def binomial_cdf(n: int, p: float, k: int) -> float:
    """B(k; n, p) = sum_{m<=k} b(m; n, p), summed exactly."""
    if k < 0:
        return 0.0
    return _exact_sum(binomial_pmf(n, p)[: min(k, n) + 1])


class TestCdf:
    def test_prefix_sums(self):
        pmf = binomial_pmf(6, 0.3)
        for k in range(-1, 7):
            want = math.fsum(pmf[: max(0, k + 1)])
            assert binomial_cdf(6, 0.3, k) == pytest.approx(want, abs=1e-15)
        assert binomial_cdf(6, 0.3, 99) == pytest.approx(1.0, abs=1e-12)


# the polarizations of the pinned `bound` reports in tests/test_cli.py
PINNED_POLARIZATIONS = ((0.5, 0.7, 0.9, 0.99), (0.28125, 0.40625, 0.59375, 0.71875))


class TestGrid:
    @pytest.mark.parametrize("pols", PINNED_POLARIZATIONS)
    def test_equals_closed_form_bit_for_bit(self, pols):
        n_values = range(1, 1001)
        epsilons = [1.0 - pol for pol in pols]
        grid = bound_grid(n_values, epsilons)
        assert len(grid) == len(n_values)
        for n, values in zip(n_values, grid):
            assert values == [bound_closed_form(n, eps) for eps in epsilons]
            assert all(type(v) is float for v in values)

    def test_one_hot_unsorted_and_repeated(self):
        n_values = (7, 50, 51, 2, 50, 1, 2000, 7, 52)
        epsilons = (0.0, 0.3, 0.0, 0.999)
        grid = bound_grid(n_values, epsilons)
        assert [[bound_closed_form(n, eps) for eps in epsilons] for n in n_values] == grid
        assert all(values[0] == values[2] == 1.0 for values in grid)

    @pytest.mark.parametrize("pols", PINNED_POLARIZATIONS)
    def test_sum_form_within_pairwise_rounding(self, pols):
        epsilons = [1.0 - pol for pol in pols]
        half = np.array(epsilons) / 2.0
        for n in range(1, 1001):
            got = _sum_forms(binomial_pmf(n, half), binomial_pmf(n, 1.0 - half))
            want = [bound_sum_form(n, eps) for eps in epsilons]
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-14

    def test_refusals_name_the_first_bad_row(self):
        with pytest.raises(DomainError, match="got 1.0"):
            bound_grid((3, 0), (0.2, 1.0))
        with pytest.raises(DomainError, match="MS size, got 0"):
            bound_grid((3, 0), (0.2, 0.5))
        with pytest.raises(DomainError, match="got -0.1"):
            bound_grid((3,), (-0.1,))

    def test_disagreeing_odd_row_fails_the_cross_check(self, monkeypatch):
        # the cross-check reads its odd rows off p = 1 - epsilon/2, so a
        # corrupt one at N = 7, epsilon = 0.3 alone must fail that row
        real = bounds.binomial_rows

        def corrupt(n_values, p):
            for n, rows in zip(n_values, real(n_values, p)):
                if n == 7:
                    rows[np.asarray(p) == 1.0 - 0.3 / 2.0] *= 1.001
                yield rows

        monkeypatch.setattr(bounds, "binomial_rows", corrupt)
        assert bound_grid((5, 6), (0.1, 0.3))
        with pytest.raises(ValidationError, match=r"N=7, eps=0\.3:"):
            bound_grid((5, 6, 7, 8), (0.1, 0.3))


class TestOptimalStrategy:
    def test_components(self):
        strat = optimal_strategy(3)
        assert strat.v_even == TAG_IDENTITY
        assert strat.v_odd == TAG_FLIP
        np.testing.assert_array_equal(strat.povm.coefficients, np.eye(4))

    def test_distributions_are_mirrored_binomials(self):
        p_odd, p_even = optimal_outcome_distributions(1, 0.5)
        np.testing.assert_allclose(p_odd.probs, [0.25, 0.75], atol=1e-15)
        np.testing.assert_allclose(p_even.probs, [0.75, 0.25], atol=1e-15)

    @given(n=st.integers(1, 40), eps=st.floats(0.0, 0.99, exclude_max=True))
    def test_distribution_fidelity_meets_bound(self, n, eps):
        p_odd, p_even = optimal_outcome_distributions(n, eps)
        f = 0.5 * np.maximum(p_odd.probs, p_even.probs).sum()
        assert f == pytest.approx(bound_closed_form(n, eps), abs=1e-12)


class TestRandomSampling:
    def test_haar_unitary_is_unitary(self, rng):
        for dim in (2, 5, 16):
            u = haar_unitary(dim, rng)
            np.testing.assert_allclose(u @ u.conj().T, np.eye(dim), atol=1e-12)

    def test_haar_determinism(self):
        a = haar_unitary(6, np.random.default_rng((7, 0)))
        b = haar_unitary(6, np.random.default_rng((7, 0)))
        np.testing.assert_array_equal(a, b)
        c = haar_unitary(6, np.random.default_rng((7, 1)))
        assert np.abs(a - c).max() > 1e-3

    def test_random_povm_is_valid(self, rng):
        for n in (1, 3, 7):
            for _ in range(10):
                povm = random_collective_povm(n, rng)
                assert 2 <= povm.n_outcomes <= n + 1
                assert povm.n_sites == n


class TestViolationSearch:
    def test_clean_report(self):
        report = bound_violation_search(3, 0.5, trials=60, seed=5)
        assert isinstance(report, ViolationReport)
        assert report.violations == 0
        assert report.max_f_avg <= report.bound + 1e-9
        assert report.eigen_max_f_avg <= report.bound + 1e-9
        assert abs(report.optimal_gap) < 1e-10
        assert report.eigen_pvm_max_gap < 1e-9

    def test_deterministic_in_seed(self):
        a = bound_violation_search(2, 0.3, trials=25, seed=11)
        b = bound_violation_search(2, 0.3, trials=25, seed=11)
        assert a == b
        c = bound_violation_search(2, 0.3, trials=25, seed=12)
        assert a.max_f_avg != c.max_f_avg

    def test_real_thermal_state_gives_the_complex_report(self, monkeypatch):
        # the Haar products promote the real rho_eps to complex exactly
        real = bound_violation_search(3, 0.4, trials=8, seed=2)
        thermal = bounds.thermal_ms_dense

        def complex_thermal(config):
            rho = thermal(config)
            return DensityOperator(rho.matrix.astype(complex), rho.layout)

        monkeypatch.setattr(bounds, "thermal_ms_dense", complex_thermal)
        assert repr(bound_violation_search(3, 0.4, trials=8, seed=2)) == repr(real)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            bound_violation_search(0, 0.5, trials=1, seed=0)
        with pytest.raises(DomainError):
            bound_violation_search(20, 0.5, trials=1, seed=0)
