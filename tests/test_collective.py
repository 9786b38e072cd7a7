import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, strategies as st
from scipy.special import gammaln

from mesoparity.collective import (
    CollectiveBlockState,
    MsConfig,
    RepresentationError,
    SectorMixture,
    binomial_pmf,
    block_ground_state,
    branch_conditional,
    collective_flip,
    dicke_basis,
    dicke_vector,
    edge_phase_gate,
    expand_to_dense,
    ghz_entangler,
    mixture_conditional,
    mixture_prepare,
    mixture_to_dense,
    popcounts,
    sector_probabilities,
    thermal_ms_dense,
    total_excitation_grid,
)
from mesoparity import collective
from mesoparity.bounds import haar_unitary, random_collective_povm
from mesoparity.measurement import measure
from mesoparity.states import (
    LABEL_MS,
    LABEL_Q1,
    LABEL_Q2,
    DensityOperator,
    LayoutError,
    PureState,
    SubsystemLayout,
    ValidationError,
    validate_density,
)

import helpers
from helpers import (
    HAMMING_TABLE,
    PARITY_TABLE,
    dense_flip,
    dicke_columns,
    joint_controlled,
    kron_chain,
    thermal_matrix,
)


# ---------------------------------------------------------------------------
# counting and binomials


def test_popcounts_matches_bin():
    for n in (1, 3, 6):
        got = popcounts(n)
        want = [helpers.popcount(b) for b in range(1 << n)]
        np.testing.assert_array_equal(got, want)


def test_total_excitation_grid_two_blocks():
    grid = total_excitation_grid((2, 2))
    want = np.add.outer(np.arange(3), np.arange(3))
    np.testing.assert_array_equal(grid, want)


def test_binomial_pmf_exact_small():
    pmf = binomial_pmf(3, 0.25)
    want = [Fraction(27, 64), Fraction(27, 64), Fraction(9, 64), Fraction(1, 64)]
    np.testing.assert_allclose(pmf, [float(w) for w in want], atol=1e-16)


def test_binomial_pmf_against_scipy_large():
    # beyond the exact-product range the log-space path must stay accurate
    for n, p in ((120, 0.3), (200, 0.55), (500, 0.04)):
        got = binomial_pmf(n, p)
        want = scipy.stats.binom.pmf(np.arange(n + 1), n, p)
        np.testing.assert_allclose(got, want, atol=1e-14, rtol=1e-11)
        assert abs(math.fsum(got) - 1.0) < 1e-12


def test_binomial_pmf_degenerate_edges():
    np.testing.assert_array_equal(binomial_pmf(4, 0.0), [1, 0, 0, 0, 0])
    np.testing.assert_array_equal(binomial_pmf(4, 1.0), [0, 0, 0, 0, 1])


def _gammaln_binomial_pmf(n, p):
    """`binomial_pmf` as one expression with scipy's gammaln, the reference
    for its log-gamma table."""
    m = np.arange(n + 1)
    if n <= 50:
        combs = np.array([math.comb(n, k) for k in m], dtype=float)
        return combs * p**m * (1.0 - p) ** (n - m)
    return np.exp(
        gammaln(n + 1) - gammaln(m + 1) - gammaln(n - m + 1)
        + m * np.log(p) + (n - m) * np.log1p(-p)
    )


PMF_SIZES = (1, 2, 50, 51, 52, 1000, 2001)
PMF_PROBABILITIES = (1e-9, 0.140625, 0.25, 0.5, 0.859375, 1.0 - 1e-12)


def _check_pmf_sizes_interleaved(want):
    # interleave the sizes, so that a table grown wrongly, or a result shared
    # and written through, would show
    for sizes in (PMF_SIZES, PMF_SIZES[::-1], PMF_SIZES):
        for p in PMF_PROBABILITIES:
            for n in sizes:
                got = binomial_pmf(n, p)
                assert got.flags.writeable
                assert got.tobytes() == want[n, p].tobytes()
                got[:] = -1.0


def test_binomial_pmf_cache_is_bit_identical(monkeypatch):
    want = {(n, p): _gammaln_binomial_pmf(n, p)
            for n in PMF_SIZES for p in PMF_PROBABILITIES}
    _check_pmf_sizes_interleaved(want)
    table = collective._log_gamma_table(max(PMF_SIZES) + 2)
    assert not table.flags.writeable
    # a smaller request takes the larger table as it is
    assert collective._log_gamma_table(53) is table
    assert collective._lgam_table is table

    # the same from eight sweep-style threads that all start from an empty
    # table and switch often, so that they grow it concurrently
    empty = np.empty(0)
    empty.setflags(write=False)
    monkeypatch.setattr(collective, "_lgam_table", empty)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(_check_pmf_sizes_interleaved, want) for _ in range(8)]
            for fut in futures:
                fut.result(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    table = collective._lgam_table
    assert len(table) >= max(PMF_SIZES) + 2
    assert not table.flags.writeable


def test_log_gamma_table_equals_gammaln():
    # every cephes branch: the exact factorial below 13, the five-constant
    # series below 1000, the three-term one above; a libm log that rounds
    # differently from the one scipy was built against shows here
    k = np.arange(200_002)
    table = collective._log_gamma_table(len(k))
    assert table[:len(k)].tobytes() == gammaln(k).tobytes()
    for big in (10**8, 10**8 + 1, 10**12):
        assert collective._lgam(big) == gammaln(big)


@given(n=st.integers(1, 300), p=st.floats(0.0, 1.0))
def test_binomial_pmf_normalized_and_nonnegative(n, p):
    pmf = binomial_pmf(n, p)
    assert pmf.min() >= 0.0
    assert abs(math.fsum(pmf) - 1.0) < 1e-11


# ---------------------------------------------------------------------------
# MS configuration


class TestMsConfig:
    def test_polarization_roundtrip(self):
        cfg = MsConfig(4, 0.3)
        assert cfg.polarization == pytest.approx(0.7)
        assert cfg.ground_probability == pytest.approx(0.85)

    def test_sector_weights_frozen_example(self):
        np.testing.assert_allclose(
            MsConfig(2, 0.5).sector_weights(), [0.5625, 0.375, 0.0625], atol=1e-15
        )

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, float("nan")])
    def test_epsilon_range_enforced(self, bad):
        with pytest.raises(ValidationError):
            MsConfig(3, bad)

    def test_positive_size_enforced(self):
        with pytest.raises(ValidationError):
            MsConfig(0)


def test_thermal_ms_dense_matches_kron_oracle():
    for n, eps in ((1, 0.4), (3, 0.5), (4, 0.22)):
        rho = thermal_ms_dense(MsConfig(n, eps))
        np.testing.assert_allclose(rho.matrix, thermal_matrix(n, eps), atol=1e-15)


def test_thermal_ms_dense_respects_density_cap():
    with pytest.raises(LayoutError):
        thermal_ms_dense(MsConfig(12, 0.5))


def test_sector_probabilities_of_ms_only_density():
    rho = thermal_ms_dense(MsConfig(2, 0.5))
    np.testing.assert_allclose(sector_probabilities(rho), [0.5625, 0.375, 0.0625],
                               atol=1e-15)


# ---------------------------------------------------------------------------
# Dicke vectors


def test_dicke_vectors_match_independent_construction():
    for n in (1, 2, 4):
        want = dicke_columns(n)
        for m in range(n + 1):
            np.testing.assert_allclose(dicke_vector(n, m), want[:, m], atol=1e-15)
        np.testing.assert_allclose(dicke_basis(n), want, atol=1e-15)


# ---------------------------------------------------------------------------
# collective flip and per-branch tables across representations


def _hamming_oracle():
    """HAMMING_TABLE at n = 4: q1 flips sites 1-2, q2 flips sites 3-4."""
    flip2, eye4 = dense_flip(2), np.eye(4)
    return helpers.branch_unitary(4, {
        (j, k): np.kron(flip2 if j else eye4, flip2 if k else eye4)
        for j in (0, 1) for k in (0, 1)
    })


def _joint_pure(rng, n):
    lay = SubsystemLayout((2, 2, 1 << n), (LABEL_Q1, LABEL_Q2, LABEL_MS))
    return PureState(helpers.random_unit_vector(rng, lay.total_dim), lay)


def test_unconditional_flip_matches_kron_oracle(rng):
    for n in (1, 3):
        psi = _joint_pure(rng, n)
        got = collective_flip(psi)
        want = kron_chain([np.eye(2), np.eye(2), dense_flip(n)]) @ psi.amplitudes
        np.testing.assert_allclose(got.amplitudes, want, atol=1e-13)


def test_controlled_flip_matches_kron_oracle(rng):
    for n in (1, 2, 4):
        for control in (LABEL_Q1, LABEL_Q2):
            psi = _joint_pure(rng, n)
            got = collective_flip(psi, controlled_on=control)
            name = "q1" if control == LABEL_Q1 else "q2"
            want = joint_controlled(n, name, dense_flip(n)) @ psi.amplitudes
            np.testing.assert_allclose(got.amplitudes, want, atol=1e-13)


def test_flip_is_involutive(rng):
    psi = _joint_pure(rng, 3)
    twice = collective_flip(collective_flip(psi, controlled_on=LABEL_Q1),
                            controlled_on=LABEL_Q1)
    np.testing.assert_allclose(twice.amplitudes, psi.amplitudes, atol=1e-13)


def test_block_flip_acts_on_named_half(rng):
    # flip only the first half of a 4-site register, controlled on q1
    n = 4
    psi = _joint_pure(rng, n)
    got = collective_flip(psi, controlled_on=LABEL_Q1, blocks=(0,), block_sizes=(2, 2))
    half = np.kron(dense_flip(2), np.eye(4))
    want = joint_controlled(n, "q1", half) @ psi.amplitudes
    np.testing.assert_allclose(got.amplitudes, want, atol=1e-13)


def test_block_state_flip_agrees_with_dense():
    amps = np.zeros((2, 2))
    amps[0, 0] = amps[1, 1] = amps[0, 1] = amps[1, 0] = 0.5
    block = block_ground_state(amps, (3,))
    flipped = collective_flip(block, controlled_on=LABEL_Q1)
    dense = expand_to_dense(flipped)
    start = expand_to_dense(block_ground_state(amps, (3,)))
    want = joint_controlled(3, "q1", dense_flip(3)) @ start.amplitudes
    np.testing.assert_allclose(dense.amplitudes, want, atol=1e-13)


def test_branch_table_on_block_state_agrees_with_dense(rng):
    amps = rng.standard_normal((2, 2, 3, 3)) + 1j * rng.standard_normal((2, 2, 3, 3))
    block = CollectiveBlockState(amps / np.linalg.norm(amps), (2, 2))
    got = expand_to_dense(branch_conditional(block, HAMMING_TABLE))
    want = _hamming_oracle() @ expand_to_dense(block).amplitudes
    np.testing.assert_allclose(got.amplitudes, want, atol=1e-13)


def test_branch_table_refusals(rng):
    block = block_ground_state(np.full((2, 2), 0.5), (3,))
    with pytest.raises(RepresentationError):
        branch_conditional(block, {**PARITY_TABLE, (0, 1): np.eye(8)})
    psi = _joint_pure(rng, 3)
    with pytest.raises(LayoutError):
        branch_conditional(psi, {(0, 0): ()})
    with pytest.raises(LayoutError):
        branch_conditional(psi, {**PARITY_TABLE, (1, 1): (1,)})


def test_block_state_nan_amplitude_refused():
    amps = np.zeros((2, 2, 4), dtype=complex)
    amps[0, 0, 0] = 1.0
    amps[1, 1, 3] = np.nan
    with pytest.raises(ValidationError):
        CollectiveBlockState(amps, (3,))


def test_mixture_only_supports_unconditional_flip():
    mix = mixture_prepare(MsConfig(3, 0.4))
    with pytest.raises(RepresentationError):
        collective_flip(mix, controlled_on=LABEL_Q1)


# ---------------------------------------------------------------------------
# local entangler pieces


def test_ghz_entangler_matrix_form(rng):
    # A = (I - i*flip)/sqrt(2) on the MS register, identity on the qubits
    n = 3
    psi = _joint_pure(rng, n)
    got = ghz_entangler(psi)
    a = (np.eye(1 << n) - 1j * dense_flip(n)) / math.sqrt(2.0)
    want = kron_chain([np.eye(2), np.eye(2), a]) @ psi.amplitudes
    np.testing.assert_allclose(got.amplitudes, want, atol=1e-13)
    back = ghz_entangler(got, inverse=True)
    np.testing.assert_allclose(back.amplitudes, psi.amplitudes, atol=1e-12)


def test_edge_phase_gate_matches_cz_oracle(rng):
    # q1 couples to the first (most significant) site, q2 to the last
    n = 3
    psi = _joint_pure(rng, n)
    z_first = np.diag([(-1.0) ** ((b >> (n - 1)) & 1) for b in range(1 << n)])
    z_last = np.diag([(-1.0) ** (b & 1) for b in range(1 << n)])
    got1 = edge_phase_gate(psi, LABEL_Q1)
    want1 = joint_controlled(n, "q1", z_first) @ psi.amplitudes
    np.testing.assert_allclose(got1.amplitudes, want1, atol=1e-13)
    got2 = edge_phase_gate(psi, LABEL_Q2)
    want2 = joint_controlled(n, "q2", z_last) @ psi.amplitudes
    np.testing.assert_allclose(got2.amplitudes, want2, atol=1e-13)


def test_edge_phase_gate_needs_extremal_sectors():
    # when the control branch occupies an interior sector there is no
    # single-site phase inside the symmetric subspace
    amps = np.zeros((2, 2, 4), dtype=complex)
    amps[1, 0] = [0.0, 1.0, 0.0, 0.0]
    state = CollectiveBlockState(amps, (3,))
    with pytest.raises(RepresentationError):
        edge_phase_gate(state, LABEL_Q1)

    # an empty control branch imposes no constraint
    quiet = np.zeros((2, 2, 4), dtype=complex)
    quiet[0, 0] = [0.0, 1.0, 0.0, 0.0]
    out = edge_phase_gate(CollectiveBlockState(quiet, (3,)), LABEL_Q1)
    np.testing.assert_allclose(out.amplitudes, quiet, atol=1e-15)


# ---------------------------------------------------------------------------
# every gate on a density is U rho U^dag with U from the kron oracles


def _joint_density(rng, n):
    lay = SubsystemLayout((2, 2, 1 << n), (LABEL_Q1, LABEL_Q2, LABEL_MS))
    return DensityOperator(helpers.random_density_matrix(rng, lay.total_dim), lay)


def _density_gate_cases(rng, n):
    """(name, gate on a state, joint unitary) for every gate at MS size n."""
    eye2, eye = np.eye(2), np.eye(1 << n)
    flip = dense_flip(n)
    haar = haar_unitary(1 << n, rng)
    mixed = {(0, 0): (0,), (0, 1): haar, (1, 0): haar, (1, 1): (0,)}
    z_first = np.diag([(-1.0) ** ((b >> (n - 1)) & 1) for b in range(1 << n)])
    z_last = np.diag([(-1.0) ** (b & 1) for b in range(1 << n)])
    cases = [
        ("flip", collective_flip, kron_chain([eye2, eye2, flip])),
        ("flip_q1", lambda s: collective_flip(s, controlled_on=LABEL_Q1),
         joint_controlled(n, "q1", flip)),
        ("flip_q2", lambda s: collective_flip(s, controlled_on=LABEL_Q2),
         joint_controlled(n, "q2", flip)),
        ("ghz", ghz_entangler,
         kron_chain([eye2, eye2, (eye - 1j * flip) / math.sqrt(2.0)])),
        ("ghz_inverse", lambda s: ghz_entangler(s, inverse=True),
         kron_chain([eye2, eye2, (eye + 1j * flip) / math.sqrt(2.0)])),
        ("edge_q1", lambda s: edge_phase_gate(s, LABEL_Q1),
         joint_controlled(n, "q1", z_first)),
        ("edge_q2", lambda s: edge_phase_gate(s, LABEL_Q2),
         joint_controlled(n, "q2", z_last)),
        ("parity_table", lambda s: branch_conditional(s, PARITY_TABLE),
         helpers.parity_conditioned_unitary(n, flip, eye)),
        ("haar_odd_flip_even_table", lambda s: branch_conditional(s, mixed),
         helpers.parity_conditioned_unitary(n, haar, flip)),
    ]
    if n == 4:
        half = np.kron(dense_flip(2), np.eye(4))
        cases += [
            ("block_flip", lambda s: collective_flip(s, blocks=(0,), block_sizes=(2, 2)),
             kron_chain([eye2, eye2, half])),
            ("block_flip_q1",
             lambda s: collective_flip(s, controlled_on=LABEL_Q1, blocks=(0,),
                                       block_sizes=(2, 2)),
             joint_controlled(n, "q1", half)),
            ("hamming_table",
             lambda s: branch_conditional(s, HAMMING_TABLE, block_sizes=(2, 2)),
             _hamming_oracle()),
        ]
    return cases


@pytest.mark.parametrize("n", [1, 3, 4])
def test_density_gates_match_kron_conjugation(rng, n):
    rho = _joint_density(rng, n)
    for name, gate, u in _density_gate_cases(rng, n):
        got = gate(rho)
        assert isinstance(got, DensityOperator), name
        want = u @ rho.matrix @ u.conj().T
        np.testing.assert_allclose(got.matrix, want, atol=1e-12, rtol=0, err_msg=name)
        validate_density(got)


@pytest.mark.parametrize("n", [1, 3, 4])
def test_density_sector_update_matches_pure_update(rng, n):
    psi = _joint_pure(rng, n)
    povm = random_collective_povm(n, rng)
    pure, dens = measure(psi, povm), measure(psi.to_density(), povm)
    for a, b in zip(pure, dens):
        assert a.probability == pytest.approx(b.probability, abs=1e-12)
        if a.post_state is None:
            assert b.post_state is None
            continue
        v = a.post_state.amplitudes
        np.testing.assert_allclose(b.post_state.matrix, np.outer(v, v.conj()),
                                   atol=1e-12, rtol=0)


# ---------------------------------------------------------------------------
# sector probabilities


def test_sector_probabilities_consistency(rng):
    n = 3
    psi = _joint_pure(rng, n)
    probs = sector_probabilities(psi)
    pops = popcounts(n)
    t = np.abs(psi.as_tensor()) ** 2
    want = np.array([t[:, :, pops == m].sum() for m in range(n + 1)])
    np.testing.assert_allclose(probs, want, atol=1e-13)
    rho = psi.to_density()
    np.testing.assert_allclose(sector_probabilities(rho), want, atol=1e-13)


def test_sector_probabilities_mixture_matches_dense():
    mix = mixture_prepare(MsConfig(3, 0.4))
    np.testing.assert_allclose(
        sector_probabilities(mix),
        sector_probabilities(mixture_to_dense(mix)),
        atol=1e-13,
    )


# ---------------------------------------------------------------------------
# sector-resolved mixtures


class TestSectorMixture:
    def test_prepare_expands_to_product_state(self):
        for n, eps in ((2, 0.5), (3, 0.2)):
            mix = mixture_prepare(MsConfig(n, eps))
            rho = mixture_to_dense(mix)
            plus = np.full(4, 0.5)
            want = np.kron(np.outer(plus, plus), thermal_matrix(n, eps))
            np.testing.assert_allclose(rho.matrix, want, atol=1e-14)

    @pytest.mark.parametrize("odd_flip,even_flip", [
        (False, False), (True, False), (False, True), (True, True),
    ])
    def test_conditional_matches_dense_conjugation(self, odd_flip, even_flip):
        n, eps = 3, 0.45
        mix = mixture_conditional(mixture_prepare(MsConfig(n, eps)), odd_flip, even_flip)
        got = mixture_to_dense(mix).matrix
        eye = np.eye(1 << n)
        flip = dense_flip(n)
        u = helpers.parity_conditioned_unitary(
            n, flip if odd_flip else eye, flip if even_flip else eye
        )
        plus = np.full(4, 0.5)
        start = np.kron(np.outer(plus, plus), thermal_matrix(n, eps))
        want = u @ start @ u.conj().T
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_conditional_is_involutive(self):
        mix = mixture_prepare(MsConfig(4, 0.3))
        once = mixture_conditional(mix, True, False)
        twice = mixture_conditional(once, True, False)
        np.testing.assert_allclose(twice.weight_odd, mix.weight_odd, atol=1e-15)
        np.testing.assert_allclose(twice.cross, mix.cross, atol=1e-15)
        assert twice.cross_flipped == mix.cross_flipped

    def test_branch_fidelities_sum_to_one(self):
        mix = mixture_conditional(mixture_prepare(MsConfig(5, 0.6)), True, False)
        assert mix.fidelity_odd + mix.fidelity_even == pytest.approx(1.0, abs=1e-12)

    def test_weight_normalization_enforced(self):
        w = binomial_pmf(2, 0.25)
        with pytest.raises(ValidationError):
            SectorMixture(2, 2.0 * w, w, np.zeros(3))

    def test_cross_block_bounded_by_weights(self):
        w = binomial_pmf(2, 0.25)
        too_big = np.full(3, 1.0)
        with pytest.raises(ValidationError):
            SectorMixture(2, w, w, too_big)

    @pytest.mark.parametrize("weights, cross", [
        ((np.nan, 0.0, 1.0), (0.0, 0.0, 0.0)),
        ((0.5625, 0.375, 0.0625), (np.nan, 0.0, 0.0)),
    ], ids=["nan-weight", "nan-cross"])
    def test_nan_entry_refused(self, weights, cross):
        w = binomial_pmf(2, 0.25)
        with pytest.raises(ValidationError):
            SectorMixture(2, np.array(weights), w, np.array(cross))

    def test_to_dense_respects_cap(self):
        with pytest.raises(LayoutError):
            mixture_to_dense(mixture_prepare(MsConfig(16, 0.5)))


def test_expand_to_dense_of_ladder_ground():
    amps = np.zeros((2, 2, 4), dtype=complex)
    amps[0, 0, 0] = 1.0
    dense = expand_to_dense(CollectiveBlockState(amps, (3,)))
    want = np.zeros(32)
    want[0] = 1.0
    np.testing.assert_allclose(dense.amplitudes, want, atol=1e-15)
    assert dense.layout.dims == (2, 2, 8)
