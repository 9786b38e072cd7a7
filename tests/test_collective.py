import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, strategies as st
from scipy.special import gammaln

from mesoparity.collective import (
    MsConfig,
    SectorMixture,
    binomial_pmf,
    binomial_rows,
    branch_conditional,
    collective_flip,
    edge_phase_gate,
    expand_to_dense,
    ghz_entangler,
    mixture_conditional,
    mixture_prepare,
    mixture_to_dense,
    popcounts,
    sector_probabilities,
    thermal_ms_dense,
)
from mesoparity import collective
from mesoparity.bounds import random_collective_povm
from mesoparity.circuits import (
    TAG_FLIP,
    CircuitSpec,
    branch_ms_states,
    evolve,
    prepare_inputs,
    qubit_marginal,
)
from mesoparity.measurement import measure, sector_pvm
from mesoparity.metrics import BELL_EVEN_PLUS, BELL_ODD_PLUS, fidelity
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
    joint_controlled,
    kron_chain,
    thermal_matrix,
)


def block_layout(ms_dim: int) -> SubsystemLayout:
    return SubsystemLayout((2, 2, ms_dim), (LABEL_Q1, LABEL_Q2, LABEL_MS))


def block_state(amps, block_sizes) -> PureState:
    """The block-bit state of the (2, 2) + (2,) * k amplitude array ``amps``."""
    return PureState(np.reshape(amps, -1), block_layout(1 << len(block_sizes)), block_sizes)


def block_ground_state(qubit_amplitudes, block_sizes) -> PureState:
    """Qubits in the given 2x2 amplitude table, every block all |0>."""
    amps = np.zeros((2, 2) + (2,) * len(block_sizes), dtype=complex)
    amps[(slice(None), slice(None)) + (0,) * len(block_sizes)] = qubit_amplitudes
    return block_state(amps, block_sizes)


# ---------------------------------------------------------------------------
# counting and binomials


def test_popcounts_matches_bin():
    for n in (1, 3, 6):
        got = popcounts(n)
        want = [helpers.popcount(b) for b in range(1 << n)]
        np.testing.assert_array_equal(got, want)


def test_total_excitation_grid_two_blocks():
    # bit strings 00, 01, 10, 11 in C order, block 1 the leading bit
    table = collective.excitation_index(block_ground_state(np.eye(2) / math.sqrt(2), (2, 3)))
    np.testing.assert_array_equal(table, np.reshape([0, 3, 2, 5], (1, 1, 4)))
    assert not table.flags.writeable


@pytest.mark.parametrize("state", [
    prepare_inputs(CircuitSpec("parity_collective", MsConfig(5, 0.2), backend="dense")),
    block_ground_state(np.eye(2) / math.sqrt(2), (3, 4)),
], ids=["dense", "blocks"])
def test_excitation_index_is_one_read_only_table(state):
    first, again = collective.excitation_index(state), collective.excitation_index(state)
    assert first is again
    assert first.dtype == np.intp and not first.flags.writeable
    twin = state.with_tensor(state.as_tensor().copy())
    assert collective.excitation_index(twin) is first


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


@pytest.mark.parametrize("n", [1, 2, 50, 51, 52, 999, 2000])
def test_binomial_pmf_rows_equal_scalar_calls(n):
    ps = np.array([0.0, 1e-9, 0.140625, 0.5, 0.859375, 1.0 - 1e-12, 1.0, 0.0, -0.0])
    rows = binomial_pmf(n, ps)
    assert rows.shape == (len(ps), n + 1)
    for p, row in zip(ps, rows):
        want = binomial_pmf(n, float(p))
        assert np.array_equal(row.view(np.int64), want.view(np.int64))
    assert binomial_pmf(n, ps[:0]).shape == (0, n + 1)


@pytest.mark.parametrize("p", [[0.5, 1.5], [[0.5]], [np.nan]])
def test_binomial_pmf_refuses_bad_rows(p):
    with pytest.raises(ValueError):
        binomial_pmf(3, np.array(p))


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


def _check_tables_read_only():
    sizes = [1 << (n + 1).bit_length() for n in PMF_SIZES if n > 50]
    for size in sizes:
        table = collective._log_gamma_table(size)
        assert len(table) == size
        assert not table.flags.writeable
        # a repeated size is served from the cache, not built again
        assert collective._log_gamma_table(size) is table


def test_binomial_pmf_cache_is_bit_identical():
    want = {(n, p): _gammaln_binomial_pmf(n, p)
            for n in PMF_SIZES for p in PMF_PROBABILITIES}
    _check_pmf_sizes_interleaved(want)
    _check_tables_read_only()

    # the same from eight sweep-style threads that all start from an empty
    # cache and switch often, so that they build tables concurrently
    collective._log_gamma_table.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(_check_pmf_sizes_interleaved, want) for _ in range(8)]
            for fut in futures:
                fut.result(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    _check_tables_read_only()


# across the exact/log-space switch and the log-gamma table's size steps
ROW_SIZES = (1, 50, 51, 63, 64, 127, 128, 1023, 1024, 2047, 2048)
ROW_PROBABILITIES = (0.0, 1e-9, 0.140625, 1.0 - 1e-12, 1.0)


def _reference_row(n, p):
    if p in (0.0, 1.0):
        row = np.zeros(n + 1)
        row[0 if p == 0.0 else n] = 1.0
        return row
    return _gammaln_binomial_pmf(n, p)


@pytest.mark.parametrize("sizes", [ROW_SIZES, ROW_SIZES[::-1],
                                   (2048, 51, 7, 51, 1024, 50, 7, 64, 2048)],
                         ids=["rising", "falling", "unsorted-repeated"])
@pytest.mark.parametrize("ps", [ROW_PROBABILITIES, ROW_PROBABILITIES[1:4]],
                         ids=["with-one-hot", "all-inside"])
def test_binomial_rows_equal_each_n_alone(sizes, ps):
    got = list(binomial_rows(sizes, np.array(ps)))
    assert len(got) == len(sizes)
    for n, rows in zip(sizes, got):
        assert rows.shape == (len(ps), n + 1)
        assert rows.flags.writeable
        for row, p in zip(rows, ps):
            assert row.tobytes() == _reference_row(n, p).tobytes(), (n, p)
        assert binomial_pmf(n, ps).tobytes() == rows.tobytes()
    # every array is new, a repeated N's too
    for i, a in enumerate(got):
        assert not any(np.shares_memory(a, b) for b in got[i + 1:])
    # a scalar p gives one 1-D row per N
    for p in ps:
        for n, row in zip(sizes, binomial_rows(sizes, p)):
            assert row.shape == (n + 1,)
            assert row.tobytes() == _reference_row(n, p).tobytes(), (n, p)


def test_binomial_rows_refuse_bad_input_when_called():
    # refused at the call, before any row is asked for
    with pytest.raises(ValueError, match="need n >= 1, got 0"):
        binomial_rows((3, 0), 0.5)
    with pytest.raises(ValueError, match="outside"):
        binomial_rows((3,), [0.5, 1.5])
    with pytest.raises(ValueError, match="1-D array"):
        binomial_rows((3,), [[0.5]])
    assert list(binomial_rows((), 0.5)) == []


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
        assert rho.matrix.dtype == np.float64
        np.testing.assert_allclose(rho.matrix, thermal_matrix(n, eps), atol=1e-15)


def test_thermal_ms_dense_respects_density_cap():
    with pytest.raises(LayoutError):
        thermal_ms_dense(MsConfig(12, 0.5))


def test_sector_probabilities_of_ms_only_density():
    rho = thermal_ms_dense(MsConfig(2, 0.5))
    np.testing.assert_allclose(sector_probabilities(rho), [0.5625, 0.375, 0.0625],
                               atol=1e-15)


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
    amps = rng.standard_normal((2, 2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2, 2))
    block = block_state(amps / np.linalg.norm(amps), (2, 2))
    got = expand_to_dense(branch_conditional(block, HAMMING_TABLE))
    want = _hamming_oracle() @ expand_to_dense(block).amplitudes
    np.testing.assert_allclose(got.amplitudes, want, atol=1e-13)


def test_branch_table_refusals(rng):
    psi = _joint_pure(rng, 3)
    # an entry is a tuple of blocks to flip; an MS matrix is refused everywhere
    for state in (psi, block_ground_state(np.full((2, 2), 0.5), (3,))):
        with pytest.raises(LayoutError):
            branch_conditional(state, {**PARITY_TABLE, (0, 1): np.eye(8)})
    with pytest.raises(LayoutError):
        branch_conditional(psi, {(0, 0): ()})
    with pytest.raises(LayoutError):
        branch_conditional(psi, {**PARITY_TABLE, (1, 1): (1,)})


@pytest.mark.parametrize("sizes, ms_dim", [
    ((), 1),  # no block at all
    ((2, 0), 4),  # a block of no sites
    ((3, -1), 4),
    ((3,), 4),  # a 3-site block holds one bit, not the four Dicke sectors m = 0..3
    ((2, 2), 2),
], ids=["empty", "zero-size", "negative-size", "dicke-sectors", "too-few-bits"])
def test_block_state_layout_refused(sizes, ms_dim):
    amps = np.zeros(4 * ms_dim, dtype=complex)
    amps[0] = 1.0
    with pytest.raises(LayoutError):
        PureState(amps, block_layout(ms_dim), sizes)


def test_block_state_nan_amplitude_refused():
    amps = np.zeros((2, 2, 2), dtype=complex)
    amps[0, 0, 0] = 1.0
    amps[1, 1, 1] = np.nan
    with pytest.raises(ValidationError):
        block_state(amps, (3,))


def _ms_first(state: PureState) -> PureState:
    """The same block-bit state over the layout (ms, q1, q2)."""
    q1, q2, ms = state.layout.dims
    layout = SubsystemLayout((ms, q1, q2), (LABEL_MS, LABEL_Q1, LABEL_Q2))
    return PureState(np.moveaxis(state.as_tensor(), 2, 0), layout, state.block_sizes)


def _qubits_first(t: np.ndarray) -> np.ndarray:
    return np.moveaxis(t, 0, 2)


def test_block_state_ms_slot_is_found_by_label(rng):
    # the MS slot of a block-bit state is wherever its label puts it, so the
    # sectors, the gates and the records do not depend on the slot order
    amps = rng.standard_normal((2, 2, 4)) + 1j * rng.standard_normal((2, 2, 4))
    block = block_state(amps / np.linalg.norm(amps), (2, 3))
    moved = _ms_first(block)
    np.testing.assert_allclose(sector_probabilities(moved), sector_probabilities(block),
                               atol=1e-15, rtol=0)
    excited = np.zeros((2, 2, 2))
    excited[1, 0, 0] = 1.0  # the one block all |1>, both qubits |0>
    ms_layout = SubsystemLayout((2, 2, 2), (LABEL_MS, LABEL_Q1, LABEL_Q2))
    np.testing.assert_array_equal(
        sector_probabilities(PureState(excited, ms_layout, (3,))), [0, 0, 0, 1])
    gates = [
        lambda s: collective_flip(s, controlled_on=LABEL_Q1, blocks=(0,)),
        lambda s: branch_conditional(s, HAMMING_TABLE),
        lambda s: edge_phase_gate(s, LABEL_Q2),
    ]
    for gate in gates:
        np.testing.assert_array_equal(_qubits_first(gate(moved).as_tensor()),
                                      gate(block).as_tensor())
    for got, want in zip(measure(moved, sector_pvm(5)), measure(block, sector_pvm(5))):
        assert got.probability == pytest.approx(want.probability, abs=1e-15)
        if want.post_state is None:
            assert got.post_state is None
            continue
        assert got.fidelity_odd == pytest.approx(want.fidelity_odd, abs=1e-14)
        assert got.fidelity_even == pytest.approx(want.fidelity_even, abs=1e-14)
        np.testing.assert_allclose(_qubits_first(got.post_state.as_tensor()),
                                   want.post_state.as_tensor(), atol=1e-14, rtol=0)


def test_expansion_and_branches_find_their_slots_by_label(rng):
    # expand_to_dense and branch_ms_states take the q1, q2 and MS slots by
    # their labels, so a state over (ms, q1, q2) reads as one over (q1, q2, ms)
    excited = np.zeros((2, 2, 2))
    excited[1, 0, 0] = 1.0  # the one 2-site block all |1>, both qubits |0>
    ms_layout = SubsystemLayout((2, 2, 2), (LABEL_MS, LABEL_Q1, LABEL_Q2))
    state = PureState(excited, ms_layout, (2,))
    dense = expand_to_dense(state)
    assert dense.layout.labels == (LABEL_Q1, LABEL_Q2, LABEL_MS)
    np.testing.assert_array_equal(np.flatnonzero(dense.amplitudes), [3])
    assert branch_ms_states(state)[(0, 0)][0] == 1.0
    assert branch_ms_states(_ms_first(dense))[(0, 0)][0] == 1.0
    amps = rng.standard_normal((2, 2, 4)) + 1j * rng.standard_normal((2, 2, 4))
    block = block_state(amps / np.linalg.norm(amps), (2, 3))
    np.testing.assert_array_equal(expand_to_dense(_ms_first(block)).amplitudes,
                                  expand_to_dense(block).amplitudes)
    for state in (block, expand_to_dense(block)):
        got, want = branch_ms_states(_ms_first(state)), branch_ms_states(state)
        for jk, (w, vec) in want.items():
            assert got[jk][0] == w
            np.testing.assert_array_equal(got[jk][1], vec)


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


@pytest.mark.parametrize("sizes", [(1,), (3,), (2, 3), (1, 1, 2)],
                         ids=["1", "3", "2+3", "1+1+2"])
def test_edge_phase_gate_on_block_bits_matches_cz_oracle(rng, sizes):
    # site 1 lies in block 1 and site n in the last block, whatever the blocks
    shape = (2, 2) + (2,) * len(sizes)
    amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    block = block_state(amps / np.linalg.norm(amps), sizes)
    dense = expand_to_dense(block)
    n = sum(sizes)
    z_first = np.diag([(-1.0) ** ((b >> (n - 1)) & 1) for b in range(1 << n)])
    z_last = np.diag([(-1.0) ** (b & 1) for b in range(1 << n)])
    for label, z in ((LABEL_Q1, z_first), (LABEL_Q2, z_last)):
        got = expand_to_dense(edge_phase_gate(block, label))
        np.testing.assert_array_equal(got.amplitudes, edge_phase_gate(dense, label).amplitudes)
        np.testing.assert_allclose(got.amplitudes, joint_controlled(n, label, z) @ dense.amplitudes,
                                   atol=1e-13)


# ---------------------------------------------------------------------------
# every gate on a density is U rho U^dag with U from the kron oracles


def _joint_density(rng, n):
    lay = SubsystemLayout((2, 2, 1 << n), (LABEL_Q1, LABEL_Q2, LABEL_MS))
    return DensityOperator(helpers.random_density_matrix(rng, lay.total_dim), lay)


def _density_gate_cases(n):
    """(name, gate on a state, joint unitary) for every gate at MS size n."""
    eye2, eye = np.eye(2), np.eye(1 << n)
    flip = dense_flip(n)
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
    for name, gate, u in _density_gate_cases(n):
        got = gate(rho)
        assert isinstance(got, DensityOperator), name
        want = u @ rho.matrix @ u.conj().T
        np.testing.assert_allclose(got.matrix, want, atol=1e-12, rtol=0, err_msg=name)
        validate_density(got)


@pytest.fixture(scope="module")
def thermal_density_n9():
    """The parity-conditioned circuit at N = 9 and its thermal input, the
    largest density the dense backend holds (2^11 x 2^11, 64 MB)."""
    spec = CircuitSpec("parity_conditioned", MsConfig(9, 0.5), backend="dense",
                       v_odd=TAG_FLIP)
    return spec, prepare_inputs(spec)


@pytest.mark.parametrize("gate", ["evolve", "edge_q1"])
def test_density_gate_allocates_one_joint_array(thermal_density_n9, gate):
    """A block flip or an edge phase writes a density's two sides in one
    pass: its peak is the one output array, not an output per side."""
    spec, rho = thermal_density_n9
    run = {"evolve": lambda: evolve(spec, rho),
           "edge_q1": lambda: edge_phase_gate(rho, LABEL_Q1)}[gate]
    tracemalloc.start()
    try:
        out = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(out, DensityOperator)
    assert peak <= 1.1 * rho.matrix.nbytes


@pytest.mark.parametrize("n", [1, 3, 4])
def test_density_sector_update_matches_pure_update(rng, n):
    psi = _joint_pure(rng, n)
    povm = random_collective_povm(n, rng)
    pure, dens = measure(psi, povm), measure(helpers.to_density(psi), povm)
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
    rho = helpers.to_density(psi)
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
        marg = qubit_marginal(mix)
        f_odd, f_even = fidelity(marg, BELL_ODD_PLUS), fidelity(marg, BELL_EVEN_PLUS)
        assert f_odd + f_even == pytest.approx(1.0, abs=1e-12)

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
    amps = np.zeros((2, 2, 2), dtype=complex)
    amps[0, 0, 0] = 1.0
    dense = expand_to_dense(block_state(amps, (3,)))
    want = np.zeros(32)
    want[0] = 1.0
    np.testing.assert_array_equal(dense.amplitudes, want)
    assert dense.layout.dims == (2, 2, 8)
    # s = 1 lands on the block's all-ones index, here q1 q2 = 10
    amps = np.zeros((2, 2, 2), dtype=complex)
    amps[1, 0, 1] = 1.0
    want = np.zeros(32)
    want[2 * 8 + 7] = 1.0
    np.testing.assert_array_equal(expand_to_dense(block_state(amps, (3,))).amplitudes, want)
