import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mesoparity.circuits import (
    BACKENDS,
    CIRCUIT_KINDS,
    TAG_FLIP,
    TAG_IDENTITY,
    CircuitSpec,
    branch_ms_states,
    disentangle,
    evolve,
    prepare_inputs,
    qubit_marginal,
)
from mesoparity.collective import (
    MsConfig,
    RepresentationError,
    SectorMixture,
    expand_to_dense,
    mixture_to_dense,
    sector_probabilities,
)
from mesoparity.states import (
    DensityOperator,
    LayoutError,
    PureState,
)

import helpers
from helpers import (
    KIND_TAGS,
    dense_flip,
    joint_controlled,
    kron_chain,
    parity_conditioned_unitary,
    thermal_matrix,
)


class TestCircuitSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            CircuitSpec("bell_builder", MsConfig(2))

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            CircuitSpec("parity_collective", MsConfig(2), backend="gpu")

    def test_hamming_needs_even_size(self):
        with pytest.raises(ValueError):
            CircuitSpec("hamming_half", MsConfig(3))

    def test_tags_only_on_conditioned_kind(self):
        with pytest.raises(ValueError):
            CircuitSpec("parity_collective", MsConfig(2), v_odd=TAG_FLIP)

    def test_unknown_tag(self):
        for field in ("v_odd", "v_even"):
            with pytest.raises(ValueError, match=field):
                CircuitSpec("parity_conditioned", MsConfig(2), **{field: "transpose"})

    def test_matrix_unitaries_checked(self, rng):
        # a tag names the blocks to flip; an explicit MS matrix, unitary or
        # not, is no tag and is refused naming the field
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        for field in ("v_odd", "v_even"):
            for bad in (np.ones((4, 4)), np.eye(4), np.linalg.qr(z)[0]):
                with pytest.raises(ValueError, match=field):
                    CircuitSpec("parity_conditioned", MsConfig(2), **{field: bad})


class TestBranchTable:
    def test_tables_of_the_tag_kinds(self):
        assert CircuitSpec("parity_collective", MsConfig(2)).ops == helpers.PARITY_TABLE
        assert CircuitSpec("hamming_half", MsConfig(2)).ops == helpers.HAMMING_TABLE
        for v_odd in (TAG_IDENTITY, TAG_FLIP):
            for v_even in (TAG_IDENTITY, TAG_FLIP):
                odd, even = ((0,) if v == TAG_FLIP else () for v in (v_odd, v_even))
                spec = CircuitSpec("parity_conditioned", MsConfig(2), v_odd=v_odd,
                                   v_even=v_even)
                assert spec.ops == {(0, 0): even, (0, 1): odd, (1, 0): odd, (1, 1): even}
        assert CircuitSpec("ghz_local", MsConfig(2)).ops is None

    def test_matrix_entries_are_the_checked_unitaries(self, rng):
        # no branch table holds a matrix: every entry is a tuple of block
        # indices, and the matrix input that once filled one is refused
        for kind in CIRCUIT_KINDS:
            ops = CircuitSpec(kind, MsConfig(2)).ops
            for blocks in (ops or {}).values():
                assert isinstance(blocks, tuple)
                assert all(isinstance(b, int) for b in blocks)
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        with pytest.raises(ValueError, match="v_even"):
            CircuitSpec("parity_conditioned", MsConfig(2), v_even=np.linalg.qr(z)[0])


D, C, LE, RE = "dense", "collective", LayoutError, RepresentationError


class TestBackendResolution:
    def test_small_auto_prefers_dense(self):
        assert CircuitSpec("parity_collective", MsConfig(3)).resolved_backend() == "dense"

    def test_large_pure_auto_falls_back_to_collective(self):
        assert CircuitSpec("parity_collective", MsConfig(40)).resolved_backend() == "collective"

    def test_large_mixed_parity_family_uses_mixture(self):
        spec = CircuitSpec("parity_conditioned", MsConfig(40, 0.3), v_odd=TAG_FLIP)
        assert spec.resolved_backend() == "collective"

    def test_dense_cap_enforced(self):
        with pytest.raises(LayoutError):
            CircuitSpec("parity_collective", MsConfig(30), backend="dense").resolved_backend()

    def test_mixed_non_parity_kinds_have_no_collective_form(self):
        spec = CircuitSpec("ghz_local", MsConfig(3, 0.2), backend="collective")
        with pytest.raises(RepresentationError):
            spec.resolved_backend()

    # the backend resolved_backend picks, or the exact error it raises, for
    # every CLI kind on each side of the dense caps: a mixed input fits up to
    # n = 9 (2^11 density), a pure one up to n = 20 (2^22 state); hamming_half
    # takes the nearest even n
    @pytest.mark.parametrize("kind, epsilon, n, dense, collective, auto", [
        ("parity_collective", 0.3, 9, D, C, D),
        ("parity_collective", 0.3, 10, LE, C, C),
        ("parity_collective", 0.0, 20, D, C, D),
        ("parity_collective", 0.0, 21, LE, C, C),
        ("parity_conditioned", 0.3, 9, D, C, D),
        ("parity_conditioned", 0.3, 10, LE, C, C),
        ("parity_conditioned", 0.0, 20, D, C, D),
        ("parity_conditioned", 0.0, 21, LE, C, C),
        ("hamming_half", 0.3, 8, D, RE, D),
        ("hamming_half", 0.3, 10, LE, RE, RE),
        ("hamming_half", 0.0, 20, D, C, D),
        ("hamming_half", 0.0, 22, LE, C, C),
        ("ghz_local", 0.3, 9, D, RE, D),
        ("ghz_local", 0.3, 10, LE, RE, RE),
        ("ghz_local", 0.0, 20, D, C, D),
        ("ghz_local", 0.0, 21, LE, C, C),
    ])
    def test_decision_table(self, kind, epsilon, n, dense, collective, auto):
        for backend, want in (("dense", dense), ("collective", collective), ("auto", auto)):
            spec = CircuitSpec(kind, MsConfig(n, epsilon), backend=backend)
            if isinstance(want, str):
                assert spec.resolved_backend() == want, backend
            else:
                with pytest.raises(ValueError) as exc:
                    spec.resolved_backend()
                assert exc.type is want, backend


class TestPrepareInputs:
    def test_pure_dense_product(self):
        spec = CircuitSpec("parity_collective", MsConfig(2), backend="dense")
        state = prepare_inputs(spec)
        want = np.kron(np.full(4, 0.5), np.eye(4)[0])
        np.testing.assert_allclose(state.amplitudes, want, atol=1e-15)

    def test_mixed_dense_product(self):
        spec = CircuitSpec("parity_collective", MsConfig(2, 0.5), backend="dense")
        state = prepare_inputs(spec)
        plus = np.full(4, 0.5)
        want = np.kron(np.outer(plus, plus), thermal_matrix(2, 0.5))
        np.testing.assert_allclose(state.matrix, want, atol=1e-15)

    def test_mixed_collective_is_sector_mixture(self):
        spec = CircuitSpec("parity_collective", MsConfig(25, 0.4), backend="collective")
        assert isinstance(prepare_inputs(spec), SectorMixture)

    def test_pure_collective_size_is_independent_of_n(self):
        # one bit per MS block: q1, q2 and the two halves of hamming_half
        spec = CircuitSpec("hamming_half", MsConfig(2000), backend="collective")
        assert prepare_inputs(spec).amplitudes.size == 16


class TestParityCollective:
    def test_matches_controlled_flip_oracle(self):
        for n in (1, 2, 4):
            spec = CircuitSpec("parity_collective", MsConfig(n), backend="dense")
            got = evolve(spec, prepare_inputs(spec))
            u = joint_controlled(n, "q2", dense_flip(n)) @ joint_controlled(
                n, "q1", dense_flip(n)
            )
            want = u @ prepare_inputs(spec).amplitudes
            np.testing.assert_allclose(got.amplitudes, want, atol=1e-13)

    def test_branch_structure(self):
        # even parity keeps |0..0>, odd parity flips to |1..1>, amplitude 1/2
        spec = CircuitSpec("parity_collective", MsConfig(3), backend="dense")
        t = evolve(spec, prepare_inputs(spec)).as_tensor()
        assert t[0, 0, 0] == pytest.approx(0.5)
        assert t[1, 1, 0] == pytest.approx(0.5)
        assert t[0, 1, 7] == pytest.approx(0.5)
        assert t[1, 0, 7] == pytest.approx(0.5)
        assert np.abs(t).sum() == pytest.approx(2.0)

    def test_backends_build_the_same_state(self):
        for n in (2, 5):
            spec_d = CircuitSpec("parity_collective", MsConfig(n), backend="dense")
            spec_c = CircuitSpec("parity_collective", MsConfig(n), backend="collective")
            dense = evolve(spec_d, prepare_inputs(spec_d))
            block = evolve(spec_c, prepare_inputs(spec_c))
            overlap = np.vdot(dense.amplitudes, expand_to_dense(block).amplitudes)
            assert abs(overlap - 1.0) < 1e-12

    def test_disentangle_reverses(self):
        spec = CircuitSpec("parity_collective", MsConfig(3), backend="dense")
        start = prepare_inputs(spec)
        back = disentangle(spec, evolve(spec, start))
        np.testing.assert_allclose(back.amplitudes, start.amplitudes, atol=1e-13)

    def test_mixed_evolution_matches_dense(self):
        n, eps = 3, 0.5
        spec_c = CircuitSpec("parity_collective", MsConfig(n, eps), backend="collective")
        mix = evolve(spec_c, prepare_inputs(spec_c))
        spec_d = CircuitSpec("parity_collective", MsConfig(n, eps), backend="dense")
        dense = evolve(spec_d, prepare_inputs(spec_d))
        gap = helpers.trace_distance_matrices(mixture_to_dense(mix).matrix, dense.matrix)
        assert gap < 1e-12


class TestHammingHalf:
    def test_matches_half_register_oracle(self):
        n = 4
        spec = CircuitSpec("hamming_half", MsConfig(n), backend="dense")
        got = evolve(spec, prepare_inputs(spec))
        first = np.kron(dense_flip(2), np.eye(4))
        second = np.kron(np.eye(4), dense_flip(2))
        u = joint_controlled(n, "q2", second) @ joint_controlled(n, "q1", first)
        want = u @ prepare_inputs(spec).amplitudes
        np.testing.assert_allclose(got.amplitudes, want, atol=1e-13)

    def test_sector_table(self):
        spec = CircuitSpec("hamming_half", MsConfig(4))
        state = evolve(spec, prepare_inputs(spec))
        np.testing.assert_allclose(
            sector_probabilities(state), [0.25, 0.0, 0.5, 0.0, 0.25], atol=1e-13
        )

    def test_sector_classes_smallest_sizes(self):
        # n=2: one site per qubit; weights are 1/4 per branch
        spec = CircuitSpec("hamming_half", MsConfig(2))
        state = evolve(spec, prepare_inputs(spec))
        np.testing.assert_allclose(
            sector_probabilities(state), [0.25, 0.5, 0.25], atol=1e-13
        )


class TestGhzLocal:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_equals_parity_up_to_branch_phase(self, n):
        spec_g = CircuitSpec("ghz_local", MsConfig(n), backend="dense")
        spec_p = CircuitSpec("parity_collective", MsConfig(n), backend="dense")
        ghz = branch_ms_states(evolve(spec_g, prepare_inputs(spec_g)))
        par = branch_ms_states(evolve(spec_p, prepare_inputs(spec_p)))
        for key, (w_p, v_p) in par.items():
            w_g, v_g = ghz[key]
            assert w_g == pytest.approx(w_p, abs=1e-12)
            overlap = abs(np.vdot(v_p, v_g))
            assert overlap > 1.0 - 1e-10

    def test_odd_branch_phase_is_quarter_turn(self):
        # the local construction leaves a factor i on the odd-parity branches
        n = 3
        spec_g = CircuitSpec("ghz_local", MsConfig(n), backend="dense")
        spec_p = CircuitSpec("parity_collective", MsConfig(n), backend="dense")
        ghz = branch_ms_states(evolve(spec_g, prepare_inputs(spec_g)))
        par = branch_ms_states(evolve(spec_p, prepare_inputs(spec_p)))
        for key, want in (((0, 0), 0.0), ((0, 1), math.pi / 2),
                          ((1, 0), math.pi / 2), ((1, 1), 0.0)):
            phase = np.angle(np.vdot(par[key][1], ghz[key][1]))
            assert phase == pytest.approx(want, abs=1e-10)

    def test_self_inverse(self):
        spec = CircuitSpec("ghz_local", MsConfig(2), backend="dense")
        start = prepare_inputs(spec)
        back = disentangle(spec, evolve(spec, start))
        np.testing.assert_allclose(back.amplitudes, start.amplitudes, atol=1e-12)


class TestParityConditioned:
    def test_identity_tags_leave_plus_plus(self):
        for eps in (0.0, 0.4):
            spec = CircuitSpec("parity_conditioned", MsConfig(3, eps), backend="dense")
            state = evolve(spec, prepare_inputs(spec))
            marg = qubit_marginal(state).matrix
            np.testing.assert_allclose(marg, np.full((4, 4), 0.25), atol=1e-12)

    @pytest.mark.parametrize("v_odd,v_even", [
        (TAG_IDENTITY, TAG_IDENTITY),
        (TAG_FLIP, TAG_IDENTITY),
        (TAG_IDENTITY, TAG_FLIP),
        (TAG_FLIP, TAG_FLIP),
    ])
    def test_tag_evolution_matches_block_oracle(self, v_odd, v_even):
        n, eps = 2, 0.5
        spec = CircuitSpec("parity_conditioned", MsConfig(n, eps), backend="dense",
                           v_odd=v_odd, v_even=v_even)
        got = evolve(spec, prepare_inputs(spec))
        eye, flip = np.eye(1 << n), dense_flip(n)
        u = parity_conditioned_unitary(
            n, flip if v_odd == TAG_FLIP else eye, flip if v_even == TAG_FLIP else eye
        )
        want = u @ prepare_inputs(spec).matrix @ u.conj().T
        np.testing.assert_allclose(got.matrix, want, atol=1e-13)

    def test_equal_parity_branches_by_construction(self):
        # the MS states correlated with |01> and |10> coincide exactly
        n = 2
        for v_o in (TAG_IDENTITY, TAG_FLIP):
            for v_e in (TAG_IDENTITY, TAG_FLIP):
                for backend in ("dense", "collective"):
                    spec = CircuitSpec("parity_conditioned", MsConfig(n), backend=backend,
                                       v_odd=v_o, v_even=v_e)
                    state = evolve(spec, prepare_inputs(spec))
                    branches = branch_ms_states(state)
                    w01, v01 = branches[(0, 1)]
                    w10, v10 = branches[(1, 0)]
                    assert w01 == pytest.approx(w10, abs=1e-14)
                    np.testing.assert_allclose(v01, v10, atol=1e-13)

    def test_mixture_route_matches_dense(self):
        n, eps = 4, 0.6
        for v_odd, v_even in ((TAG_FLIP, TAG_IDENTITY), (TAG_FLIP, TAG_FLIP)):
            spec_c = CircuitSpec("parity_conditioned", MsConfig(n, eps),
                                 backend="collective", v_odd=v_odd, v_even=v_even)
            mix = evolve(spec_c, prepare_inputs(spec_c))
            spec_d = CircuitSpec("parity_conditioned", MsConfig(n, eps),
                                 backend="dense", v_odd=v_odd, v_even=v_even)
            dense = evolve(spec_d, prepare_inputs(spec_d))
            gap = helpers.trace_distance_matrices(
                mixture_to_dense(mix).matrix, dense.matrix
            )
            assert gap < 1e-12


def _random_state(spec, start, rng):
    """A random state of ``start``'s representation."""
    if isinstance(start, PureState):
        amps = helpers.random_unit_vector(rng, start.layout.total_dim)
        return PureState(amps, start.layout, start.block_sizes)
    if isinstance(start, DensityOperator):
        d = start.layout.total_dim
        return DensityOperator(helpers.random_density_matrix(rng, d), start.layout)
    n, a = spec.ms.n, rng.uniform(0.1, 0.9)
    w_o = 2 * a * rng.dirichlet(np.ones(n + 1))
    w_e = 2 * (1 - a) * rng.dirichlet(np.ones(n + 1))
    cross = rng.uniform(-1, 1, n + 1) * np.sqrt(w_o * w_e)
    return SectorMixture(n, w_o, w_e, cross)


def _comparable(state):
    return mixture_to_dense(state).matrix if isinstance(state, SectorMixture) else state.as_tensor()


def _route(state) -> tuple:
    """A state's type and whether it holds block bits."""
    return type(state), getattr(state, "block_sizes", None) is not None


def _runs(kind) -> dict:
    """backend -> the epsilons a kind runs at on it: dense pure and density,
    block bits and, for the parity family, the sector mixture."""
    return {"dense": (0.0, 0.3), "collective": (0.0, 0.3) if kind in (
        "parity_collective", "parity_conditioned") else (0.0,)}


@KIND_TAGS
def test_disentangle_undoes_evolve(kind, tags, rng):
    """On every representation a kind runs on: dense pure, dense density, block
    bits (two for hamming_half) and, for the parity family, the sector
    mixture; from the prepared input, the evolved state and a random state."""
    runs = _runs(kind)
    seen = set()
    for backend, epsilons in runs.items():
        for eps in epsilons:
            spec = CircuitSpec(kind, MsConfig(4, eps), backend=backend, **tags)
            start = prepare_inputs(spec)
            seen.add(_route(start))
            if _route(start)[1]:
                assert start.block_sizes == spec.block_sizes
            for s in [start, evolve(spec, start), _random_state(spec, start, rng)]:
                back = disentangle(spec, evolve(spec, s))
                assert _route(back) == _route(s)
                np.testing.assert_allclose(_comparable(back), _comparable(s), atol=1e-12, rtol=0)
    assert len(seen) == len(runs["dense"]) + len(runs["collective"])


def _bits(state) -> tuple:
    """Every bit a state holds, and whether each of its arrays is writable."""
    if isinstance(state, SectorMixture):
        arrays = (state.weight_odd, state.weight_even, state.cross)
        meta = (state.n, state.cross_flipped)
    else:
        arrays = (state.matrix if isinstance(state, DensityOperator) else state.amplitudes,)
        meta = (type(state), state.layout, state.block_sizes)
    return meta, tuple((a.shape, a.tobytes()) for a in arrays), [a.flags.writeable for a in arrays]


class TestFusedEvolve:
    """`evolve(spec)` evolves the prepared input in its own array."""

    @KIND_TAGS
    def test_equals_evolve_of_the_prepared_input(self, kind, tags):
        for n in (3, 4) if kind != "hamming_half" else (4,):
            seen = set()
            for backend, epsilons in _runs(kind).items():
                for eps in epsilons:
                    spec = CircuitSpec(kind, MsConfig(n, eps), backend=backend, **tags)
                    want = evolve(spec, prepare_inputs(spec))
                    got = evolve(spec)
                    seen.add(_route(got))
                    assert _bits(got) == _bits(want)
            assert len(seen) == sum(map(len, _runs(kind).values()))

    def test_density_at_the_cap(self):
        spec = CircuitSpec("parity_collective", MsConfig(9, 0.5), backend="dense")
        got = evolve(spec)
        assert got.matrix.shape == (2048, 2048)
        assert _bits(got) == _bits(evolve(spec, prepare_inputs(spec)))

    def test_refusals_are_those_of_prepare_inputs(self):
        for spec, error in [
            (CircuitSpec("hamming_half", MsConfig(4, 0.3), backend="collective"),
             RepresentationError),
            (CircuitSpec("ghz_local", MsConfig(10, 0.3)), RepresentationError),
            (CircuitSpec("parity_collective", MsConfig(10, 0.3), backend="dense"),
             LayoutError),
        ]:
            with pytest.raises(error):
                prepare_inputs(spec)
            with pytest.raises(error):
                evolve(spec)


@KIND_TAGS
def test_evolve_and_disentangle_leave_their_argument(kind, tags):
    """The public gates never write a state they are given, on every
    representation, and leave its arrays read-only."""
    for backend, epsilons in _runs(kind).items():
        for eps in epsilons:
            spec = CircuitSpec(kind, MsConfig(4, eps), backend=backend, **tags)
            for state in (prepare_inputs(spec), evolve(spec)):
                before = _bits(state)
                assert not any(before[2])
                for gate in (evolve, disentangle):
                    gate(spec, state)
                    assert _bits(state) == before


class TestQubitMarginal:
    def test_pure_dense_against_partial_trace_oracle(self, rng):
        n = 3
        spec = CircuitSpec("parity_collective", MsConfig(n), backend="dense")
        state = evolve(spec, prepare_inputs(spec))
        got = qubit_marginal(state).matrix
        t = state.as_tensor()
        want = np.einsum("jkm,abm->jakb", t, t.conj()).reshape(4, 4)
        np.testing.assert_allclose(got, want.T.conj().T, atol=1e-13)
        assert abs(np.trace(got) - 1.0) < 1e-12

    def test_collective_matches_dense(self):
        spec_c = CircuitSpec("parity_collective", MsConfig(4), backend="collective")
        spec_d = CircuitSpec("parity_collective", MsConfig(4), backend="dense")
        m_c = qubit_marginal(evolve(spec_c, prepare_inputs(spec_c))).matrix
        m_d = qubit_marginal(evolve(spec_d, prepare_inputs(spec_d))).matrix
        np.testing.assert_allclose(m_c, m_d, atol=1e-13)

    def test_mixture_matches_dense(self):
        n, eps = 3, 0.5
        spec_c = CircuitSpec("parity_conditioned", MsConfig(n, eps),
                             backend="collective", v_odd=TAG_FLIP)
        spec_d = CircuitSpec("parity_conditioned", MsConfig(n, eps),
                             backend="dense", v_odd=TAG_FLIP)
        m_c = qubit_marginal(evolve(spec_c, prepare_inputs(spec_c))).matrix
        m_d = qubit_marginal(evolve(spec_d, prepare_inputs(spec_d))).matrix
        np.testing.assert_allclose(m_c, m_d, atol=1e-12)


def test_branch_weights_sum_to_one(rng):
    spec = CircuitSpec("hamming_half", MsConfig(4), backend="dense")
    branches = branch_ms_states(evolve(spec, prepare_inputs(spec)))
    total = sum(w for w, _ in branches.values())
    assert total == pytest.approx(1.0, abs=1e-12)
    for w, v in branches.values():
        if v is not None and w > 1e-12:
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_branch_states_of_a_mixed_state_are_a_representation_error():
    # a density or a sector mixture has no branch vectors
    for n, backend in ((3, "dense"), (20, "collective")):
        spec = CircuitSpec("parity_collective", MsConfig(n, 0.3), backend=backend)
        with pytest.raises(RepresentationError, match="pure joint state"):
            branch_ms_states(evolve(spec, prepare_inputs(spec)))
