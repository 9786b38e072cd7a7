import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mesoparity.bounds import optimal_strategy, random_collective_povm
from mesoparity.circuits import (
    CIRCUIT_KINDS,
    TAG_FLIP,
    TAG_IDENTITY,
    CircuitSpec,
    evolve,
    prepare_inputs,
    qubit_marginal,
)
from mesoparity.collective import (
    MsConfig,
    SectorMixture,
    excitation_index,
    expand_to_dense,
    mixture_to_dense,
    popcounts,
    sector_diagonal,
    sector_probabilities,
)
from mesoparity import measurement
from mesoparity.measurement import (
    ApparatusSpec,
    CollectivePOVM,
    OutcomeRecord,
    TwoOutcomeTheta,
    apparatus_measure,
    measure,
    measure_each,
    povm_from_theta,
    sector_pvm,
    threshold_pvm,
)
from mesoparity.metrics import BELL_EVEN_PLUS, BELL_ODD_PLUS, fidelity
from mesoparity.states import (
    LABEL_MS,
    LABEL_Q1,
    LABEL_Q2,
    DensityOperator,
    LayoutError,
    PureState,
    ReadOnly,
    SubsystemLayout,
    ValidationError,
    apply_kernel,
    renormalized,
)
from mesoparity.tolerances import TOL

import helpers


def _joint_pure(rng, n):
    lay = SubsystemLayout((2, 2, 1 << n), (LABEL_Q1, LABEL_Q2, LABEL_MS))
    return PureState(helpers.random_unit_vector(rng, lay.total_dim), lay)


def _joint_density(rng, n):
    lay = SubsystemLayout((2, 2, 1 << n), (LABEL_Q1, LABEL_Q2, LABEL_MS))
    return DensityOperator(helpers.random_density_matrix(rng, lay.total_dim), lay)


def _readout(name, n):
    if name == "sector":
        return sector_pvm(n)
    if name == "threshold":
        return threshold_pvm(n)
    # theta = 0 makes the sin^2 outcome vanish exactly on every other sector
    return povm_from_theta(TwoOutcomeTheta(np.where(np.arange(n + 1) % 2, 0.9, 0.0)))


def _full_update(state, a, p):
    """Reference: the square-root update on the whole joint tensor."""
    t = state.as_tensor()
    weight = apply_kernel(state, sector_diagonal(np.sqrt(a), excitation_index(state)),
                          np.ones((1,) * t.ndim))
    return renormalized(state, t * weight, p)


def _evolved_pure_states(n):
    """Every circuit kind's evolved pure state at n sites, dense and in blocks."""
    for kind in CIRCUIT_KINDS:
        if kind == "hamming_half" and n % 2:
            continue
        v_odd = TAG_FLIP if kind == "parity_conditioned" else TAG_IDENTITY
        for backend in ("dense", "collective"):
            spec = CircuitSpec(kind, MsConfig(n), backend=backend, v_odd=v_odd)
            yield evolve(spec, prepare_inputs(spec))


def _ulps(got, want):
    return abs(got - want) / np.spacing(abs(want))


class TestPovmConstruction:
    def test_valid_table_accepted(self):
        povm = CollectivePOVM([[0.25, 1.0], [0.75, 0.0]])
        assert povm.n_sites == 1
        assert povm.n_outcomes == 2

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValidationError):
            CollectivePOVM([[1.2, 1.0], [-0.2, 0.0]])

    def test_incomplete_columns_rejected(self):
        with pytest.raises(ValidationError):
            CollectivePOVM([[0.5, 0.5], [0.4, 0.5]])

    def test_theta_family_rows(self):
        table = TwoOutcomeTheta.linear(2, 1.0, 0.3)
        np.testing.assert_allclose(table.theta, [0.0, 0.3, 0.6], atol=1e-15)
        povm = povm_from_theta(table)
        np.testing.assert_allclose(
            povm.coefficients[0], np.cos(table.theta) ** 2, atol=1e-15
        )
        np.testing.assert_allclose(
            povm.coefficients.sum(axis=0), np.ones(3), atol=1e-15
        )

    def test_threshold_split(self):
        np.testing.assert_array_equal(
            threshold_pvm(2).coefficients, [[1, 1, 0], [0, 0, 1]]
        )
        np.testing.assert_array_equal(
            threshold_pvm(3).coefficients, [[1, 1, 0, 0], [0, 0, 1, 1]]
        )

    def test_sector_pvm_resolves_everything(self):
        np.testing.assert_array_equal(sector_pvm(3).coefficients, np.eye(4))

    def test_apparatus_spec_validation(self):
        with pytest.raises(ValidationError):
            ApparatusSpec(g=-1.0, t_m=2.0)
        assert ApparatusSpec(1.0, 0.5).theta(2).theta[2] == pytest.approx(1.0)


class TestSqrtRule:
    def test_probabilities_follow_sector_distribution(self, rng):
        n = 3
        state = _joint_pure(rng, n)
        povm = random_collective_povm(n, rng)
        records = measure(state, povm)
        want = povm.coefficients @ sector_probabilities(state)
        np.testing.assert_allclose([r.probability for r in records], want, atol=1e-13)

    def test_pure_posterior_matches_explicit_filter(self, rng):
        n = 2
        state = _joint_pure(rng, n)
        povm = random_collective_povm(n, rng)
        pops = popcounts(n)
        for rec in measure(state, povm):
            if rec.post_state is None:
                continue
            a = povm.coefficients[rec.outcome]
            filt = np.kron(np.eye(4), np.diag(np.sqrt(a[pops])))
            want = filt @ state.amplitudes
            want /= np.linalg.norm(want)
            np.testing.assert_allclose(rec.post_state.amplitudes, want, atol=1e-12)

    def test_density_posterior_matches_explicit_filter(self, rng):
        n = 2
        rho = helpers.to_density(_joint_pure(rng, n))
        povm = random_collective_povm(n, rng)
        pops = popcounts(n)
        for rec in measure(rho, povm):
            if rec.post_state is None:
                continue
            a = povm.coefficients[rec.outcome]
            filt = np.kron(np.eye(4), np.diag(np.sqrt(a[pops])))
            want = filt @ rho.matrix @ filt
            want /= np.trace(want).real
            np.testing.assert_allclose(rec.post_state.matrix, want, atol=1e-12)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_probabilities_normalize(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        state = _joint_pure(rng, n)
        povm = random_collective_povm(n, rng)
        records = measure(state, povm)
        assert abs(math.fsum(r.probability for r in records) - 1.0) < 1e-12
        for rec in records:
            assert rec.probability >= -1e-14
            if rec.post_state is not None:
                assert abs(np.linalg.norm(rec.post_state.amplitudes) - 1.0) < 1e-10

    def test_size_mismatch_rejected(self, rng):
        with pytest.raises(LayoutError):
            measure(_joint_pure(rng, 3), sector_pvm(2))

    def test_zero_probability_outcome_reports_none(self):
        spec = CircuitSpec("parity_collective", MsConfig(2), backend="dense")
        state = evolve(spec, prepare_inputs(spec))
        records = measure(state, sector_pvm(2))
        assert records[1].probability == pytest.approx(0.0, abs=1e-14)
        assert records[1].post_state is None
        assert records[1].fidelity_best is None

    def test_collective_backend_matches_dense(self, rng):
        n = 4
        spec_c = CircuitSpec("parity_collective", MsConfig(n), backend="collective")
        spec_d = CircuitSpec("parity_collective", MsConfig(n), backend="dense")
        povm = random_collective_povm(n, rng)
        rec_c = measure(evolve(spec_c, prepare_inputs(spec_c)), povm)
        rec_d = measure(evolve(spec_d, prepare_inputs(spec_d)), povm)
        for a, b in zip(rec_c, rec_d):
            assert a.probability == pytest.approx(b.probability, abs=1e-13)
            if a.post_state is not None and a.probability > 1e-12:
                va = expand_to_dense(a.post_state).amplitudes
                vb = b.post_state.amplitudes
                assert abs(abs(np.vdot(va, vb)) - 1.0) < 1e-12

    def test_mixture_measurement_matches_dense(self):
        n, eps = 3, 0.5
        spec_c = CircuitSpec("parity_conditioned", MsConfig(n, eps),
                             backend="collective", v_odd=TAG_FLIP)
        spec_d = CircuitSpec("parity_conditioned", MsConfig(n, eps),
                             backend="dense", v_odd=TAG_FLIP)
        povm = threshold_pvm(n)
        rec_c = measure(evolve(spec_c, prepare_inputs(spec_c)), povm)
        rec_d = measure(evolve(spec_d, prepare_inputs(spec_d)), povm)
        for a, b in zip(rec_c, rec_d):
            assert a.probability == pytest.approx(b.probability, abs=1e-12)
            if a.post_state is None:
                continue
            gap = helpers.trace_distance_matrices(
                mixture_to_dense(a.post_state).matrix, b.post_state.matrix
            )
            assert gap < 1e-11
            assert a.fidelity_odd == pytest.approx(b.fidelity_odd, abs=1e-11)


class TestSupportUpdate:
    """Every state with a tensor is measured on each outcome's support: the
    records equal the full update's, with or without post states."""

    @staticmethod
    def _compare(state, povm, max_ulps):
        full = measure(state, povm)
        lean = measure(state, povm, post_states=False)
        ulps = []
        for a, b in zip(full, lean):
            assert a.sectors is None and b.post_state is None
            assert (a.outcome, a.probability, a.fidelity_odd, a.fidelity_even,
                    a.fidelity_best) == (b.outcome, b.probability, b.fidelity_odd,
                                         b.fidelity_even, b.fidelity_best)
            if a.post_state is None:
                continue
            ref = _full_update(state, povm.coefficients[a.outcome], a.probability)
            assert type(a.post_state) is type(ref)
            np.testing.assert_array_equal(a.post_state.as_tensor(), ref.as_tensor())
            marg = qubit_marginal(ref)
            ulps += [_ulps(a.fidelity_odd, fidelity(marg, BELL_ODD_PLUS)),
                     _ulps(a.fidelity_even, fidelity(marg, BELL_EVEN_PLUS))]
            assert b.sectors.tobytes() == sector_probabilities(ref).tobytes()
        # np.max keeps a NaN, which then fails the bound
        assert np.max(ulps, initial=0.0) <= max_ulps

    @pytest.mark.parametrize("readout", ["sector", "threshold", "theta"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_records_match_the_full_update(self, rng, n, readout):
        povm = _readout(readout, n)
        # bit for bit on densities and on every circuit-built pure state
        for state in (_joint_density(rng, n), *_evolved_pure_states(n)):
            self._compare(state, povm, 0)
        # a random pure state's Gram sums run over |S| terms instead of 2^n,
        # which moves its fidelities by a few ulps from n = 8 on
        self._compare(_joint_pure(rng, n + 6), _readout(readout, n + 6), 8)

    @pytest.mark.parametrize("route", ["povm", "apparatus"])
    def test_block_bits_are_kept_by_every_full_update(self, route):
        """A block-bit state's post states, and the states built from its
        tensor, keep its blocks; the support update returns the qubit
        marginal and the full post state, which keeps them too."""
        spec = CircuitSpec("hamming_half", MsConfig(4), backend="collective")
        state = evolve(spec)
        assert state.block_sizes == (2, 2)
        assert state.with_tensor(state.as_tensor()).block_sizes == (2, 2)
        assert renormalized(state, 2.0 * state.as_tensor(), 4.0).block_sizes == (2, 2)
        if route == "povm":
            records = measure(state, sector_pvm(4))
        else:
            records = apparatus_measure(state, ApparatusSpec(g=1.4, t_m=0.9))
        live = [r for r in records if r.post_state is not None]
        assert live and all(r.post_state.block_sizes == (2, 2) for r in live)
        sectors = sector_probabilities(state)
        a = np.eye(5)[2]
        marg, sec, post = measurement._support_update(state, a, sectors[2], True)
        assert marg.matrix.shape == (4, 4)
        assert marg.matrix.trace().real == pytest.approx(1.0, abs=1e-12)
        assert sec is None and post.block_sizes == (2, 2)

    def test_partial_support_outcome_is_measured(self, rng):
        n = 4
        povm = _readout("theta", n)
        rec = measure(_joint_density(rng, n), povm, [1], post_states=False)[0]
        assert np.count_nonzero(povm.coefficients[1]) == n // 2
        assert np.all(rec.sectors[povm.coefficients[1] == 0] == 0)
        assert rec.sectors.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("rep", ["dense_pure", "blocks", "mixture", "density"])
    @pytest.mark.parametrize("route", ["povm", "apparatus"])
    def test_sectors_are_those_of_the_post_state(self, rng, rep, route):
        n = 4
        if rep == "density":
            state = _joint_density(rng, n)
        elif rep == "dense_pure":
            state = _joint_pure(rng, n)
        else:
            kind, eps = ("hamming_half", 0.0) if rep == "blocks" else ("parity_collective", 0.4)
            spec = CircuitSpec(kind, MsConfig(n, eps), backend="collective")
            state = evolve(spec, prepare_inputs(spec))
        app = ApparatusSpec(g=1.4, t_m=0.9)
        povm = povm_from_theta(app.theta(n))

        def run(post_states):
            if route == "povm":
                return measure(state, povm, post_states=post_states)
            return apparatus_measure(state, app, post_states=post_states)

        for full, lean in zip(run(True), run(False)):
            assert full.sectors is None
            assert lean.sectors.tobytes() == sector_probabilities(full.post_state).tobytes()
            # no representation keeps its post state on either route
            assert lean.post_state is None

    @pytest.mark.parametrize("post_states", [True, False])
    @pytest.mark.parametrize("rep", ["dense_pure", "density"])
    def test_outcome_below_the_floor_has_no_fields(self, rep, post_states):
        spec = CircuitSpec("parity_collective", MsConfig(2), backend="dense")
        state = evolve(spec, prepare_inputs(spec))
        if rep == "density":
            state = helpers.to_density(state)
        rec = measure(state, sector_pvm(2), post_states=post_states)[1]
        assert rec.probability < TOL.prob_floor
        assert (rec.post_state, rec.fidelity_odd, rec.fidelity_even, rec.fidelity_best,
                rec.sectors) == (None, None, None, None, None)


class TestOutcomeStream:
    def test_memory_does_not_grow_with_the_outcome_count(self):
        """Each record is dropped before the next post state is built, so
        nine sector outcomes peak like two threshold outcomes, not at nine
        joint densities."""
        n = 8
        spec = CircuitSpec("parity_conditioned", MsConfig(n, 0.3), backend="dense",
                           v_odd=TAG_FLIP)
        state = evolve(spec, prepare_inputs(spec))
        joint_bytes = state.matrix.nbytes
        assert joint_bytes == 8 * 2**20
        peaks, live = {}, {}
        for name, povm in (("sector", sector_pvm(n)), ("threshold", threshold_pvm(n))):
            live[name] = 0
            tracemalloc.start()
            try:
                for rec in measure_each(state, povm):
                    live[name] += rec.post_state is not None
                    del rec
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert live == {"sector": n + 1, "threshold": 2}
        assert peaks["sector"] >= joint_bytes
        assert abs(peaks["sector"] - peaks["threshold"]) < joint_bytes

    def test_density_without_post_states_builds_no_joint_array(self):
        """Measured on its supports only, a density under the resolving
        readout never allocates an array of its own size, and neither does
        a dense pure state's update once its sector distribution is known."""
        n = 8
        spec = CircuitSpec("parity_conditioned", MsConfig(n, 0.3), backend="dense",
                           v_odd=TAG_FLIP)
        state = evolve(spec, prepare_inputs(spec))
        tracemalloc.start()
        try:
            records = list(measure_each(state, sector_pvm(n), post_states=False))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [rec.post_state for rec in records] == [None] * (n + 1)
        assert peak < state.matrix.nbytes / 4

        n = 16
        spec = CircuitSpec("parity_conditioned", MsConfig(n), backend="dense", v_odd=TAG_FLIP)
        state = evolve(spec, prepare_inputs(spec))
        assert state.amplitudes.nbytes == 4 * 2**20
        sectors = sector_probabilities(state)
        tracemalloc.start()
        try:
            records = measure(state, sector_pvm(n), post_states=False, sectors=sectors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [rec.post_state for rec in records] == [None] * (n + 1)
        assert sum(rec.fidelity_best is not None for rec in records) == 2
        assert peak < state.amplitudes.nbytes / 4

    @pytest.mark.parametrize("route", ["povm", "apparatus"])
    def test_stream_and_chosen_outcomes_match_the_full_list(self, rng, route):
        rho = helpers.to_density(_joint_pure(rng, 3))
        app = ApparatusSpec(g=1.4, t_m=0.9)
        readout = povm_from_theta(app.theta(3)) if route == "povm" else app
        run = measure if route == "povm" else apparatus_measure
        full = run(rho, readout)
        streamed = list(measure_each(rho, readout))
        chosen = run(rho, readout, [1, 0])
        assert [rec.outcome for rec in full] == [0, 1]
        assert [rec.outcome for rec in chosen] == [1, 0]
        for a, b, c in zip(full, streamed, chosen[::-1]):
            assert (a.outcome, a.probability, a.fidelity_best) == (
                b.outcome, b.probability, b.fidelity_best) == (
                c.outcome, c.probability, c.fidelity_best)
            np.testing.assert_array_equal(a.post_state.matrix, b.post_state.matrix)
            np.testing.assert_array_equal(a.post_state.matrix, c.post_state.matrix)


def _bits(value):
    """A value as comparable raw bits: arrays with dtype and shape, floats by
    their hex form (which tells -0.0 from 0.0), a record by the names of its
    ``_fields`` and a state or a layout by those of its ``__slots__``, field
    by field."""
    if isinstance(value, np.ndarray):
        return value.dtype, value.shape, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    names = (value._fields if isinstance(value, OutcomeRecord)
             else value.__slots__ if isinstance(value, ReadOnly) else None)
    if names is not None:
        return [(name, _bits(getattr(value, name))) for name in names]
    return value


class TestSectorReadout:
    """`sector_pvm` holds no table: each outcome's row is built when asked."""

    def test_holds_no_table(self):
        tracemalloc.start()
        try:
            povm = sector_pvm(4000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert (povm.n_sites, povm.n_outcomes) == (4000, 4001)

    def test_table_readers_still_get_the_identity(self):
        np.testing.assert_array_equal(sector_pvm(5).coefficients, np.eye(6))
        np.testing.assert_array_equal(optimal_strategy(5).povm.coefficients, np.eye(6))
        for alpha in range(6):
            np.testing.assert_array_equal(sector_pvm(5).row(alpha), np.eye(6)[alpha])

    @pytest.mark.parametrize("n", [0, -1, 2.5])
    def test_refuses_a_size_without_sites(self, n):
        with pytest.raises(LayoutError):
            sector_pvm(n)

    @pytest.mark.parametrize("post_states", [True, False])
    @pytest.mark.parametrize("rep, kind, eps, backend", [
        ("dense_pure", "parity_conditioned", 0.0, "dense"),
        ("density", "parity_conditioned", 0.3, "dense"),
        ("blocks", "hamming_half", 0.0, "collective"),
        ("mixture", "parity_conditioned", 0.3, "collective"),
    ])
    @pytest.mark.parametrize("n", [2, 4])
    def test_records_equal_those_of_the_identity_table(self, n, rep, kind, eps, backend,
                                                       post_states):
        spec = CircuitSpec(kind, MsConfig(n, eps), backend=backend,
                           v_odd=TAG_FLIP if kind == "parity_conditioned" else TAG_IDENTITY)
        state = evolve(spec, prepare_inputs(spec))
        got = measure(state, sector_pvm(n), post_states=post_states)
        want = measure(state, CollectivePOVM(np.eye(n + 1)), post_states=post_states)
        assert len(got) == len(want) == n + 1
        if post_states:
            assert any(rec.post_state is not None for rec in got)
        for a, b in zip(got, want):
            assert (a.outcome, a.probability, a.fidelity_odd, a.fidelity_even,
                    a.fidelity_best) == (b.outcome, b.probability, b.fidelity_odd,
                                         b.fidelity_even, b.fidelity_best)
            assert (a.sectors is None) == (b.sectors is None)
            if a.sectors is not None:
                assert a.sectors.tobytes() == b.sectors.tobytes()
            assert (a.post_state is None) == (b.post_state is None)
            if a.post_state is not None:
                assert type(a.post_state) is type(b.post_state)
                assert _bits(a.post_state) == _bits(b.post_state)

    def test_stream_sums_the_sectors_once(self, monkeypatch):
        spec = CircuitSpec("parity_conditioned", MsConfig(50, 0.4), backend="collective",
                           v_odd=TAG_FLIP)
        state = evolve(spec, prepare_inputs(spec))
        calls = []

        def counted(st):
            calls.append(st)
            return sector_probabilities(st)

        monkeypatch.setattr(measurement, "sector_probabilities", counted)
        records = list(measure_each(state, sector_pvm(50), post_states=False))
        assert len(records) == 51
        # once for the state: each live record's sectors come from its update
        assert len(calls) == 1 and calls[0] is state
        monkeypatch.undo()
        for rec in records:
            (ref,) = measure(state, sector_pvm(50), [rec.outcome], post_states=False)
            assert (rec.probability, rec.fidelity_best) == (ref.probability, ref.fidelity_best)

    @pytest.mark.parametrize("rep, kind, eps, backend", [
        ("blocks", "hamming_half", 0.0, "collective"),
        ("mixture", "parity_conditioned", 0.3, "collective"),
        ("dense_pure", "parity_conditioned", 0.0, "dense"),
    ])
    def test_rows_are_built_for_live_outcomes_only(self, monkeypatch, rep, kind, eps, backend):
        n = 8 if backend == "dense" else 400
        spec = CircuitSpec(kind, MsConfig(n, eps), backend=backend,
                           v_odd=TAG_FLIP if kind == "parity_conditioned" else TAG_IDENTITY)
        state = evolve(spec, prepare_inputs(spec))
        rows = []
        row = measurement.SectorPVM.row

        def counted(self, alpha):
            rows.append(alpha)
            return row(self, alpha)

        monkeypatch.setattr(measurement.SectorPVM, "row", counted)
        records = measure(state, sector_pvm(n), post_states=False)
        live = [r.outcome for r in records if r.fidelity_best is not None]
        assert 0 < len(live) < n + 1
        assert rows == live

    @given(st.lists(st.floats(-1.0, 1.0) | st.sampled_from([0.0, 5e-324, 1e-300]),
                    min_size=2, max_size=40), st.data())
    def test_probability_is_the_row_dot(self, values, data):
        sectors = np.array(values)
        n = sectors.size - 1
        table = random_collective_povm(n, np.random.default_rng(n))
        for povm in (sector_pvm(n), table):
            alpha = data.draw(st.integers(0, povm.n_outcomes - 1))
            p, dot = povm.probability(alpha, sectors), float(povm.row(alpha) @ sectors)
            assert type(p) is float
            assert (p, math.copysign(1.0, p)) == (dot, math.copysign(1.0, dot))


def _mixture(n, v_odd=TAG_FLIP, v_even=TAG_IDENTITY, eps=0.3):
    spec = CircuitSpec("parity_conditioned", MsConfig(n, eps), backend="collective",
                       v_odd=v_odd, v_even=v_even)
    return evolve(spec, prepare_inputs(spec))


def _readouts(n):
    """The four CLI readouts: resolving, threshold, a theta table and (g, t_m)."""
    return tuple(_readout(name, n) for name in ("sector", "threshold", "theta")) + (
        ApparatusSpec(g=0.3, t_m=1.1),)


class TestMixtureBlocks:
    """A `SectorMixture` is measured in blocks of live outcomes, one update
    and one marginal check per block: every record has the bits, field by
    field, of its outcome measured alone, a block of one."""

    N = 300

    @staticmethod
    def _alone(run, state, readout, post_states):
        return [rec for k in range(readout.n_outcomes)
                for rec in run(state, readout, (k,), post_states)]

    @staticmethod
    def _assert_same(records, alone):
        assert [rec.outcome for rec in records] == list(range(len(alone)))
        assert [_bits(rec) for rec in records] == [_bits(rec) for rec in alone]
        for rec, ref in zip(records, alone):
            assert rec.probability == ref.probability
            assert (rec.fidelity_odd, rec.fidelity_even) == (ref.fidelity_odd, ref.fidelity_even)
            if ref.sectors is not None:
                np.testing.assert_array_equal(rec.sectors, ref.sectors)
            if ref.post_state is not None:
                for field in ("weight_odd", "weight_even", "cross"):
                    np.testing.assert_array_equal(getattr(rec.post_state, field),
                                                  getattr(ref.post_state, field))
                assert rec.post_state.cross_flipped == ref.post_state.cross_flipped

    @pytest.mark.parametrize("post_states", [False, True], ids=["sectors", "post"])
    @pytest.mark.parametrize("v_odd, flipped", [(TAG_FLIP, True), (TAG_IDENTITY, False)],
                             ids=["flipped", "unflipped"])
    @pytest.mark.parametrize("name", ["sector", "threshold", "random"])
    def test_blocks_equal_single_outcomes(self, name, v_odd, flipped, post_states):
        n = self.N
        state = _mixture(n, v_odd=v_odd, eps=0.5)
        assert isinstance(state, SectorMixture)
        readout = (random_collective_povm(n, np.random.default_rng(7)) if name == "random"
                   else _readout(name, n))
        size = measurement._block_size(state, n)
        sectors = sector_probabilities(state)
        live = [k for k in range(readout.n_outcomes)
                if readout.probability(k, sectors) >= TOL.prob_floor]
        chunks = [range(k, min(k + size, readout.n_outcomes))
                  for k in range(0, readout.n_outcomes, size)]
        if name != "threshold":
            # several blocks, the last one short, and blocks that hold dead outcomes
            assert 1 < size < len(live) and len(live) % size
            if name == "sector":
                assert any(0 < len(set(c) & set(live)) < len(c) for c in chunks)
        alone = self._alone(measure, state, readout, post_states)
        assert [r.fidelity_best is not None for r in alone] == [
            k in live for k in range(readout.n_outcomes)]
        assert all((r.post_state is not None) == (post_states and r.fidelity_best is not None)
                   for r in alone)
        if flipped:
            assert state.cross_flipped is True
        self._assert_same(list(measure_each(state, readout, post_states)), alone)
        self._assert_same(measure(state, readout, post_states=post_states), alone)

    @pytest.mark.parametrize("post_states", [False, True], ids=["sectors", "post"])
    @pytest.mark.parametrize("v_odd", [TAG_FLIP, TAG_IDENTITY], ids=["flipped", "unflipped"])
    def test_theta_table_block_equals_single_outcomes(self, v_odd, post_states):
        n = self.N
        state = _mixture(n, v_odd=v_odd, eps=0.5)
        table = TwoOutcomeTheta(np.random.default_rng(3).uniform(0.0, np.pi, n + 1))
        alone = self._alone(apparatus_measure, state, table, post_states)
        assert all(r.fidelity_best is not None for r in alone)
        self._assert_same(apparatus_measure(state, table, post_states=post_states), alone)

    def test_block_size_follows_the_entry_budget(self):
        mixture = _mixture(2000, eps=0.5)
        assert measurement._block_size(mixture, 2000) == 8
        assert measurement._block_size(mixture, 20000) == 1
        spec = CircuitSpec("parity_conditioned", MsConfig(8, 0.5), backend="dense")
        dense = evolve(spec, prepare_inputs(spec))
        assert isinstance(dense, DensityOperator)
        assert measurement._block_size(dense, 8) == 1

    def test_a_bad_marginal_in_a_block_is_refused(self, monkeypatch):
        """The block's marginal stack is checked as a whole: one row off its
        trace refuses the block."""
        state = _mixture(self.N, eps=0.5)
        update = measurement.mixture_update

        def skewed(*args):
            (odd, even, x), sectors, posts = update(*args)
            odd = odd.copy()
            odd[-1] += 1e-6
            return (odd, even, x), sectors, posts

        monkeypatch.setattr(measurement, "mixture_update", skewed)
        with pytest.raises(ValidationError, match="trace"):
            measure(state, sector_pvm(self.N), post_states=False)


class TestPostStateRule:
    """A record carries its post state exactly when post states are asked
    for, and its post state's sectors exactly when they are not, on every
    representation, route and readout."""

    @staticmethod
    def _states(n):
        spec = CircuitSpec("parity_conditioned", MsConfig(n, 0.3), backend="dense",
                           v_odd=TAG_FLIP)
        yield "density", evolve(spec)
        spec = CircuitSpec("parity_conditioned", MsConfig(n), backend="dense", v_odd=TAG_FLIP)
        yield "dense_pure", evolve(spec)
        yield "blocks", evolve(CircuitSpec("hamming_half", MsConfig(n), backend="collective"))
        yield "mixture", _mixture(n)

    def test_post_state_exactly_when_asked(self):
        n = 4
        app = ApparatusSpec(g=1.4, t_m=0.9)
        for (rep, state), post_states in itertools.product(self._states(n), (True, False)):
            runs = [list(measure_each(state, r, post_states)) for r in _readouts(n)]
            runs += [measure(state, povm_from_theta(app.theta(n)), post_states=post_states),
                     apparatus_measure(state, app, post_states=post_states),
                     apparatus_measure(state, app.theta(n), post_states=post_states)]
            for records in runs:
                live = [rec for rec in records if rec.fidelity_best is not None]
                assert live, rep
                for rec in live:
                    assert (rec.post_state is not None) == post_states, (rep, rec.outcome)
                    assert (rec.sectors is None) == post_states, (rep, rec.outcome)

    @pytest.mark.parametrize("readout", range(4))
    def test_lean_mixture_builds_no_mixture(self, monkeypatch, readout):
        state = _mixture(40)
        built = []
        init = SectorMixture.__post_init__

        def counted(self):
            built.append(self)
            init(self)

        monkeypatch.setattr(SectorMixture, "__post_init__", counted)
        records = list(measure_each(state, _readouts(40)[readout], post_states=False))
        assert built == []
        kept = list(measure_each(state, _readouts(40)[readout], post_states=True))
        live = [rec for rec in kept if rec.post_state is not None]
        assert len(live) == sum(rec.sectors is not None for rec in records) > 0
        assert [id(m) for m in built] == [id(rec.post_state) for rec in live]

    @staticmethod
    def _broken(case):
        """A checked two-site mixture and the readout outcome whose update
        breaks one invariant, with the sectors to read its probability from."""
        n = 2
        if case == "negative":
            # weight -0.9e-10 passes the state's check but not once divided by p
            mix = SectorMixture(n, [1.0, -0.9e-10, 0.0], [1.0, 2e-10, 0.0], np.zeros(3))
            return mix, 1, None
        if case == "trace":
            # a sector distribution that is not the state's gives the wrong p
            mix = _mixture(n)
            return mix, 0, 2 * sector_probabilities(mix)
        # a cross entry past its bound by less than the slack, then divided by p
        w = np.array([1.0 - 1e-8, 1e-8, 0.0])
        mix = SectorMixture(n, w, w, [0.0, 1e-8 + 0.9e-9, 0.0])
        return mix, 1, None

    @pytest.mark.parametrize("case, message", [
        ("negative", "negative sector weight"),
        ("trace", "mixture trace"),
        ("cross", "Cauchy-Schwarz"),
    ])
    def test_each_invariant_is_checked_on_every_update(self, monkeypatch, case, message):
        mix, outcome, sectors = self._broken(case)
        # the kept post state's constructor refuses it ...
        with pytest.raises(ValidationError, match=message):
            measure(mix, sector_pvm(2), [outcome], True, sectors)

        def refused(self):
            raise AssertionError("a SectorMixture was built without post states")

        # ... and so does the lean update, which builds none
        monkeypatch.setattr(SectorMixture, "__post_init__", refused)
        with pytest.raises(ValidationError, match=message):
            measure(mix, sector_pvm(2), [outcome], False, sectors)

    @pytest.mark.parametrize("tags", [(TAG_FLIP, TAG_IDENTITY), (TAG_IDENTITY, TAG_IDENTITY),
                                      (TAG_FLIP, TAG_FLIP), (TAG_IDENTITY, TAG_FLIP)])
    @pytest.mark.parametrize("n", [1, 2, 7, 40, 400])
    def test_lean_mixture_records_equal_kept_ones(self, n, tags):
        state = _mixture(n, *tags)
        assert state.cross_flipped == (tags[0] != tags[1])
        for readout in _readouts(n):
            lean = list(measure_each(state, readout, post_states=False))
            kept = list(measure_each(state, readout, post_states=True))
            assert len(lean) == len(kept) == readout.n_outcomes
            for a, b in zip(lean, kept):
                if b.post_state is None:
                    assert _bits(a) == _bits(b)
                    continue
                assert a.post_state is None and b.sectors is None
                assert _bits(a.sectors) == _bits(sector_probabilities(b.post_state))
                marg = qubit_marginal(b.post_state)
                want = (fidelity(marg, BELL_ODD_PLUS), fidelity(marg, BELL_EVEN_PLUS))
                assert [_bits(f) for f in want] == [_bits(a.fidelity_odd), _bits(a.fidelity_even)]
                assert _bits(a._replace(sectors=None)) == _bits(b._replace(post_state=None))


class TestRealDensityStorage:
    """A density built from rho_eps is stored as float64 while it is real,
    and is evolved and measured to the same bits as its complex copy."""

    @helpers.KIND_TAGS
    def test_real_input_matches_its_complex_copy(self, kind, tags):
        for n in (3, 4) if kind != "hamming_half" else (4,):
            spec = CircuitSpec(kind, MsConfig(n, 0.3), backend="dense", **tags)
            real = prepare_inputs(spec)
            assert real.matrix.dtype == np.float64
            cplx = DensityOperator(real.matrix.astype(complex), real.layout)
            out_r, out_c = evolve(spec, real), evolve(spec, cplx)
            # only the GHZ entangler's complex coefficients make the state complex
            want = np.complex128 if kind == "ghz_local" else np.float64
            assert out_r.matrix.dtype == evolve(spec).matrix.dtype == want
            assert out_r.matrix.astype(complex).tobytes() == out_c.matrix.tobytes()
            readouts = [sector_pvm(n), threshold_pvm(n),
                        povm_from_theta(TwoOutcomeTheta(0.37 * np.arange(n + 1))),
                        ApparatusSpec(0.3, 1.1), TwoOutcomeTheta.linear(n, 0.9, 1.4)]
            for readout in readouts:
                for post_states in (True, False):
                    got = list(measure_each(out_r, readout, post_states))
                    ref = list(measure_each(out_c, readout, post_states))
                    assert len(got) == len(ref) == readout.n_outcomes
                    assert any(rec.fidelity_best is not None for rec in got)
                    for a, b in zip(got, ref):
                        assert _bits(a) == _bits(b), (n, readout, post_states, a.outcome)


class TestConditionedFidelities:
    def test_branch_fidelities_sum_to_one(self, rng):
        # post-selected states of the parity-conditioned family satisfy
        # F_odd + F_even = 1 exactly
        for trial in range(5):
            n = int(rng.integers(1, 5))
            eps = float(rng.uniform(0.0, 0.9))
            spec = CircuitSpec("parity_conditioned", MsConfig(n, eps),
                               backend="dense", v_odd=TAG_FLIP)
            state = evolve(spec, prepare_inputs(spec))
            povm = random_collective_povm(n, rng)
            for rec in measure(state, povm):
                if rec.fidelity_odd is None:
                    continue
                assert rec.fidelity_odd + rec.fidelity_even == pytest.approx(1.0, abs=1e-10)

    def test_two_outcome_fidelity_ratio(self):
        # with a two-outcome POVM the even-branch fidelity of outcome beta is
        # p_even(beta) / (p_even(beta) + p_odd(beta))
        n, eps = 3, 0.5
        strat = optimal_strategy(n)
        spec = CircuitSpec("parity_conditioned", MsConfig(n, eps), backend="dense",
                           v_odd=strat.v_odd, v_even=strat.v_even)
        state = evolve(spec, prepare_inputs(spec))
        povm = threshold_pvm(n)
        w_even = MsConfig(n, eps).sector_weights()
        w_odd = w_even[::-1]
        for rec in measure(state, povm):
            a = povm.coefficients[rec.outcome]
            p_o, p_e = float(a @ w_odd), float(a @ w_even)
            assert rec.fidelity_even == pytest.approx(p_e / (p_e + p_o), abs=1e-12)


class TestApparatusRoute:
    def test_matches_povm_rule_on_parity_states(self):
        for n in (1, 4):
            spec = CircuitSpec("parity_collective", MsConfig(n), backend="dense")
            state = evolve(spec, prepare_inputs(spec))
            app = ApparatusSpec(g=1.0, t_m=math.pi / (2 * n))
            rec_a = apparatus_measure(state, app)
            rec_p = measure(state, povm_from_theta(app.theta(n)))
            for a, b in zip(rec_a, rec_p):
                assert a.probability == pytest.approx(b.probability, abs=1e-14)
                if a.post_state is not None:
                    np.testing.assert_allclose(
                        a.post_state.amplitudes, b.post_state.amplitudes, atol=1e-12
                    )

    def test_matches_povm_rule_with_negative_cosines(self, rng):
        hit_negative = False
        for trial in range(30):
            n = int(rng.integers(1, 6))
            state = _joint_pure(rng, n)
            app = ApparatusSpec(g=float(rng.uniform(0.5, 3.0)),
                                t_m=float(rng.uniform(0.5, 3.0)))
            if np.any(np.cos(app.theta(n).theta) < 0.0):
                hit_negative = True
            rec_a = apparatus_measure(state, app)
            rec_p = measure(state, povm_from_theta(app.theta(n)))
            for a, b in zip(rec_a, rec_p):
                assert a.probability == pytest.approx(b.probability, abs=1e-13)
                if a.post_state is not None and a.probability > 1e-12:
                    np.testing.assert_allclose(
                        a.post_state.amplitudes, b.post_state.amplitudes, atol=1e-10
                    )
        assert hit_negative

    def test_density_route_matches_pure_route(self, rng):
        n = 3
        psi = _joint_pure(rng, n)
        app = ApparatusSpec(g=1.4, t_m=0.9)
        rec_pure = apparatus_measure(psi, app)
        rec_dens = apparatus_measure(helpers.to_density(psi), app)
        for a, b in zip(rec_pure, rec_dens):
            assert a.probability == pytest.approx(b.probability, abs=1e-12)
            if a.post_state is not None and a.probability > 1e-10:
                gap = helpers.trace_distance_matrices(
                    helpers.to_density(a.post_state).matrix, b.post_state.matrix
                )
                assert gap < 1e-10

    def test_mixture_route_matches_dense(self):
        n, eps = 3, 0.4
        spec_c = CircuitSpec("parity_collective", MsConfig(n, eps), backend="collective")
        spec_d = CircuitSpec("parity_collective", MsConfig(n, eps), backend="dense")
        app = ApparatusSpec(g=0.8, t_m=1.2)
        rec_c = apparatus_measure(evolve(spec_c, prepare_inputs(spec_c)), app)
        rec_d = apparatus_measure(evolve(spec_d, prepare_inputs(spec_d)), app)
        for a, b in zip(rec_c, rec_d):
            assert a.probability == pytest.approx(b.probability, abs=1e-12)
            if a.post_state is not None and a.probability > 1e-10:
                gap = helpers.trace_distance_matrices(
                    mixture_to_dense(a.post_state).matrix, b.post_state.matrix
                )
                assert gap < 1e-10
