"""Self-tests of the per-layer tracer, on small versions of the workloads."""

import threading
import time

import pytest

import tracer
from workloads import WORKLOADS


@pytest.fixture
def traced():
    active = []

    def start(run_id="t"):
        t = tracer.Tracer(run_id)
        t.install()
        active.append(t)
        return t

    yield start
    for t in active:
        t.uninstall()


def _main(argv, out):
    from mesoparity import cli

    start = time.perf_counter()
    rc = cli.main([*argv, "--out", str(out)])
    return rc, time.perf_counter() - start


SMALL = {
    "mixture-large": 60,
    "dense-mixed": 4,
    "dense-pure": 8,
    "bound-sweep": 40,
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_main_thread_self_times_fit_in_traced_wall(traced, tmp_path, name):
    t = traced()
    inv = WORKLOADS[name].invocation(seed=2, n=SMALL[name])
    rc, wall = _main(inv.argv, tmp_path / "out")
    assert rc == 0
    main = threading.main_thread().ident
    selfs = tracer.self_times(t.spans)
    top = sum(selfs[s.index] for s in t.spans if s.thread == main)
    assert 0 < top <= wall
    assert all(v >= -1e-9 for v in selfs.values())


def test_sweep_threads_keep_their_own_stacks(traced, tmp_path):
    t = traced()
    inv = WORKLOADS["bound-sweep"].invocation(seed=2, n=60)
    rc, wall = _main(inv.argv, tmp_path / "out")
    assert rc == 0
    m = tracer.summarize(t.spans, wall)
    busy = m["bounds.closed_form_s"] + m["bounds.sum_form_s"]
    pool_threads = 8
    assert 0 < busy <= pool_threads * m["cli.sweep_s"]
    assert m["bounds.rows"] == 240
    assert m["collective.binomial_pmf_calls"] == 3 * 240
    assert m["bounds.form_spread_max"] <= 1e-10
    main = threading.main_thread().ident
    for s in t.spans:
        if s.name.startswith("bounds."):
            assert s.thread != main
            assert s.parent is not None and s.parent.name == "cli.compute_bound_rows"


def test_wrapped_classes_still_pass_isinstance(traced):
    from mesoparity import circuits, collective, states
    from mesoparity.collective import MsConfig

    classes = (states.PureState, states.DensityOperator, collective.SectorMixture)
    t = traced()
    pure = circuits.prepare_inputs(circuits.CircuitSpec("parity_collective", MsConfig(3)))
    mixed = circuits.prepare_inputs(circuits.CircuitSpec("parity_collective", MsConfig(3, 0.2)))
    mixture = collective.mixture_prepare(MsConfig(50, 0.2))
    assert isinstance(pure, states.PureState)
    assert isinstance(mixed, states.DensityOperator)
    assert isinstance(mixture, collective.SectorMixture)
    assert (states.PureState, states.DensityOperator, collective.SectorMixture) == classes
    names = {s.name for s in t.spans}
    assert {"states.PureState.init", "states.DensityOperator.init",
            "collective.SectorMixture.init"} <= names
    t.uninstall()
    assert not hasattr(states.DensityOperator.__post_init__, "__perfbench_span__")


def test_recursive_emit_is_counted_on_one_span(traced, tmp_path):
    t = traced()
    inv = WORKLOADS["mixture-large"].invocation(seed=2, n=60)
    rc, wall = _main(inv.argv, tmp_path / "out")
    assert rc == 0
    emits = [s for s in t.spans if s.name == "cli.emit_json"]
    assert len(emits) == 1
    m = tracer.summarize(t.spans, wall)
    assert m["cli.emit_calls"] > 60
    assert m["measurement.outcomes"] == 61
    assert 0 < m["measurement.post_states"] <= 61
    assert m["circuits.marginal_calls"] == m["measurement.post_states"]


def test_exception_is_counted_once_per_layer_it_leaves(traced, tmp_path):
    t = traced()
    with pytest.raises(TypeError):
        _main(["simulate", "--kind", "ghz_local", "--n", "3", "--epsilon", "0.3"],
              tmp_path / "out")
    m = tracer.summarize(t.spans, 1.0)
    assert m["circuits.errors"] == 1
    assert m["cli.errors"] == 1
    assert m["states.errors"] == 0
