"""Per-layer tracing of one in-process ``mesoparity.cli.main`` call.

The tracer wraps public names of the package from outside: nothing in
``src/`` is edited.  Three rules make the numbers right:

1. A name imported into a caller is a separate binding, so it is wrapped in
   that caller's module too (``qubit_marginal`` and ``fidelity`` in
   ``measurement``, ``binomial_pmf`` in ``bounds``, the gates in ``circuits``).
2. Classes are never replaced, since every layer dispatches on ``isinstance``;
   their ``__post_init__`` is wrapped instead.
3. The bound sweep runs on a thread pool, so each thread keeps its own span
   stack.  A span opened on an empty pool-thread stack takes the main thread's
   innermost open span as its parent.

A span's self time is its duration minus that of its children on the same
thread.  A direct recursive call (``emit_json`` on each nested value) adds to
the call count of the open span instead of opening a new one.

Run as a script, it traces one CLI call in this process and writes the spans
and the per-layer metrics as JSON::

    python tracer.py --run-id ID --spans-out FILE -- simulate --n 9 ...
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "circuits", "collective", "states", "measurement", "metrics", "bounds")
GATES = ("collective_flip", "ghz_entangler", "edge_phase_gate", "mixture_conditional")


class Span:
    __slots__ = ("index", "name", "layer", "parent", "thread", "start", "end",
                 "calls", "error", "info")

    def __init__(self, index, name, layer, parent, thread):
        self.index = index
        self.name = name
        self.layer = layer
        self.parent = parent
        self.thread = thread
        self.start = self.end = 0.0
        self.calls = 1
        self.error = None
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Holds the spans of one traced run in memory; ``install`` wraps names."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.epoch = time.perf_counter()
        self._local = threading.local()
        self._main_thread = threading.main_thread().ident
        self._main_stack = []
        self._installed = []

    def _stack(self) -> list:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, layer: str, note=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``note(span, args, result)`` may attach information to the span after
        a call returns.
        """
        original = getattr(owner, attr)
        if getattr(original, "__perfbench_span__", None) is not None:
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1].name == name:
                stack[-1].calls += 1
                return original(*args, **kwargs)
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main and stack is not main else None
            span = Span(len(tracer.spans), name, layer, parent, threading.get_ident())
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if note is not None:
                note(span, args, result)
            return result

        wrapper.__perfbench_span__ = name
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def install(self) -> None:
        """Wrap every public name the workloads reach, where it is looked up."""
        from mesoparity import bounds, circuits, cli, collective, measurement, metrics, states

        w = self.wrap
        w(cli, "main", "cli.main", "cli")
        w(cli, "emit_json", "cli.emit_json", "cli")
        w(cli, "_write_text", "cli.write", "cli")
        w(cli, "compute_bound_rows", "cli.compute_bound_rows", "cli", note=_note_rows)

        for attr in ("prepare_inputs", "evolve", "disentangle", "qubit_marginal",
                     "branch_ms_states"):
            w(circuits, attr, f"circuits.{attr}", "circuits")
        w(measurement, "qubit_marginal", "circuits.qubit_marginal", "circuits")

        for attr in GATES + ("mixture_prepare", "thermal_ms_dense"):
            w(circuits, attr, f"collective.{attr}", "collective")
        for owner in (collective, cli, measurement):
            w(owner, "sector_probabilities", "collective.sector_probabilities", "collective")
        for owner in (collective, bounds):
            w(owner, "binomial_pmf", "collective.binomial_pmf", "collective")
        w(collective.SectorMixture, "__post_init__", "collective.SectorMixture.init",
          "collective")

        w(states.PureState, "__post_init__", "states.PureState.init", "states",
          note=_note_state_bytes)
        w(states.DensityOperator, "__post_init__", "states.DensityOperator.init", "states",
          note=_note_state_bytes)
        w(circuits, "partial_trace", "states.partial_trace", "states")
        w(metrics, "validate_density", "states.validate_density", "states")

        w(measurement, "measure", "measurement.measure", "measurement", note=_note_records)
        w(measurement, "sector_pvm", "measurement.sector_pvm", "measurement")

        for owner in (cli, measurement, metrics):
            w(owner, "fidelity", "metrics.fidelity", "metrics")
        for owner in (cli, metrics):
            w(owner, "average_fidelity", "metrics.average_fidelity", "metrics")

        for attr in ("bound_closed_form", "bound_sum_form"):
            w(bounds, attr, f"bounds.{attr}", "bounds", note=_note_bound)

    def span_records(self) -> list:
        """Spans as lists: name, layer, start, end, parent index, thread, run id,
        calls, error; times in seconds from the tracer's creation."""
        return [
            [s.name, s.layer, s.start - self.epoch, s.end - self.epoch,
             None if s.parent is None else s.parent.index, s.thread, self.run_id,
             s.calls, s.error]
            for s in self.spans
        ]


def _note_rows(span, args, rows):
    span.info = len(rows)


def _note_state_bytes(span, args, result):
    dim = args[0].layout.total_dim
    span.info = 16 * (dim * dim if span.name.startswith("states.Density") else dim)


def _note_records(span, args, records):
    span.info = (len(records), sum(1 for r in records if r.post_state is not None))


def _note_bound(span, args, value):
    span.info = ((int(args[0]), float(args[1])), float(value))


def self_times(spans) -> dict:
    """Span index -> duration minus the durations of same-thread children."""
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None and s.parent.thread == s.thread:
            covered[s.parent.index] += s.duration
    return {s.index: s.duration - covered[s.index] for s in spans}


def summarize(spans, main_s: float) -> dict:
    """Per-layer metrics of one traced CLI call."""
    dur = defaultdict(float)
    calls = defaultdict(int)
    infos = defaultdict(list)
    for s in spans:
        dur[s.name] += s.duration
        calls[s.name] += s.calls
        if s.info is not None:
            infos[s.name].append(s.info)

    selfs = self_times(spans)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    errors = dict.fromkeys(LAYERS, 0)
    measure_self = 0.0
    for s in spans:
        layer_self[s.layer] += selfs[s.index]
        if s.name == "measurement.measure":
            measure_self += selfs[s.index]
        if s.error is not None and (s.parent is None or s.parent.layer != s.layer):
            errors[s.layer] += 1

    closed = dict(infos["bounds.bound_closed_form"])
    summed = dict(infos["bounds.bound_sum_form"])
    spread = max((abs(closed[k] - summed[k]) for k in closed.keys() & summed.keys()),
                 default=0.0)
    outcomes = sum(o for o, _ in infos["measurement.measure"])
    post_states = sum(p for _, p in infos["measurement.measure"])
    sweep_s = dur["cli.compute_bound_rows"]
    bound_busy = dur["bounds.bound_closed_form"] + dur["bounds.bound_sum_form"]
    gates = [f"collective.{g}" for g in GATES]

    m = {
        "trace.main_s": main_s,
        "cli.emit_s": dur["cli.emit_json"],
        "cli.emit_calls": calls["cli.emit_json"],
        "cli.write_s": dur["cli.write"],
        "cli.sweep_s": sweep_s,
        "cli.sweep_busy_ratio": bound_busy / sweep_s if sweep_s > 0 else 0.0,
        "bounds.closed_form_s": dur["bounds.bound_closed_form"],
        "bounds.sum_form_s": dur["bounds.bound_sum_form"],
        "bounds.rows": sum(infos["cli.compute_bound_rows"]),
        "bounds.form_spread_max": spread,
        "collective.binomial_pmf_s": dur["collective.binomial_pmf"],
        "collective.binomial_pmf_calls": calls["collective.binomial_pmf"],
        "collective.gate_s": sum(dur[g] for g in gates),
        "collective.gate_calls": sum(calls[g] for g in gates),
        "collective.sector_probabilities_s": dur["collective.sector_probabilities"],
        "collective.sector_probabilities_calls": calls["collective.sector_probabilities"],
        "states.density_init_s": dur["states.DensityOperator.init"],
        "states.density_inits": calls["states.DensityOperator.init"],
        "states.pure_init_s": dur["states.PureState.init"],
        "states.pure_inits": calls["states.PureState.init"],
        "states.partial_trace_s": dur["states.partial_trace"],
        "states.validate_density_s": dur["states.validate_density"],
        "states.peak_state_bytes": max(infos["states.PureState.init"]
                                       + infos["states.DensityOperator.init"], default=0),
        "circuits.prepare_s": dur["circuits.prepare_inputs"],
        "circuits.evolve_s": dur["circuits.evolve"],
        "circuits.disentangle_s": dur["circuits.disentangle"],
        "circuits.marginal_s": dur["circuits.qubit_marginal"],
        "circuits.marginal_calls": calls["circuits.qubit_marginal"],
        "circuits.branch_states_s": dur["circuits.branch_ms_states"],
        "measurement.measure_s": dur["measurement.measure"],
        "measurement.measure_self_s": measure_self,
        "measurement.outcomes": outcomes,
        "measurement.post_states": post_states,
        "measurement.live_ratio": post_states / outcomes if outcomes else 0.0,
        "metrics.fidelity_s": dur["metrics.fidelity"],
        "metrics.fidelity_calls": calls["metrics.fidelity"],
        "metrics.average_fidelity_s": dur["metrics.average_fidelity"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
        m[f"{layer}.errors"] = errors[layer]
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("cli_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_argv = args.cli_argv[1:] if args.cli_argv[:1] == ["--"] else args.cli_argv

    from mesoparity import cli

    tracer = Tracer(args.run_id)
    tracer.install()
    rc = 1
    start = time.perf_counter()
    try:
        rc = cli.main(cli_argv)
    finally:
        main_s = time.perf_counter() - start
        payload = {
            "run_id": args.run_id,
            "rc": rc,
            "main_s": main_s,
            "metrics": summarize(tracer.spans, main_s),
            "spans": tracer.span_records(),
        }
        with open(args.spans_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, allow_nan=False)
    return rc


if __name__ == "__main__":
    sys.exit(main())
