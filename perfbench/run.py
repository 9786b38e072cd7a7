"""Benchmark of the mesoparity command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.

With ``--trace 0`` it runs the workload's CLI command again and again, one
fresh interpreter at a time (a closed loop with a single client), at least
three times and as often as fits in ``S`` seconds, and checks every report
against the oracle in ``workloads.py``.  Each round runs on the next usable
CPU in turn.  Before each invocation a fresh interpreter imports
``mesoparity.cli`` and exits, which gives ``setup_s``.  Each end-to-end metric
is the median over the invocations of the run.

With ``--trace 1`` it alternates untraced invocations with invocations under
``tracer.py`` for ``S`` seconds and reports the per-layer metrics: medians over
the traced invocations, import times from ``python -X importtime``, and the
tracing overhead.  On ``mixture-large`` it also traces the same command at N/4
to give the scaling exponents.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, whose names and units come from
``BENCHMARK.json``.  Everything else a run measures, with the machine it ran
on, goes to ``.perfbench_out/results/BENCH_<workload>_seed<N>_trace<T>.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import statistics
import sys
import time
from pathlib import Path

import harness
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
MIN_SAMPLES = 3
IMPORTTIME_PROBES = 3
QUARTER_PROBES = 5


def _median(values) -> float:
    return float(statistics.median(values))


def rounds(seconds, minimum):
    """Yield once per round, at least ``minimum`` times, and then while the
    typical round so far still fits before the deadline ``seconds`` from now."""
    start = time.perf_counter()
    deadline = start + seconds
    took = []
    while len(took) < minimum or time.perf_counter() + _median(took) <= deadline:
        yield
        now = time.perf_counter()
        took.append(now - start)
        start = now


def timed_run(launcher, wl, inv, seconds, work):
    out = work / f"report{wl.report_suffix}"
    cmd = harness.cli_command(inv.argv, out)
    check = functools.partial(wl.check, inv)
    samples, setups = [], []
    for _ in rounds(seconds, MIN_SAMPLES):
        launcher.next_cpu()
        setups.append(harness.setup_probe(launcher, work))
        samples.append(harness.invoke(launcher, cmd, work, out, check))
    metrics = {
        "wall_s": _median(s.wall_s for s in samples),
        "cpu_s": _median(s.cpu_s for s in samples),
        "setup_s": _median(setups),
        "peak_rss_mb": _median(s.peak_rss_mb for s in samples),
        "report_bytes": _median(s.report_bytes for s in samples),
    }
    return metrics, samples, {"setup_s": setups}


def _traced(launcher, wl, inv, work, spans_path, run_id):
    out = work / f"report{wl.report_suffix}"
    cmd = [sys.executable, str(HERE / "tracer.py"), "--run-id", run_id,
           "--spans-out", str(spans_path), "--", *inv.argv, "--out", str(out)]
    spans_path.unlink(missing_ok=True)
    sample = harness.invoke(launcher, cmd, work, out, functools.partial(wl.check, inv))
    layer = None
    if not sample.failed:
        layer = json.loads(spans_path.read_text())["metrics"]
    return sample, layer


def _layer_medians(layers) -> dict:
    if not layers:
        return {}
    return {k: _median(m[k] for m in layers) for k in layers[0]}


def traced_run(launcher, wl, inv, seed, seconds, work, tag):
    imports = [harness.importtime_probe(launcher, work) for _ in range(IMPORTTIME_PROBES)]
    spans_path = OUT / "results" / f"spans_{tag}.json"
    out = work / f"report{wl.report_suffix}"
    cmd = harness.cli_command(inv.argv, out)
    check = functools.partial(wl.check, inv)
    untraced, traced, layers = [], [], []
    for _ in rounds(seconds, 1):
        launcher.next_cpu()
        untraced.append(harness.invoke(launcher, cmd, work, out, check))
        sample, layer = _traced(launcher, wl, inv, work, spans_path, f"{tag}-{len(traced)}")
        traced.append(sample)
        if layer is not None:
            layers.append(layer)

    metrics = _layer_medians(imports)
    metrics.update(_layer_medians(layers))
    metrics["trace.overhead_frac"] = (_median(s.wall_s for s in traced)
                                      / _median(s.wall_s for s in untraced) - 1.0)
    exponents = {"mixture.emit_exponent": "cli.emit_s",
                 "mixture.emit_calls_exponent": "cli.emit_calls",
                 "mixture.measure_exponent": "measurement.measure_s"}
    metrics.update(dict.fromkeys(exponents, 0.0))
    samples = untraced + traced
    if wl.name == "mixture-large" and layers:
        quarter = wl.invocation(seed, n=inv.inputs["n"] // 4)
        quarter_layers = []
        for i in range(QUARTER_PROBES):
            sample, layer = _traced(launcher, wl, quarter, work,
                                    OUT / "results" / f"spans_{tag}_quarter.json",
                                    f"{tag}-quarter-{i}")
            samples.append(sample)
            if layer is not None:
                quarter_layers.append(layer)
        if quarter_layers:
            small = _layer_medians(quarter_layers)
            for name, key in exponents.items():
                metrics[name] = math.log(metrics[key] / small[key], 4)
    extra = {"traced_wall_s": [s.wall_s for s in traced],
             "untraced_wall_s": [s.wall_s for s in untraced]}
    return metrics, samples, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the mesoparity CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mesoparity" / "cli.py").is_file():
        print(f"error: no mesoparity sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    wl = WORKLOADS[args.workload]
    inv = wl.invocation(args.seed)
    tag = f"{wl.name}_seed{args.seed}_trace{args.trace}"
    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    (OUT / "results").mkdir(exist_ok=True)
    with harness.Launcher(ROOT) as launcher:
        env = harness.environment(ROOT)
        print(f"workload {wl.name}: {wl.why}")
        print(f"inputs: {json.dumps(inv.inputs)}")
        print(f"command: python -m mesoparity {' '.join(inv.argv)}")
        print(f"environment: {json.dumps(env)}")
        harness.setup_probe(launcher, work)  # compile bytecode and warm the file cache untimed

        if args.trace:
            metrics, samples, extra = traced_run(launcher, wl, inv, args.seed, args.seconds,
                                                 work, tag)
        else:
            metrics, samples, extra = timed_run(launcher, wl, inv, args.seconds, work)

    failed = [s for s in samples if s.failed]
    for s in failed[:5]:
        print(f"failed invocation: rc={s.rc} traceback={s.traceback} problems={s.problems}",
              file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    result_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                      for m in wanted}
    counted = "traced and untraced invocations" if args.trace else "invocations"
    basis = "" if args.trace else f" (median of {len(samples)} {counted})"
    for name, entry in result_metrics.items():
        print(f"{name} = {entry['value']!r} {entry['unit']}{basis}")
    fail_frac = len(failed) / len(samples)
    print(f"fail_frac = {fail_frac!r} ({len(failed)} of {len(samples)} {counted} failed)")

    record = {
        "workload": wl.name, "why": wl.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": inv.inputs, "argv": list(inv.argv),
        "environment": env, "metrics": result_metrics, "fail_frac": fail_frac,
        "samples": [dataclasses.asdict(s) for s in samples],
        "report_sha256": sorted({s.sha256 for s in samples if not s.failed}),
        **extra,
    }
    path = OUT / "results" / f"BENCH_{tag}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": not failed, "attempted": len(samples),
                      "failed": len(failed), "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
