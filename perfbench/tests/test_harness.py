"""Tests of the child-process harness and the oracle.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys

import pytest

import harness
import run
from conftest import BENCH, ROOT
from workloads import WORKLOADS, Invocation, ceiling


@pytest.fixture
def work(tmp_path):
    return tmp_path


@pytest.fixture
def launcher():
    with harness.Launcher(ROOT) as launcher:
        yield launcher


def test_known_ghz_local_mixed_crash_counts_as_failure(launcher, work):
    # Known defect: the branch-phase diagnostics call branch_ms_states on a
    # density and raise an uncaught TypeError.
    wl = WORKLOADS["dense-pure"]
    inv = Invocation("dense-pure", ("simulate", "--kind", "ghz_local", "--n", "3",
                                    "--epsilon", "0.3"), {"n": 3, "epsilon": 0.3})
    out = work / "report.json"
    sample = harness.invoke(launcher, harness.cli_command(inv.argv, out), work, out,
                            lambda text: wl.check(inv, text))
    assert sample.rc != 0
    assert sample.traceback
    assert sample.failed


def test_oracle_accepts_simulated_ceiling_and_rejects_a_perturbed_one(launcher, work):
    wl = WORKLOADS["mixture-large"]
    inv = wl.invocation(seed=3, n=40)
    out = work / "report.json"
    assert launcher.run(harness.cli_command(inv.argv, out), work / "err").rc == 0
    text = out.read_text()
    assert wl.check(inv, text) == []
    report = json.loads(text)
    report["f_avg"] += 1e-8
    assert any("f_avg" in p for p in wl.check(inv, json.dumps(report)))
    assert wl.check(inv, "not json")


def test_sweep_oracle_needs_every_grid_point_once(launcher, work):
    wl = WORKLOADS["bound-sweep"]
    inv = wl.invocation(seed=5, n=30)
    out = work / "report.csv"
    assert launcher.run(harness.cli_command(inv.argv, out), work / "err").rc == 0
    lines = out.read_text().splitlines()
    assert wl.check(inv, "\n".join(lines)) == []
    assert wl.check(inv, "\n".join(lines[:-1]))
    assert wl.check(inv, "\n".join(lines + lines[-1:]))


def test_oracle_matches_closed_form_at_small_n():
    # odd N=3: B(1; 3, p); even N=2: B(0; 2, p) + b(1; 2, p)/2, with p = eps/2
    p = 0.2
    assert ceiling(3, 0.4) == pytest.approx((1 - p) ** 3 + 3 * p * (1 - p) ** 2, abs=1e-15)
    assert ceiling(2, 0.4) == pytest.approx((1 - p) ** 2 + p * (1 - p), abs=1e-15)
    assert ceiling(7, 0.0) == 1.0


def test_peak_rss_is_per_child(launcher, work):
    # this test process holds numpy and scipy; a child spawned from it would
    # start its ru_maxrss at that size
    big = [sys.executable, "-c", "b = bytearray(300 * 2**20); b[::4096] = b'x' * len(b[::4096])"]
    small = [sys.executable, "-c", "pass"]
    first = launcher.run(big, work / "err")
    second = launcher.run(small, work / "err")
    assert first.peak_rss_mb > 300
    assert second.peak_rss_mb < 50


def test_seed_draws_recorded_inputs_deterministically():
    for wl in WORKLOADS.values():
        assert wl.invocation(7) == wl.invocation(7)
    eps = {WORKLOADS["mixture-large"].invocation(s).inputs["epsilon"] for s in range(20)}
    assert len(eps) > 1 and all(0.45 <= e <= 0.55 for e in eps)


def test_parse_importtime_splits_third_party_from_package():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | encodings",
        "import time:        10 |         10 |   mesoparity",
        "import time:       500 |       1500 |   numpy",
        "import time:        40 |         40 |         scipy",
        "import time:       200 |       3240 |       scipy.special",
        "import time:        50 |       3290 |     mesoparity.collective",
        "import time:        20 |       4820 | mesoparity.cli",
    ])
    got = harness.parse_importtime(text)
    assert got["setup.numpy_import_s"] == pytest.approx(1500e-6)
    assert got["setup.scipy_import_s"] == pytest.approx(3240e-6)
    assert got["setup.mesoparity_import_s"] == pytest.approx(80e-6)


def test_per_layer_names_are_all_produced():
    import tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set(tracer.summarize([], 1.0)) | {
        "setup.numpy_import_s", "setup.scipy_import_s", "setup.mesoparity_import_s",
        "trace.overhead_frac", "mixture.emit_exponent", "mixture.emit_calls_exponent",
        "mixture.measure_exponent"}
    assert {m["name"] for m in spec["per_layer"]} <= produced
    # dense-pure is run by hand only; see NOTES.md
    assert {w["name"] for w in spec["workloads"]} | {"dense-pure"} == set(WORKLOADS)


def test_traced_run_reports_overhead(launcher, work):
    wl = WORKLOADS["bound-sweep"]
    inv = wl.invocation(seed=1, n=40)
    metrics, samples, _ = run.traced_run(launcher, wl, inv, 1, 0.0, work, "selftest")
    assert not any(s.failed for s in samples)
    assert "trace.overhead_frac" in metrics
    assert metrics["bounds.rows"] == 160


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense-pure", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
