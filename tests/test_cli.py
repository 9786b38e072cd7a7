import hashlib
import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from mesoparity import bounds
from mesoparity.cli import (
    CSV_HEADER,
    CSV_SCHEMA_LINE,
    UsageError,
    emit_json,
    main,
    read_bound_csv,
    read_flat_config,
)
from mesoparity.states import ValidationError

EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
               0.30000000000000004, 0.33333333333333331, 1.2345678901234567e-200)
FLOAT64_ARRAYS = arrays(
    np.float64,
    st.integers(0, 12),
    elements=st.sampled_from(EDGE_FLOATS)
    | st.floats(allow_nan=False, allow_infinity=False),
)


def run_cli(*argv, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "mesoparity", *argv],
        capture_output=True, text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    return proc


class TestJsonEmitter:
    def test_float_formatting(self):
        assert emit_json(0.75) == "0.75"
        assert emit_json(1.0 / 3.0) == "0.33333333333333331"

    def test_null_and_bools(self):
        assert emit_json({"a": None, "b": True}) == '{\n  "a": null,\n  "b": true\n}'

    def test_nested_round_trips_through_stdlib(self):
        obj = {"x": [1, 2.5, None], "y": {"z": "s"}}
        assert json.loads(emit_json(obj)) == obj

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            emit_json(float("nan"))

    def test_numpy_scalars_accepted(self):
        assert emit_json(np.float64(0.5)) == "0.5"
        assert emit_json(np.int64(3)) == "3"


class TestFloatArrayEmitter:
    """The bulk 1-D float64 path must write the bytes of the generic list path."""

    @given(FLOAT64_ARRAYS, st.integers(0, 3))
    def test_matches_list_path(self, arr, indent):
        assert emit_json(arr, indent=indent) == emit_json(arr.tolist(), indent=indent)

    @given(FLOAT64_ARRAYS, FLOAT64_ARRAYS, st.integers(0, 3))
    def test_matches_list_path_when_nested(self, a, b, indent):
        got = emit_json({"a": a, "b": [b, {"c": a}], "d": 1.5}, indent=indent)
        want = emit_json({"a": a.tolist(), "b": [b.tolist(), {"c": a.tolist()}],
                          "d": 1.5}, indent=indent)
        assert got == want

    def test_edge_values(self):
        arr = np.array(EDGE_FLOATS)
        assert emit_json(arr) == emit_json(arr.tolist())
        assert emit_json(np.array([0.0, -0.0])) == "[\n  0,\n  -0\n]"

    def test_empty(self):
        assert emit_json(np.array([], dtype=np.float64)) == "[]"
        assert emit_json({"s": np.zeros(0)}, indent=2) == '{\n      "s": []\n    }'

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [0, 3, 6])
    def test_non_finite_rejected(self, bad, where):
        arr = np.linspace(0.0, 1.0, 7)
        arr[where] = bad
        with pytest.raises(ValidationError):
            emit_json(arr)
        with pytest.raises(ValidationError):
            emit_json({"outcomes": [{"sectors": arr}]})

    def test_other_arrays_keep_generic_bytes(self):
        assert (emit_json(np.array([0.1, 0.0, -0.0, 2.5], dtype=np.float32))
                == "[\n  0.10000000149011612,\n  0,\n  -0,\n  2.5\n]")
        assert emit_json(np.array([1, 0, -2])) == "[\n  1,\n  0,\n  -2\n]"
        assert (emit_json(np.array([[0.5, 0.0], [1.0 / 3.0, -0.0]]))
                == "[\n  [\n    0.5,\n    0\n  ],\n"
                   "  [\n    0.33333333333333331,\n    -0\n  ]\n]")


class TestFlatConfig:
    def test_parse(self, tmp_path):
        p = tmp_path / "scenario.cfg"
        p.write_text("# demo\nkind = parity_collective\nn=3\nepsilon = 0.0\n\n")
        assert read_flat_config(str(p)) == {
            "kind": "parity_collective", "n": "3", "epsilon": "0.0"
        }

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("this is not a pair\n")
        with pytest.raises(UsageError):
            read_flat_config(str(p))


class TestSimulate:
    def test_perfect_parity_report(self):
        theta = ",".join(str(m * math.pi / 6.0) for m in range(4))
        proc = run_cli("simulate", "--kind", "parity_collective", "--n", "3",
                       "--epsilon", "0", "--measurement", "two_outcome",
                       "--theta", theta)
        report = json.loads(proc.stdout)
        probs = [o["p"] for o in report["outcomes"]]
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)
        assert report["f_avg"] == pytest.approx(1.0, abs=1e-12)
        assert report["scenario"]["polarization"] == 1

    def test_identity_conditioning_gives_half(self):
        proc = run_cli("simulate", "--kind", "parity_conditioned", "--n", "2",
                       "--epsilon", "0.3")
        report = json.loads(proc.stdout)
        assert report["f_avg"] == pytest.approx(0.5, abs=1e-12)

    def test_hamming_post_selection(self):
        proc = run_cli("simulate", "--kind", "hamming_half", "--n", "4",
                       "--epsilon", "0", "--post-select", "2", "--disentangle")
        report = json.loads(proc.stdout)
        by_id = {o["id"]: o for o in report["outcomes"]}
        assert by_id[0]["p"] == pytest.approx(0.25, abs=1e-12)
        assert by_id[2]["p"] == pytest.approx(0.5, abs=1e-12)
        assert by_id[4]["p"] == pytest.approx(0.25, abs=1e-12)
        assert by_id[2]["f_odd"] == pytest.approx(1.0, abs=1e-12)
        assert report["diagnostics"]["post_selected"]["id"] == 2

    def test_ghz_branch_phase_diagnostics(self):
        proc = run_cli("simulate", "--kind", "ghz_local", "--n", "2",
                       "--epsilon", "0")
        report = json.loads(proc.stdout)
        phases = report["diagnostics"]["branch_phases_vs_collective_flip"]
        assert phases["00"] == pytest.approx(0.0, abs=1e-10)
        assert phases["01"] == pytest.approx(math.pi / 2, abs=1e-10)

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("kind=parity_collective\nn=2\nepsilon=0\n")
        proc = run_cli("simulate", "--config", str(cfg), "--n", "3")
        report = json.loads(proc.stdout)
        assert report["scenario"]["n"] == 3

    def test_dense_and_collective_backends_agree(self, tmp_path):
        """At n=9, the largest mixed input that still fits the dense density,
        the DensityOperator and SectorMixture reports differ only in the
        requested and resolved backend names and in rounding."""
        reports = {}
        for backend in ("dense", "collective"):
            out = tmp_path / f"{backend}.json"
            assert main(["simulate", "--kind", "parity_conditioned",
                         "--v-odd", "collective_flip", "--n", "9",
                         "--epsilon", "0.3", "--backend", backend,
                         "--out", str(out)]) == 0
            reports[backend] = json.loads(out.read_text())
        dense, coll = reports["dense"], reports["collective"]
        for report, backend in ((dense, "dense"), (coll, "collective")):
            assert report["scenario"].pop("backend") == backend
            assert report["diagnostics"].pop("backend") == backend
        assert [o["id"] for o in dense["outcomes"]] == [o["id"] for o in coll["outcomes"]]
        assert dense["scenario"] == coll["scenario"]
        assert dense["diagnostics"].keys() == coll["diagnostics"].keys()
        for d, c in zip(dense["outcomes"], coll["outcomes"]):
            for key in ("p", "f_odd", "f_even", "f_best"):
                assert d[key] == pytest.approx(c[key], abs=1e-12, rel=0)
            np.testing.assert_allclose(d["sectors"], c["sectors"], atol=1e-12, rtol=0)
        assert dense["f_avg"] == pytest.approx(coll["f_avg"], abs=1e-12, rel=0)
        np.testing.assert_allclose(dense["diagnostics"]["pre_measurement_sectors"],
                                   coll["diagnostics"]["pre_measurement_sectors"],
                                   atol=1e-12, rtol=0)
        assert (dense["diagnostics"]["branch_phases_vs_collective_flip"]
                == coll["diagnostics"]["branch_phases_vs_collective_flip"])

    @pytest.mark.parametrize("extra", [
        ("--kind", "parity_collective"),
        ("--kind", "hamming_half"),
        ("--kind", "ghz_local", "--disentangle"),
    ])
    def test_backends_agree_at_the_auto_switch_point(self, tmp_path, extra):
        """n=20 is the largest pure input that still fits the dense cap: the
        PureState and CollectiveBlockState reports are equal apart from the
        requested and resolved backend names."""
        reports = {}
        for backend in ("dense", "collective"):
            out = tmp_path / f"{backend}.json"
            assert main(["simulate", *extra, "--n", "20", "--backend", backend,
                         "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            assert report["scenario"].pop("backend") == backend
            assert report["diagnostics"].pop("backend") == backend
            reports[backend] = report
        assert reports["dense"] == reports["collective"]

    def test_auto_resolves_to_collective_past_the_dense_cap(self, tmp_path):
        out = tmp_path / "auto.json"
        assert main(["simulate", "--kind", "parity_collective", "--n", "21",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["scenario"]["backend"] == "auto"
        assert report["diagnostics"]["backend"] == "collective"

    def test_mixed_input_past_the_density_cap(self, tmp_path):
        """n=10 mixed is one past the 2^11 density cap: `auto` resolves it to
        the sector mixture, and forcing the dense backend is refused."""
        args = ["simulate", "--kind", "parity_conditioned", "--v-odd", "collective_flip",
                "--n", "10", "--epsilon", "0.3"]
        out = tmp_path / "auto.json"
        assert main([*args, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["scenario"]["backend"] == "auto"
        assert report["diagnostics"]["backend"] == "collective"
        proc = run_cli(*args, "--backend", "dense", check=False)
        assert proc.returncode == 3
        assert "dense density cap 2048" in proc.stderr

    def test_byte_determinism(self):
        args = ("simulate", "--kind", "parity_collective", "--n", "4",
                "--epsilon", "0.2", "--measurement", "threshold_pvm")
        assert run_cli(*args).stdout == run_cli(*args).stdout


MIX = ("simulate", "--kind", "parity_conditioned", "--v-odd", "collective_flip",
       "--measurement", "sector_pvm")
SWEEP = ("bound", "--n", "1:100", "--polarization", "0.5,0.7,0.9,0.99")


class TestPinnedReports:
    """Report bytes that must not move: the dense mixed reference, the
    density disentangle route, the sector mixture, a pure threshold run, the
    density probe-qubit route and the bound sweep in each format (its 1:1000
    grid is the benchmark's)."""

    @pytest.mark.parametrize("argv, digest", [
        (MIX + ("--n", "9", "--epsilon", "0.3"),
         "1dd3e744e6623541f6f1907da67ce7f5c34f60697b55b58d8c5cd233bd756c9c"),
        (MIX + ("--n", "8", "--epsilon", "0.3", "--post-select", "3", "--disentangle"),
         "03489701dc127148e73e260bdedc693bb0cac5311f92439d62d6f254919d980b"),
        (MIX + ("--n", "300", "--epsilon", "0.5", "--post-select", "7", "--disentangle"),
         "e79e8b0ca9f55d335f0975324e614a0fdad515f7f7c08e596d67e132364f359e"),
        (("simulate", "--kind", "parity_collective", "--n", "12",
          "--measurement", "threshold_pvm", "--disentangle"),
         "22a0da6e94ecb5d944e5d7595dd6f740696dfb995454bc05bbbf4d1324a7bb2b"),
        (("simulate", "--kind", "parity_collective", "--n", "4", "--epsilon", "0.3",
          "--measurement", "two_outcome", "--g", "0.3", "--t-m", "1.1"),
         "9c8d778fbfc50f0e030d618ecb38c4e5f3cf44498484974d4135b4d5abf49d19"),
        (SWEEP,
         "79713aa33abe30e061036eb984fcf8b43d5200e85edc1d9bf2407bb29fe7d598"),
        (SWEEP + ("--format", "json"),
         "66a18a61be5d2c93980db27815f1568074e8f7d8160a916f150156e267a5ad4a"),
        (SWEEP + ("--format", "svg"),
         "d01433e35ace62bafe8221ab52f3976602c071dec29fd917811e178402082474"),
        (("bound", "--n", "1:1000", "--polarization", "0.28125,0.40625,0.59375,0.71875",
          "--format", "csv"),
         "1fc79a82813d6d4333b634170eabca786f6009f49551c05975daaccb44ab8e76"),
    ], ids=["mixed-n9", "mixed-n8-disentangle", "mixture-n300-disentangle",
            "pure-threshold-n12", "density-probe-n4", "bound-csv", "bound-json",
            "bound-svg", "bound-n1000-csv"])
    def test_report_sha256(self, tmp_path, argv, digest):
        out = tmp_path / "report.json"
        assert main([*argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestBound:
    def test_csv_schema_and_values(self, tmp_path):
        out = tmp_path / "bound.csv"
        run_cli("bound", "--n", "1,2,50", "--epsilon", "0.5",
                "--out", str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_SCHEMA_LINE
        assert lines[1] == CSV_HEADER
        rows = {int(ln.split(",")[0]): ln.split(",") for ln in lines[2:]}
        assert float(rows[2][3]) == pytest.approx(0.75, abs=1e-15)
        assert float(rows[50][3]) == pytest.approx(0.9999, abs=5e-5)
        assert float(rows[50][2]) == pytest.approx(0.5)

    def test_rows_sorted_by_grid(self, tmp_path):
        out = tmp_path / "bound.csv"
        run_cli("bound", "--n", "5,1,3", "--epsilon", "0.7,0.1", "--out", str(out))
        rows = read_bound_csv(str(out))
        assert [(r[0], r[1]) for r in rows] == sorted((r[0], r[1]) for r in rows)

    def test_polarization_input(self, tmp_path):
        out = tmp_path / "bound.csv"
        run_cli("bound", "--n", "2", "--polarization", "0.5", "--out", str(out))
        rows = read_bound_csv(str(out))
        assert rows[0][1] == pytest.approx(0.5)
        assert rows[0][3] == pytest.approx(0.75)

    def test_json_format(self):
        proc = run_cli("bound", "--n", "2:4", "--epsilon", "0.5", "--format", "json")
        payload = json.loads(proc.stdout)
        assert payload["schema"] == 1
        assert [r["n"] for r in payload["rows"]] == [2, 3, 4]

    def test_svg_format(self):
        proc = run_cli("bound", "--n", "1:10", "--epsilon", "0.1,0.5",
                       "--format", "svg")
        assert proc.stdout.startswith("<svg")
        assert proc.stdout.count("<polyline") == 2

    def test_byte_determinism(self):
        args = ("bound", "--n", "1:40", "--epsilon", "0.2,0.6")
        assert run_cli(*args).stdout == run_cli(*args).stdout


class TestPlot:
    def test_round_trip(self, tmp_path):
        csv_path = tmp_path / "b.csv"
        svg_path = tmp_path / "b.svg"
        run_cli("bound", "--n", "1:20", "--polarization", "0.5,0.7,0.9,0.99",
                "--out", str(csv_path))
        run_cli("plot", str(csv_path), "--out", str(svg_path))
        text = svg_path.read_text()
        assert text.count("<polyline") == 4
        assert "polarization 0.9" in text

    def test_malformed_csv_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("no schema here\n")
        proc = run_cli("plot", str(bad), check=False)
        assert proc.returncode == 2

    def test_empty_csv_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text(f"{CSV_SCHEMA_LINE}\n{CSV_HEADER}\n")
        proc = run_cli("plot", str(empty), check=False)
        assert proc.returncode == 2


class TestVerifyCommand:
    def test_single_suite_passes(self):
        proc = run_cli("verify", "bound-saturation", "--seed", "3")
        payload = json.loads(proc.stdout)
        assert payload["passed"] is True
        names = [c["name"] for s in payload["suites"] for c in s["checks"]]
        assert any("simulated_optimum" in name for name in names)

    def test_unknown_suite_exits_2(self):
        proc = run_cli("verify", "nonsense", check=False)
        assert proc.returncode == 2

    def test_beaten_bound_fails_the_search_check(self, tmp_path, monkeypatch):
        # a ceiling of 1/2 is beaten by random strategies: the suite reports
        # the violations as a failed check and exits 1, it does not raise
        monkeypatch.setattr(bounds, "bound_closed_form", lambda n, eps: 0.5)
        out = tmp_path / "verify.json"
        assert main(["verify", "bound-search", "--out", str(out)]) == 1
        payload = json.loads(out.read_text())
        checks = {c["name"]: c for s in payload["suites"] for c in s["checks"]}
        assert payload["passed"] is False
        assert checks["no_random_strategy_beats_bound"]["passed"] is False
        assert checks["no_random_strategy_beats_bound"]["value"] > 0


class TestExitCodes:
    def test_inconsistent_epsilon_polarization(self):
        proc = run_cli("simulate", "--n", "2", "--epsilon", "0.5",
                       "--polarization", "0.9", check=False)
        assert proc.returncode == 2

    def test_representation_error(self):
        proc = run_cli("simulate", "--kind", "ghz_local", "--n", "3",
                       "--epsilon", "0.5", "--backend", "collective", check=False)
        assert proc.returncode == 3

    def test_io_error(self):
        proc = run_cli("bound", "--n", "2", "--epsilon", "0.5",
                       "--out", "/nonexistent-dir/x.csv", check=False)
        assert proc.returncode == 4

    def test_main_callable_directly(self, capsys):
        code = main(["simulate", "--n", "1", "--epsilon", "0.5",
                     "--polarization", "0.1"])
        assert code == 2
        assert "disagree" in capsys.readouterr().err


def readme_commands():
    """Every `python -m mesoparity` line of README's command-line block, with
    backslash continuations joined, as argument lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    prefix = ["python", "-m", "mesoparity"]
    return [argv[3:] for argv in map(shlex.split, lines) if argv[:3] == prefix]


def test_readme_commands_run_in_order(tmp_path, monkeypatch):
    commands = readme_commands()
    assert [argv[0] for argv in commands] == [
        "simulate", "simulate", "bound", "bound", "plot", "verify"]
    # one directory for all of them, so that `plot bound.csv` reads what
    # `bound --out bound.csv` wrote
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / argv[i])
        assert main(argv) == 0, argv


def test_cli_import_loads_no_scipy():
    # the runtime needs numpy only; scipy is an oracle of the tests
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, mesoparity.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "[]"
