import hashlib
import json
import math
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from mesoparity import bounds, circuits, cli, measurement, svgchart
from mesoparity.cli import (
    CSV_HEADER,
    CSV_SCHEMA_LINE,
    EXIT_USAGE,
    UsageError,
    emit_json,
    main,
    read_bound_csv,
    read_flat_config,
)
from mesoparity.states import ValidationError
from mesoparity.tolerances import TOL

import helpers

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

    @pytest.mark.parametrize("values", [
        [0.0], [0.0] * 5, [0.0, 0.0, 1.5], [2.5, 0.0, 0.0], [0.0, -0.0, 0.0, 0.0, 3.0, 0.0],
        [1.0, 0.0, 0.0, 0.0, 2.0, 3.0, 0.0],
    ])
    def test_runs_of_zeros(self, values):
        arr = np.array(values)
        assert emit_json(arr, indent=1) == emit_json(arr.tolist(), indent=1)

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


STREAMED = [
    {"x": [1, 2.5, None, {"y": [True, False, "s"]}], "z": {"w": [[], {}]}},
    {"zero": 0.0, "minus_zero": -0.0, "arr": np.array([0.0, -0.0, 5e-324])},
    {}, [], {"a": {}, "b": [], "c": np.zeros(0)},
    np.array([[0.5, 0.0], [1.0 / 3.0, -0.0]]),
    {"ints": np.array([1, 0, -2]), "mixed": [np.int64(3), np.float64(-0.0), "t"]},
    -0.0, "text", None,
]


class TestStreamedEmission:
    """A report streamed to ``--out`` has the bytes of the whole string."""

    @pytest.mark.parametrize("obj", STREAMED, ids=range(len(STREAMED)))
    def test_streamed_bytes_equal_the_string(self, tmp_path, capsys, obj):
        want = emit_json(obj) + "\n"
        out = tmp_path / "r.json"
        cli._write_json(str(out), obj)
        assert out.read_text(encoding="utf-8") == want
        cli._write_json("-", obj)
        assert capsys.readouterr().out == want

    def test_pieces_stay_small(self):
        report = {"outcomes": [{"id": i, "p": i / 7, "f_best": None, "sectors": None}
                               for i in range(2000)], "f_avg": 0.5}
        pieces = []
        emit_json(report, 0, pieces.append)
        assert "".join(pieces) == emit_json(report)
        assert len(pieces) > 2000
        assert max(map(len, pieces)) < 100

    def test_scalar_members_are_written_inline(self, monkeypatch):
        calls = []
        inner = cli.emit_json

        def counted(obj, *args):
            calls.append(type(obj).__name__)
            return inner(obj, *args)

        monkeypatch.setattr(cli, "emit_json", counted)
        entry = {"id": 3, "p": 0.25, "f_odd": None, "f_even": None, "f_best": None,
                 "sectors": None}
        counted({"outcomes": [entry, dict(entry, sectors=np.ones(3))], "f_avg": 0.5}, 0,
                [].append)
        # the report, its outcome list, both entries and the one array
        assert calls == ["dict", "list", "dict", "dict", "ndarray"]

    def test_failure_partway_leaves_no_file(self, tmp_path, monkeypatch):
        # f_avg follows the outcomes, so emission fails after writing them
        monkeypatch.setattr(cli, "average_fidelity", lambda records: math.nan)
        out = tmp_path / "r.json"
        assert main([*MIX, "--n", "9", "--epsilon", "0.3", "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert not list(tmp_path.iterdir())

    def test_mixture_report_memory_is_linear_in_the_report(self, tmp_path):
        """At N = 2000 the 12.5 MB report is streamed, not held, and no
        (N+1)^2 readout table is built."""
        out = tmp_path / "r.json"
        tracemalloc.start()
        try:
            rc = main([*MIX, "--n", "2000", "--epsilon", "0.5", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert out.stat().st_size > 12 * 10**6
        assert peak <= 20 * 2**20

    def test_mixture_simulate_holds_no_outcome_list(self, tmp_path):
        """Each outcome's entry is written as it is measured, so at N = 4000
        the peak stays far below the N^1.5 report held whole."""
        out = tmp_path / "r.json"
        tracemalloc.start()
        try:
            rc = main([*MIX, "--n", "4000", "--epsilon", "0.5", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak <= 4 * 2**20

    def test_dense_density_is_evolved_in_its_own_array(self, tmp_path):
        """At the N = 9 density cap the 64 MiB input is evolved in place, so
        the peak holds one joint-sized density, not the input and a copy."""
        out = tmp_path / "r.json"
        tracemalloc.start()
        try:
            rc = main([*MIX, "--n", "9", "--epsilon", "0.5", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak <= 1.25 * 64 * 2**20

    def test_failure_while_measuring_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        measured = []
        inner = measurement.measure

        def failing(*args, **kwargs):
            measured.append(1)
            if len(measured) == 3:
                raise ValidationError("injected failure on the third outcome")
            return inner(*args, **kwargs)

        monkeypatch.setattr(measurement, "measure", failing)
        out = tmp_path / "r.json"
        assert main([*MIX, "--n", "9", "--epsilon", "0.3", "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert not list(tmp_path.iterdir())
        assert "third outcome" in capsys.readouterr().err
        # stdout keeps the two entries written before the failure
        measured.clear()
        assert main([*MIX, "--n", "9", "--epsilon", "0.3", "--out", "-"]) == EXIT_USAGE
        text = capsys.readouterr().out
        assert text.startswith('{\n  "scenario": {')
        assert text.count('"id": ') == 2


LAZY = [
    ("empty generator", [], lambda: iter(())),
    ("float arrays",
     [{"id": i, "sectors": np.array([0.0, i / 3.0, -0.0, 0.0])} for i in range(3)],
     lambda: ({"id": i, "sectors": np.array([0.0, i / 3.0, -0.0, 0.0])} for i in range(3))),
    ("callable dict", {"f": 0.25, "d": {"x": [1, None]}},
     lambda: lambda: {"f": 0.25, "d": {"x": [1, None]}}),
]


class TestLazyMembers:
    """A generator is written as the list it yields, a zero-argument callable
    as the value it returns."""

    @pytest.mark.parametrize("name, value, make", LAZY, ids=[c[0] for c in LAZY])
    def test_same_bytes_as_the_materialized_value(self, tmp_path, name, value, make):
        for wrap in (lambda v: v(), lambda v: {"a": 1, "lazy": v(), "z": [v()]}):
            want = emit_json(wrap(lambda: value))
            assert emit_json(wrap(make)) == want
            out = tmp_path / "r.json"
            cli._write_json(str(out), wrap(make))
            assert out.read_text(encoding="utf-8") == want + "\n"

    def test_members_are_drawn_in_turn(self):
        order = []

        def entries():
            for i in range(2):
                order.append(f"yield {i}")
                yield {"id": i}

        def emitted(piece):
            order.append(piece)

        report = {"outcomes": entries(), "after": lambda: order.append("call") or 7}
        emit_json(report, 0, emitted)
        first = next(i for i, piece in enumerate(order) if '"id": 0' in piece)
        last = next(i for i, piece in enumerate(order) if '"id": 1' in piece)
        assert order.index("yield 1") > first
        assert order.index("call") > last


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

    def test_out_of_range_post_select_refused_before_any_state(self, monkeypatch, capsys):
        def no_state(spec):
            raise AssertionError("an input state was prepared")

        monkeypatch.setattr(circuits, "prepare_inputs", no_state)
        monkeypatch.setattr(circuits, "evolve", no_state)
        probe = ("--measurement", "two_outcome", "--g", "0.3", "--t-m", "1.1")
        for argv, bad in [
            (MIX + ("--n", "9", "--epsilon", "0.5"), "99"),
            (MIX + ("--n", "4", "--epsilon", "0.5"), "5"),  # ids 0..n
            (MIX + ("--n", "4", "--epsilon", "0.5"), "-1"),
            (("simulate", "--n", "4", "--measurement", "threshold_pvm"), "2"),
            (("simulate", "--n", "4", *probe), "2"),
        ]:
            assert main([*argv, "--post-select", bad]) == 2
            assert capsys.readouterr().err == (
                f"error: post_select={bad} is not an outcome of this measurement\n")
        # a scenario its backend refuses still exits 3 first
        argv = ["simulate", "--kind", "hamming_half", "--n", "10", "--epsilon", "0.3"]
        assert main([*argv, "--post-select", "99"]) == 3
        assert capsys.readouterr().err.startswith("representation error: no backend can run")

    def test_ghz_branch_phase_diagnostics(self):
        proc = run_cli("simulate", "--kind", "ghz_local", "--n", "2",
                       "--epsilon", "0")
        report = json.loads(proc.stdout)
        phases = report["diagnostics"]["branch_phases_vs_collective_flip"]
        assert phases["00"] == pytest.approx(0.0, abs=1e-10)
        assert phases["01"] == pytest.approx(math.pi / 2, abs=1e-10)

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("kind=parity_collective\nn=3\nepsilon=0\ndisentangle=false\n"
                       "measurement=two_outcome\ntheta=-1,0.5,-0.25,2\n")
        out = tmp_path / "r.json"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        scenario = json.loads(out.read_text())["scenario"]
        assert (scenario["n"], scenario["disentangle"]) == (3, False)
        assert scenario["theta"] == [-1.0, 0.5, -0.25, 2.0]
        assert main(["simulate", "--config", str(cfg), "--n", "4", "--theta=0,1,2,3,4",
                     "--disentangle", "--out", str(out)]) == 0
        scenario = json.loads(out.read_text())["scenario"]
        assert (scenario["n"], scenario["disentangle"]) == (4, True)
        assert scenario["theta"] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_config_file_seed_is_reported(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("n=2\nseed=5\n")
        for extra, seed in (((), 5), (("--seed", "7"), 7)):
            report = json.loads(run_cli("simulate", "--config", str(cfg), *extra).stdout)
            assert report["scenario"]["seed"] == seed

    @pytest.mark.parametrize("command, text, message", [
        ("simulate", "n=x\n", "argument --n: invalid int value: 'x'"),
        ("simulate", "n=3\ndisentangle=maybe\n",
         "argument --disentangle: not a boolean: 'maybe'"),
        ("simulate", "n=3\nkind=general_conditional\n", "argument --kind: invalid choice"),
        ("simulate", "n=3\nfoo=1\n", "unknown config keys: ['foo']"),
        ("simulate", "n=3\nconfig=other.cfg\n", "unknown config keys: ['config']"),
        ("bound", "n=1:3\nepsilon=0.5\nseed=3\n", "unknown config keys: ['seed']"),
    ], ids=["bad-int", "bad-bool", "bad-choice", "unknown-key", "config-key",
            "bound-seed-key"])
    def test_bad_config_values_exit_2(self, tmp_path, command, text, message):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(text)
        proc = run_cli(command, "--config", str(cfg), check=False)
        assert proc.returncode == 2
        assert message in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("kind, tag", [("parity_collective", "v_odd"),
                                           ("hamming_half", "v_even"),
                                           ("ghz_local", "v_odd")])
    def test_tags_refused_outside_parity_conditioned(self, tmp_path, kind, tag):
        flag = "--" + tag.replace("_", "-")
        proc = run_cli("simulate", "--kind", kind, "--n", "2", flag, "collective_flip",
                       check=False)
        assert proc.returncode == 2
        assert "apply to parity_conditioned circuits only" in proc.stderr
        cfg = tmp_path / "s.cfg"
        cfg.write_text(f"kind={kind}\nn=2\n{tag}=collective_flip\n")
        assert run_cli("simulate", "--config", str(cfg), check=False).returncode == 2

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
        dense and block-bit PureState reports are equal apart from the
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


def as_config_file(argv, path):
    """The same call with every config key moved from the flags into a
    key=value file at ``path``; ``--format`` stays a flag."""
    rest, lines, i = [argv[0]], [], 1
    while i < len(argv):
        key = argv[i][2:].replace("-", "_")
        if key == "format":
            rest += argv[i:i + 2]
            i += 2
        elif i + 1 == len(argv) or argv[i + 1].startswith("--"):
            lines.append(f"{key}=true")
            i += 1
        else:
            lines.append(f"{key}={argv[i + 1]}")
            i += 2
    path.write_text("\n".join(lines) + "\n")
    return [*rest, "--config", str(path)]


class TestPinnedReports:
    """Report bytes that must not move: the dense mixed reference (at N = 9
    also under the threshold readout and a theta table one of whose outcomes
    is supported on only some sectors), the density disentangle route, the
    sector mixture (at N = 2000 the benchmark's run), a pure threshold run, the density probe-qubit route, the
    Hamming-weight readout (dense, and on two block bits at N = 40 and 1000),
    the locally built entangler (dense, and on one block bit at N = 2000),
    the bound sweep in each format (its 1:1000 grid is the benchmark's), the
    two-outcome POVM built from a theta table, and the verify summary.  Each
    call but verify gives the same bytes when its inputs come from a config
    file."""

    PINNED = pytest.mark.parametrize("argv, digest", [
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
        (("simulate", "--kind", "hamming_half", "--n", "4", "--measurement", "sector_pvm",
          "--post-select", "2", "--disentangle"),
         "fe2f5c58c634fae7024fcd15533ba0b3139149ad8517867a5f9920aff5b2c289"),
        (("simulate", "--kind", "hamming_half", "--n", "40", "--backend", "collective"),
         "793c27b84b44efbdc7344a255a66f6d9220c3a05846e42680d713c3027ef69fb"),
        (("simulate", "--kind", "ghz_local", "--n", "8", "--disentangle"),
         "d7a91de568d5e71786094401cd554ba079fd85675f5cb5e07fac751c74da126e"),
        (SWEEP,
         "79713aa33abe30e061036eb984fcf8b43d5200e85edc1d9bf2407bb29fe7d598"),
        (SWEEP + ("--format", "json"),
         "66a18a61be5d2c93980db27815f1568074e8f7d8160a916f150156e267a5ad4a"),
        (SWEEP + ("--format", "svg"),
         "d01433e35ace62bafe8221ab52f3976602c071dec29fd917811e178402082474"),
        (("bound", "--n", "1:1000", "--polarization", "0.28125,0.40625,0.59375,0.71875",
          "--format", "csv"),
         "1fc79a82813d6d4333b634170eabca786f6009f49551c05975daaccb44ab8e76"),
        (("simulate", "--kind", "parity_collective", "--n", "4", "--epsilon", "0.3",
          "--measurement", "two_outcome", "--theta", "0.1,0.7,1.3,2.2,3.0"),
         "6ce04f76026b1a9351f04f59f91efaed944b189d8094343a39d9d629b8f88a7e"),
        (("simulate", "--kind", "hamming_half", "--n", "1000", "--backend", "collective",
          "--disentangle"),
         "e71c339716160827a253c8a6afe3771be5126194c329db9fe93e91e56ee736c5"),
        (("simulate", "--kind", "ghz_local", "--n", "2000", "--backend", "collective",
          "--disentangle"),
         "ba992771cc7e93733bce48ef10ae902aa06c25ae1616477c9b9d56a32eb271b9"),
        (MIX + ("--n", "9", "--epsilon", "0.5"),
         "0936b678741a37aedbb4d313baa03b47c1d412f31be67e308736c9e164ac9e6c"),
        (MIX + ("--n", "9", "--epsilon", "0.5", "--disentangle"),
         "fc966b3e2c42a18b472f34d838672d28162c14fc5065fd012f9eae8d89424fb8"),
        (("simulate", "--kind", "parity_collective", "--n", "9", "--epsilon", "0.3",
          "--measurement", "threshold_pvm"),
         "83661848e1384b09cd64cdc1f86f34b86b90880ed29d1b0cfd8fc6598fa043dd"),
        (("simulate", "--kind", "parity_collective", "--n", "9", "--epsilon", "0.3",
          "--measurement", "two_outcome", "--theta", "0,0,0,0,0,1,1,1,1,1"),
         "5f713baf8e01df4179effcce1c9ad90ac517ae6b5ec7c71fe51da7daa8c4571d"),
        (MIX + ("--n", "2000", "--epsilon", "0.5"),
         "8d357a1ed95144e843c9334f8e2f237071c19b802c4c35310baa6d67200654ea"),
    ], ids=["mixed-n9", "mixed-n8-disentangle", "mixture-n300-disentangle",
            "pure-threshold-n12", "density-probe-n4", "hamming-dense-n4-disentangle",
            "hamming-blocks-n40", "ghz-local-n8-disentangle", "bound-csv", "bound-json",
            "bound-svg", "bound-n1000-csv", "povm-two-outcome-n4",
            "hamming-blocks-n1000-disentangle", "ghz-local-blocks-n2000-disentangle",
            "mixed-n9-eps05", "mixed-n9-eps05-disentangle", "mixed-threshold-n9",
            "mixed-theta-partial-support-n9", "mixture-n2000-eps05"])

    @PINNED
    def test_report_sha256(self, tmp_path, argv, digest):
        out = tmp_path / "report.json"
        assert main([*argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @PINNED
    def test_report_sha256_from_config_file(self, tmp_path, argv, digest):
        out = tmp_path / "report.json"
        cfg_argv = as_config_file(argv, tmp_path / "run.cfg")
        assert main([*cfg_argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("argv, digest", [
        (("verify", "all"),
         "a4b7a9e4a420b1ae876b5aafd11683c6f14666aa9831d29a5c54af9cfba9a118"),
        (("verify", "all", "--seed", "7"),
         "f1a3ed166f41aa974860fa0ae4c01b9ff518b1320a1d5fcca13ebfe292a91d0e"),
    ], ids=["verify-all", "verify-all-seed7"])
    def test_verify_sha256(self, tmp_path, argv, digest):
        # verify reads no config file, so it has no config-file twin
        out = tmp_path / "verify.json"
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

    def test_failed_cross_check_exits_2_and_leaves_no_file(self, tmp_path, monkeypatch,
                                                           capsys):
        real = bounds.binomial_pmf

        def corrupt(n, p):
            rows = real(n, p)
            if n == 7:
                rows[np.asarray(p) == 1.0 - 0.3 / 2.0] *= 1.001
            return rows

        monkeypatch.setattr(bounds, "binomial_pmf", corrupt)
        out = tmp_path / "bound.csv"
        assert main(["bound", "--n", "1:10", "--epsilon", "0.1,0.3", "--out", str(out)]) == 2
        assert "bound forms disagree at N=7, eps=0.3:" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, bad):
        csv_path = tmp_path / "b.csv"
        svg_path = tmp_path / "b.svg"
        csv_path.write_text(f"{CSV_SCHEMA_LINE}\n{CSV_HEADER}\n"
                            f"1,0.5,0.5,0.75\n2,0.5,0.5,{bad}\n")
        proc = run_cli("plot", str(csv_path), "--out", str(svg_path), check=False)
        assert proc.returncode == 2
        assert f"{csv_path}:4:" in proc.stderr
        assert not svg_path.exists()

    def test_error_names_the_file_line_past_blank_lines(self, tmp_path):
        csv_path = tmp_path / "b.csv"
        rows = "".join(f"{n},0.5,0.5,0.75\n" for n in (1, 2, 3))
        csv_path.write_text(f"{CSV_SCHEMA_LINE}\n{CSV_HEADER}\n{rows}\n\n"
                            "4,0.5,0.5,0.75\n5,0.5,abc,0.75\n")
        proc = run_cli("plot", str(csv_path), check=False)
        assert proc.returncode == 2
        assert f"{csv_path}:9: could not convert string to float: 'abc'" in proc.stderr

    @pytest.mark.parametrize("text", ["a & b", "<x>", "&lt;", "&&><<", "N > 0 & f < 1", ""])
    def test_chart_escape_matches_saxutils(self, text):
        from xml.sax.saxutils import escape as sax_escape

        assert svgchart.escape(text) == sax_escape(text)

    def test_cli_import_skips_the_url_and_mail_stack(self):
        code = ("import sys, mesoparity.cli; "
                "print(sorted({'urllib.request', 'http.client', 'ssl', 'email'} "
                "& set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True)
        assert proc.stdout.strip() == "[]"


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


def _hamming_readout(name, n):
    """The `simulate` arguments of a readout and its coefficient rows a[m],
    m = 0..n, from first principles."""
    m = np.arange(n + 1)
    if name in ("sector_pvm", "threshold_pvm"):
        low = (m <= n // 2).astype(float)
        rows = np.eye(n + 1) if name == "sector_pvm" else [low, 1.0 - low]
        return ["--measurement", name], rows
    if name == "theta":
        theta = 0.37 * m
        argv = ["--theta", ",".join(repr(float(t)) for t in theta)]
    else:
        # the probe qubit's readout rotates it by theta(m) = g t_m m
        theta = 0.3 * 1.1 * m
        argv = ["--g", "0.3", "--t-m", "1.1"]
    return ["--measurement", "two_outcome", *argv], [np.cos(theta) ** 2, np.sin(theta) ** 2]


@pytest.mark.parametrize("readout", ["sector_pvm", "threshold_pvm", "theta", "probe"])
@pytest.mark.parametrize("disentangle", [False, True], ids=["kept", "disentangled"])
@pytest.mark.parametrize("eps", [0.3, 0.5])
@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_mixed_hamming_half_matches_closed_form(n, eps, readout, disentangle, tmp_path):
    # the paper's Hamming-weight route on the dense backend, against the
    # binomial closed form of `helpers.hamming_half_mixed`
    readout_argv, rows = _hamming_readout(readout, n)
    out = tmp_path / "report.json"
    argv = ["simulate", "--kind", "hamming_half", "--n", str(n), "--epsilon", str(eps),
            *readout_argv, "--out", str(out)] + (["--disentangle"] if disentangle else [])
    assert main(argv) == 0
    got = json.loads(out.read_text())["outcomes"]
    want = helpers.hamming_half_mixed(n, eps, rows, disentangle)
    assert len(got) == len(want)
    for entry, (p, f_odd, f_even, sectors) in zip(got, want):
        assert entry["p"] == pytest.approx(p, abs=TOL.accumulated, rel=0)
        if entry["f_odd"] is None:
            assert p < TOL.prob_floor + TOL.accumulated
            continue
        assert entry["f_odd"] == pytest.approx(f_odd, abs=TOL.accumulated, rel=0)
        assert entry["f_even"] == pytest.approx(f_even, abs=TOL.accumulated, rel=0)
        np.testing.assert_allclose(entry["sectors"], sectors, atol=TOL.accumulated, rtol=0)


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

    def test_cli_module_exits_with_the_code_of_main(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mesoparity.cli", "simulate", "--n", "1",
             "--epsilon", "0.5", "--polarization", "0.1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "disagree" in proc.stderr

    @pytest.mark.parametrize("argv", [
        ("simulate", "--n", "3"),
        ("bound", "--n", "1:3"),
    ], ids=["simulate", "bound"])
    def test_nan_polarization_disagrees(self, argv, tmp_path, capsys):
        # NaN agrees with no epsilon, so it is refused before any report
        out = tmp_path / "report"
        code = main([*argv, "--epsilon", "0.3", "--polarization", "nan", "--out", str(out)])
        assert code == 2
        assert "disagree" in capsys.readouterr().err
        assert not out.exists()

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
