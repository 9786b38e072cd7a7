import hashlib
import itertools
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
    """A list of scalars is written on one line, and the bulk 1-D float64
    path writes the bytes of that generic list path."""

    @staticmethod
    def one_line(values):
        return "[" + ", ".join("%.17g" % v for v in values) + "]"

    @given(FLOAT64_ARRAYS, st.integers(0, 3))
    def test_matches_list_path(self, arr, indent):
        got = emit_json(arr, indent=indent)
        assert got == emit_json(arr.tolist(), indent=indent) == self.one_line(arr.tolist())

    @given(FLOAT64_ARRAYS, FLOAT64_ARRAYS, st.integers(0, 3))
    def test_matches_list_path_when_nested(self, a, b, indent):
        got = emit_json({"a": a, "b": [b, {"c": a}], "d": 1.5}, indent=indent)
        want = emit_json({"a": a.tolist(), "b": [b.tolist(), {"c": a.tolist()}],
                          "d": 1.5}, indent=indent)
        assert got == want
        # each array takes one line, whatever its length
        empty = emit_json({"a": [], "b": [[], {"c": []}], "d": 1.5}, indent=indent)
        assert got.count("\n") == empty.count("\n") == 9

    def test_edge_values(self):
        arr = np.array(EDGE_FLOATS)
        assert emit_json(arr) == emit_json(arr.tolist()) == self.one_line(EDGE_FLOATS)
        assert emit_json(np.array([0.0, -0.0])) == "[0, -0]"

    @pytest.mark.parametrize("values", [
        [0.0], [0.0] * 5, [0.0, 0.0, 1.5], [2.5, 0.0, 0.0], [0.0, -0.0, 0.0, 0.0, 3.0, 0.0],
        [1.0, 0.0, 0.0, 0.0, 2.0, 3.0, 0.0],
    ])
    def test_runs_of_zeros(self, values):
        arr = np.array(values)
        got = emit_json(arr, indent=1)
        assert got == emit_json(arr.tolist(), indent=1) == self.one_line(values)

    def test_empty(self):
        assert emit_json(np.array([], dtype=np.float64)) == "[]"
        assert emit_json({"s": np.zeros(0)}, indent=2) == '{\n      "s": []\n    }'

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [0, 3, 6])
    def test_non_finite_rejected(self, bad, where):
        arr = np.linspace(0.0, 1.0, 7)
        arr[where] = bad
        for obj in (arr, arr.tolist(), {"outcomes": [{"sectors": arr}]},
                    {"outcomes": [{"sectors": arr.tolist()}]}):
            with pytest.raises(ValidationError):
                emit_json(obj)

    def test_other_arrays_keep_generic_bytes(self):
        assert (emit_json(np.array([0.1, 0.0, -0.0, 2.5], dtype=np.float32))
                == "[0.10000000149011612, 0, -0, 2.5]")
        assert emit_json(np.array([1, 0, -2])) == "[1, 0, -2]"
        # a 2-D array is a list of lists: one row per line
        rows = np.array([[0.5, 0.0], [1.0 / 3.0, -0.0]])
        assert emit_json(rows) == "[\n  [0.5, 0],\n  [0.33333333333333331, -0]\n]"
        assert emit_json(rows) == emit_json(rows.tolist())

    def test_mixed_lists_keep_one_member_per_line(self):
        assert emit_json([1, "s", None, True]) == '[1, "s", null, true]'
        assert emit_json((2.5, [1])) == "[\n  2.5,\n  [1]\n]"
        assert emit_json([{}, 0.5]) == "[\n  {},\n  0.5\n]"

    def test_iterator_of_scalars_keeps_one_member_per_line(self):
        # an iterator cannot be inspected before its members are drawn
        assert emit_json(iter([1, 2.5])) == "[\n  1,\n  2.5\n]"
        assert (emit_json({"g": (x / 4 for x in range(2))})
                == '{\n  "g": [\n    0,\n    0.25\n  ]\n}')


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
        """At N = 2000 the 3.8 MB report is streamed, not held, and no
        (N+1)^2 readout table (32 MB) is built."""
        out = tmp_path / "r.json"
        tracemalloc.start()
        try:
            rc = main([*MIX, "--n", "2000", "--epsilon", "0.5", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert out.stat().st_size > 3 * 10**6
        assert peak <= 2 * 2**20

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


# the kinds and tag pairs the collective backend runs on mixed inputs
PARITY_FAMILY = [("--kind", "parity_collective")] + [
    ("--kind", "parity_conditioned", "--v-odd", odd, "--v-even", even)
    for odd in ("identity", "collective_flip") for even in ("identity", "collective_flip")]


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

    def test_mixed_ghz_branch_phases_are_null(self, tmp_path):
        # a density has no branch vectors, so the diagnostic is null and the
        # report is written
        out = tmp_path / "r.json"
        argv = ["simulate", "--kind", "ghz_local", "--n", "3", "--epsilon", "0.3"]
        assert main([*argv, "--out", str(out)]) == 0
        diagnostics = json.loads(out.read_text())["diagnostics"]
        assert diagnostics["backend"] == "dense"
        assert diagnostics["branch_phases_vs_collective_flip"] is None

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
        requested and resolved backend names and in rounding, for every kind
        and tag pair of the parity family, every readout, with and without
        ``--disentangle``."""
        for kind, readout, extra in itertools.product(
                PARITY_FAMILY, ("sector_pvm", "threshold_pvm", "theta", "probe"),
                ((), ("--disentangle",))):
            argv = ["simulate", *kind, *_hamming_readout(readout, 9)[0], "--n", "9",
                    "--epsilon", "0.3", *extra]
            self._assert_backends_agree(tmp_path, argv)

    @staticmethod
    def _assert_backends_agree(tmp_path, argv):
        reports = {}
        for backend in ("dense", "collective"):
            out = tmp_path / f"{backend}.json"
            assert main([*argv, "--backend", backend, "--out", str(out)]) == 0
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


def value_sha256(data: bytes) -> str:
    """The sha256 of a report's value, whatever its layout: JSON parsed and
    written again with fixed separators and its own key order, as
    ``scripts/report_digests.py`` does; a CSV or SVG report is its own
    value."""
    try:
        data = json.dumps(json.loads(data), separators=(",", ":")).encode()
    except ValueError:
        pass
    return hashlib.sha256(data).hexdigest()


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
    """Report values and bytes that must not move: the dense mixed reference (at N = 9
    also under the threshold readout and a theta table one of whose outcomes
    is supported on only some sectors), the density disentangle route, the
    sector mixture (at N = 2000 the benchmark's run), a pure threshold run, the density probe-qubit route, the
    Hamming-weight readout (dense, and on two block bits at N = 40 and 1000),
    the locally built entangler (dense, and on one block bit at N = 2000),
    the bound sweep in each format (its 1:1000 grid is the benchmark's), the
    two-outcome POVM built from a theta table, and the verify summary.  Each
    call but verify gives the same bytes when its inputs come from a config
    file."""

    PINNED = pytest.mark.parametrize("argv, digest, value", [
        (MIX + ("--n", "9", "--epsilon", "0.3"),
         "31e3a86359d20c46ec7b472e8ae3eff5365c0b95b460303e0474b1a048dd3630",
         "bb5ebc8f1d5a960cd0d6456ffc1ae2d7fca80139b1bd1433de3515ab4513278a"),
        (MIX + ("--n", "8", "--epsilon", "0.3", "--post-select", "3", "--disentangle"),
         "a48d469f5809e9fa4b0157882ab6e7c7d757afee079c44df985af9d76967f1d6",
         "7dcd6944907fed4b2636d8ba151fa910e7ab7e63874d6e89ed27d00b21d5f7cb"),
        (MIX + ("--n", "300", "--epsilon", "0.5", "--post-select", "7", "--disentangle"),
         "54a182e7e9aeb791f3dcff427be65ce5c691ec2535844e9526dea6bd1574c98e",
         "11eb807c9ecbfb38ebef1b7e39171546bfb5b013a421192a557f77df43ec833a"),
        (("simulate", "--kind", "parity_collective", "--n", "12",
          "--measurement", "threshold_pvm", "--disentangle"),
         "8c1b64767968fefde1744e51a37ba1bbcdb6bb0e743db72b70d96c61b6f08499",
         "ab0f158a80b5aaad093c5f61200600be604df6c2378d8167e64227e3f105874f"),
        (("simulate", "--kind", "parity_collective", "--n", "4", "--epsilon", "0.3",
          "--measurement", "two_outcome", "--g", "0.3", "--t-m", "1.1"),
         "aae8adc265992986d5bb6950a26db3e5a4d4241f06bb43b8e31757385e4a62f0",
         "f1343f50802ffc2017443f17979ad8a6ecd03d1e87e7a819e0272aa46e24d8d3"),
        (("simulate", "--kind", "hamming_half", "--n", "4", "--measurement", "sector_pvm",
          "--post-select", "2", "--disentangle"),
         "44900bc02d51c1b5d0b537a6832b5c53589cad5e1f3f7b5a8fdd6558e5f72ace",
         "cb672c62362a3fb19313f9a9291f4c2099417cd10ec528ae22d13e5acde0c6c9"),
        (("simulate", "--kind", "hamming_half", "--n", "40", "--backend", "collective"),
         "50f1cf7911556e51d2ac304ddd561036bcf2d90af974a7efd5915423eabed072",
         "fc1795ffa4d56023f105204b53dcc980d8eba43a2418ce3088fe26623284ba4d"),
        (("simulate", "--kind", "ghz_local", "--n", "8", "--disentangle"),
         "21731ccc4d422fa0006550049d846f28a4abd04a38de666c301f983ff5cd9760",
         "42d4b306b4c5150e783981f12d9d3e97eee192ce73726c9a78e642a852610ef8"),
        (SWEEP,
         "79713aa33abe30e061036eb984fcf8b43d5200e85edc1d9bf2407bb29fe7d598",
         "79713aa33abe30e061036eb984fcf8b43d5200e85edc1d9bf2407bb29fe7d598"),
        (SWEEP + ("--format", "json"),
         "66a18a61be5d2c93980db27815f1568074e8f7d8160a916f150156e267a5ad4a",
         "3ba01129999ab67fc8292e14d00256978b884c0ab4f79e234eeb3680c806a938"),
        (SWEEP + ("--format", "svg"),
         "d01433e35ace62bafe8221ab52f3976602c071dec29fd917811e178402082474",
         "d01433e35ace62bafe8221ab52f3976602c071dec29fd917811e178402082474"),
        (("bound", "--n", "1:1000", "--polarization", "0.28125,0.40625,0.59375,0.71875",
          "--format", "csv"),
         "1fc79a82813d6d4333b634170eabca786f6009f49551c05975daaccb44ab8e76",
         "1fc79a82813d6d4333b634170eabca786f6009f49551c05975daaccb44ab8e76"),
        (("simulate", "--kind", "parity_collective", "--n", "4", "--epsilon", "0.3",
          "--measurement", "two_outcome", "--theta", "0.1,0.7,1.3,2.2,3.0"),
         "cb01f36ad24a5d50cd43bff1bbb67692f2432987c7bd25eec9be7350ed7df734",
         "9a1c3d9b087e5b6660a36a66c53292fe68aaf9bc512e4a403fe24bac592e0822"),
        (("simulate", "--kind", "hamming_half", "--n", "1000", "--backend", "collective",
          "--disentangle"),
         "eee1bb2582d9902f109e44524f9b44bc393d76e857974216c6e0a15fa0618a1c",
         "0a2587a1944c7fdff4d77b7da98f4a2f7e620131cd7751b2222f75791c631428"),
        (("simulate", "--kind", "ghz_local", "--n", "2000", "--backend", "collective",
          "--disentangle"),
         "72ed35d3158eb3c6bf91d8171f9b058a5dcad6c0dfc2466c0819e2a98ce46564",
         "4ddfde6e86fe37092ac2f02fd77a8e27fac973cc2f94186429533cbb604e6c44"),
        (MIX + ("--n", "9", "--epsilon", "0.5"),
         "fd220129d73f2179fc1a94cc9d5f021e208890bf93572b98e02938aa1f945253",
         "dbf3db7ef3290072016ec9b2805756bd0d1d73835a74829965e2d5b1263d954a"),
        (MIX + ("--n", "9", "--epsilon", "0.5", "--disentangle"),
         "cbb2f4b91b16a7f519486372a1d318ba1dc3895143a650d275ff141aed368554",
         "e36f68144b7f6466692dcae2d45b5e8e0467f56d69af216f18630cbb3d642784"),
        (("simulate", "--kind", "parity_collective", "--n", "9", "--epsilon", "0.3",
          "--measurement", "threshold_pvm"),
         "7dd6a6c8beb8945dea3b68ddf69f8b3a384a5d2545dc92907e97bfdde70b0caf",
         "710dc09b66f6cb1f48e1385e5fc4bb630ac75a67cc04d01847e45f4bcf299e5e"),
        (("simulate", "--kind", "parity_collective", "--n", "9", "--epsilon", "0.3",
          "--measurement", "two_outcome", "--theta", "0,0,0,0,0,1,1,1,1,1"),
         "9ab74595f229e3fee7c80c5d72288c5059dfa3f588c947d531cc681e7eb22dd2",
         "8dcc1279ee653fc0a452a186700ef663e354e100619a9f47587eed2477f4355e"),
        (MIX + ("--n", "2000", "--epsilon", "0.5"),
         "7c0cd2de0259a64c3501d8e4b10ca394eae3900e5cd88f47e456c39f463286d4",
         "707d040f6c50fdc7332bab0aec031c4acd5842681583dbc1d9214f30d509c89a"),
    ], ids=["mixed-n9", "mixed-n8-disentangle", "mixture-n300-disentangle",
            "pure-threshold-n12", "density-probe-n4", "hamming-dense-n4-disentangle",
            "hamming-blocks-n40", "ghz-local-n8-disentangle", "bound-csv", "bound-json",
            "bound-svg", "bound-n1000-csv", "povm-two-outcome-n4",
            "hamming-blocks-n1000-disentangle", "ghz-local-blocks-n2000-disentangle",
            "mixed-n9-eps05", "mixed-n9-eps05-disentangle", "mixed-threshold-n9",
            "mixed-theta-partial-support-n9", "mixture-n2000-eps05"])

    @PINNED
    def test_report_sha256(self, tmp_path, argv, digest, value):
        out = tmp_path / "report.json"
        assert main([*argv, "--out", str(out)]) == 0
        # the value first: a report whose value holds but whose bytes moved
        # changed only its layout
        assert value_sha256(out.read_bytes()) == value
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @PINNED
    def test_report_sha256_from_config_file(self, tmp_path, argv, digest, value):
        out = tmp_path / "report.json"
        cfg_argv = as_config_file(argv, tmp_path / "run.cfg")
        assert main([*cfg_argv, "--out", str(out)]) == 0
        assert value_sha256(out.read_bytes()) == value
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
