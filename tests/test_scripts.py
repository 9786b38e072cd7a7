"""The scripts under scripts/, run as a user would run them."""

import hashlib
import importlib.util
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

from mesoparity.cli import main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *argv):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv],
        capture_output=True, text=True,
    )


def test_reproduce_bound_figure_writes_the_bound_csv(tmp_path):
    proc = run_script("reproduce_bound_figure.py", "--n-max", "20",
                      "--out-dir", str(tmp_path / "fig"))
    assert proc.returncode == 0, proc.stderr
    sweep = ["bound", "--n", "1:20", "--polarization", "0.2,0.5,0.8,0.9"]
    for fmt in ("csv", "svg"):
        want = tmp_path / f"want.{fmt}"
        assert main([*sweep, "--format", fmt, "--out", str(want)]) == 0
        got = tmp_path / "fig" / f"bound_sweep.{fmt}"
        assert got.read_bytes() == want.read_bytes(), fmt


def test_optimal_strategy_demo_meets_the_closed_form():
    proc = run_script("optimal_strategy_demo.py", "--n-max", "4")
    assert proc.returncode == 0, proc.stderr
    worst = re.search(r"worst \|simulated - closed form\| = (\S+)", proc.stdout)
    assert float(worst.group(1)) <= 1e-12


def test_report_digests_prints_one_line_per_command(tmp_path):
    spec = importlib.util.spec_from_file_location("report_digests",
                                                  SCRIPTS / "report_digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    grid = digests.grid()
    assert len(grid) == len(set(grid)) > 1000
    commands = [
        ("simulate", "--kind", "parity_collective", "--n", "3", "--epsilon", "0.3"),
        ("simulate", "--kind", "hamming_half", "--backend", "collective", "--n", "4",
         "--disentangle"),
        ("simulate", "--kind", "hamming_half", "--n", "3"),
        ("bound", "--n", "1:5", "--polarization", "0.5"),
    ]
    lines = [line.split("\t") for line in digests.lines(commands)]
    assert [(code, argv) for code, _, _, _, argv in lines] == [
        ("0", shlex.join(commands[0])), ("0", shlex.join(commands[1])),
        ("2", shlex.join(commands[2])), ("0", shlex.join(commands[3]))]
    for (_, report, value, _, _), argv in zip(lines, commands):
        if report != "-":
            out = tmp_path / "r"
            assert main([*argv, "--out", str(out)]) == 0
            data = out.read_bytes()
            assert report == hashlib.sha256(data).hexdigest()
            if argv[0] == "bound":
                # a CSV report is its own value
                assert value == report
            else:
                # the value digest sees through the layout
                text = json.dumps(json.loads(data), indent=3).encode()
                assert value != report
                assert value == digests.value_sha256(text)
                assert value == hashlib.sha256(
                    json.dumps(json.loads(data), separators=(",", ":")).encode()
                ).hexdigest()
    assert lines[2][1:3] == ["-", "-"]
