"""The two scripts under scripts/, run as a user would run them."""

import re
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
    want = tmp_path / "want.csv"
    assert main(["bound", "--n", "1:20", "--polarization", "0.2,0.5,0.8,0.9",
                 "--out", str(want)]) == 0
    assert (tmp_path / "fig" / "bound_sweep.csv").read_bytes() == want.read_bytes()
    assert (tmp_path / "fig" / "bound_sweep.svg").read_text().startswith("<svg")


def test_optimal_strategy_demo_meets_the_closed_form():
    proc = run_script("optimal_strategy_demo.py", "--n-max", "4")
    assert proc.returncode == 0, proc.stderr
    worst = re.search(r"worst \|simulated - closed form\| = (\S+)", proc.stdout)
    assert float(worst.group(1)) <= 1e-12
