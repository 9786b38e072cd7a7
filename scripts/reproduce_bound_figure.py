#!/usr/bin/env python3
"""Sweep the fidelity ceiling over ensemble size and write one CSV + SVG pair.

Reproduces the headline curve set: maximum attainable average Bell fidelity
versus number of ensemble constituents N, one curve per polarization.  The
sweep runs once through the packaged CLI (``bound`` to the CSV, then ``plot``
of that CSV), so both files are byte-identical to what ``python -m mesoparity
bound`` emits in that format.

Usage::

    python scripts/reproduce_bound_figure.py --out-dir build
"""

import argparse
import pathlib

from mesoparity import cli
from mesoparity.bounds import bound_closed_form


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-max", type=int, default=100,
                        help="largest ensemble size to sweep (default 100)")
    parser.add_argument("--polarizations", default="0.2,0.5,0.8,0.9",
                        help="comma-separated polarization values")
    parser.add_argument("--out-dir", default=".",
                        help="directory for bound_sweep.{csv,svg}")
    args = parser.parse_args(argv)

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "bound_sweep.csv"
    svg_path = out_dir / "bound_sweep.svg"

    rc = cli.main(["bound", "--n", f"1:{args.n_max}", "--polarization",
                   args.polarizations, "--format", "csv", "--out", str(csv_path)])
    rc = rc or cli.main(["plot", str(csv_path), "--out", str(svg_path)])
    if rc:
        return rc

    print(f"wrote {csv_path} and {svg_path}")
    print("spot checks (polarization 0.5):")
    for n in (1, 2, 10, 50, args.n_max):
        print(f"  N = {n:4d}   F_avg^max = {bound_closed_form(n, 0.5):.6f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
