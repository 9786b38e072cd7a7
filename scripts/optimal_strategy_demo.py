#!/usr/bin/env python3
"""Show that the conditional-flip strategy saturates the fidelity ceiling.

Runs the full density-matrix simulation of the best known strategy -- apply a
collective flip on the odd-parity branch only, then read the excitation
sector projectively -- and tabulates the simulated average Bell fidelity next
to the closed-form ceiling.  The two columns agree to machine precision.

Usage::

    python scripts/optimal_strategy_demo.py --n-max 6
"""

import argparse

from mesoparity.bounds import bound_closed_form, optimal_strategy
from mesoparity.circuits import CircuitSpec, evolve
from mesoparity.collective import MsConfig
from mesoparity.measurement import measure
from mesoparity.metrics import average_fidelity


def simulate_strategy(n, epsilon, backend="auto"):
    strat = optimal_strategy(n)
    spec = CircuitSpec("parity_conditioned", MsConfig(n, epsilon),
                       backend=backend, v_odd=strat.v_odd, v_even=strat.v_even)
    state = evolve(spec)
    return average_fidelity(measure(state, strat.povm, post_states=False))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-max", type=int, default=6,
                        help="largest ensemble size to simulate (default 6)")
    parser.add_argument("--epsilons", default="0.1,0.3,0.5,0.7",
                        help="comma-separated excited-fraction values 2p_e")
    parser.add_argument("--backend", default="auto",
                        choices=("auto", "dense", "collective"),
                        help="state representation (default auto)")
    args = parser.parse_args(argv)

    epsilons = [float(tok) for tok in args.epsilons.split(",")]
    print(f"{'N':>3s} {'epsilon':>8s} {'simulated':>18s} "
          f"{'closed form':>18s} {'gap':>10s}")
    worst = 0.0
    for n in range(1, args.n_max + 1):
        for eps in epsilons:
            f_sim = simulate_strategy(n, eps, backend=args.backend)
            f_ref = bound_closed_form(n, eps)
            gap = abs(f_sim - f_ref)
            worst = max(worst, gap)
            print(f"{n:3d} {eps:8.2f} {f_sim:18.14f} {f_ref:18.14f} {gap:10.1e}")
    print(f"\nworst |simulated - closed form| = {worst:.2e}")
    return 0 if worst <= 1e-10 else 1


if __name__ == "__main__":
    raise SystemExit(main())
