"""End-to-end acceptance gate.

Ten independent criteria covering the fidelity ceiling, its saturation,
circuit equivalences, measurement-route agreement, the average-fidelity
identity, and byte-level determinism.  Each test prints one summary line, so
running this file with ``pytest -v -s`` reads as a checklist.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from mesoparity import bounds, circuits, measurement
from mesoparity.circuits import (
    TAG_FLIP,
    TAG_IDENTITY,
    CircuitSpec,
    branch_ms_states,
    disentangle,
    evolve,
    prepare_inputs,
    qubit_marginal,
)
from mesoparity.collective import MsConfig
from mesoparity.measurement import (
    ApparatusSpec,
    measure,
    povm_from_theta,
    sector_pvm,
)
from mesoparity.metrics import BELL_ODD_PLUS, average_fidelity, fidelity
from mesoparity.states import (
    LABEL_MS,
    LABEL_Q1,
    LABEL_Q2,
    PureState,
    SubsystemLayout,
)

import helpers


def report(num, ok, detail):
    status = "pass" if ok else "FAIL"
    print(f"[criterion {num:02d}] {detail} ... {status}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_large_ensemble_point():
    start = time.perf_counter()
    result, _ = bounds.bound_coefficient_program(50, 1.0 - 0.5)
    elapsed = time.perf_counter() - start
    gap = abs(result.closed_form - 0.9999)
    report(
        1,
        gap <= 5e-5 and elapsed < 1.0,
        f"bound(N=50, polarization=0.5) = {result.closed_form:.6f} "
        f"(|delta|={gap:.1e} <= 5e-5, {elapsed:.3f}s < 1s)",
    )


def test_criterion_02_triple_form_agreement():
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 201):
        for eps in np.arange(0.1, 0.95, 0.1):
            result, _ = bounds.bound_coefficient_program(n, float(eps))
            vals = (result.closed_form, result.sum_form, result.program_form)
            worst = max(worst, max(vals) - min(vals))
    elapsed = time.perf_counter() - start
    report(
        2,
        worst <= 1e-10 and elapsed < 30.0,
        f"closed/sum/program forms over N in [1,200], eps in 0.1..0.9: "
        f"max spread {worst:.2e} <= 1e-10 ({elapsed:.2f}s < 30s)",
    )


def test_criterion_03_bound_saturation_by_simulation():
    worst = 0.0
    for n in range(1, 7):
        for eps in (0.1, 0.3, 0.5, 0.7):
            strat = bounds.optimal_strategy(n)
            spec = CircuitSpec("parity_conditioned", MsConfig(n, eps),
                               backend="dense", v_odd=strat.v_odd,
                               v_even=strat.v_even)
            state = evolve(spec, prepare_inputs(spec))
            f_avg = average_fidelity(measure(state, strat.povm))
            worst = max(worst, abs(f_avg - bounds.bound_closed_form(n, eps)))
    report(
        3,
        worst <= 1e-10,
        f"dense simulation of the optimal strategy, N in 1..6, eps in "
        f"{{0.1,0.3,0.5,0.7}}: max |F_avg - bound| = {worst:.2e} <= 1e-10",
    )


def test_criterion_04_no_violation_search():
    rep = bounds.bound_violation_search(3, 0.5, trials=1000, seed=424242)
    excess = max(rep.max_f_avg, rep.eigen_max_f_avg) - rep.bound
    report(
        4,
        rep.violations == 0 and rep.eigen_pvm_max_gap <= 1e-9,
        f"1000 random strategies at N=3, eps=0.5: max excess over bound "
        f"{excess:.2e} <= 1e-9, eigenbasis-PVM distance gap "
        f"{rep.eigen_pvm_max_gap:.2e} <= 1e-9",
    )


def test_criterion_05_perfect_protocol_both_backends():
    worst_p = 0.0
    worst_f = 0.0
    for n in range(1, 9):
        for backend in ("dense", "collective"):
            spec = CircuitSpec("parity_collective", MsConfig(n), backend=backend)
            state = evolve(spec, prepare_inputs(spec))
            theta = measurement.TwoOutcomeTheta.linear(n, 1.0, math.pi / (2 * n))
            records = measure(state, povm_from_theta(theta))
            worst_p = max(worst_p, max(abs(r.probability - 0.5) for r in records))
            worst_f = max(worst_f, max(1.0 - r.fidelity_best for r in records))
    report(
        5,
        worst_p <= 1e-12 and worst_f <= 1e-12,
        f"parity protocol, eps=0, theta(m)=pi*m/(2N), N in 1..8, both "
        f"backends: max |p - 1/2| = {worst_p:.2e}, max 1 - F = {worst_f:.2e} "
        f"(<= 1e-12)",
    )


def test_criterion_06_hamming_weight_statistics():
    spec = CircuitSpec("hamming_half", MsConfig(4), backend="dense")
    state = evolve(spec, prepare_inputs(spec))
    records = measure(state, sector_pvm(4))
    probs = {r.outcome: r.probability for r in records}
    prob_ok = (
        abs(probs[0] - 0.25) <= 1e-12
        and abs(probs[2] - 0.5) <= 1e-12
        and abs(probs[4] - 0.25) <= 1e-12
        and abs(probs[1]) <= 1e-12
        and abs(probs[3]) <= 1e-12
    )
    middle = next(r for r in records if r.outcome == 2)
    released = disentangle(spec, middle.post_state)
    f_odd = fidelity(qubit_marginal(released), BELL_ODD_PLUS)
    report(
        6,
        prob_ok and abs(f_odd - 1.0) <= 1e-12,
        f"half-register weight readout, N=4: p(0,2,4) = ({probs[0]:.3f}, "
        f"{probs[2]:.3f}, {probs[4]:.3f}), disentangled m=2 branch "
        f"F_odd = {f_odd:.14f} (1 within 1e-12)",
    )


def test_criterion_07_local_entangler_equivalence():
    worst = 1.0
    for n in (2, 3, 4):
        spec_g = CircuitSpec("ghz_local", MsConfig(n), backend="dense")
        spec_p = CircuitSpec("parity_collective", MsConfig(n), backend="dense")
        ghz = branch_ms_states(evolve(spec_g, prepare_inputs(spec_g)))
        par = branch_ms_states(evolve(spec_p, prepare_inputs(spec_p)))
        for key, (w_p, v_p) in par.items():
            w_g, v_g = ghz[key]
            worst = min(worst, abs(np.vdot(v_p, v_g)) ** 2)
    report(
        7,
        worst > 1.0 - 1e-10,
        f"locally built entangler vs collective flip, N in {{2,3,4}}: "
        f"min branch fidelity {worst:.14f} > 1 - 1e-10",
    )


def test_criterion_08_apparatus_equivalence():
    rng = np.random.default_rng(20240918)
    worst_p = 0.0
    worst_d = 0.0
    negative_cos = 0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        lay = SubsystemLayout((2, 2, 1 << n), (LABEL_Q1, LABEL_Q2, LABEL_MS))
        state = PureState(helpers.random_unit_vector(rng, lay.total_dim), lay)
        app = ApparatusSpec(g=float(rng.uniform(0.2, 3.0)),
                            t_m=float(rng.uniform(0.2, 3.0)))
        if np.any(np.cos(app.theta(n).theta) < 0.0):
            negative_cos += 1
        rec_a = measurement.apparatus_measure(state, app)
        rec_p = measure(state, povm_from_theta(app.theta(n)))
        for a, b in zip(rec_a, rec_p):
            worst_p = max(worst_p, abs(a.probability - b.probability))
            if a.post_state is not None and a.probability > 1e-12:
                worst_d = max(worst_d, helpers.trace_distance_matrices(
                    helpers.to_density(a.post_state).matrix,
                    helpers.to_density(b.post_state).matrix,
                ))
    report(
        8,
        worst_p <= 1e-12 and worst_d <= 1e-10 and negative_cos > 0,
        f"probe-circuit readout vs square-root rule, 200 random cases "
        f"(N <= 6, {negative_cos} with negative cosines): max |dp| = "
        f"{worst_p:.2e} <= 1e-12, max post-state distance {worst_d:.2e} <= 1e-10",
    )


def test_criterion_09_average_fidelity_identity():
    rng = np.random.default_rng(77)
    worst = 0.0
    scenarios = 0
    for n in (1, 2, 3, 4):
        for eps in (0.0, 0.2, 0.5, 0.8):
            for v_odd, v_even in ((TAG_IDENTITY, TAG_IDENTITY),
                                  (TAG_FLIP, TAG_IDENTITY),
                                  (TAG_FLIP, TAG_FLIP)):
                spec = CircuitSpec("parity_conditioned", MsConfig(n, eps),
                                   backend="dense", v_odd=v_odd, v_even=v_even)
                state = evolve(spec, prepare_inputs(spec))
                povms = [sector_pvm(n), measurement.threshold_pvm(n),
                         bounds.random_collective_povm(n, rng)]
                for povm in povms:
                    records = measure(state, povm)
                    f_avg = average_fidelity(records)
                    q_odd = np.array([
                        2.0 * r.probability * r.fidelity_odd
                        if r.fidelity_odd is not None else 0.0
                        for r in records
                    ])
                    q_even = np.array([
                        2.0 * r.probability * r.fidelity_even
                        if r.fidelity_even is not None else 0.0
                        for r in records
                    ])
                    d_c = 0.5 * float(np.abs(q_odd - q_even).sum())
                    worst = max(worst, abs(f_avg - 0.5 * (1.0 + d_c)))
                    scenarios += 1
    report(
        9,
        worst <= 1e-10,
        f"F_avg = (1 + D_c)/2 across {scenarios} parity-conditioned "
        f"scenarios: max residual {worst:.2e} <= 1e-10",
    )


def test_criterion_10_byte_determinism(tmp_path):
    invocations = [
        ("simulate", "--kind", "parity_collective", "--n", "4",
         "--epsilon", "0.3", "--measurement", "threshold_pvm", "--seed", "9"),
        ("bound", "--n", "1:60", "--polarization", "0.5,0.8", "--seed", "9"),
        ("verify", "bound-search", "--seed", "9"),
        ("bound", "--n", "1:12", "--epsilon", "0.4", "--format", "svg"),
    ]
    identical = True
    for argv in invocations:
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "mesoparity", *argv],
                capture_output=True, text=True, check=True,
            )
            outs.append(proc.stdout)
        identical = identical and outs[0] == outs[1]
    report(
        10,
        identical,
        f"{len(invocations)} CLI invocations repeated with fixed seeds: "
        f"outputs byte-identical",
    )
