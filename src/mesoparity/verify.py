"""Self-contained diagnostic suites.

Each suite re-derives a family of identities the simulator is supposed to
satisfy (POVM axioms, backend agreement, circuit equivalences, bound
saturation, no-violation search, trace-distance identities) and reports one
pass/fail check per identity with the measured residual.  Suites are
deterministic given the seed.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import bounds, circuits, measurement
from .collective import (
    MsConfig,
    expand_to_dense,
    mixture_to_dense,
    sector_probabilities,
)
from .metrics import (
    OutcomeDistribution,
    average_fidelity,
    classical_trace_distance,
    quantum_trace_distance,
)
from .states import (
    LABEL_MS,
    LABEL_Q1,
    LABEL_Q2,
    DensityOperator,
    PureState,
    SubsystemLayout,
    ValidationError,
)
from .tolerances import TOL


class SuiteResult(NamedTuple):
    suite: str
    seed: int
    passed: bool
    checks: tuple


def _check(name: str, value: float, tolerance: float) -> dict:
    value = float(value)
    return {
        "name": name,
        "passed": bool(value <= tolerance),
        "value": value,
        "tolerance": tolerance,
    }


def _random_joint_pure(n: int, rng: np.random.Generator) -> PureState:
    layout = SubsystemLayout((2, 2, 1 << n), (LABEL_Q1, LABEL_Q2, LABEL_MS))
    v = rng.standard_normal(layout.total_dim) + 1j * rng.standard_normal(layout.total_dim)
    return PureState(v / np.linalg.norm(v), layout)


# ---------------------------------------------------------------------------
# suites


def _suite_povm_axioms(seed: int) -> list:
    checks = []
    rng = np.random.default_rng((seed, 0))
    worst_range = 0.0
    worst_sum = 0.0
    for _ in range(40):
        n = int(rng.integers(1, 9))
        povm = bounds.random_collective_povm(n, rng)
        a = povm.coefficients
        worst_range = max(worst_range, float(-a.min()), float(a.max() - 1.0), 0.0)
        worst_sum = max(worst_sum, float(np.abs(a.sum(axis=0) - 1.0).max()))
    checks.append(_check("random_povm_coefficients_in_unit_interval", worst_range, TOL.roundoff))
    checks.append(_check("random_povm_columns_sum_to_one", worst_sum, TOL.roundoff))

    for n in (1, 3, 6):
        theta = measurement.TwoOutcomeTheta(rng.uniform(-4.0, 4.0, n + 1))
        a = measurement.povm_from_theta(theta).coefficients
        checks.append(
            _check(
                f"theta_family_completeness_n{n}",
                float(np.abs(a.sum(axis=0) - 1.0).max()),
                TOL.roundoff,
            )
        )
    for n in (2, 3, 5):
        for povm in (measurement.threshold_pvm(n), measurement.sector_pvm(n)):
            prod = povm.coefficients * (1.0 - povm.coefficients)
            checks.append(
                _check(
                    f"projective_coefficients_are_binary_n{n}_k{povm.n_outcomes}",
                    float(np.abs(prod).max()),
                    TOL.exact,
                )
            )

    worst_total = 0.0
    worst_floor = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 7))
        state = _random_joint_pure(n, rng)
        povm = bounds.random_collective_povm(n, rng)
        probs = [r.probability for r in measurement.measure(state, povm)]
        worst_total = max(worst_total, abs(math.fsum(probs) - 1.0))
        worst_floor = max(worst_floor, max(0.0, -min(probs)))
    checks.append(_check("outcome_probabilities_sum_to_one", worst_total, TOL.roundoff))
    checks.append(_check("outcome_probabilities_nonnegative", worst_floor, TOL.negative_prob))

    rejected = 0.0
    bad_tables = [
        np.array([[0.5, 0.5], [0.4, 0.5]]),
        np.array([[1.2, 0.0], [-0.2, 1.0]]),
    ]
    for table in bad_tables:
        try:
            measurement.CollectivePOVM(table)
        except ValidationError:
            rejected += 1.0
    checks.append(_check("invalid_tables_rejected", len(bad_tables) - rejected, TOL.exact))
    return checks


def _suite_backend_agreement(seed: int) -> list:
    checks = []
    for n in (2, 3, 5):
        spec_d = circuits.CircuitSpec("parity_collective", MsConfig(n), backend="dense")
        spec_c = circuits.CircuitSpec("parity_collective", MsConfig(n), backend="collective")
        dense = circuits.evolve(spec_d)
        block = circuits.evolve(spec_c)
        overlap = abs(np.vdot(dense.amplitudes, expand_to_dense(block).amplitudes))
        checks.append(_check(f"pure_parity_state_overlap_n{n}", abs(overlap - 1.0), TOL.roundoff))
        d_sec = sector_probabilities(dense)
        c_sec = sector_probabilities(block)
        worst = float(np.abs(d_sec - c_sec).max())
        checks.append(_check(f"pure_sector_probabilities_n{n}", worst, TOL.roundoff))
    for n, eps in ((2, 0.3), (3, 0.5), (4, 0.7)):
        strat = bounds.optimal_strategy(n)
        spec_d = circuits.CircuitSpec(
            "parity_conditioned", MsConfig(n, eps), backend="dense",
            v_odd=strat.v_odd, v_even=strat.v_even,
        )
        spec_c = circuits.CircuitSpec(
            "parity_conditioned", MsConfig(n, eps), backend="collective",
            v_odd=strat.v_odd, v_even=strat.v_even,
        )
        dense = circuits.evolve(spec_d)
        mix = circuits.evolve(spec_c)
        td = quantum_trace_distance(
            circuits.qubit_marginal(dense), circuits.qubit_marginal(mix)
        )
        checks.append(_check(f"mixed_qubit_marginal_n{n}_eps{eps}", td, TOL.accumulated))
        dense_full = mixture_to_dense(mix)
        gap = 0.5 * float(
            np.abs(np.linalg.eigvalsh(dense_full.matrix - dense.matrix)).sum()
        )
        checks.append(_check(f"mixed_full_state_n{n}_eps{eps}", gap, TOL.accumulated))
        rec_d = measurement.measure(dense, strat.povm)
        rec_m = measurement.measure(mix, strat.povm)
        worst = max(
            abs(a.probability - b.probability) for a, b in zip(rec_d, rec_m)
        )
        checks.append(_check(f"mixed_outcome_probabilities_n{n}_eps{eps}", worst, TOL.accumulated))
    return checks


def _suite_circuit_equivalence(seed: int) -> list:
    checks = []
    for n in (2, 3, 4):
        spec_p = circuits.CircuitSpec("parity_collective", MsConfig(n))
        spec_g = circuits.CircuitSpec("ghz_local", MsConfig(n))
        branches_p, branches_g = (
            circuits.branch_ms_states(circuits.evolve(s))
            for s in (spec_p, spec_g))
        worst = 0.0
        for key, (w_p, v_p) in branches_p.items():
            w_g, v_g = branches_g[key]
            worst = max(worst, abs(w_p - w_g))
            if v_p is not None and v_g is not None:
                worst = max(worst, 1.0 - abs(np.vdot(v_p, v_g)))
        checks.append(_check(f"ghz_matches_parity_per_branch_n{n}", worst, TOL.accumulated))

    spec_h = circuits.CircuitSpec("hamming_half", MsConfig(4))
    psi_h = circuits.evolve(spec_h)
    sec = sector_probabilities(psi_h)
    target = np.array([0.25, 0.0, 0.5, 0.0, 0.25])
    checks.append(
        _check("hamming_half_sector_table_n4", float(np.abs(sec - target).max()), TOL.roundoff)
    )

    rng = np.random.default_rng((seed, 2))
    worst_p = 0.0
    worst_s = 0.0
    for _ in range(25):
        n = int(rng.integers(1, 6))
        state = _random_joint_pure(n, rng)
        app = measurement.ApparatusSpec(
            g=float(rng.uniform(0.2, 3.0)), t_m=float(rng.uniform(0.2, 3.0))
        )
        rec_povm = measurement.measure(state, measurement.povm_from_theta(app.theta(n)))
        rec_app = measurement.apparatus_measure(state, app)
        for a, b in zip(rec_povm, rec_app):
            worst_p = max(worst_p, abs(a.probability - b.probability))
            if a.post_state is not None and b.post_state is not None:
                worst_s = max(
                    worst_s,
                    float(
                        np.abs(
                            a.post_state.amplitudes - b.post_state.amplitudes
                        ).max()
                    ),
                )
    checks.append(_check("apparatus_probabilities_match_povm_rule", worst_p, TOL.roundoff))
    checks.append(_check("apparatus_post_states_match_povm_rule", worst_s, TOL.accumulated))
    return checks


def _suite_bound_saturation(seed: int) -> list:
    checks = []
    for n, eps in ((4, 0.3), (2, 0.5), (5, 0.1), (6, 0.7)):
        strat = bounds.optimal_strategy(n)
        spec = circuits.CircuitSpec(
            "parity_conditioned", MsConfig(n, eps), backend="dense",
            v_odd=strat.v_odd, v_even=strat.v_even,
        )
        state = circuits.evolve(spec)
        f_avg = average_fidelity(measurement.measure(state, strat.povm))
        residual = abs(f_avg - bounds.bound_closed_form(n, eps))
        name = f"simulated_optimum_meets_bound_n{n}_eps{eps}"
        checks.append(_check(name, residual, TOL.accumulated))
    res, program = bounds.bound_coefficient_program(12, 0.4)
    spread = max(res.closed_form, res.sum_form, res.program_form) - min(
        res.closed_form, res.sum_form, res.program_form
    )
    checks.append(_check("three_bound_forms_agree_n12", spread, TOL.bound_forms))
    return checks


def _suite_bound_search(seed: int) -> list:
    checks = []
    report = bounds.bound_violation_search(3, 0.5, trials=200, seed=seed)
    checks.append(_check("no_random_strategy_beats_bound", float(report.violations), TOL.exact))
    checks.append(
        _check(
            "best_random_strategy_below_bound",
            max(0.0, report.max_f_avg - report.bound),
            TOL.violation,
        )
    )
    checks.append(_check("optimal_strategy_gap", abs(report.optimal_gap), TOL.accumulated))
    checks.append(
        _check("eigenbasis_pvm_attains_trace_distance", report.eigen_pvm_max_gap, TOL.eigen_readout)
    )
    return checks


def _suite_trace_identities(seed: int) -> list:
    checks = []
    rng = np.random.default_rng((seed, 5))

    worst_id = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 6))
        eps = float(rng.uniform(0.0, 0.95))
        strat = bounds.optimal_strategy(n)
        spec = circuits.CircuitSpec(
            "parity_conditioned", MsConfig(n, eps),
            v_odd=strat.v_odd, v_even=strat.v_even,
        )
        state = circuits.evolve(spec)
        povm = bounds.random_collective_povm(n, rng)
        f_avg = average_fidelity(measurement.measure(state, povm))
        p_odd, p_even = bounds.optimal_outcome_distributions(n, eps)
        q_odd = OutcomeDistribution(povm.coefficients @ p_odd.probs)
        q_even = OutcomeDistribution(povm.coefficients @ p_even.probs)
        d_c = classical_trace_distance(q_odd, q_even)
        worst_id = max(worst_id, abs(f_avg - 0.5 * (1.0 + d_c)))
    checks.append(_check("average_fidelity_equals_half_one_plus_dc", worst_id, TOL.accumulated))

    worst_order = 0.0
    worst_eigen = 0.0
    layout = None
    for _ in range(20):
        dim = int(rng.integers(2, 9))
        layout = SubsystemLayout((dim,), (LABEL_MS,))
        rhos = []
        for _ in range(2):
            z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            m = z @ z.conj().T
            rhos.append(DensityOperator(m / np.trace(m).real, layout))
        a, b = rhos
        d_q = quantum_trace_distance(a, b)
        evals, vecs = np.linalg.eigh(a.matrix - b.matrix)
        p_a = np.einsum("ij,jk,ki->i", vecs.conj().T, a.matrix, vecs).real
        p_b = np.einsum("ij,jk,ki->i", vecs.conj().T, b.matrix, vecs).real
        d_c = classical_trace_distance(OutcomeDistribution(p_a), OutcomeDistribution(p_b))
        worst_eigen = max(worst_eigen, abs(d_c - d_q))
        k = int(rng.integers(2, 5))
        raw = rng.uniform(size=(k, dim))
        povm_cols = raw / raw.sum(axis=0)
        q_a = OutcomeDistribution(povm_cols @ np.diagonal(a.matrix).real)
        q_b = OutcomeDistribution(povm_cols @ np.diagonal(b.matrix).real)
        d_diag = classical_trace_distance(q_a, q_b)
        worst_order = max(worst_order, max(0.0, d_diag - d_q))
    checks.append(_check("eigenbasis_distance_equals_quantum", worst_eigen, TOL.accumulated))
    checks.append(_check("classical_distance_never_exceeds_quantum", worst_order, TOL.roundoff))
    return checks


_SUITE_FUNCS = {
    "povm-axioms": _suite_povm_axioms,
    "backend-agreement": _suite_backend_agreement,
    "circuit-equivalence": _suite_circuit_equivalence,
    "bound-saturation": _suite_bound_saturation,
    "bound-search": _suite_bound_search,
    "trace-identities": _suite_trace_identities,
}
SUITES = tuple(_SUITE_FUNCS)


def run_suite(suite: str, seed: int = 0) -> SuiteResult:
    if suite not in _SUITE_FUNCS:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    checks = tuple(_SUITE_FUNCS[suite](seed))
    return SuiteResult(suite, seed, all(c["passed"] for c in checks), checks)
