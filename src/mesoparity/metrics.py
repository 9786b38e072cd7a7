"""Bell-state targets, fidelities, and trace distances.

A fidelity above 1/2 toward either Bell target certifies that the two-qubit
state can be distilled toward that target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import DensityOperator, ValidationError, validate_density
from .tolerances import TOL


@dataclass(frozen=True)
class BellTarget:
    """One of the two maximally entangled targets of the parity protocol."""

    which: str
    vector: np.ndarray

    def __post_init__(self):
        if self.which not in ("even_plus", "odd_plus"):
            raise ValueError(f"unknown Bell target {self.which!r}")
        v = np.asarray(self.vector, dtype=complex).reshape(-1)
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)
        if v.size != 4 or not abs(np.linalg.norm(v) - 1.0) <= TOL.norm:
            raise ValidationError("Bell target must be a 4-dim unit vector")


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
BELL_EVEN_PLUS = BellTarget("even_plus", np.array([_INV_SQRT2, 0, 0, _INV_SQRT2]))
BELL_ODD_PLUS = BellTarget("odd_plus", np.array([0, _INV_SQRT2, _INV_SQRT2, 0]))


def fidelity(rho: DensityOperator, target: BellTarget) -> float:
    """Overlap <phi|rho|phi> of a two-qubit state with a Bell target."""
    if rho.layout.total_dim != 4:
        raise ValidationError(f"expected a two-qubit state, got dimension {rho.layout.total_dim}")
    validate_density(rho)
    v = target.vector
    return float(np.real(v.conj() @ rho.matrix @ v))


def average_fidelity(records) -> float:
    """Sum of p_alpha * F_alpha over measurement outcomes, with
    F_alpha = max(F_odd, F_even) of the post-selected state.

    Records with probability below the floor contribute nothing (their post
    states are undefined).
    """
    total_p = sum(r.probability for r in records)
    if abs(total_p - 1.0) > TOL.norm:
        raise ValidationError(f"outcome probabilities sum to {total_p}, not 1")
    acc = 0.0
    for r in records:
        if r.probability > TOL.prob_floor:
            acc += r.probability * r.fidelity_best
    return acc


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probability distribution over measurement outcomes."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float).reshape(-1)
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)
        if p.size == 0 or not p.min() >= -TOL.norm:
            raise ValidationError("distribution entries must be nonnegative")
        if not abs(p.sum() - 1.0) <= TOL.norm:
            raise ValidationError(f"distribution sums to {p.sum()}, not 1")


def _as_distribution(p) -> np.ndarray:
    if isinstance(p, OutcomeDistribution):
        return p.probs
    return np.asarray(p, dtype=float).reshape(-1)


def classical_trace_distance(p, q) -> float:
    """Half the L1 distance between two outcome distributions."""
    p = _as_distribution(p)
    q = _as_distribution(q)
    if p.size != q.size:
        raise ValidationError(f"distribution lengths differ: {p.size} vs {q.size}")
    return 0.5 * float(np.abs(p - q).sum())


def quantum_trace_distance(rho1: DensityOperator, rho2: DensityOperator) -> float:
    """Half the trace norm of rho1 - rho2; upper-bounds the classical trace
    distance of the outcome distributions induced by any single measurement,
    with equality for the eigenbasis measurement of the difference."""
    if rho1.layout != rho2.layout:
        raise ValidationError("states live on different layouts")
    evals = np.linalg.eigvalsh(rho1.matrix - rho2.matrix)
    return 0.5 * float(np.abs(evals).sum())
