"""Ceiling on the average Bell fidelity under limited MS polarization.

With each MS site polarized toward |0> only up to 1 - epsilon, no choice of
parity-conditioned unitaries and collective measurement can push the averaged
post-selected fidelity above a binomial expression in (n, epsilon).  This
module computes that ceiling three independent ways (closed form, elementwise
max of the two branch distributions, and the greedy coefficient program over
the 2^n product weights), constructs the strategy that saturates it, and
stress-tests it against randomized strategies.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .circuits import TAG_FLIP, TAG_IDENTITY
from .collective import (
    MsConfig,
    binomial_pmf,
    binomial_rows,
    popcounts,
    sector_sums,
    thermal_ms_dense,
)
from .metrics import OutcomeDistribution
from .states import DENSE_DENSITY_DIM_CAP, ReadOnly, ValidationError
from .tolerances import TOL

if TYPE_CHECKING:
    # the strategy helpers import measurement when they run, so that the
    # bound sweep never loads it
    from .measurement import CollectivePOVM, SectorPVM


class DomainError(ValueError):
    """Parameters outside the regime where the bound is defined."""


def _validate_params(n: int, epsilon: float) -> None:
    if int(n) != n or n < 1:
        raise DomainError(f"need a positive integer MS size, got {n}")
    if not 0.0 <= epsilon < 1.0:
        raise DomainError(
            f"the bound needs 0 <= epsilon < 1 (positive polarization), got {epsilon}"
        )


def _exact_sum(values: np.ndarray) -> float:
    """The correctly rounded sum of a float array, largest terms first.

    `math.fsum` returns the correctly rounded sum whatever the order of its
    terms, so sorting changes no bit of the result.  The order sets its cost:
    a pmf in its natural order climbs from ~1e-300 up to the mode and keeps
    fsum's list of partial sums long, while largest-first keeps it short.
    fsum reads the sorted terms straight off the array's buffer.
    """
    return math.fsum(memoryview(np.sort(values)[::-1]))


def _closed_forms(n: int, pmf: np.ndarray) -> list:
    """`bound_closed_form` read off each row b(.; n, epsilon/2) of ``pmf``.

    For odd and even n alike the binomial tail is the row's first (n+1)//2
    terms, summed as `_exact_sum` sums, largest first.
    """
    heads = np.sort(pmf[:, : (n + 1) // 2], axis=1)[:, ::-1]
    values = [math.fsum(memoryview(head)) for head in heads]
    if n % 2:
        return values
    return [v + 0.5 * c for v, c in zip(values, pmf[:, n // 2].tolist())]


def bound_closed_form(n: int, epsilon: float) -> float:
    """The ceiling as one binomial tail.

    Odd n: B((n-1)/2; n, epsilon/2).  Even n adds half of the central term:
    B(n/2 - 1; n, epsilon/2) + b(n/2; n, epsilon/2)/2.
    """
    _validate_params(n, epsilon)
    return _closed_forms(n, binomial_pmf(n, [epsilon / 2.0]))[0]


def bound_sum_form(n: int, epsilon: float) -> float:
    """Half the sum of the elementwise max of the two branch distributions:
    (1/2) sum_m max(b(m; n, 1-epsilon/2), b(m; n, epsilon/2))."""
    _validate_params(n, epsilon)
    p_even = binomial_pmf(n, epsilon / 2.0)
    p_odd = binomial_pmf(n, 1.0 - epsilon / 2.0)
    return 0.5 * _exact_sum(np.maximum(p_even, p_odd))


def _sum_forms(p_even: np.ndarray, p_odd: np.ndarray) -> list:
    """`bound_sum_form` of each pair of rows b(.; n, epsilon/2) and
    b(.; n, 1-epsilon/2), summed pairwise by numpy rather than exactly: at
    n = 1000 that moves it by ~1e-15, far below TOL.bound_forms."""
    return (0.5 * np.maximum(p_even, p_odd).sum(axis=1)).tolist()


def bound_grid(n_values, epsilons) -> list:
    """The closed-form ceiling at every (N, epsilon) of a grid: one list per
    entry of ``n_values``, holding one value per epsilon, in the given orders.

    One `binomial_rows` call builds, for each N in turn, the rows at every
    epsilon/2 and every 1 - epsilon/2, and every value is cross-checked
    against the sum form read off the same rows.
    """
    n_values, epsilons = list(n_values), list(epsilons)
    for n in n_values:
        for eps in epsilons:
            _validate_params(n, eps)
    half = np.array(epsilons, dtype=float) / 2.0
    k = len(epsilons)
    grid = []
    pmfs = binomial_rows(n_values, np.concatenate([half, 1.0 - half]))
    for n, pmf in zip(n_values, pmfs):
        values = _closed_forms(n, pmf[:k])
        for eps, value, cross in zip(epsilons, values, _sum_forms(pmf[:k], pmf[k:])):
            if abs(value - cross) > TOL.bound_forms:
                raise ValidationError(
                    f"bound forms disagree at N={n}, eps={eps}: {value} vs {cross}"
                )
        grid.append(values)
    return grid


class CoefficientProgram(ReadOnly):
    """Greedy weight assignment over the 2^n product coefficients.

    The initial MS state has n+1 distinct eigenvalue classes
    c_l = q^(n-l) (1-q)^l with multiplicity C(n, l); the best strategy gives
    weight beta = 2 to the largest half of the 2^n coefficients and 0 to the
    rest, splitting the median class fractionally when n is even.
    """

    __slots__ = ("distinct_values", "multiplicities", "beta")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, distinct_values: np.ndarray, multiplicities: tuple, beta: np.ndarray):
        c = np.asarray(distinct_values, dtype=float)
        b = np.asarray(beta, dtype=float)
        c.setflags(write=False)
        b.setflags(write=False)
        self._assign(distinct_values=c, multiplicities=tuple(int(m) for m in multiplicities),
                     beta=b)
        if not (len(c) == len(b) == len(self.multiplicities)):
            raise ValidationError("program fields must have equal length")
        if not (np.all(c >= 0.0) and np.all(np.diff(c) <= 0.0)):
            raise ValidationError("coefficient classes must be nonnegative and non-increasing")
        if not (0.0 <= b.min() and b.max() <= 2.0):
            raise ValidationError("beta weights must lie in [0, 2]")
        total = math.fsum(w * m for w, m in zip(b, self.multiplicities))
        if not abs(total - float(sum(self.multiplicities))) <= TOL.program_mass:
            raise ValidationError(f"beta mass {total} != {sum(self.multiplicities)}")

    def value(self) -> float:
        return 0.5 * math.fsum(
            w * m * c for w, m, c in zip(self.beta, self.multiplicities, self.distinct_values)
        )


class BoundResult(ReadOnly):
    """The ceiling computed three ways; constructing this value asserts the
    three agree to TOL.bound_forms and sit in [1/2, 1]."""

    __slots__ = ("n", "epsilon", "closed_form", "sum_form", "program_form")

    def __init__(self, n: int, epsilon: float, closed_form: float, sum_form: float,
                 program_form: float):
        self._assign(n=n, epsilon=epsilon, closed_form=closed_form, sum_form=sum_form,
                     program_form=program_form)
        vals = (closed_form, sum_form, program_form)
        for v in vals:
            if not 0.5 - TOL.bound_range <= v <= 1.0 + TOL.bound_range:
                raise ValidationError(f"bound value {v} outside [1/2, 1]")
        spread = max(vals) - min(vals)
        if spread > TOL.bound_forms:
            raise ValidationError(f"bound forms disagree by {spread}")


# The largest N whose 2^N product weights, the program's total mass, is a
# finite float; beyond, the mass check and the class multiplicities overflow.
PROGRAM_N_MAX = 1023


def bound_coefficient_program(n: int, epsilon: float):
    """Build the greedy program and return (BoundResult, CoefficientProgram);
    refused with a `DomainError` past N = `PROGRAM_N_MAX`."""
    _validate_params(n, epsilon)
    if n > PROGRAM_N_MAX:
        raise DomainError(
            f"the coefficient program needs N <= {PROGRAM_N_MAX}, got {n}: "
            f"its 2^N product weights overflow a float beyond"
        )
    q = 1.0 - epsilon / 2.0
    ls = np.arange(n + 1)
    values = q ** (n - ls) * (1.0 - q) ** ls
    mults = [math.comb(n, int(l)) for l in ls]
    half = 1 << (n - 1)
    beta = np.zeros(n + 1)
    assigned = 0
    for l in range(n + 1):
        take = min(mults[l], half - assigned)
        beta[l] = 2.0 * take / mults[l]
        assigned += take
        if assigned == half:
            break
    program = CoefficientProgram(values, tuple(mults), beta)
    result = BoundResult(
        n,
        epsilon,
        bound_closed_form(n, epsilon),
        bound_sum_form(n, epsilon),
        program.value(),
    )
    return result, program


# ---------------------------------------------------------------------------
# the saturating strategy


class OptimalStrategy(NamedTuple):
    """Even branch untouched, odd branch collectively flipped, sectors read
    out exactly: the strategy whose simulated average fidelity meets the
    ceiling.  Compared by identity."""

    v_even: str
    v_odd: str
    povm: SectorPVM

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


def optimal_strategy(n: int) -> OptimalStrategy:
    from .measurement import sector_pvm

    return OptimalStrategy(TAG_IDENTITY, TAG_FLIP, sector_pvm(n))


def optimal_outcome_distributions(n: int, epsilon: float):
    """Sector distributions of the two branches under the optimal strategy:
    the even branch keeps b(m; n, epsilon/2), the flipped odd branch sees the
    reverse, b(m; n, 1-epsilon/2)."""
    _validate_params(n, epsilon)
    p_even = binomial_pmf(n, epsilon / 2.0)
    p_odd = binomial_pmf(n, 1.0 - epsilon / 2.0)
    return OutcomeDistribution(p_odd), OutcomeDistribution(p_even)


# ---------------------------------------------------------------------------
# randomized no-violation search


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian matrix with the
    R-diagonal phase ambiguity removed."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_collective_povm(n: int, rng: np.random.Generator) -> CollectivePOVM:
    """Column-stochastic normalization of uniform draws; 2..n+1 outcomes."""
    from .measurement import CollectivePOVM

    k = int(rng.integers(2, n + 2))
    raw = rng.uniform(size=(k, n + 1))
    return CollectivePOVM(raw / raw.sum(axis=0))


class ViolationReport(NamedTuple):
    """Outcome of a randomized search for strategies beating the ceiling."""

    n: int
    epsilon: float
    trials: int
    seed: int
    bound: float
    max_f_avg: float
    argmax_trial: int
    violations: int
    optimal_gap: float
    eigen_max_f_avg: float
    eigen_pvm_max_gap: float


def bound_violation_search(n: int, epsilon: float, trials: int, seed: int) -> ViolationReport:
    """Sample random (V_odd, V_even) pairs and random collective POVMs and
    count the sampled strategies that exceed the ceiling by more than
    TOL.violation; the caller reads ``violations``.

    Each trial owns the RNG stream (seed, trial), so results do not depend on
    evaluation order.  Alongside the collective-POVM reading, every trial also
    evaluates the unrestricted eigenbasis measurement of rho_odd - rho_even,
    which must reproduce the quantum trace distance and stay below the
    ceiling as well.
    """
    _validate_params(n, epsilon)
    dim = 1 << n
    if dim > DENSE_DENSITY_DIM_CAP:
        raise DomainError(f"violation search is dense-only; 2^{n} exceeds the cap")
    rho_eps = thermal_ms_dense(MsConfig(n, epsilon)).matrix
    pops = popcounts(n).astype(np.intp)
    bound = bound_closed_form(n, epsilon)
    max_f = -1.0
    argmax = -1
    violations = 0
    eigen_max_f = -1.0
    eigen_gap = 0.0
    for t in range(trials):
        rng = np.random.default_rng((seed, t))
        v_o = haar_unitary(dim, rng)
        v_e = haar_unitary(dim, rng)
        rho_o = v_o @ rho_eps @ v_o.conj().T
        rho_e = v_e @ rho_eps @ v_e.conj().T
        povm = random_collective_povm(n, rng)
        p_o = povm.coefficients @ sector_sums(np.diagonal(rho_o).real, pops)
        p_e = povm.coefficients @ sector_sums(np.diagonal(rho_e).real, pops)
        f = 0.5 * _exact_sum(np.maximum(p_o, p_e))
        if f > max_f:
            max_f, argmax = f, t
        if f > bound + TOL.violation:
            violations += 1
        diff = rho_o - rho_e
        evals, vecs = np.linalg.eigh(diff)
        d_q = 0.5 * float(np.abs(evals).sum())
        q_o = np.einsum("ij,jk,ki->i", vecs.conj().T, rho_o, vecs).real
        q_e = np.einsum("ij,jk,ki->i", vecs.conj().T, rho_e, vecs).real
        d_c = 0.5 * float(np.abs(q_o - q_e).sum())
        eigen_gap = max(eigen_gap, abs(d_c - d_q))
        f_eigen = 0.5 * (1.0 + d_c)
        if f_eigen > eigen_max_f:
            eigen_max_f = f_eigen
        if f_eigen > bound + TOL.violation:
            violations += 1
    f_opt = bound_sum_form(n, epsilon)
    return ViolationReport(
        n=n,
        epsilon=epsilon,
        trials=trials,
        seed=seed,
        bound=bound,
        max_f_avg=max_f,
        argmax_trial=argmax,
        violations=violations,
        optimal_gap=bound - f_opt,
        eigen_max_f_avg=eigen_max_f,
        eigen_pvm_max_gap=eigen_gap,
    )
