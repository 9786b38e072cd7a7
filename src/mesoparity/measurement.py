"""Collective-excitation measurements.

Effects act only through the total-excitation projectors: E_alpha =
sum_m a[alpha][m] Pi(m).  The post-measurement state follows the square-root
update rule, sqrt(E_alpha) rho sqrt(E_alpha) / p_alpha, with
sqrt(E_alpha) = sum_m sqrt(a[alpha][m]) Pi(m) acting on the MS slots only.
`measure` reads one row a[alpha] of the readout per outcome; the fully
resolving readout (`sector_pvm`) is held by its size and builds each row, a
unit vector, when asked, so no (n+1) x (n+1) table exists while it measures.

For every representation, route and readout, a record carries its post
state exactly when the caller asks for post states (the CLI does for
``--disentangle``), and that state's sector distribution otherwise.  The
update of a state with a tensor vanishes off the effect's support S, the MS
entries where sqrt(E_alpha) is nonzero, so `measure` updates the ket entries
on S (rho[S, S] for a density, cast to complex when stored real) and reads
the record from that checked block; the full post-state is the block written
into zeros.  A `SectorMixture` outcome is its three checked, updated sector
vectors, made a `SectorMixture` only to be kept.  The apparatus route runs
on the full joint tensor of a state with a tensor.

The apparatus route realizes a two-outcome member of this family physically:
attach a probe qubit in |0>, rotate it by theta(m) conditioned on the sector,
read it out projectively, then undo the leftover sector-diagonal signs so the
result coincides with the square-root rule exactly.  Reading outcome k leaves
the MS multiplied by the probe amplitude <k|R(theta_m)|0> on each sector, so
the circuit runs as sector-diagonal kernels on the joint tensor of every
representation with amplitudes (a density gets them on both sides); the probe
is never stored.  `SectorMixture` keeps only sector weights and takes the
square-root rule with the same cos^2/sin^2 coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .circuits import JointState, _bell_block_marginal, qubit_marginal
from .collective import (
    SectorMixture,
    _check_sector_weights,
    excitation_index,
    sector_diagonal,
    sector_probabilities,
    sector_sums,
)
from .metrics import BELL_EVEN_PLUS, BELL_ODD_PLUS, fidelity
from .states import (
    LABEL_MS,
    DensityOperator,
    LayoutError,
    PureState,
    SubsystemLayout,
    ValidationError,
    apply_kernel,
    branch_probability,
    populations,
    renormalized,
    tensor_sides,
)
from .tolerances import TOL


@dataclass(frozen=True, eq=False)
class CollectivePOVM:
    """Coefficient matrix a[alpha][m] of sector-diagonal effects."""

    coefficients: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.coefficients, dtype=float)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 2:
            raise LayoutError(f"coefficient matrix shape {a.shape}")
        a.setflags(write=False)
        object.__setattr__(self, "coefficients", a)
        if not (-TOL.povm <= a.min() and a.max() <= 1.0 + TOL.povm):
            raise ValidationError("POVM coefficients must lie in [0, 1]")
        res = np.abs(a.sum(axis=0) - 1.0).max()
        if not res <= TOL.povm:
            raise ValidationError(f"POVM incomplete: column sums off by {res}")

    @property
    def n_sites(self) -> int:
        return self.coefficients.shape[1] - 1

    @property
    def n_outcomes(self) -> int:
        return self.coefficients.shape[0]

    def row(self, alpha: int) -> np.ndarray:
        """The coefficients a[alpha][m] of effect ``alpha`` over the sectors."""
        return self.coefficients[alpha]

    def probability(self, alpha: int, sectors: np.ndarray) -> float:
        """p(alpha) = sum_m a[alpha][m] P(m) of the sector distribution P."""
        return float(self.row(alpha) @ sectors)


@dataclass(frozen=True)
class SectorPVM:
    """The fully resolving measurement, E_alpha = Pi(alpha) for alpha = 0..n,
    held by its size alone: `probability` reads one sector's weight, `row`
    builds the unit vector of one outcome, and the (n+1) x (n+1) identity
    exists only while a reader of ``coefficients`` holds it."""

    n_sites: int

    def __post_init__(self):
        if int(self.n_sites) != self.n_sites or self.n_sites < 1:
            raise LayoutError(f"sector readout needs n >= 1 sites, got {self.n_sites}")
        object.__setattr__(self, "n_sites", int(self.n_sites))

    @property
    def n_outcomes(self) -> int:
        return self.n_sites + 1

    @property
    def coefficients(self) -> np.ndarray:
        a = np.eye(self.n_outcomes)
        a.setflags(write=False)
        return a

    def row(self, alpha: int) -> np.ndarray:
        a = np.zeros(self.n_outcomes)
        a[alpha] = 1.0
        return a

    def probability(self, alpha: int, sectors: np.ndarray) -> float:
        """P(alpha), the same float as the dot product of `row` with
        ``sectors``, in O(1): adding 0.0 turns a -0.0 weight into the +0.0
        that the dot's sum of zeros gives."""
        return float(sectors[alpha]) + 0.0


Readout = Union[CollectivePOVM, SectorPVM]


@dataclass(frozen=True, eq=False)
class TwoOutcomeTheta:
    """Angle table theta(m) defining the cos^2/sin^2 two-outcome family."""

    n_outcomes = 2
    theta: np.ndarray

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=float).reshape(-1)
        if th.size < 2:
            raise LayoutError("theta table needs at least two entries (m = 0..n)")
        if not np.all(np.isfinite(th)):
            raise ValidationError("theta table must be finite")
        th.setflags(write=False)
        object.__setattr__(self, "theta", th)

    @classmethod
    def linear(cls, n: int, g: float, t_m: float) -> "TwoOutcomeTheta":
        return cls(g * t_m * np.arange(n + 1))

    @property
    def n_sites(self) -> int:
        return self.theta.size - 1


@dataclass(frozen=True)
class ApparatusSpec:
    """Probe-qubit coupling: rotation angle theta(m) = g * m * t_m."""

    n_outcomes = 2
    g: float
    t_m: float

    def __post_init__(self):
        gt = self.g * self.t_m
        if not np.isfinite(gt) or gt < 0:
            raise ValidationError(f"g*t_m must be finite and nonnegative, got {gt}")

    def theta(self, n: int) -> TwoOutcomeTheta:
        return TwoOutcomeTheta.linear(n, self.g, self.t_m)


@dataclass(frozen=True, eq=False)
class OutcomeRecord:
    """One measurement outcome: its probability, the Bell fidelities of the
    post-selected qubit pair and either its post state, when post states
    were asked for, or else the post state's sector distribution.  Every
    field but the probability is None below the probability floor."""

    outcome: int
    probability: float
    post_state: Optional[JointState]
    fidelity_odd: Optional[float]
    fidelity_even: Optional[float]
    fidelity_best: Optional[float]
    sectors: Optional[np.ndarray]


def povm_from_theta(t: TwoOutcomeTheta) -> CollectivePOVM:
    """Two outcomes with coefficients cos^2(theta(m)) and sin^2(theta(m))."""
    c, s = np.cos(t.theta), np.sin(t.theta)
    return CollectivePOVM(np.stack([c * c, s * s]))


def threshold_pvm(n: int) -> CollectivePOVM:
    """Binary coarse-graining: outcome 0 collects every sector m <= floor(n/2)."""
    low = (np.arange(n + 1) <= n // 2).astype(float)
    return CollectivePOVM(np.stack([low, 1.0 - low]))


def sector_pvm(n: int) -> SectorPVM:
    """The fully resolving measurement: one outcome per excitation sector."""
    return SectorPVM(n)


# ---------------------------------------------------------------------------
# square-root-rule measurement


def _record(outcome, p, marg=None, sectors=None, post=None) -> OutcomeRecord:
    """The record of an outcome of probability ``p``: for a live outcome,
    with the post state's qubit marginal ``marg`` and either its ``sectors``
    or the ``post`` state itself."""
    if marg is None:
        return OutcomeRecord(outcome, max(float(p), 0.0), None, None, None, None, None)
    f_o = fidelity(marg, BELL_ODD_PLUS)
    f_e = fidelity(marg, BELL_EVEN_PLUS)
    return OutcomeRecord(outcome, float(p), post, f_o, f_e, max(f_o, f_e), sectors)


def _support_update(state, sqrt_coeffs: np.ndarray, p: float, post_states: bool):
    """sqrt(E) state sqrt(E) / p for one sector-diagonal effect on a state with
    a tensor, computed on its support S only: the MS entries where sqrt(E) is
    nonzero.

    Returns the checked block on S (the MS slot shrunk to |S|: a
    `DensityOperator` for a density, a `PureState` for amplitudes) and either,
    with ``post_states``, None and the full post-state (the block written into
    zeros) or the post-state's sector distribution and None.  The update
    vanishes off S on every side, so the block holds the whole qubit marginal
    and every sector's weight.
    """
    index = excitation_index(state)
    slot = state.layout.slot(LABEL_MS)
    on_support = (sqrt_coeffs != 0)[index]
    sub_index = np.compress(on_support.reshape(-1), index, axis=slot)
    dims = list(state.layout.dims)
    dims[slot] = sub_index.size
    sub = SubsystemLayout(tuple(dims), state.layout.labels)
    sides = tensor_sides(state)
    # the weights of all sides are combined first, so the block is multiplied once
    kernel = sector_diagonal(sqrt_coeffs, sub_index)
    weight = apply_kernel(state, kernel, np.ones((1,) * (sides * len(dims))))
    # ket entries whose MS entry lies in S, in the block's C order, on every side;
    # a real density's block is made complex, so the record is read from the
    # same values, summed in the same order, as for complex storage
    rows = np.flatnonzero(np.broadcast_to(on_support, state.layout.dims))
    on_s = np.ix_(*(rows,) * sides)
    d = state.layout.total_dim
    t = state.as_tensor().reshape((d,) * sides)[on_s].astype(complex, copy=False)
    t = t.reshape(sub.dims * sides)
    t *= weight
    t /= p if sides == 2 else np.sqrt(p)
    flat = t.reshape((rows.size,) * sides)
    block = (DensityOperator if sides == 2 else PureState)(flat, sub)
    if post_states:
        full = np.zeros((d,) * sides, dtype=complex)
        full[on_s] = flat
        return block, None, state.with_tensor(full)
    # an amplitude state's row index is half its block's size: free it before the sums
    del rows, on_s
    return block, sector_sums(populations(block), sub_index, sqrt_coeffs.size - 1), None


def _mixture_update(mix: SectorMixture, sqrt_coeffs: np.ndarray, p: float, post_states: bool):
    """sqrt(E) mix sqrt(E) / p for one sector-diagonal effect, on the sector
    weights and checked as `SectorMixture` checks them: the qubit marginal,
    then the sectors and None, or with ``post_states`` None and the post-state."""
    a = sqrt_coeffs**2
    cross_factor = a if not mix.cross_flipped else sqrt_coeffs * sqrt_coeffs[::-1]
    w_odd, w_even = a * mix.weight_odd / p, a * mix.weight_even / p
    cross = cross_factor * mix.cross / p
    if post_states:
        post, sectors = SectorMixture(mix.n, w_odd, w_even, cross, mix.cross_flipped), None
    else:
        _check_sector_weights(w_odd, w_even, cross, mix.cross_flipped)
        post, sectors = None, 0.5 * (w_odd + w_even)
    x = 0.0 if mix.cross_flipped else float(cross.sum())
    return _bell_block_marginal(w_odd.sum(), w_even.sum(), x), sectors, post


def measure(
    state: JointState,
    povm: Readout,
    outcomes: Optional[Sequence[int]] = None,
    post_states: bool = True,
    sectors: Optional[np.ndarray] = None,
) -> list:
    """Apply a sector POVM: one OutcomeRecord per effect, probabilities from
    the sector distribution, post states from the square-root rule.

    ``outcomes`` names the effects to build records for, in that order (all
    of them by default); the post states of the others are never built.
    Each outcome's probability is read by ``povm.probability``, and only a
    live outcome's coefficients, as one row of ``povm``, so a dead outcome
    of `sector_pvm` costs O(1).
    ``sectors`` is the state's sector distribution, when the caller has it.
    Each live record carries its post state with ``post_states`` and its
    post state's sector distribution without.  A state with a tensor is
    updated on each outcome's support only (see `_support_update`), a
    `SectorMixture` on its sector weights (see `_mixture_update`); either
    builds its full post state only with ``post_states``.
    """
    if sectors is None:
        sectors = sector_probabilities(state)
    n = sectors.size - 1
    if povm.n_sites != n:
        raise LayoutError(
            f"POVM covers sectors 0..{povm.n_sites} but the MS has {n} sites"
        )
    records = []
    for alpha in range(povm.n_outcomes) if outcomes is None else outcomes:
        p = povm.probability(alpha, sectors)
        if p < TOL.prob_floor:
            records.append(_record(alpha, p))
            continue
        sqrt_a = np.sqrt(povm.row(alpha))
        if isinstance(state, SectorMixture):
            records.append(_record(alpha, p, *_mixture_update(state, sqrt_a, p, post_states)))
        else:
            block, sec, post = _support_update(state, sqrt_a, p, post_states)
            records.append(_record(alpha, p, qubit_marginal(block), sec, post))
    return records


# ---------------------------------------------------------------------------
# apparatus-qubit realization


def _probe_rotation(theta: np.ndarray) -> np.ndarray:
    # exp(-i*theta*sigma_y) for every angle, indexed [row, column, angle]
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _sector_signs(values: np.ndarray) -> np.ndarray:
    # sign convention: exactly +1 at zeros, so the correction stays unitary
    return np.where(values >= 0.0, 1.0, -1.0)


def _theta_table(spec, n: int) -> TwoOutcomeTheta:
    table = spec.theta(n) if isinstance(spec, ApparatusSpec) else spec
    if table.n_sites != n:
        raise LayoutError(
            f"theta table covers sectors 0..{table.n_sites} but the MS has {n} sites"
        )
    return table


def apparatus_measure(
    state: JointState,
    spec: Union[ApparatusSpec, TwoOutcomeTheta],
    outcomes: Optional[Sequence[int]] = None,
    post_states: bool = True,
) -> list:
    """Measure via the probe qubit and return records identical to
    `measure` with `povm_from_theta`, for the same ``outcomes`` and
    ``post_states``.  The circuit runs on the full joint tensor of every
    representation with a tensor, so each live outcome's post state is
    built; as with `measure`, the record keeps it only with
    ``post_states`` and carries its sector distribution without.

    Steps: attach |0>, rotate the probe by theta(m) on each sector, read the
    probe in its computational basis, discard it, then apply the
    sector-diagonal sign correction sum_m sign(cos theta(m)) Pi(m) (outcome 0)
    or sum_m sign(sin theta(m)) Pi(m) (outcome 1).
    """
    if isinstance(state, SectorMixture):
        return measure(state, povm_from_theta(_theta_table(spec, state.n)), outcomes, post_states)
    index = excitation_index(state)
    table = _theta_table(spec, int(index.max()))
    amps = _probe_rotation(table.theta)[:, 0]
    records = []
    for k in range(len(amps)) if outcomes is None else outcomes:
        # the probe entered in |0> and was read out in |k>; complex coefficients
        # make the first side write a complex array, so a real density's trace
        # sums in the same order as a complex one's
        raw = apply_kernel(state, sector_diagonal(amps[k].astype(complex), index))
        p = branch_probability(state, raw)
        if p < TOL.prob_floor:
            records.append(_record(k, p))
            continue
        corrected = apply_kernel(state, sector_diagonal(_sector_signs(amps[k]), index), raw)
        post = renormalized(state, corrected, p)
        sectors = None if post_states else sector_probabilities(post)
        records.append(_record(k, p, qubit_marginal(post), sectors, post if post_states else None))
    return records


def measure_each(
    state: JointState,
    readout: Union[Readout, ApparatusSpec, TwoOutcomeTheta],
    post_states: bool = True,
) -> Iterator[OutcomeRecord]:
    """The records of `measure` (for a POVM) or `apparatus_measure` (for a
    probe readout), built one outcome per call as they are asked for.  The
    state's sector distribution is computed once, for all of a POVM's calls.

    A consumer that drops each post state before asking for the next record
    holds at most one post state at a time, whatever the outcome count; one
    that also drops each record's sectors once it has used them, as
    ``simulate`` does by writing each outcome's report entry before asking
    for the next, holds O(1) sector lists.  Without ``post_states`` the
    records carry their post states' sector distributions and no post
    state, and only the apparatus route builds a full post state.
    """
    if isinstance(readout, (ApparatusSpec, TwoOutcomeTheta)):
        for k in range(readout.n_outcomes):
            yield from apparatus_measure(state, readout, (k,), post_states)
        return
    sectors = sector_probabilities(state)
    for k in range(readout.n_outcomes):
        yield from measure(state, readout, (k,), post_states, sectors)

