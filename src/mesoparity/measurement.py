"""Collective-excitation measurements.

Effects act only through the total-excitation projectors: E_alpha =
sum_m a[alpha][m] Pi(m).  The post-measurement state follows the square-root
update rule, sqrt(E_alpha) rho sqrt(E_alpha) / p_alpha, with
sqrt(E_alpha) = sum_m sqrt(a[alpha][m]) Pi(m) acting on the MS slots only.
`measure` reads the rows a[alpha] of the readout's live outcomes only; the
fully resolving readout (`sector_pvm`) is held by its size and builds its
rows, unit vectors, when asked, so no (n+1) x (n+1) table exists while it
measures.

For every representation, route and readout, a record carries its post
state exactly when the caller asks for post states (the CLI does for
``--disentangle``), and that state's sector distribution otherwise.  The
update of a state with a tensor vanishes off the effect's support S, the MS
entries where sqrt(E_alpha) is nonzero, so `measure` updates the ket entries
on S (rho[S, S] for a density, cast to complex when stored real) and reads
the record from that checked block; the full post-state is the block written
into zeros.  A `SectorMixture` is measured in blocks of live outcomes: one
`collective.mixture_update` of a block's three (K, n+1) sector arrays,
checked row by row, whose rows become `SectorMixture`s only to be kept, and
one (K, 4, 4) stack of its qubit marginals, checked once, off which both
Bell fidelities of every record are read.  Each record's qubit marginal is
checked once, positivity included, on every route.  The apparatus route
runs on the full joint tensor of a state with a tensor and reads each
record off the post state with `post_record`, as the CLI does.

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

from .circuits import JointState, qubit_marginal
from .collective import (
    SectorMixture,
    bell_marginals,
    excitation_index,
    mixture_update,
    sector_diagonal,
    sector_probabilities,
    sector_sums,
)
# fidelity is not called here but stays importable from this module, where
# the benchmark's tracer wraps it
from .metrics import bell_overlaps, fidelity
from .states import (
    LABEL_MS,
    LayoutError,
    SubsystemLayout,
    ValidationError,
    apply_kernel,
    branch_probability,
    populations,
    renormalized,
    validate_density,
    validate_density_stack,
)
from .tolerances import TOL


# float64 entries of each (K, n+1) array of a block update of a
# `SectorMixture` (128 KB): K = 8 live outcomes at N = 2000, one from
# N = 16384 on
_BLOCK_ENTRIES = 1 << 14
# outcomes per `measure` call of `measure_each` at most, so a run of dead
# outcomes, whose records are built together, holds O(1) records at a time
_CHUNK_OUTCOMES = 1 << 10


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

    def probabilities(self, ids: np.ndarray, sectors: np.ndarray) -> np.ndarray:
        """`probability` of each outcome in ``ids``, one row's dot at a time."""
        return np.array([self.probability(alpha, sectors) for alpha in ids.tolist()])


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

    def probabilities(self, ids: np.ndarray, sectors: np.ndarray) -> np.ndarray:
        """`probability` of each outcome in ``ids``, in one gather."""
        return sectors[ids] + 0.0


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


# every field of a dead record but its outcome and probability
_DEAD_FIELDS = dict(post_state=None, fidelity_odd=None, fidelity_even=None,
                    fidelity_best=None, sectors=None)


def _dead_records(ids, probs) -> list:
    """The records of outcomes ``ids`` whose probabilities ``probs`` lie
    below the floor, each probability clipped at 0 as max(p, 0.0) clips it.
    Each record's fields are written straight into its instance dict, not
    through the frozen dataclass's ``__init__`` (about 1 us a record): most
    outcomes of a resolving readout are dead."""
    probs = np.asarray(probs, dtype=float)
    new = object.__new__
    records = []
    for alpha, p in zip(np.asarray(ids).tolist(), np.where(probs < 0.0, 0.0, probs).tolist()):
        rec = new(OutcomeRecord)
        vars(rec).update(_DEAD_FIELDS, outcome=alpha, probability=p)
        records.append(rec)
    return records


def _live_records(outcomes, probs, margs, sectors, posts) -> list:
    """The records of live outcomes, each with its probability, its row of
    the checked (K, 4, 4) stack ``margs`` of qubit marginals, and its post
    state's sectors or the post state itself (None where absent)."""
    f_odd, f_even = bell_overlaps(margs)
    return [OutcomeRecord(alpha, float(p), post, f_o, f_e, max(f_o, f_e), sec)
            for alpha, p, f_o, f_e, sec, post
            in zip(outcomes, probs, f_odd, f_even, sectors, posts)]


def _record(outcome, p, marg, sectors=None, post=None) -> OutcomeRecord:
    """The live record of an outcome of probability ``p`` with the post
    state's qubit marginal ``marg``, a `DensityOperator` whose positivity is
    checked here, and either its ``sectors`` or the ``post`` state itself."""
    validate_density(marg)
    return _live_records((outcome,), (p,), marg.matrix[None], (sectors,), (post,))[0]


def post_record(outcome, p, post, keep: bool) -> OutcomeRecord:
    """The live record of an outcome of probability ``p`` read off its post
    state ``post``: carrying ``post`` itself with ``keep``, else its sectors."""
    sectors = None if keep else sector_probabilities(post)
    return _record(outcome, p, qubit_marginal(post), sectors, post if keep else None)


def _support_update(state, sqrt_coeffs: np.ndarray, p: float, post_states: bool):
    """sqrt(E) state sqrt(E) / p for one sector-diagonal effect on a state with
    a tensor, computed on its support S only: the MS entries where sqrt(E) is
    nonzero.

    Returns the qubit marginal and either, with ``post_states``, None and the
    full post-state (the block written into zeros) or the post-state's sector
    distribution and None.
    Both are read from the checked block on S, a state of ``state``'s class
    with the MS slot shrunk to |S|: the update vanishes off S on every side,
    so the block holds the whole qubit marginal and every sector's weight.
    """
    index = excitation_index(state)
    on_support = (sqrt_coeffs != 0)[index]
    sides = state.sides
    d = state.layout.total_dim
    # a real density's block is made complex, so the record is read from the
    # same values, summed in the same order, as for complex storage
    if on_support.all():
        # S holds every entry: the block is a complex copy of the whole tensor
        sub_index, sub, rows, on_s = index, state.layout, None, None
        t = np.array(state.as_tensor(), dtype=complex)
    else:
        slot = state.layout.slot(LABEL_MS)
        sub_index = np.compress(on_support.reshape(-1), index, axis=slot)
        dims = list(state.layout.dims)
        dims[slot] = sub_index.size
        sub = SubsystemLayout(tuple(dims), state.layout.labels)
        # ket entries whose MS entry lies in S, in the block's C order, on every side
        rows = np.flatnonzero(np.broadcast_to(on_support, state.layout.dims))
        on_s = np.ix_(*(rows,) * sides)
        t = state.as_tensor().reshape((d,) * sides)[on_s].astype(complex, copy=False)
        t = t.reshape(sub.dims * sides)
    # the weights of all sides are combined first, so the block is multiplied once
    kernel = sector_diagonal(sqrt_coeffs, sub_index)
    t *= apply_kernel(state, kernel, np.ones((1,) * (sides * len(sub.dims))))
    t /= p if sides == 2 else np.sqrt(p)
    flat = t.reshape((sub.total_dim,) * sides)
    block = type(state)(flat, sub)
    if post_states:
        if on_s is None:
            return qubit_marginal(block), None, state.with_tensor(flat)
        full = np.zeros((d,) * sides, dtype=complex)
        full[on_s] = flat
        return qubit_marginal(block), None, state.with_tensor(full)
    # an amplitude state's row index is half its block's size: free it before the sums
    del rows, on_s
    sectors = sector_sums(populations(block), sub_index, sqrt_coeffs.size - 1)
    return qubit_marginal(block), sectors, None


def _block_size(state, n: int) -> int:
    """How many live outcomes `measure` updates at once: one for a state with
    a tensor, whose post states are full joint states, and for a
    `SectorMixture` as many rows of n+1 sector entries as fit in
    `_BLOCK_ENTRIES`."""
    return max(1, _BLOCK_ENTRIES // (n + 1)) if isinstance(state, SectorMixture) else 1


def _block_records(state, outcomes, probs, sqrt_rows, post_states) -> list:
    """The records of a block of live outcomes, of probabilities ``probs``
    and square-root effect rows ``sqrt_rows``: for a state with a tensor,
    one outcome's `_support_update`; for a `SectorMixture`, one
    `collective.mixture_update` of the block, its qubit marginals built and
    checked as one stack."""
    if not isinstance(state, SectorMixture):
        (alpha,), (p,), (sqrt_coeffs,) = outcomes, probs, sqrt_rows
        return [_record(alpha, p, *_support_update(state, sqrt_coeffs, p, post_states))]
    sums, sectors, posts = mixture_update(state, sqrt_rows, probs, post_states)
    margs = bell_marginals(*sums)
    validate_density_stack(margs)
    none = (None,) * len(outcomes)
    return _live_records(outcomes, probs, margs, none if sectors is None else sectors,
                         none if posts is None else posts)


def _check_sites(povm: Readout, n: int) -> None:
    if povm.n_sites != n:
        raise LayoutError(
            f"POVM covers sectors 0..{povm.n_sites} but the MS has {n} sites"
        )


def measure(
    state: JointState,
    povm: Readout,
    outcomes: Optional[Sequence[int]] = None,
    post_states: bool = True,
    sectors: Optional[np.ndarray] = None,
    probs: Optional[np.ndarray] = None,
) -> list:
    """Apply a sector POVM: one OutcomeRecord per effect, probabilities from
    the sector distribution, post states from the square-root rule.

    ``outcomes`` names the effects to build records for, in that order (all
    of them by default); the post states of the others are never built.
    The outcomes' probabilities are read in one ``povm.probabilities`` call,
    and only the live outcomes' coefficients, as rows of ``povm``, so the
    dead outcomes of `sector_pvm` cost one gather and their records.
    ``sectors`` is the state's sector distribution and ``probs`` the
    outcomes' probabilities, when the caller has them.
    Each live record carries its post state with ``post_states`` and its
    post state's sector distribution without.  A state with a tensor is
    updated one outcome at a time on its support only (see
    `_support_update`); a `SectorMixture` in blocks of live outcomes, each
    block in one update of its sector weights (see
    `collective.mixture_update`) and one check of its qubit marginals.
    Either builds its full post states only with ``post_states``.
    """
    if sectors is None:
        sectors = sector_probabilities(state)
    n = sectors.size - 1
    _check_sites(povm, n)
    ids = np.arange(povm.n_outcomes) if outcomes is None else np.asarray(outcomes, dtype=np.intp)
    if probs is None:
        probs = povm.probabilities(ids, sectors)
    dead = probs < TOL.prob_floor
    records = _dead_records(ids[dead], probs[dead])
    live = np.flatnonzero(~dead)
    if not live.size:
        return records
    size = _block_size(state, n)
    kept = []
    for start in range(0, live.size, size):
        block = live[start:start + size]
        alphas = ids[block].tolist()
        sqrt_rows = np.sqrt([povm.row(alpha) for alpha in alphas])
        kept += _block_records(state, alphas, probs[block].tolist(), sqrt_rows, post_states)
    # the live records in their places among the dead ones
    dead_iter, kept_iter = iter(records), iter(kept)
    return [next(dead_iter) if d else next(kept_iter) for d in dead.tolist()]


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
            records += _dead_records([k], [p])
            continue
        corrected = apply_kernel(state, sector_diagonal(_sector_signs(amps[k]), index), raw)
        records.append(post_record(k, p, renormalized(state, corrected, p), post_states))
    return records


def measure_each(
    state: JointState,
    readout: Union[Readout, ApparatusSpec, TwoOutcomeTheta],
    post_states: bool = True,
) -> Iterator[OutcomeRecord]:
    """The records of `measure` (for a POVM) or `apparatus_measure` (for a
    probe readout), built as they are asked for: a POVM's outcomes in
    consecutive chunks, one `measure` call each, a chunk ending with its one
    live outcome for a state with a tensor and with its block's last live
    outcome for a `SectorMixture`, and holding at most `_CHUNK_OUTCOMES`
    outcomes; a probe readout's one outcome per call.  The state's sector
    distribution and every outcome's probability are computed once, for all
    of a POVM's calls, so a run of dead outcomes costs one call and its
    records.

    A consumer that drops each post state before asking for the next record
    holds at most one chunk's post states at a time, whatever the outcome
    count: one full joint state, or the sector mixtures of one block, within
    its entry budget; one that also drops each record's sectors once it has
    used them, as ``simulate`` does by writing each outcome's report entry
    before asking for the next, holds O(1) sector lists.  Without
    ``post_states`` the records carry their post states' sector
    distributions and no post state, and only the apparatus route builds a
    full post state.
    """
    if isinstance(readout, (ApparatusSpec, TwoOutcomeTheta)):
        for k in range(readout.n_outcomes):
            yield from apparatus_measure(state, readout, (k,), post_states)
        return
    sectors = sector_probabilities(state)
    n = sectors.size - 1
    _check_sites(readout, n)
    count = readout.n_outcomes
    probs = readout.probabilities(np.arange(count), sectors)
    # each chunk ends with a block's last live outcome, and holds at most
    # _CHUNK_OUTCOMES outcomes (a set, not np.unique, which imports numpy.ma)
    size = _block_size(state, n)
    live = np.flatnonzero(~(probs < TOL.prob_floor))
    ends = {*(live[size - 1::size] + 1).tolist(), *range(_CHUNK_OUTCOMES, count, _CHUNK_OUTCOMES),
            count}
    start = 0
    for stop in sorted(ends):
        yield from measure(state, readout, np.arange(start, stop), post_states, sectors,
                           probs[start:stop])
        start = stop
