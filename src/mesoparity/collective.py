"""Permutation-symmetric machinery for the mesoscopic system (MS).

Excitation-sector bookkeeping, one kernel for every qubit-conditioned MS
operation (the collective flip is one), the GHZ-manifold entangler and the
edge phase gate, which act on dense states and on the block-bit `PureState`
that keeps one bit per MS block (all sites |0> or all |1>), and a
sector-resolved mixed-state form for the parity-conditioned protocol family.
The MS is an ensemble of n identical two-level systems addressed only through
collective operations.

Each gate is written once for every representation with a tensor:
`_ms_frame`, the one place that finds the MS slot (by its label) and splits
it into blocks, hides whether the state is dense or block-bit, and the
state's ``sides`` whether it is pure or mixed.  The block flips and the
edge phase gate write a density's two sides in one pass;
`states.apply_kernel` carries the entangler's ket-side kernel to the bra
side.  A `SectorMixture` has no tensor and only this module reads its
fields: `mixture_conditional` is its flip, `mixture_update` its square-root
measurement update and `mixture_marginal` its qubit marginal.

Convention: m always counts constituents in |1> (per-site number operator
|1><1|), so the weakly polarized product state rho_eps concentrates near m=0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .states import (
    DENSE_DENSITY_DIM_CAP,
    DENSE_STATE_DIM_CAP,
    LABEL_MS,
    LABEL_Q1,
    LABEL_Q2,
    DensityOperator,
    LayoutError,
    PureState,
    SubsystemLayout,
    ValidationError,
    apply_kernel,
    populations,
)
from .metrics import BELL_EVEN_PLUS, BELL_ODD_PLUS
from .tolerances import TOL


class RepresentationError(ValueError):
    """The requested operation leaves the family of representable states."""


# ---------------------------------------------------------------------------
# excitation-sector bookkeeping


@lru_cache(maxsize=None)
def popcounts(n: int) -> np.ndarray:
    """Number of 1-bits of every n-bit basis index, site 1 = most significant."""
    v = np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.uint8)
    v.setflags(write=False)
    return v


# cephes `lgam` at the positive integers, the algorithm behind
# scipy.special.gammaln, with libm's log through `math.log` (np.log may use
# other code): the values equal gammaln's bit for bit.  The Stirling series
# in 1/x^2 takes five coefficients below x = 1000 and three from there on.
_LS2PI = 0.91893853320467274178
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
           7.93650340457716943945e-4, -2.77777777730099687205e-3,
           8.33333333333331927722e-2)
_LGAM_A_LARGE = (7.9365079365079365079365e-4, -2.7777777777777777777778e-3,
                 0.0833333333333333333333)


def _lgam(k: int) -> float:
    """log Gamma(k) for an integer k >= 0 (a pole at 0)."""
    if k == 0:
        return math.inf
    if k < 13:
        return math.log(math.factorial(k - 1))
    x = float(k)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1e8:
        return q
    p = 1.0 / (x * x)
    coeffs = _LGAM_A if x < 1000.0 else _LGAM_A_LARGE
    poly = coeffs[0]
    for a in coeffs[1:]:
        poly = poly * p + a
    return q + poly / x


# lgam(0..size-1), read-only, one table per size.  Threads that miss the
# cache together may each build the same table, but every build is whole and
# equal and none is ever written, so no lock is needed.
@lru_cache(maxsize=None)
def _log_gamma_table(size: int) -> np.ndarray:
    """A read-only table of lgam(k) for k = 0..size-1."""
    table = np.array([_lgam(k) for k in range(size)])
    table.setflags(write=False)
    return table


def binomial_pmf(n: int, p) -> np.ndarray:
    """b(m; n, p) for m = 0..n; for a 1-D array of p, one such row per p.

    Exact products up to n = 50, log-space beyond so that large-n tails do not
    underflow through intermediate factors.  Beyond, log C(n, m) is read off
    the log-gamma table as lgam(n+1) - lgam(m+1) - lgam(n-m+1), the same
    operations in the same order as with scipy's gammaln, and so the same
    bits.  Each row of an array call is elementwise the same arithmetic as
    the call at its own p, and so equals that call bit for bit; p = 0 and
    p = 1 give the one-hot rows.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    ps = np.asarray(p, dtype=float)
    if ps.ndim > 1:
        raise ValueError(f"need a scalar or a 1-D array of p, got shape {ps.shape}")
    inside = (0.0 <= ps) & (ps <= 1.0)
    if not inside.all():
        raise ValueError(f"success probability {ps[~inside].flat[0]} outside [0, 1]")
    flat = ps.reshape(-1)
    out = np.zeros((len(flat), n + 1))
    out[:, 0] = flat == 0.0
    out[:, n] = flat == 1.0
    live = (0.0 < flat) & (flat < 1.0)
    if live.any():
        q = flat[live, None]
        m = np.arange(n + 1)
        if n <= 50:
            combs = np.array([math.comb(n, k) for k in m], dtype=float)
            out[live] = combs * q**m * (1.0 - q) ** (n - m)
        else:
            table = _log_gamma_table(1 << (n + 1).bit_length())
            lt = table[1:n + 2]
            coef = table[n + 1] - lt - lt[::-1]
            # coef + m log q + (n - m) log(1 - q) in one array, summed in
            # that order (coef + a and a + coef round alike)
            rows = m * np.log(q)
            rows += coef
            rows += (n - m) * np.log1p(-q)
            out[live] = np.exp(rows, out=rows)
    return out if ps.ndim else out[0]


@dataclass(frozen=True)
class MsConfig:
    """Ensemble size and per-site depolarization of the MS initial state.

    Each site starts in diag(q, 1-q) with q = 1 - epsilon/2, i.e. polarization
    1 - epsilon toward |0>.
    """

    n: int
    epsilon: float = 0.0

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ValidationError(f"MS size must be a positive integer, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "epsilon", float(self.epsilon))
        if not 0.0 <= self.epsilon < 1.0:
            raise ValidationError(f"epsilon must lie in [0, 1), got {self.epsilon}")

    @property
    def ground_probability(self) -> float:
        return 1.0 - self.epsilon / 2.0

    @property
    def polarization(self) -> float:
        return 1.0 - self.epsilon

    def sector_weights(self) -> np.ndarray:
        """Excitation-sector distribution b(m; n, epsilon/2) of rho_eps."""
        return binomial_pmf(self.n, self.epsilon / 2.0)


# ---------------------------------------------------------------------------
# the MS slot of a state tensor
#
# The MS slot, found by its label, runs over big-endian bit strings s in C
# order, site 1 (block 1) the most significant bit.  A dense slot has one bit
# per site, dimension 2^n, so a flip of all sites is an index reversal
# (b -> 2^n-1-b) and a flip of a contiguous site range is a reversal of one
# factor of a reshaped index.  A block-bit slot has one bit per block,
# dimension 2^k, so the same reshape exposes its blocks and the same reversal
# flips bit s_b, which maps m_b -> N_b - m_b.  Blocks are contiguous, so the
# first bit holds site 1 and the last holds site n either way.


def _ms_frame(layout: SubsystemLayout, own_blocks, block_sizes=None):
    """(MS slot, axis length of each MS block) of a state with this layout
    and, for a block-bit state, its own block sizes ``own_blocks`` (None for
    a dense MS slot).

    A dense MS slot splits into any contiguous site ranges `block_sizes`
    (default: one block of all sites); a block-bit state has its own.
    """
    slot = layout.slot(LABEL_MS)
    if own_blocks is not None:
        if block_sizes is not None and tuple(block_sizes) != own_blocks:
            raise LayoutError("block_sizes conflicts with the state's own blocks")
        return slot, (2,) * len(own_blocks)
    dim = layout.dims[slot]
    n = dim.bit_length() - 1
    if 1 << n != dim:
        raise LayoutError(f"MS dimension {dim} is not a power of two")
    sizes = (n,) if block_sizes is None else tuple(int(b) for b in block_sizes)
    if sum(sizes) != n:
        raise LayoutError(f"block sizes {sizes} do not cover {n} sites")
    return slot, tuple(1 << b for b in sizes)


def excitation_index(state) -> np.ndarray:
    """Total MS excitation m(s) = sum_b s_b N_b of every ket basis entry, over
    the MS bits s_b of N_b sites each (one site per bit in a dense slot), as
    integers shaped to broadcast against the ket tensor (length 1 off the MS
    slot).

    A sector-diagonal operator sum_m f[m] Pi(m) multiplies the ket tensor by
    ``f[excitation_index(state)]``.  The array is read-only and made once per
    layout and block sizes, so a caller that asks once per outcome copies
    no table.
    """
    return _excitation_index(state.layout, state.block_sizes)


@lru_cache(maxsize=None)
def _excitation_index(layout: SubsystemLayout, own_blocks) -> np.ndarray:
    slot, _ = _ms_frame(layout, own_blocks)
    if own_blocks is None:
        table = popcounts(layout.dims[slot].bit_length() - 1).astype(np.intp)
    else:
        bits = np.indices((2,) * len(own_blocks)).reshape(len(own_blocks), -1)
        table = np.asarray(own_blocks, dtype=np.intp) @ bits
    shape = [1] * layout.n_slots
    shape[slot] = table.size
    index = table.reshape(shape)
    index.setflags(write=False)
    return index


def _on_side(a: np.ndarray, t: np.ndarray, offset: int) -> np.ndarray:
    """Reshape a ket-shaped array to broadcast against the axes of ``t``
    from ``offset`` on (the ket or the bra side of a density tensor)."""
    return a.reshape(a.shape + (1,) * (t.ndim - offset - a.ndim))


def sector_diagonal(f: np.ndarray, index: np.ndarray):
    """Kernel for `states.apply_kernel` multiplying each side by f[m] of its
    excitation m, with ``index`` from `excitation_index`."""

    def kernel(t, offset, conj):
        return _on_side((np.conj(f) if conj else f)[index], t, offset) * t

    return kernel


# ---------------------------------------------------------------------------
# qubit-conditioned MS operations, the GHZ-manifold entangler, and the edge
# phase gate


QUBIT_BRANCHES = ((0, 0), (0, 1), (1, 0), (1, 1))


def branch_conditional(state, ops, block_sizes=None):
    """U = sum_jk |jk><jk| (x) V_jk: qubit basis branch (j, k) gets its own MS
    operation ``ops[(j, k)]``, the tuple of MS blocks to flip (``()`` is the
    identity).

    `block_sizes` partitions a dense MS slot into contiguous site ranges
    (default: one block of all sites); collective-backend states flip their
    own declared blocks.  The result is written in one pass into one new
    array by `branch_conditional_into`; ``state`` is left as it is.
    """
    t = state.as_tensor()
    out = np.empty_like(t)
    branch_conditional_into(t, out, state.layout, state.block_sizes, ops, block_sizes)
    return state.with_tensor(out)


def branch_conditional_into(t, out, layout, own_blocks, ops, block_sizes=None):
    """Write `branch_conditional` of the tensor ``t`` into ``out``, which may
    be ``t`` itself.

    ``t`` is shaped like the ``as_tensor()`` of a state with this ``layout``
    and, for a block-bit state, these ``own_blocks`` (None for a dense MS
    slot): the ket dims, once for amplitudes and twice for a density.  Each
    qubit branch of an amplitude tensor, and each (ket branch, bra branch)
    block of a density, is copied once with its MS axes split into their
    blocks (views) and the blocks of its ops reversed.  A flip only moves
    entries, so no side is conjugated and no entry is rounded.  In place,
    numpy copies each flipped block aside before writing it back (one branch
    block at a time, a sixteenth of a density), so every bit is the same, and
    an identity block is left where it is.
    """
    slot, dims = _ms_frame(layout, own_blocks, block_sizes)
    if set(ops) != set(QUBIT_BRANCHES):
        raise LayoutError(f"need one MS operation per qubit branch, got {sorted(ops)}")
    for op in ops.values():
        if not (isinstance(op, tuple) and all(0 <= b < len(dims) for b in op)):
            raise LayoutError(f"block selection {op!r} outside {len(dims)} blocks")
    n_slots = layout.n_slots
    sides = t.ndim // n_slots
    q1, q2 = layout.slot(LABEL_Q1), layout.slot(LABEL_Q2)
    ms = slot - (q1 < slot) - (q2 < slot)  # once both qubit axes are indexed away
    # one side of a branch block, its MS axis split into the blocks
    side_dims = [d for i, d in enumerate(layout.dims) if i not in (q1, q2)]
    side_dims[ms:ms + 1] = dims
    split = tuple(side_dims) * sides
    for branches in itertools.product(QUBIT_BRANCHES, repeat=sides):
        sl, axes = [slice(None)] * t.ndim, []
        for side, (j, k) in enumerate(branches):
            sl[side * n_slots + q1], sl[side * n_slots + q2] = j, k
            axes += [side * len(side_dims) + ms + b for b in ops[(j, k)]]
        if out is t and not axes:
            continue
        src, dst = t[tuple(sl)], out[tuple(sl)]
        dst.reshape(split)[...] = np.flip(src.reshape(split), tuple(axes))


def collective_flip(state, controlled_on=None, blocks=None, block_sizes=None):
    """Exact X-on-every-site flip of the selected MS blocks, optionally
    controlled on one target qubit; carries no phase by construction.

    Within each selected block m -> N_b - m.  `block_sizes` partitions a dense
    MS slot into contiguous site ranges (default: one block of all sites);
    collective-backend states flip their own declared blocks.
    """
    if controlled_on not in (None, LABEL_Q1, LABEL_Q2):
        raise LayoutError(f"unknown control label {controlled_on!r}")
    if blocks is None:
        blocks = range(len(_ms_frame(state.layout, state.block_sizes, block_sizes)[1]))
    ctrl = None if controlled_on is None else (LABEL_Q1, LABEL_Q2).index(controlled_on)
    ops = {jk: tuple(blocks) if ctrl is None or jk[ctrl] else () for jk in QUBIT_BRANCHES}
    return branch_conditional(state, ops, block_sizes)


def ghz_entangler(state, inverse: bool = False):
    """Apply (identity -/+ i * flip-all)/sqrt(2), the collective entangler that
    sends |m> to (|m> -/+ i |N-m>)/sqrt(2); its square is -/+ i * flip-all.
    """
    coeff = 1j if inverse else -1j
    slot = _ms_frame(state.layout, state.block_sizes)[0]

    def kernel(t, offset, conj):
        c = coeff.conjugate() if conj else coeff
        return (t + c * np.flip(t, axis=offset + slot)) / math.sqrt(2.0)

    return state.with_tensor(apply_kernel(state, kernel))


def edge_phase_gate(state, controlled_on: str):
    """Controlled-Z between a target qubit and its nearby MS site.

    Qubit q1 couples to site 1, the first (most significant) bit of the MS
    index, and q2 to site n, the last bit.  A dense MS has one bit per site;
    a block-bit MS has one per block, whose contiguous blocks put site 1 in
    block 1 and site n in block k, so any block-bit state gets the exact gate.
    """
    if controlled_on not in (LABEL_Q1, LABEL_Q2):
        raise LayoutError(f"unknown control label {controlled_on!r}")
    slot, _ = _ms_frame(state.layout, state.block_sizes)
    ctrl = state.layout.slot(controlled_on)
    dim = state.layout.dims[slot]
    # site 1 is bit log2(dim) - 1 of an MS index, site n bit 0
    shift = dim.bit_length() - 2 if controlled_on == LABEL_Q1 else 0
    excited = ((np.arange(dim) >> shift) & 1) == 1
    shape = [1] * state.layout.n_slots
    shape[ctrl], shape[slot] = 2, excited.size
    mask = np.zeros(shape, dtype=bool)
    sel = [0] * len(shape)
    sel[ctrl], sel[slot] = 1, slice(None)
    mask[tuple(sel)] = excited

    out = state.as_tensor().copy()
    # U rho U^dag negates an entry when exactly one of its sides is excited;
    # `mask` itself broadcasts against a density's bra axes
    where = _on_side(mask, out, 0)
    if state.sides == 2:
        where = where ^ mask
    np.negative(out, out=out, where=where)
    return state.with_tensor(out)


# ---------------------------------------------------------------------------
# sector statistics


def sector_probabilities(state) -> np.ndarray:
    """p(m) = <Pi(m)> over total excitation m = 0..n."""
    if isinstance(state, SectorMixture):
        return 0.5 * (state.weight_odd + state.weight_even)
    return sector_sums(populations(state), excitation_index(state))


def sector_sums(pops: np.ndarray, index: np.ndarray, n: int = 0) -> np.ndarray:
    """Sum of the ket-shaped ``pops`` over the entries of each excitation m,
    with ``index`` shaped like `excitation_index`; at least n + 1 sectors."""
    axes = tuple(i for i, size in enumerate(index.shape) if size == 1)
    basis_probs = pops.sum(axis=axes)
    return np.bincount(index.reshape(-1), weights=basis_probs.reshape(-1), minlength=n + 1)


def thermal_ms_dense(config: MsConfig) -> DensityOperator:
    """rho_eps as one dense real diagonal over the 2^n product basis."""
    n = config.n
    if (1 << n) > DENSE_DENSITY_DIM_CAP:
        raise LayoutError(f"2^{n} exceeds the dense density cap")
    q = config.ground_probability
    pops = popcounts(n).astype(np.float64)
    diag = q ** (n - pops) * (1.0 - q) ** pops
    layout = SubsystemLayout((1 << n,), (LABEL_MS,))
    return DensityOperator(np.diag(diag), layout)


# ---------------------------------------------------------------------------
# sector-resolved mixed form of the parity-conditioned family
#
# States of the form
#   1/2 (|o+><o+| (x) A_o + |e+><e+| (x) A_e + |o+><e+| (x) X + h.c.)
# where A_o, A_e are sector-uniform diagonals and the cross block X is a
# sector-uniform diagonal optionally multiplied from the left by the full
# collective flip F.  This family is closed under parity-conditioned flips and
# sector-diagonal measurement updates, and it is exactly where the
# limited-polarization protocol lives at sizes far beyond the dense cap.


@dataclass(frozen=True)
class SectorMixture:
    """Sector data of a parity-conditioned two-qubit/MS mixed state.

    weight_odd[m] / weight_even[m]: excitation-sector weights of the MS blocks
    correlated with the odd/even Bell component; cross[m]: per-sector scalar of
    the odd-even cross block, which carries a collective flip when
    cross_flipped is set (making its trace vanish identically).
    """

    n: int
    weight_odd: np.ndarray
    weight_even: np.ndarray
    cross: np.ndarray
    cross_flipped: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        for name in ("weight_odd", "weight_even", "cross"):
            v = np.asarray(getattr(self, name), dtype=float).reshape(-1)
            v.setflags(write=False)
            object.__setattr__(self, name, v)
            if v.size != self.n + 1:
                raise LayoutError(f"{name} has length {v.size}, expected {self.n + 1}")
        _check_sector_weights(self.weight_odd, self.weight_even, self.cross, self.cross_flipped)


def _check_sector_weights(weight_odd, weight_even, cross, cross_flipped: bool) -> None:
    """Refuse a negative weight, a trace off 1 or a cross past its Cauchy-Schwarz bound."""
    if weight_odd.min() < -TOL.norm or weight_even.min() < -TOL.norm:
        raise ValidationError("negative sector weight")
    total = 0.5 * (weight_odd.sum() + weight_even.sum())
    if not abs(total - 1.0) <= TOL.norm:
        raise ValidationError(f"mixture trace {total} deviates from 1")
    # the cross block connects sector m of the even branch with sector m
    # (or n-m, when it carries the flip) of the odd branch
    w_o = weight_odd[::-1] if cross_flipped else weight_odd
    bound = np.sqrt(np.clip(w_o, 0, None) * np.clip(weight_even, 0, None))
    if not np.all(np.abs(cross) <= bound + TOL.cross_block):
        raise ValidationError("cross block exceeds its Cauchy-Schwarz bound")


def mixture_prepare(config: MsConfig) -> SectorMixture:
    """|++><++| (x) rho_eps in sector form (both branches equal, full cross)."""
    w = config.sector_weights()
    return SectorMixture(config.n, w, w, w, cross_flipped=False)


def mixture_conditional(mix: SectorMixture, odd_flip: bool, even_flip: bool) -> SectorMixture:
    """Conjugate by the parity-conditioned unitary with tag blocks.

    The odd-branch block maps A_o -> V_o A_o V_o^dag and the cross block
    F^f diag(u) -> F^(f xor a xor b) diag(u reversed-if-b), with a, b flagging
    whether V_o, V_e are the collective flip.  Self-inverse, so it serves both
    the evolution and its reversal.
    """
    w_o = mix.weight_odd[::-1] if odd_flip else mix.weight_odd
    w_e = mix.weight_even[::-1] if even_flip else mix.weight_even
    cross = mix.cross[::-1] if even_flip else mix.cross
    flipped = mix.cross_flipped ^ odd_flip ^ even_flip
    return SectorMixture(mix.n, w_o, w_e, cross, flipped)


def mixture_update(mix: SectorMixture, sqrt_coeffs: np.ndarray, p: float, post_states: bool):
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
    return _bell_block_marginal(w_odd, w_even, cross, mix.cross_flipped), sectors, post


def mixture_marginal(mix: SectorMixture) -> DensityOperator:
    """The two-qubit marginal of a `SectorMixture`."""
    return _bell_block_marginal(mix.weight_odd, mix.weight_even, mix.cross, mix.cross_flipped)


def _bell_block_marginal(weight_odd, weight_even, cross, cross_flipped) -> DensityOperator:
    """The qubit marginal of a mixture's sector fields: its odd and even
    weight sums and its cross trace, which a flipped cross block lacks."""
    odd, even = weight_odd.sum(), weight_even.sum()
    x = 0.0 if cross_flipped else float(cross.sum())
    o, e = BELL_ODD_PLUS.vector[:, None], BELL_EVEN_PLUS.vector[:, None]
    rho = 0.5 * (odd * (o @ o.conj().T) + even * (e @ e.conj().T)
                 + x * (o @ e.conj().T) + x * (e @ o.conj().T))
    return DensityOperator(rho, SubsystemLayout((2, 2), (LABEL_Q1, LABEL_Q2)))


def _spread_over_basis(n: int, sector_weights: np.ndarray) -> np.ndarray:
    """Per-basis-state diagonal whose sector sums reproduce the given weights."""
    pops = popcounts(n).astype(np.intp)
    counts = np.array([math.comb(n, m) for m in range(n + 1)], dtype=float)
    return np.asarray(sector_weights, dtype=float)[pops] / counts[pops]


def mixture_to_dense(mix: SectorMixture) -> DensityOperator:
    """Expand to the dense (q1, q2, ms) density for cross-checks at small n."""
    n = mix.n
    dim = 1 << n
    if 4 * dim > DENSE_DENSITY_DIM_CAP:
        raise LayoutError(f"dense mixture dimension {4 * dim} exceeds the density cap")
    a_o = np.diag(_spread_over_basis(n, mix.weight_odd)).astype(complex)
    a_e = np.diag(_spread_over_basis(n, mix.weight_even)).astype(complex)
    x = np.diag(_spread_over_basis(n, mix.cross)).astype(complex)
    if mix.cross_flipped:
        x = np.eye(dim)[::-1] @ x
    o = BELL_ODD_PLUS.vector[:, None]
    e = BELL_EVEN_PLUS.vector[:, None]
    rho = 0.5 * (
        np.kron(o @ o.conj().T, a_o)
        + np.kron(e @ e.conj().T, a_e)
        + np.kron(o @ e.conj().T, x)
        + np.kron(e @ o.conj().T, x.conj().T)
    )
    layout = SubsystemLayout((2, 2, dim), (LABEL_Q1, LABEL_Q2, LABEL_MS))
    return DensityOperator(rho, layout)


def expand_to_dense(state: PureState) -> PureState:
    """Embed a block-bit state into the dense product basis (small n only),
    over the layout (q1, q2, ms) whatever the order of the state's slots."""
    n_sites = sum(state.block_sizes)
    total = 4 * (1 << n_sites)
    if total > DENSE_STATE_DIM_CAP:
        raise LayoutError(f"dense expansion dimension {total} exceeds the cap")
    slots = [state.layout.slot(label) for label in (LABEL_Q1, LABEL_Q2, LABEL_MS)]
    t = np.moveaxis(state.as_tensor(), slots, (0, 1, 2))
    t = t.reshape((2, 2) + (2,) * len(state.block_sizes))
    for j, nb in enumerate(state.block_sizes):
        # bit 0 lands on the block's all-|0> index, bit 1 on its all-|1> index
        wide = np.zeros(t.shape[:2 + j] + (1 << nb,) + t.shape[3 + j:], dtype=complex)
        wide[(slice(None),) * (2 + j) + ([0, -1],)] = t
        t = wide
    layout = SubsystemLayout((2, 2, 1 << n_sites), (LABEL_Q1, LABEL_Q2, LABEL_MS))
    return PureState(t.reshape(-1), layout)
