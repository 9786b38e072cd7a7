"""Permutation-symmetric machinery for the mesoscopic system (MS).

Excitation-sector bookkeeping, Dicke-block pure states, one kernel for every
qubit-conditioned MS operation (the collective flip is one), the GHZ-manifold
entangler and the edge phase gate, and a sector-resolved mixed-state form for
the parity-conditioned protocol family.  The MS is an ensemble of n identical
two-level systems addressed only through collective operations.

Each gate is written once for every representation with a tensor: the MS
slot of the ket tensor (see `excitation_index`) and `states.apply_kernel`,
which carries a ket-side kernel to a density's bra side, hide whether the
state is dense or Dicke-block, pure or mixed.

Convention: m always counts constituents in |1> (per-site number operator
|1><1|), so the weakly polarized product state rho_eps concentrates near m=0.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Sequence

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
    _apply_axes,
    apply_kernel,
    populations,
)
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


@lru_cache(maxsize=None)
def total_excitation_grid(block_sizes: tuple[int, ...]) -> np.ndarray:
    """Total excitation m_1+...+m_k over the tuple grid of block indices."""
    grid = np.indices(tuple(b + 1 for b in block_sizes)).sum(axis=0)
    grid.setflags(write=False)
    return grid


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


# lgam(0..K), read-only.  It only ever grows, under the lock, and each caller
# keeps the table it took, so sweep threads never see it change underneath.
_lgam_table = np.empty(0)
_lgam_table.setflags(write=False)
_lgam_lock = threading.Lock()


def _log_gamma_table(size: int) -> np.ndarray:
    """A read-only table of lgam(k) for k = 0..K, K >= size - 1; a short one
    is replaced by one at least twice its length."""
    global _lgam_table
    table = _lgam_table
    if len(table) < size:
        with _lgam_lock:
            table = _lgam_table
            if len(table) < size:
                grown = range(len(table), max(size, 2 * len(table)))
                table = np.concatenate([table, [_lgam(k) for k in grown]])
                table.setflags(write=False)
                _lgam_table = table
    return table


def binomial_pmf(n: int, p: float) -> np.ndarray:
    """b(m; n, p) for m = 0..n.

    Exact products up to n = 50, log-space beyond so that large-n tails do not
    underflow through intermediate factors.  Beyond, log C(n, m) is read off
    the log-gamma table as lgam(n+1) - lgam(m+1) - lgam(n-m+1), the same
    operations in the same order as with scipy's gammaln, and so the same
    bits.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"success probability {p} outside [0, 1]")
    if p == 0.0:
        out = np.zeros(n + 1)
        out[0] = 1.0
        return out
    if p == 1.0:
        out = np.zeros(n + 1)
        out[n] = 1.0
        return out
    m = np.arange(n + 1)
    if n <= 50:
        combs = np.array([math.comb(n, k) for k in m], dtype=float)
        return combs * p**m * (1.0 - p) ** (n - m)
    table = _log_gamma_table(n + 2)
    lt = table[1:n + 2]
    coef = table[n + 1] - lt - lt[::-1]
    return np.exp(coef + m * np.log(p) + (n - m) * np.log1p(-p))


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


def dicke_vector(n: int, m: int) -> np.ndarray:
    """Dense 2^n amplitude vector of the symmetric m-excitation state."""
    if not 0 <= m <= n:
        raise ValueError(f"excitation {m} outside [0, {n}]")
    mask = popcounts(n) == m
    return mask / math.sqrt(math.comb(n, m))


@lru_cache(maxsize=None)
def dicke_basis(n: int) -> np.ndarray:
    """Columns are the dense Dicke vectors m = 0..n (an isometry 2^n x (n+1))."""
    mat = np.stack([dicke_vector(n, m) for m in range(n + 1)], axis=1)
    mat.setflags(write=False)
    return mat


# ---------------------------------------------------------------------------
# multi-block pure states with the two target qubits


@dataclass(frozen=True)
class CollectiveBlockState:
    """Pure joint state: axes (q1, q2, block_1, ..., block_k).

    Each MS block is held in its symmetric (Dicke) basis m_i = 0..N_i; block
    1 holds the first (leftmost) sites.  Total excitation of an index tuple
    is sum(m_i).
    """

    amplitudes: np.ndarray
    block_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(b) for b in self.block_sizes)
        object.__setattr__(self, "block_sizes", sizes)
        if not sizes or any(b < 1 for b in sizes):
            raise LayoutError(f"bad block sizes {sizes}")
        amps = np.asarray(self.amplitudes, dtype=complex)
        expected = (2, 2) + tuple(b + 1 for b in sizes)
        if amps.shape != expected:
            raise LayoutError(f"amplitude shape {amps.shape}, expected {expected}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        nrm = np.linalg.norm(amps)
        if not abs(nrm - 1.0) <= TOL.norm:
            raise ValidationError(f"state norm {nrm} deviates from 1 beyond {TOL.norm}")

    @property
    def n_sites(self) -> int:
        return sum(self.block_sizes)

    @property
    def layout(self) -> SubsystemLayout:
        """(q1, q2, ms), the MS slot running over the blocks' index tuples."""
        ms_dim = prod(b + 1 for b in self.block_sizes)
        return SubsystemLayout((2, 2, ms_dim), (LABEL_Q1, LABEL_Q2, LABEL_MS))

    def as_tensor(self) -> np.ndarray:
        return self.amplitudes.reshape(self.layout.dims)

    def with_tensor(self, t: np.ndarray) -> "CollectiveBlockState":
        return CollectiveBlockState(t.reshape(self.amplitudes.shape), self.block_sizes)


def block_ground_state(qubit_amplitudes: np.ndarray, block_sizes: Sequence[int]) -> CollectiveBlockState:
    """Qubits in the given 2x2 amplitude table, every block at m = 0."""
    sizes = tuple(int(b) for b in block_sizes)
    amps = np.zeros((2, 2) + tuple(b + 1 for b in sizes), dtype=complex)
    idx = (slice(None), slice(None)) + (0,) * len(sizes)
    amps[idx] = np.asarray(qubit_amplitudes, dtype=complex)
    return CollectiveBlockState(amps, sizes)


# ---------------------------------------------------------------------------
# the MS slot of a state tensor
#
# Dense states keep the MS as one big-endian slot of dimension 2^n, so a flip
# of all sites is an index reversal (b -> 2^n-1-b) and a flip of a contiguous
# site range is a reversal of one factor of a reshaped index.  A
# CollectiveBlockState's MS slot is the C-order merge of its block axes, so
# the same reshape exposes its blocks and the same reversal maps m -> N_b - m.


def _ms_frame(state, block_sizes=None):
    """(MS slot, axis length of each MS block, total excitation of every MS
    basis entry) of a state with a tensor.

    A dense MS slot splits into any contiguous site ranges `block_sizes`
    (default: one block of all sites); a CollectiveBlockState has its own.
    """
    if isinstance(state, CollectiveBlockState):
        sizes = state.block_sizes
        if block_sizes is not None and tuple(block_sizes) != sizes:
            raise LayoutError("block_sizes conflicts with the state's own blocks")
        return 2, tuple(b + 1 for b in sizes), total_excitation_grid(sizes).reshape(-1)
    slot = state.layout.slot(LABEL_MS)
    dim = state.layout.dims[slot]
    n = dim.bit_length() - 1
    if 1 << n != dim:
        raise LayoutError(f"MS dimension {dim} is not a power of two")
    sizes = (n,) if block_sizes is None else tuple(int(b) for b in block_sizes)
    if sum(sizes) != n:
        raise LayoutError(f"block sizes {sizes} do not cover {n} sites")
    return slot, tuple(1 << b for b in sizes), popcounts(n)


def excitation_index(state) -> np.ndarray:
    """Total MS excitation m of every ket basis entry, as integers shaped to
    broadcast against the ket tensor (length 1 off the MS slot).

    A sector-diagonal operator sum_m f[m] Pi(m) multiplies the ket tensor by
    ``f[excitation_index(state)]``.
    """
    slot, _, index = _ms_frame(state)
    shape = [1] * state.layout.n_slots
    shape[slot] = index.size
    return index.astype(np.intp).reshape(shape)


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
    operation ``ops[(j, k)]``, a tuple of MS blocks to flip (``()`` is the
    identity) or an explicit MS unitary (dense states only).

    `block_sizes` partitions a dense MS slot into contiguous site ranges
    (default: one block of all sites); collective-backend states flip their
    own declared blocks.  Each side of the tensor is written once, branch by
    branch: a flip splits the branch's MS axis into its blocks, a view, and
    copies it reversed.
    """
    slot, dims, _ = _ms_frame(state, block_sizes)
    if set(ops) != set(QUBIT_BRANCHES):
        raise LayoutError(f"need one MS operation per qubit branch, got {sorted(ops)}")
    for op in ops.values():
        if not isinstance(op, tuple) and isinstance(state, CollectiveBlockState):
            raise RepresentationError("explicit conditional unitaries need the dense backend")
        if isinstance(op, tuple) and not all(0 <= b < len(dims) for b in op):
            raise LayoutError(f"block selection {op} outside {len(dims)} blocks")
    q1, q2 = state.layout.slot(LABEL_Q1), state.layout.slot(LABEL_Q2)
    ms = slot - (q1 < slot) - (q2 < slot)  # once both qubit axes are indexed away

    def kernel(t, offset, conj):
        out, axis = np.empty_like(t), offset + ms
        for (j, k), op in ops.items():
            sl = [slice(None)] * t.ndim
            sl[offset + q1], sl[offset + q2] = j, k
            src, dst = t[tuple(sl)], out[tuple(sl)]
            if isinstance(op, tuple):
                split = src.shape[:axis] + dims + src.shape[axis + 1:]
                flip_axes = tuple(axis + b for b in op)
                dst.reshape(split)[...] = np.flip(src.reshape(split), flip_axes)
            else:
                dst[...] = _apply_axes(op.conj() if conj else op, src, [axis])
        return out

    return state.with_tensor(apply_kernel(state, kernel))


def collective_flip(state, controlled_on=None, blocks=None, block_sizes=None):
    """Exact X-on-every-site flip of the selected MS blocks, optionally
    controlled on one target qubit; carries no phase by construction.

    Within each selected block m -> N_b - m.  `block_sizes` partitions a dense
    MS slot into contiguous site ranges (default: one block of all sites);
    collective-backend states flip their own declared blocks.
    """
    if isinstance(state, SectorMixture):
        if controlled_on is not None:
            raise RepresentationError(
                "single-qubit-controlled flips leave the parity-block family; "
                "use the parity-conditioned evolution instead"
            )
        return mixture_conditional(state, True, True)
    if controlled_on not in (None, LABEL_Q1, LABEL_Q2):
        raise LayoutError(f"unknown control label {controlled_on!r}")
    if blocks is None:
        blocks = range(len(_ms_frame(state, block_sizes)[1]))
    ctrl = None if controlled_on is None else (LABEL_Q1, LABEL_Q2).index(controlled_on)
    ops = {jk: tuple(blocks) if ctrl is None or jk[ctrl] else () for jk in QUBIT_BRANCHES}
    return branch_conditional(state, ops, block_sizes)


def ghz_entangler(state, inverse: bool = False):
    """Apply (identity -/+ i * flip-all)/sqrt(2), the collective entangler that
    sends |m> to (|m> -/+ i |N-m>)/sqrt(2); its square is -/+ i * flip-all.
    """
    coeff = 1j if inverse else -1j
    slot = _ms_frame(state)[0]

    def kernel(t, offset, conj):
        c = coeff.conjugate() if conj else coeff
        return (t + c * np.flip(t, axis=offset + slot)) / math.sqrt(2.0)

    return state.with_tensor(apply_kernel(state, kernel))


def edge_phase_gate(state, controlled_on: str):
    """Controlled-Z between a target qubit and its nearby MS site.

    Qubit q1 couples to site 1 (most significant bit of the dense index), q2
    to site n (least significant).  On the collective backend the MS support
    must be confined to m in {0, n}: only there does a single-site phase act
    within the symmetric subspace, as the phase of the m = n entry.
    """
    if controlled_on not in (LABEL_Q1, LABEL_Q2):
        raise LayoutError(f"unknown control label {controlled_on!r}")
    slot, dims, index = _ms_frame(state)
    ctrl = state.layout.slot(controlled_on)
    n = int(index[-1])  # the last MS entry has every site excited
    if isinstance(state, CollectiveBlockState):
        if len(dims) != 1:
            raise RepresentationError(
                "edge phase gate needs a single-block collective state"
            )
        branch = np.take(populations(state), 1, axis=ctrl).sum(axis=0)
        bad = [m for m in range(1, n) if branch[m] > TOL.prob_floor]
        if bad:
            raise RepresentationError(
                f"edge phase gate outside the m in {{0, {n}}} manifold: "
                f"control branch occupies sectors {bad}"
            )
        excited = index == n
    else:
        sites = np.arange(1 << n)
        excited = ((sites >> (n - 1) if controlled_on == LABEL_Q1 else sites) & 1) == 1
    shape = [1] * state.layout.n_slots
    shape[ctrl], shape[slot] = 2, excited.size
    mask = np.zeros(shape, dtype=bool)
    sel = [0] * len(shape)
    sel[ctrl], sel[slot] = 1, slice(None)
    mask[tuple(sel)] = excited

    def kernel(t, offset, conj):
        out = t.copy()
        np.negative(out, out=out, where=_on_side(mask, t, offset))
        return out

    return state.with_tensor(apply_kernel(state, kernel))


# ---------------------------------------------------------------------------
# sector statistics


def sector_probabilities(state) -> np.ndarray:
    """p(m) = <Pi(m)> over total excitation m = 0..n."""
    if isinstance(state, SectorMixture):
        return 0.5 * (state.weight_odd + state.weight_even)
    index = excitation_index(state)
    axes = tuple(i for i, size in enumerate(index.shape) if size == 1)
    basis_probs = populations(state).sum(axis=axes)
    return np.bincount(index.reshape(-1), weights=basis_probs.reshape(-1))


def thermal_ms_dense(config: MsConfig) -> DensityOperator:
    """rho_eps as one dense diagonal over the 2^n product basis."""
    n = config.n
    if (1 << n) > DENSE_DENSITY_DIM_CAP:
        raise LayoutError(f"2^{n} exceeds the dense density cap")
    q = config.ground_probability
    pops = popcounts(n).astype(np.float64)
    diag = q ** (n - pops) * (1.0 - q) ** pops
    layout = SubsystemLayout((1 << n,), (LABEL_MS,))
    return DensityOperator(np.diag(diag).astype(complex), layout)


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
        if self.weight_odd.min() < -TOL.norm or self.weight_even.min() < -TOL.norm:
            raise ValidationError("negative sector weight")
        total = 0.5 * (self.weight_odd.sum() + self.weight_even.sum())
        if not abs(total - 1.0) <= TOL.norm:
            raise ValidationError(f"mixture trace {total} deviates from 1")
        # the cross block connects sector m of the even branch with sector m
        # (or n-m, when it carries the flip) of the odd branch
        w_o = self.weight_odd[::-1] if self.cross_flipped else self.weight_odd
        bound = np.sqrt(np.clip(w_o, 0, None) * np.clip(self.weight_even, 0, None))
        if not np.all(np.abs(self.cross) <= bound + TOL.cross_block):
            raise ValidationError("cross block exceeds its Cauchy-Schwarz bound")

    @property
    def fidelity_odd(self) -> float:
        return 0.5 * float(self.weight_odd.sum())

    @property
    def fidelity_even(self) -> float:
        return 0.5 * float(self.weight_even.sum())

    @property
    def cross_trace(self) -> float:
        return 0.0 if self.cross_flipped else float(self.cross.sum())


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


def _spread_over_basis(n: int, sector_weights: np.ndarray) -> np.ndarray:
    """Per-basis-state diagonal whose sector sums reproduce the given weights."""
    pops = popcounts(n).astype(np.intp)
    counts = np.array([math.comb(n, m) for m in range(n + 1)], dtype=float)
    return np.asarray(sector_weights, dtype=float)[pops] / counts[pops]


def mixture_to_dense(mix: SectorMixture) -> DensityOperator:
    """Expand to the dense (q1, q2, ms) density for cross-checks at small n."""
    from .metrics import BELL_EVEN_PLUS, BELL_ODD_PLUS

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


def expand_to_dense(state: CollectiveBlockState) -> PureState:
    """Embed a block state into the dense product basis (small n only)."""
    total = 4 * (1 << state.n_sites)
    if total > DENSE_STATE_DIM_CAP:
        raise LayoutError(f"dense expansion dimension {total} exceeds the cap")
    t = state.amplitudes
    for j, nb in enumerate(state.block_sizes):
        axis = 2 + j
        t = np.moveaxis(t, axis, 0)
        t = np.tensordot(dicke_basis(nb), t, axes=(1, 0))
        t = np.moveaxis(t, 0, axis)
    layout = SubsystemLayout((2, 2, 1 << state.n_sites), (LABEL_Q1, LABEL_Q2, LABEL_MS))
    return PureState(t.reshape(-1), layout)
