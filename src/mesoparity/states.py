"""Dense linear algebra and state bookkeeping over labelled tensor layouts.

Slot 0 is the leftmost tensor factor and basis indices are big-endian over
slots (numpy C-order reshape), so a basis index of |q1 q2> (x) |ms> reads left
to right.  All values are immutable; operations are pure functions returning
new values.
"""

from __future__ import annotations

from math import prod
from typing import Optional, Sequence

import numpy as np

from .tolerances import TOL

LABEL_Q1 = "q1"
LABEL_Q2 = "q2"
LABEL_MS = "ms"

# Desk-scale caps: pure amplitude vectors up to 2^22, density matrices much
# smaller since they cost dim^2 memory.
DENSE_STATE_DIM_CAP = 2**22
DENSE_DENSITY_DIM_CAP = 2**11

# Side of the square blocks the Hermiticity residual is taken over.  A pair of
# 64 x 64 tiles (128 KB complex, 64 KB real) stays in cache, where a
# whole-matrix ``M - M^dag`` makes two full-size copies, one read down the
# columns.  One check of a complex matrix at the 2048 cap on one Xeon core:
# 30 ms at 64, 50 ms at 32, 65-75 ms at 128 and 256, 145 ms untiled.
HERMITICITY_TILE = 64


class LayoutError(ValueError):
    """Dimensions do not match the declared subsystem layout."""


class ValidationError(ValueError):
    """A value violates a declared invariant (norm, Hermiticity, POVM axioms, ...)."""


class ReadOnly:
    """Base of the package's checked values: fields named in ``__slots__``,
    set in ``__init__`` through `_assign` and read-only after, compared and
    hashed as a tuple unless the class compares by identity.  Not a frozen
    dataclass, whose generated methods Python compiles at every import."""

    __slots__ = ()

    def _assign(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setstate__(self, state) -> None:  # copy and pickle: (None, {slot: value})
        self._assign(**state[1])


class SubsystemLayout(ReadOnly):
    """Ordered local dimensions with a role label per slot."""

    __slots__ = ("dims", "labels")

    def __init__(self, dims: Sequence[int], labels: Sequence[str]):
        dims = tuple(dims)
        self._assign(dims=tuple(int(d) for d in dims), labels=tuple(str(s) for s in labels))
        if self.dims != dims:
            raise LayoutError(f"non-integral local dimension in {dims}")
        if len(self.dims) != len(self.labels):
            raise LayoutError(f"{len(self.dims)} dims but {len(self.labels)} labels")
        if not self.dims:
            raise LayoutError("layout needs at least one slot")
        if any(d < 1 for d in self.dims):
            raise LayoutError(f"non-positive local dimension in {self.dims}")

    @property
    def total_dim(self) -> int:
        return prod(self.dims)

    @property
    def n_slots(self) -> int:
        return len(self.dims)

    def slots(self, label: str) -> tuple[int, ...]:
        return tuple(i for i, lab in enumerate(self.labels) if lab == label)

    def slot(self, label: str) -> int:
        found = self.slots(label)
        if len(found) != 1:
            raise LayoutError(f"expected exactly one {label!r} slot, found {len(found)}")
        return found[0]

    def keep(self, slots: Sequence[int]) -> "SubsystemLayout":
        return SubsystemLayout(
            tuple(self.dims[i] for i in slots), tuple(self.labels[i] for i in slots)
        )


class PureState(ReadOnly):
    """Unit-norm complex amplitude vector over a layout.

    ``block_sizes`` None keeps the MS slot in the sites' product basis.  The
    collective backend's block-bit states set it instead: each MS block b is
    one bit s_b, all N_b sites in |0> or all in |1> (no collective operation
    takes a block anywhere else), so the MS slot has dimension 2^k for k
    blocks and runs over the bit strings s in C order, block 1 (the first,
    leftmost sites) the most significant bit; s has total excitation
    sum_b s_b N_b.
    """

    __slots__ = ("amplitudes", "layout", "block_sizes")
    sides = 1

    def __init__(self, amplitudes: np.ndarray, layout: SubsystemLayout,
                 block_sizes: Optional[tuple] = None):
        self._assign(amplitudes=amplitudes, layout=layout, block_sizes=block_sizes)
        self.__post_init__()

    @classmethod
    def trusted(cls, amplitudes: np.ndarray, layout: SubsystemLayout,
                block_sizes: Optional[tuple] = None) -> "PureState":
        """The constructor itself: no check of a pure state costs more than O(d)."""
        return cls(amplitudes, layout, block_sizes)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        amps.setflags(write=False)
        self._assign(amplitudes=amps)
        if self.layout.total_dim > DENSE_STATE_DIM_CAP:
            raise LayoutError(
                f"total dimension {self.layout.total_dim} exceeds the dense cap "
                f"{DENSE_STATE_DIM_CAP}"
            )
        if amps.size != self.layout.total_dim:
            raise LayoutError(
                f"{amps.size} amplitudes for total dimension {self.layout.total_dim}"
            )
        if self.block_sizes is not None:
            sizes = tuple(int(b) for b in self.block_sizes)
            self._assign(block_sizes=sizes)
            if not sizes or any(b < 1 for b in sizes):
                raise LayoutError(f"bad block sizes {sizes}")
            ms_dim = self.layout.dims[self.layout.slot(LABEL_MS)]
            if ms_dim != 1 << len(sizes):
                raise LayoutError(f"MS dimension {ms_dim} for {len(sizes)} block bits")
        nrm = np.linalg.norm(amps)
        if not abs(nrm - 1.0) <= TOL.norm:
            raise ValidationError(f"state norm {nrm} deviates from 1 beyond {TOL.norm}")

    def as_tensor(self) -> np.ndarray:
        return self.amplitudes.reshape(self.layout.dims)

    def with_tensor(self, t: np.ndarray, checked: bool = False) -> "PureState":
        """This state's kind over the tensor ``t``, checked either way."""
        return PureState(t.reshape(-1), self.layout, self.block_sizes)


class DensityOperator(ReadOnly):
    """Hermitian, unit-trace matrix over a layout.

    A float64 matrix is kept as it is, real and uncopied, at half the bytes
    of complex storage; any other dtype becomes complex128.  Every density
    built from rho_eps stays real through the block flips and the edge
    phases, which only move and negate entries; a complex coefficient (the
    GHZ entangler's, the probe readout's) makes the result complex, and the
    measurement's support update casts its gathered block to complex, so
    the records are computed on complex values either way.

    Positivity is not re-checked on every construction (it costs an
    eigendecomposition); call :func:`validate_density` at trust boundaries.
    """

    __slots__ = ("matrix", "layout")
    # a density's MS slot is always in the sites' product basis
    block_sizes = None
    sides = 2

    def __init__(self, matrix: np.ndarray, layout: SubsystemLayout):
        self._assign(matrix=matrix, layout=layout)
        self.__post_init__()

    @classmethod
    def trusted(cls, matrix: np.ndarray, layout: SubsystemLayout) -> "DensityOperator":
        """A kernel output, Hermitian by construction: all but its Hermiticity is checked."""
        rho = object.__new__(cls)
        rho._assign(matrix=matrix, layout=layout)
        rho._check(trusted=True)
        return rho

    def _check(self, trusted: bool = False) -> None:
        mat = np.asarray(self.matrix)
        if mat.dtype != np.float64:
            mat = mat.astype(complex, copy=False)
        mat.setflags(write=False)
        self._assign(matrix=mat)
        d = self.layout.total_dim
        if d > DENSE_DENSITY_DIM_CAP:
            raise LayoutError(
                f"total dimension {d} exceeds the dense density cap {DENSE_DENSITY_DIM_CAP}"
            )
        if mat.shape != (d, d):
            raise LayoutError(f"matrix shape {mat.shape} for total dimension {d}")
        if not (trusted or hermiticity_residual(mat) <= TOL.hermiticity):
            raise ValidationError("density matrix is not Hermitian within tolerance")
        tr = mat.trace().real
        if not abs(tr - 1.0) <= TOL.norm:
            raise ValidationError(f"density trace {tr} deviates from 1 beyond {TOL.norm}")

    __post_init__ = _check

    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal().real

    def as_tensor(self) -> np.ndarray:
        return self.matrix.reshape(self.layout.dims + self.layout.dims)

    def with_tensor(self, t: np.ndarray, checked: bool = False) -> "DensityOperator":
        """This state's kind over the tensor ``t``, `trusted` unless ``checked``."""
        d = self.layout.total_dim
        build = DensityOperator if checked else DensityOperator.trusted
        return build(t.reshape(d, d), self.layout)


def hermiticity_residual(mat: np.ndarray) -> float:
    """max |M - M^dag| of a square matrix, bit for bit.

    Each tile pair (I, J) of the upper triangle gives both |M[I, J] -
    M[J, I]^dag| and its mirror, which has the same magnitudes exactly, so
    the lower triangle is never visited.  A NaN entry propagates.
    """
    d = mat.shape[0]
    tile = HERMITICITY_TILE
    worst = [
        np.abs(mat[i:i + tile, j:j + tile] - mat[j:j + tile, i:i + tile].T.conj()).max()
        for i in range(0, d, tile)
        for j in range(i, d, tile)
    ]
    return float(np.max(worst))


def validate_density(rho: DensityOperator) -> None:
    """Full state check including positivity; raises ValidationError."""
    evals = np.linalg.eigvalsh(rho.matrix)
    if evals.min() < TOL.positivity:
        raise ValidationError(f"density has eigenvalue {evals.min()} below {TOL.positivity}")


def validate_density_stack(stack: np.ndarray) -> None:
    """The checks of `DensityOperator` and `validate_density` on each matrix
    of a (K, d, d) stack of small densities, each made once for the whole
    stack: Hermiticity, unit trace and, in one eigvalsh call, positivity."""
    herm = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2))
    if not np.all(herm <= TOL.hermiticity):
        raise ValidationError("density matrix is not Hermitian within tolerance")
    tr = np.trace(stack, axis1=1, axis2=2).real
    off = np.flatnonzero(~(np.abs(tr - 1.0) <= TOL.norm))
    if off.size:
        raise ValidationError(f"density trace {tr[off[0]]} deviates from 1 beyond {TOL.norm}")
    low = np.linalg.eigvalsh(stack)[:, 0]
    if low.min() < TOL.positivity:
        raise ValidationError(f"density has eigenvalue {low.min()} below {TOL.positivity}")


# ---------------------------------------------------------------------------
# operations
#
# PureState, dense or block-bit, and DensityOperator share one tensor
# interface: ``layout``, ``block_sizes`` (None for a product-basis MS slot),
# ``sides`` (1 for amplitudes, 2 for a density), ``as_tensor()`` (a density's
# bra axes follow its ket axes) and ``with_tensor()``, which keeps
# ``block_sizes``.  The functions below are the only places that tell an
# amplitude tensor from a density tensor.


def apply_kernel(state, kernel, t=None) -> np.ndarray:
    """Run a ket-side tensor kernel over every side of ``state``'s tensor.

    ``kernel(t, offset, conj)`` acts on the axes ``offset + slot``.  Amplitude
    tensors get one call at offset 0; a density gets the ket call and then a
    bra call at offset ``n_slots`` with ``conj`` set, which must conjugate the
    kernel's coefficients.  ``t`` replaces ``state.as_tensor()`` as input.

    On a density this holds the input and two joint-sized results at once.
    The gates whose sides combine exactly, the block flips and the edge phase
    gate, write a density in one pass instead; `collective.ghz_entangler` and
    the measurement's sector-diagonal updates take this route, since their
    coefficients would round differently if both sides were fused.
    """
    t = state.as_tensor() if t is None else t
    for side in range(state.sides):
        t = kernel(t, side * state.layout.n_slots, side == 1)
    return t


def populations(state) -> np.ndarray:
    """Probability of every ket basis entry, shaped like the ket tensor."""
    if isinstance(state, DensityOperator):
        return state.diagonal().reshape(state.layout.dims)
    return np.abs(state.as_tensor()) ** 2


def branch_probability(state, t: np.ndarray) -> float:
    """Probability carried by an unnormalized tensor shaped like ``state``'s:
    its squared norm, or its trace for a density."""
    if isinstance(state, DensityOperator):
        d = state.layout.total_dim
        return float(t.reshape(d, d).trace().real)
    return float(np.linalg.norm(t) ** 2)


def renormalized(state, t: np.ndarray, p: float):
    """The state of ``state``'s kind built from the tensor ``t`` of
    probability ``p``: amplitudes divide by sqrt(p), a density by p.

    ``t`` is divided in place, so a density update holds one joint-sized
    array less at its peak; pass a fresh array.  The result is `trusted`:
    the probe readout's sector-diagonal products keep a density Hermitian
    to within a rounding of each entry.
    """
    t /= p if state.sides == 2 else np.sqrt(p)
    return state.with_tensor(t)


def partial_trace(state, keep: Sequence[int]) -> DensityOperator:
    """Reduced state on the kept slots (order preserved as listed).

    For amplitude states it is the Gram matrix of the ket tensor with the
    kept axes in front, so no joint density is formed.
    """
    keep = list(keep)
    if not keep:
        raise LayoutError("keep must name at least one slot")
    sub = state.layout.keep(keep)
    if isinstance(state, DensityOperator):
        nd = state.layout.n_slots
        row_idx = list(range(nd))
        col_idx = [i if i not in keep else nd + i for i in range(nd)]
        out_idx = [i for i in keep] + [nd + i for i in keep]
        reduced = np.einsum(state.as_tensor(), row_idx + col_idx, out_idx)
        return DensityOperator(reduced.reshape(sub.total_dim, sub.total_dim), sub)
    mat = np.moveaxis(state.as_tensor(), keep, range(len(keep))).reshape(sub.total_dim, -1)
    return DensityOperator(mat @ mat.conj().T, sub)
