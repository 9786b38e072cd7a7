"""Protocol circuits joining the two target qubits to the MS.

Five evolution kinds are supported:

- ``parity_collective``: both qubits control a flip of every MS site, writing
  the qubit parity into the sectors {0, n}.
- ``hamming_half``: each qubit controls a flip of its own half of the MS, so
  the total excitation records the two-qubit Hamming weight.
- ``ghz_local``: the MS is steered through the collective entangler onto the
  {m=0, m=n} manifold, each qubit phases its nearby edge site, and the
  entangler is undone — parity ends up encoded with only one two-body gate
  per qubit.
- ``parity_conditioned``: odd/even qubit branches receive V_odd/V_even on the
  MS (tags or explicit matrices).
- ``general_conditional``: each qubit basis branch receives its own unitary.

All evolutions here are involutions or have their inverse built from the same
blocks, which is what `disentangle` applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Union

import numpy as np

from .collective import (
    CollectiveBlockState,
    MsConfig,
    RepresentationError,
    SectorMixture,
    block_ground_state,
    collective_flip,
    edge_phase_gate,
    ghz_entangler,
    mixture_conditional,
    mixture_prepare,
    thermal_ms_dense,
)
from .metrics import BELL_EVEN_PLUS, BELL_ODD_PLUS
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
    partial_trace,
)
from .tolerances import TOL

JointState = Union[PureState, DensityOperator, CollectiveBlockState, SectorMixture]

CIRCUIT_KINDS = (
    "parity_collective",
    "hamming_half",
    "ghz_local",
    "parity_conditioned",
    "general_conditional",
)
BACKENDS = ("dense", "collective", "auto")
TAG_IDENTITY = "identity"
TAG_FLIP = "collective_flip"


def _require_unitary(u, dim: int, name: str) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.shape != (dim, dim):
        raise LayoutError(f"{name} has shape {u.shape}, expected {(dim, dim)}")
    res = np.abs(u.conj().T @ u - np.eye(dim)).max()
    if res > TOL.unitarity:
        raise ValidationError(f"{name} is not unitary (residual {res})")
    return u


@dataclass(frozen=True, eq=False)
class CircuitSpec:
    """Which circuit to run, on which MS, with which backend.

    v_odd / v_even apply to ``parity_conditioned`` only and are either the
    tags "identity" / "collective_flip" or explicit MS unitaries;
    ``conditionals`` maps each qubit basis pair (j, k) to its MS unitary for
    ``general_conditional``.
    """

    kind: str
    ms: MsConfig
    backend: str = "auto"
    v_odd: Union[str, np.ndarray] = TAG_IDENTITY
    v_even: Union[str, np.ndarray] = TAG_IDENTITY
    conditionals: Mapping[tuple, np.ndarray] = field(default=None)

    def __post_init__(self):
        if self.kind not in CIRCUIT_KINDS:
            raise ValueError(f"unknown circuit kind {self.kind!r}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.kind == "hamming_half" and self.ms.n % 2:
            raise ValueError(f"hamming_half needs an even MS size, got {self.ms.n}")
        dim = 1 << self.ms.n
        if self.kind == "parity_conditioned":
            for name in ("v_odd", "v_even"):
                v = getattr(self, name)
                if isinstance(v, str):
                    if v not in (TAG_IDENTITY, TAG_FLIP):
                        raise ValueError(f"unknown {name} tag {v!r}")
                else:
                    object.__setattr__(self, name, _require_unitary(v, dim, name))
        elif not (_is_identity_tag(self.v_odd) and _is_identity_tag(self.v_even)):
            raise ValueError("v_odd/v_even apply to parity_conditioned circuits only")
        if self.kind == "general_conditional":
            if self.conditionals is None or set(self.conditionals) != {
                (0, 0), (0, 1), (1, 0), (1, 1)
            }:
                raise ValueError(
                    "general_conditional needs one unitary per qubit basis pair"
                )
            table = {
                jk: _require_unitary(u, dim, f"conditionals[{jk}]")
                for jk, u in self.conditionals.items()
            }
            object.__setattr__(self, "conditionals", table)
        elif self.conditionals is not None:
            raise ValueError("conditionals apply to general_conditional circuits only")

    @property
    def has_matrix_unitaries(self) -> bool:
        if self.kind == "general_conditional":
            return True
        return self.kind == "parity_conditioned" and not (
            isinstance(self.v_odd, str) and isinstance(self.v_even, str)
        )

    @property
    def block_sizes(self) -> tuple:
        if self.kind == "hamming_half":
            return (self.ms.n // 2, self.ms.n // 2)
        return (self.ms.n,)

    def resolved_backend(self) -> str:
        """Pick dense or collective, honoring feasibility of each."""
        n, eps = self.ms.n, self.ms.epsilon
        mixed = eps > 0.0
        dense_dim = 4 * (1 << n)
        dense_cap = DENSE_DENSITY_DIM_CAP if mixed else DENSE_STATE_DIM_CAP
        dense_fits = dense_dim <= dense_cap
        mixture_ok = self.kind in ("parity_collective", "parity_conditioned") and not self.has_matrix_unitaries
        collective_ok = not self.has_matrix_unitaries and (not mixed or mixture_ok)
        if self.backend == "dense":
            if not dense_fits:
                raise LayoutError(
                    f"dense backend needs dimension {dense_dim}, beyond the dense "
                    f"{'density' if mixed else 'state'} cap {dense_cap}"
                )
            return "dense"
        if self.backend == "collective":
            if not collective_ok:
                raise RepresentationError(
                    "collective backend supports tag unitaries only, and mixed "
                    "inputs only for the parity-conditioned family"
                )
            return "collective"
        if dense_fits:
            return "dense"
        if collective_ok:
            return "collective"
        raise RepresentationError(
            f"no backend can run {self.kind} at n={n}, epsilon={eps}: dense "
            "exceeds its cap and the collective form does not apply"
        )


def _is_identity_tag(v) -> bool:
    return isinstance(v, str) and v == TAG_IDENTITY


def _is_flip_tag(v) -> bool:
    return isinstance(v, str) and v == TAG_FLIP


# ---------------------------------------------------------------------------
# preparation


def prepare_inputs(spec: CircuitSpec) -> JointState:
    """|+>|+> on the qubits, MS in |0...0> (pure path) or rho_eps (mixed)."""
    backend = spec.resolved_backend()
    n, eps = spec.ms.n, spec.ms.epsilon
    if backend == "collective":
        if eps == 0.0:
            qubits = np.full((2, 2), 0.5)
            return block_ground_state(qubits, spec.block_sizes)
        return mixture_prepare(spec.ms)
    dim = 1 << n
    layout = SubsystemLayout((2, 2, dim), (LABEL_Q1, LABEL_Q2, LABEL_MS))
    if eps == 0.0:
        amps = np.zeros((2, 2, dim), dtype=complex)
        amps[:, :, 0] = 0.5
        return PureState(amps.reshape(-1), layout)
    plus = np.full(4, 0.5)
    rho = np.kron(np.outer(plus, plus), thermal_ms_dense(spec.ms).matrix)
    return DensityOperator(rho, layout)


# ---------------------------------------------------------------------------
# evolution


def _conditional_ms_apply(state, table: Mapping[tuple, np.ndarray]):
    """Apply a distinct MS unitary on every qubit basis branch (dense only)."""
    if not isinstance(state, (PureState, DensityOperator)):
        raise RepresentationError(
            "explicit conditional unitaries need the dense backend"
        )
    s1 = state.layout.slot(LABEL_Q1)
    s2 = state.layout.slot(LABEL_Q2)
    ms = state.layout.slot(LABEL_MS)
    if (s1, s2) != (0, 1) or ms != 2:
        raise LayoutError("conditional evolution expects the (q1, q2, ms, ...) layout")

    def kernel(t, offset, conj):
        out = t.copy()
        for (j, k), op in table.items():
            sl = (slice(None),) * offset + (j, k)
            out[sl] = _apply_axes(op.conj() if conj else op, t[sl], [offset])
        return out

    return state.with_tensor(apply_kernel(state, kernel))


def _apply_tag_conditioned(state, odd_flip: bool, even_flip: bool, spec: CircuitSpec):
    """V_odd/V_even from {identity, flip}: realized as a parity-controlled flip
    (one controlled flip per qubit) plus an optional unconditional flip."""
    if isinstance(state, SectorMixture):
        return mixture_conditional(state, odd_flip, even_flip)
    out = state
    if odd_flip != even_flip:
        out = collective_flip(out, controlled_on=LABEL_Q1, block_sizes=spec.block_sizes)
        out = collective_flip(out, controlled_on=LABEL_Q2, block_sizes=spec.block_sizes)
    if even_flip:
        out = collective_flip(out, block_sizes=spec.block_sizes)
    return out


def evolve(spec: CircuitSpec, state: JointState) -> JointState:
    """Run the circuit's entangling evolution on a prepared input."""
    return _evolve_impl(spec, state, dagger=False)


def disentangle(spec: CircuitSpec, state: JointState) -> JointState:
    """Reverse the entangling evolution (the post-processing gate).

    Every tag-built evolution here is self-inverse; explicit unitaries are
    daggered branch by branch.
    """
    return _evolve_impl(spec, state, dagger=True)


def _evolve_impl(spec: CircuitSpec, state: JointState, dagger: bool) -> JointState:
    kind = spec.kind
    if kind == "parity_collective":
        return _apply_tag_conditioned(state, True, False, spec)
    if kind in ("hamming_half", "ghz_local") and isinstance(state, SectorMixture):
        raise RepresentationError(f"{kind} on mixed inputs needs the dense backend")
    if kind == "hamming_half":
        out = collective_flip(state, controlled_on=LABEL_Q1, blocks=(0,),
                              block_sizes=spec.block_sizes)
        return collective_flip(out, controlled_on=LABEL_Q2, blocks=(1,),
                               block_sizes=spec.block_sizes)
    if kind == "ghz_local":
        out = ghz_entangler(state)
        out = edge_phase_gate(out, LABEL_Q1)
        out = edge_phase_gate(out, LABEL_Q2)
        return ghz_entangler(out, inverse=True)
    if kind == "parity_conditioned":
        if spec.has_matrix_unitaries:
            v_o = _tag_to_matrix(spec.v_odd, spec.ms.n)
            v_e = _tag_to_matrix(spec.v_even, spec.ms.n)
            if dagger:
                v_o, v_e = v_o.conj().T, v_e.conj().T
            return _conditional_ms_apply(
                state, {(0, 0): v_e, (0, 1): v_o, (1, 0): v_o, (1, 1): v_e}
            )
        return _apply_tag_conditioned(
            state, _is_flip_tag(spec.v_odd), _is_flip_tag(spec.v_even), spec
        )
    table = spec.conditionals
    if dagger:
        table = {jk: u.conj().T for jk, u in table.items()}
    return _conditional_ms_apply(state, table)


def _tag_to_matrix(v, n: int) -> np.ndarray:
    if not isinstance(v, str):
        return v
    if v == TAG_IDENTITY:
        return np.eye(1 << n, dtype=complex)
    return np.eye(1 << n, dtype=complex)[::-1]


# ---------------------------------------------------------------------------
# marginals and branch diagnostics


def qubit_marginal(state: JointState) -> DensityOperator:
    """Reduced two-qubit state after tracing out the MS."""
    if isinstance(state, SectorMixture):
        o = BELL_ODD_PLUS.vector[:, None]
        e = BELL_EVEN_PLUS.vector[:, None]
        x = state.cross_trace
        rho = 0.5 * (
            state.weight_odd.sum() * (o @ o.conj().T)
            + state.weight_even.sum() * (e @ e.conj().T)
            + x * (o @ e.conj().T)
            + x * (e @ o.conj().T)
        )
        return DensityOperator(rho, SubsystemLayout((2, 2), (LABEL_Q1, LABEL_Q2)))
    return partial_trace(state, [state.layout.slot(LABEL_Q1), state.layout.slot(LABEL_Q2)])


def branch_ms_states(state: JointState) -> dict:
    """Per qubit-basis-branch (weight, normalized MS vector) of a pure state.

    Diagnostics helper: exposes each branch's MS content so circuits can be
    compared branch-by-branch, phases included.
    """
    if not isinstance(state, (PureState, CollectiveBlockState)):
        raise TypeError("branch decomposition needs a pure joint state")
    t = state.as_tensor()
    out = {}
    for j in (0, 1):
        for k in (0, 1):
            vec = np.asarray(t[j, k]).reshape(-1)
            w = float(np.linalg.norm(vec) ** 2)
            out[(j, k)] = (w, vec / np.sqrt(w) if w > TOL.prob_floor else None)
    return out
