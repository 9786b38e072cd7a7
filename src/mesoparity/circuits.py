"""Protocol circuits joining the two target qubits to the MS.

Every evolution kind but one has the form U = sum_jk |jk><jk| (x) V_jk: qubit
basis branch (j, k) gets its own MS operation.  `CircuitSpec` checks its tags
and unitaries and builds that table once, as ``spec.ops``, which `evolve` and
`disentangle` hand to `collective.branch_conditional`.  An entry flips MS
blocks (the empty tuple is the identity) or is an explicit unitary (dense
backend only):

- ``parity_collective``: V = flip on the odd branches (01, 10), so the
  parity lands in the sectors {0, n}.
- ``hamming_half``: each excited qubit flips its own half of the MS (q1 the
  first block, q2 the second), so the total excitation records the
  two-qubit Hamming weight.
- ``parity_conditioned``: V_odd on the odd and V_even on the even branches,
  each a tag ("identity", "collective_flip") or an explicit matrix.
- ``general_conditional``: an explicit unitary per branch.

The exception is ``ghz_local``: the MS is steered through the collective
entangler onto the {m=0, m=n} manifold, each qubit phases its nearby edge
site, and the entangler is undone, so parity is encoded with only one
two-body gate per qubit.  A `SectorMixture` runs the parity family through
`mixture_conditional` instead of the table.

`disentangle` reverses each evolution: flips are their own inverse, explicit
unitaries are daggered, and the GHZ route is self-inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

import numpy as np

# collective_flip is not called here but stays importable from this module,
# where the benchmark's tracer wraps it
from .collective import (
    CollectiveBlockState,
    MsConfig,
    RepresentationError,
    SectorMixture,
    block_ground_state,
    branch_conditional,
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


def _tag_or_unitary(v, dim: int, name: str):
    """A parity branch's MS operation: the blocks a tag flips, or a checked unitary."""
    if not isinstance(v, str):
        return _require_unitary(v, dim, name)
    if v not in (TAG_IDENTITY, TAG_FLIP):
        raise ValueError(f"unknown {name} tag {v!r}")
    return (0,) if v == TAG_FLIP else ()


@dataclass(frozen=True, eq=False)
class CircuitSpec:
    """Which circuit to run, on which MS, with which backend.

    v_odd / v_even apply to ``parity_conditioned`` only and are either the
    tags "identity" / "collective_flip" or explicit MS unitaries;
    ``conditionals`` maps each qubit basis pair (j, k) to its MS unitary for
    ``general_conditional``.  ``ops`` is the kind's table for
    `branch_conditional`, built once here (None for ``ghz_local``).
    """

    kind: str
    ms: MsConfig
    backend: str = "auto"
    v_odd: Union[str, np.ndarray] = TAG_IDENTITY
    v_even: Union[str, np.ndarray] = TAG_IDENTITY
    conditionals: Mapping[tuple, np.ndarray] = field(default=None)
    ops: Optional[dict] = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in CIRCUIT_KINDS:
            raise ValueError(f"unknown circuit kind {self.kind!r}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.kind == "hamming_half" and self.ms.n % 2:
            raise ValueError(f"hamming_half needs an even MS size, got {self.ms.n}")
        if self.kind != "parity_conditioned" and not all(
            isinstance(v, str) and v == TAG_IDENTITY for v in (self.v_odd, self.v_even)
        ):
            raise ValueError("v_odd/v_even apply to parity_conditioned circuits only")
        if self.kind != "general_conditional" and self.conditionals is not None:
            raise ValueError("conditionals apply to general_conditional circuits only")
        dim = 1 << self.ms.n
        if self.kind == "general_conditional":
            if set(self.conditionals or ()) != {(0, 0), (0, 1), (1, 0), (1, 1)}:
                raise ValueError("general_conditional needs one unitary per qubit basis pair")
            ops = {jk: _require_unitary(u, dim, f"conditionals[{jk}]")
                   for jk, u in self.conditionals.items()}
        elif self.kind == "hamming_half":
            # each excited qubit flips its own half of the MS
            ops = {(0, 0): (), (0, 1): (1,), (1, 0): (0,), (1, 1): (0, 1)}
        elif self.kind == "ghz_local":
            ops = None
        else:
            # the parity family: V_odd on the odd branches, V_even on the even ones
            tags = ((TAG_FLIP, TAG_IDENTITY) if self.kind == "parity_collective"
                    else (self.v_odd, self.v_even))
            odd, even = (_tag_or_unitary(v, dim, name)
                         for v, name in zip(tags, ("v_odd", "v_even")))
            ops = {(0, 0): even, (0, 1): odd, (1, 0): odd, (1, 1): even}
        object.__setattr__(self, "ops", ops)

    @property
    def has_matrix_unitaries(self) -> bool:
        return self.ops is not None and not all(
            isinstance(op, tuple) for op in self.ops.values()
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


def evolve(spec: CircuitSpec, state: JointState) -> JointState:
    """Run the circuit's entangling evolution on a prepared input."""
    return _evolve_impl(spec, state, dagger=False)


def disentangle(spec: CircuitSpec, state: JointState) -> JointState:
    """Reverse the entangling evolution (the post-processing gate).

    Flips and the GHZ route are their own inverse; explicit unitaries are
    daggered branch by branch.
    """
    return _evolve_impl(spec, state, dagger=True)


def _evolve_impl(spec: CircuitSpec, state: JointState, dagger: bool) -> JointState:
    kind = spec.kind
    if kind in ("hamming_half", "ghz_local") and isinstance(state, SectorMixture):
        raise RepresentationError(f"{kind} on mixed inputs needs the dense backend")
    if kind == "ghz_local":
        out = ghz_entangler(state)
        out = edge_phase_gate(out, LABEL_Q1)
        out = edge_phase_gate(out, LABEL_Q2)
        return ghz_entangler(out, inverse=True)
    ops = spec.ops
    if dagger:
        ops = {jk: op if isinstance(op, tuple) else op.conj().T for jk, op in ops.items()}
    if isinstance(state, SectorMixture):
        if spec.has_matrix_unitaries:
            raise RepresentationError("explicit conditional unitaries need the dense backend")
        return mixture_conditional(state, ops[(0, 1)] != (), ops[(0, 0)] != ())
    return branch_conditional(state, ops, spec.block_sizes)


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
