"""Protocol circuits joining the two target qubits to the MS.

Every evolution kind but one has the form U = sum_jk |jk><jk| (x) V_jk: qubit
basis branch (j, k) gets its own MS operation.  `CircuitSpec` checks its tags
and builds that table once, as ``spec.ops``, which `evolve` and `disentangle`
hand to `collective.branch_conditional` (``evolve(spec)`` runs it on the
spec's prepared input in that input's own array).  An entry is the tuple of
MS blocks to flip (the empty tuple is the identity):

- ``parity_collective``: V = flip on the odd branches (01, 10), so the
  parity lands in the sectors {0, n}.
- ``hamming_half``: each excited qubit flips its own half of the MS (q1 the
  first block, q2 the second), so the total excitation records the
  two-qubit Hamming weight.
- ``parity_conditioned``: V_odd on the odd and V_even on the even branches,
  each a tag ("identity", "collective_flip").

The exception is ``ghz_local``: the MS is steered through the collective
entangler onto the {m=0, m=n} manifold, each qubit phases its nearby edge
site, and the entangler is undone, so parity is encoded with only one
two-body gate per qubit.  A `SectorMixture` runs the parity family through
`mixture_conditional` instead of the table.

`disentangle` reverses each evolution: block flips and the GHZ route are
their own inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

# collective_flip is not called here but stays importable from this module,
# where the benchmark's tracer wraps it
from .collective import (
    MsConfig,
    RepresentationError,
    SectorMixture,
    branch_conditional,
    branch_conditional_into,
    collective_flip,
    edge_phase_gate,
    ghz_entangler,
    mixture_conditional,
    mixture_marginal,
    mixture_prepare,
    thermal_ms_dense,
)
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
    partial_trace,
)
from .tolerances import TOL

JointState = Union[PureState, DensityOperator, SectorMixture]

CIRCUIT_KINDS = (
    "parity_collective",
    "hamming_half",
    "ghz_local",
    "parity_conditioned",
)
BACKENDS = ("dense", "collective", "auto")
TAG_IDENTITY = "identity"
TAG_FLIP = "collective_flip"


# the MS blocks each parity-branch tag flips
_TAG_BLOCKS = {TAG_IDENTITY: (), TAG_FLIP: (0,)}


def _tag_blocks(v, name: str) -> tuple:
    if not isinstance(v, str) or v not in _TAG_BLOCKS:
        raise ValueError(f"unknown {name} tag {v!r}")
    return _TAG_BLOCKS[v]


@dataclass(frozen=True, eq=False)
class CircuitSpec:
    """Which circuit to run, on which MS, with which backend.

    v_odd / v_even apply to ``parity_conditioned`` only and are the tags
    "identity" / "collective_flip".  ``ops`` is the kind's table for
    `branch_conditional`, each entry the tuple of MS blocks to flip, built
    once here (None for ``ghz_local``).
    """

    kind: str
    ms: MsConfig
    backend: str = "auto"
    v_odd: str = TAG_IDENTITY
    v_even: str = TAG_IDENTITY
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
        if self.kind == "hamming_half":
            # each excited qubit flips its own half of the MS
            ops = {(0, 0): (), (0, 1): (1,), (1, 0): (0,), (1, 1): (0, 1)}
        elif self.kind == "ghz_local":
            ops = None
        else:
            # the parity family: V_odd on the odd branches, V_even on the even ones
            tags = ((TAG_FLIP, TAG_IDENTITY) if self.kind == "parity_collective"
                    else (self.v_odd, self.v_even))
            odd, even = (_tag_blocks(v, name) for v, name in zip(tags, ("v_odd", "v_even")))
            ops = {(0, 0): even, (0, 1): odd, (1, 0): odd, (1, 1): even}
        object.__setattr__(self, "ops", ops)

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
        collective_ok = not mixed or self.kind in ("parity_collective", "parity_conditioned")
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
                    "collective backend supports mixed inputs only for the "
                    "parity-conditioned family"
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
    if _is_mixture(spec):
        return mixture_prepare(spec.ms)
    t, _, wrap = _input_tensor(spec)
    return wrap(t)


def _is_mixture(spec: CircuitSpec) -> bool:
    return spec.resolved_backend() == "collective" and spec.ms.epsilon > 0.0


def _input_tensor(spec: CircuitSpec):
    """The prepared input of a spec whose state has a tensor, unwrapped.

    Returns a fresh, writable tensor shaped like that state's ``as_tensor()``
    (real for a density: |++><++| (x) rho_eps, which the block flips keep real);
    the (layout, own block sizes) `branch_conditional_into` reads its MS slot
    from, the sizes None for a dense MS slot; and the checked constructor
    that wraps such a tensor as the state.
    """
    sizes = spec.block_sizes if spec.resolved_backend() == "collective" else None
    density = sizes is None and spec.ms.epsilon > 0.0
    ms_dim = 1 << (spec.ms.n if sizes is None else len(sizes))
    layout = SubsystemLayout((2, 2, ms_dim), (LABEL_Q1, LABEL_Q2, LABEL_MS))
    if density:
        plus = np.full(4, 0.5)
        rho = np.kron(np.outer(plus, plus), thermal_ms_dense(spec.ms).matrix)
        t = rho.reshape(layout.dims * 2)
    else:
        # every MS block all |0>
        t = np.zeros(layout.dims, dtype=complex)
        t[:, :, 0] = 0.5

    def wrap(t: np.ndarray) -> JointState:
        if density:
            d = layout.total_dim
            return DensityOperator(t.reshape(d, d), layout)
        return PureState(t, layout, sizes)

    return t, (layout, sizes), wrap


# ---------------------------------------------------------------------------
# evolution


def evolve(spec: CircuitSpec, state: Optional[JointState] = None) -> JointState:
    """Run the circuit's entangling evolution on a prepared input.

    With ``state`` left out, the spec's own prepared input is built and, for
    every state with a tensor under a block-flip kind, evolved in that same
    array and wrapped (and checked) once: a density at the cap is one
    joint-sized array, not two.  The result equals
    ``evolve(spec, prepare_inputs(spec))`` bit for bit.  A given ``state``
    is never written.
    """
    if state is None:
        if spec.kind == "ghz_local" or _is_mixture(spec):
            state = prepare_inputs(spec)
        else:
            t, frame, wrap = _input_tensor(spec)
            branch_conditional_into(t, t, *frame, spec.ops, spec.block_sizes)
            return wrap(t)
    return _evolve_impl(spec, state)


def disentangle(spec: CircuitSpec, state: JointState) -> JointState:
    """Reverse the entangling evolution (the post-processing gate).

    Block flips and the GHZ route are their own inverse, so this is the
    evolution run once more.
    """
    return _evolve_impl(spec, state)


def _evolve_impl(spec: CircuitSpec, state: JointState) -> JointState:
    if isinstance(state, SectorMixture):
        if spec.kind in ("hamming_half", "ghz_local"):
            raise RepresentationError(f"{spec.kind} on mixed inputs needs the dense backend")
        return mixture_conditional(state, spec.ops[(0, 1)] != (), spec.ops[(0, 0)] != ())
    if spec.kind == "ghz_local":
        out = ghz_entangler(state)
        out = edge_phase_gate(out, LABEL_Q1)
        out = edge_phase_gate(out, LABEL_Q2)
        return ghz_entangler(out, inverse=True)
    return branch_conditional(state, spec.ops, spec.block_sizes)


# ---------------------------------------------------------------------------
# marginals and branch diagnostics


def qubit_marginal(state: JointState) -> DensityOperator:
    """Reduced two-qubit state after tracing out the MS."""
    if isinstance(state, SectorMixture):
        return mixture_marginal(state)
    return partial_trace(state, [state.layout.slot(LABEL_Q1), state.layout.slot(LABEL_Q2)])


def branch_ms_states(state: JointState) -> dict:
    """Per qubit-basis-branch (weight, normalized MS vector) of a pure state.

    Diagnostics helper: exposes each branch's MS content so circuits can be
    compared branch-by-branch, phases included.  The slots are found by
    their labels, whatever their order.
    """
    if not isinstance(state, PureState):
        raise RepresentationError("branch decomposition needs a pure joint state")
    slots = [state.layout.slot(label) for label in (LABEL_Q1, LABEL_Q2, LABEL_MS)]
    t = np.moveaxis(state.as_tensor(), slots, (0, 1, 2))
    out = {}
    for j in (0, 1):
        for k in (0, 1):
            vec = np.asarray(t[j, k]).reshape(-1)
            w = float(np.linalg.norm(vec) ** 2)
            out[(j, k)] = (w, vec / np.sqrt(w) if w > TOL.prob_floor else None)
    return out
