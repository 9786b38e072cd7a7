"""Independent dense oracles for the unit tests.

Everything here is built from first principles with plain numpy kron chains
and exact rational arithmetic, deliberately avoiding the package's own tensor
machinery, so agreement is evidence rather than tautology.
"""

import math
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from mesoparity.states import DensityOperator, PureState

ID2 = np.eye(2)
SX = np.array([[0.0, 1.0], [1.0, 0.0]])
P0 = np.diag([1.0, 0.0])
P1 = np.diag([0.0, 1.0])


def kron_chain(mats):
    return reduce(np.kron, mats)


def popcount(b: int) -> int:
    return bin(b).count("1")


def dense_flip(n: int) -> np.ndarray:
    """X on every one of n sites as an explicit kron chain."""
    return kron_chain([SX] * n)


def joint_controlled(n: int, control: str, u: np.ndarray) -> np.ndarray:
    """Unitary on the (q1, q2, ms) product applying u to the 2^n MS sector
    when the named control qubit is |1>."""
    eye = np.eye(1 << n)
    if control == "q1":
        return kron_chain([P0, ID2, eye]) + kron_chain([P1, ID2, u])
    if control == "q2":
        return kron_chain([ID2, P0, eye]) + kron_chain([ID2, P1, u])
    raise ValueError(control)


# per-branch tables of MS blocks to flip: the parity readout flips the whole
# MS on the odd branches, the Hamming readout one half per excited qubit
PARITY_TABLE = {(0, 0): (), (0, 1): (0,), (1, 0): (0,), (1, 1): ()}
HAMMING_TABLE = {(0, 0): (), (0, 1): (1,), (1, 0): (0,), (1, 1): (0, 1)}

# every circuit kind, and every tag pair of the parity-conditioned one, as
# CircuitSpec keyword arguments
KIND_TAGS = pytest.mark.parametrize("kind, tags", [
    ("parity_collective", {}),
    ("hamming_half", {}),
    ("ghz_local", {}),
    *[("parity_conditioned", {"v_odd": o, "v_even": e})
      for o in ("identity", "collective_flip") for e in ("identity", "collective_flip")],
], ids=["parity_collective", "hamming_half", "ghz_local", "conditioned-id-id",
        "conditioned-id-flip", "conditioned-flip-id", "conditioned-flip-flip"])


def branch_unitary(n: int, blocks: dict) -> np.ndarray:
    """sum_{jk} |jk><jk| (x) blocks[(j, k)] on the (q1, q2, ms) product."""
    dim = 1 << n
    out = np.zeros((4 * dim, 4 * dim), dtype=complex)
    for (j, k), v in blocks.items():
        idx = 2 * j + k
        out[idx * dim:(idx + 1) * dim, idx * dim:(idx + 1) * dim] = v
    return out


def parity_conditioned_unitary(n: int, v_odd: np.ndarray, v_even: np.ndarray) -> np.ndarray:
    """sum_{jk} |jk><jk| (x) V_{parity(jk)} on the (q1, q2, ms) product."""
    return branch_unitary(n, {(0, 0): v_even, (0, 1): v_odd, (1, 0): v_odd, (1, 1): v_even})


def thermal_matrix(n: int, eps: float) -> np.ndarray:
    site = np.diag([1.0 - eps / 2.0, eps / 2.0])
    return kron_chain([site] * n)


def exact_bound(n: int, eps: Fraction) -> Fraction:
    """Brute-force ceiling: sum of the largest 2^(n-1) of the 2^n product
    coefficients q^(n-pop) (1-q)^pop, in exact rational arithmetic."""
    q = 1 - Fraction(eps) / 2
    weights = sorted(
        (q ** (n - popcount(b)) * (1 - q) ** popcount(b) for b in range(1 << n)),
        reverse=True,
    )
    return sum(weights[: 1 << (n - 1)])


def binomial_oracle(n: int, p: Fraction, m: int) -> Fraction:
    return math.comb(n, m) * p ** m * (1 - p) ** (n - m)


def random_unit_vector(rng, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def to_density(psi: PureState) -> DensityOperator:
    """|psi><psi| of a product-basis pure state, on the same layout."""
    return DensityOperator(np.outer(psi.amplitudes, psi.amplitudes.conj()), psi.layout)


def random_density_matrix(rng, dim: int, rank: int = None) -> np.ndarray:
    rank = dim if rank is None else rank
    a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = a @ a.conj().T
    return m / np.trace(m).real


def trace_distance_matrices(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def hamming_half_mixed(n: int, eps: float, rows, disentangle: bool) -> list:
    """Closed form of the ``hamming_half`` circuit on |++><++| (x) rho_eps
    under a sector readout: (p, f_odd, f_even, sectors) for each coefficient
    row a[m], m = 0..n, of the readout.

    rho_eps is a mixture of product basis states with a ~ Binomial(n/2, eps/2)
    excitations in the first half and b ~ Binomial(n/2, eps/2) in the second.
    Qubit branch jk flips half 1 when j = 1 and half 2 when k = 1, so its MS
    excitation is a + b, a + n/2 - b, n/2 - a + b or n - a - b.  The four
    branch states of one (a, b) are distinct basis states, so the post-state's
    qubit marginal is diagonal, each branch weighted by a[m_jk].  Undoing the
    flips returns every branch to the same basis state, of excitation a + b,
    and the qubits keep the coherent sum (1/2) sum_jk sqrt(a[m_jk]) |jk>.
    """
    half = n // 2
    q = eps / 2.0
    w = np.array([math.comb(half, k) * q**k * (1.0 - q) ** (half - k) for k in range(half + 1)])
    a, b = np.meshgrid(np.arange(half + 1), np.arange(half + 1), indexing="ij")
    weight = np.outer(w, w)
    m = {(0, 0): a + b, (0, 1): a + half - b, (1, 0): half - a + b, (1, 1): n - a - b}
    out = []
    for row in rows:
        amp = {jk: np.sqrt(np.asarray(row, dtype=float)[mk]) for jk, mk in m.items()}
        branch = {jk: weight * v**2 / 4.0 for jk, v in amp.items()}
        p = sum(v.sum() for v in branch.values())
        if disentangle:
            f_odd = (weight * (amp[0, 1] + amp[1, 0]) ** 2).sum() / 8.0 / p
            f_even = (weight * (amp[0, 0] + amp[1, 1]) ** 2).sum() / 8.0 / p
            sectors = np.bincount((a + b).reshape(-1), sum(branch.values()).reshape(-1),
                                  minlength=n + 1) / p
        else:
            f_odd = (branch[0, 1].sum() + branch[1, 0].sum()) / 2.0 / p
            f_even = (branch[0, 0].sum() + branch[1, 1].sum()) / 2.0 / p
            sectors = sum(np.bincount(m[jk].reshape(-1), branch[jk].reshape(-1),
                                      minlength=n + 1) for jk in m) / p
        out.append((p, f_odd, f_even, sectors))
    return out
