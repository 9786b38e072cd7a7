"""Independent dense oracles for the unit tests.

Everything here is built from first principles with plain numpy kron chains
and exact rational arithmetic, deliberately avoiding the package's own tensor
machinery, so agreement is evidence rather than tautology.
"""

import math
from fractions import Fraction
from functools import reduce

import numpy as np

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


def dicke_columns(n: int) -> np.ndarray:
    """Columns m = 0..n: normalized uniform superpositions at Hamming weight m."""
    cols = []
    for m in range(n + 1):
        v = np.array([1.0 if popcount(b) == m else 0.0 for b in range(1 << n)])
        cols.append(v / np.linalg.norm(v))
    return np.stack(cols, axis=1)


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


def random_density_matrix(rng, dim: int, rank: int = None) -> np.ndarray:
    rank = dim if rank is None else rank
    a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = a @ a.conj().T
    return m / np.trace(m).real


def trace_distance_matrices(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())
