"""Numerical tolerances shared across the package.

Single knob for test calibration: every module validates against these
constants instead of hard-coding its own.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    norm: float = 1e-10          # L2 norm of pure states, trace of densities
    hermiticity: float = 1e-8    # max |M - M^dag| accepted as Hermitian
    positivity: float = -1e-9    # smallest admissible eigenvalue of a density
    povm: float = 1e-10          # completeness of POVM coefficient columns
    prob_floor: float = 1e-14    # outcomes below this carry a null post-state
    param_agreement: float = 1e-9  # |(1 - polarization) - epsilon| accepted as consistent
    bound_forms: float = 1e-10   # spread between the closed, sum and program ceiling forms
    branch_weight: float = 1e-12  # qubit branches lighter than this get no phase
    cross_block: float = 1e-9    # |cross| beyond sqrt(w_odd * w_even) in a SectorMixture
    bound_range: float = 1e-12   # ceiling values accepted outside [1/2, 1]
    program_mass: float = 1e-9   # greedy program weight sum vs 2^n
    violation: float = 1e-9      # sampled fidelity above the ceiling counted as a violation
    # residuals accepted by the `verify` checks
    exact: float = 0.0           # identities with no rounding: binary tables, refusal counts
    negative_prob: float = 1e-14  # how far below zero an outcome probability may read
    roundoff: float = 1e-12      # identities a few floating-point operations deep
    accumulated: float = 1e-10   # identities through a whole evolution, measurement or eigensolve
    eigen_readout: float = 1e-9  # eigenbasis readout vs trace distance in the violation search


TOL = Tolerances()
