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
    unitarity: float = 1e-8      # max |U^dag U - I| for supplied unitaries
    povm: float = 1e-10          # completeness of POVM coefficient columns
    prob_floor: float = 1e-14    # outcomes below this carry a null post-state
    param_agreement: float = 1e-9  # |(1 - polarization) - epsilon| accepted as consistent
    bound_forms: float = 1e-10   # closed-form vs sum-form ceiling cross-check
    branch_weight: float = 1e-12  # qubit branches lighter than this get no phase


TOL = Tolerances()
