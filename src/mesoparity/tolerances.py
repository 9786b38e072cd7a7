"""Numerical tolerances shared across the package.

Single knob for test calibration: every module validates against these
constants instead of hard-coding its own.
"""


class Tolerances:
    """Read-only constants: class attributes of an instance with no slots,
    so assigning one raises.  Not a dataclass, whose generated methods
    Python compiles at every import."""

    __slots__ = ()

    norm = 1e-10          # L2 norm of pure states, trace of densities
    hermiticity = 1e-8    # max |M - M^dag| accepted as Hermitian
    positivity = -1e-9    # smallest admissible eigenvalue of a density
    povm = 1e-10          # completeness of POVM coefficient columns
    prob_floor = 1e-14    # outcomes below this carry a null post-state
    param_agreement = 1e-9  # |(1 - polarization) - epsilon| accepted as consistent
    bound_forms = 1e-10   # spread between the closed, sum and program ceiling forms
    branch_weight = 1e-12  # qubit branches lighter than this get no phase
    cross_block = 1e-9    # |cross| beyond sqrt(w_odd * w_even) in a SectorMixture
    bound_range = 1e-12   # ceiling values accepted outside [1/2, 1]
    program_mass = 1e-9   # greedy program weight sum vs 2^n
    violation = 1e-9      # sampled fidelity above the ceiling counted as a violation
    # residuals accepted by the `verify` checks
    exact = 0.0           # identities with no rounding: binary tables, refusal counts
    negative_prob = 1e-14  # how far below zero an outcome probability may read
    roundoff = 1e-12      # identities a few floating-point operations deep
    accumulated = 1e-10   # identities through a whole evolution, measurement or eigensolve
    eigen_readout = 1e-9  # eigenbasis readout vs trace distance in the violation search


TOL = Tolerances()
