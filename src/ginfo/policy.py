"""Numeric tolerances and resolutions, one named constant each.

The kernels read these constants directly and take no tolerance, step or
resolution argument, so a verdict or a figure always means the same thing.
"Relative" tolerances are multiplied by the scale their check names.
"""

# input validation
SYMMETRY_TOL = 1e-12            # max |M - M^T| of a state (|M + M^T| of a form) taken as exact
SPD_TOL = 1e-12                 # a positive-definite matrix's eigenvalues must exceed this
SINGULAR_FORM_TOL = 1e-14       # a symplectic form with |det| below this is singular
SINGULAR_TRANSFORM_TOL = 1e-12  # a congruence transform with |det| at or below this is singular
VANISHING_TOL = 1e-14           # 1 - theta*eta/4, 4ab - 4c^2 or a^2 + c^2 below this is zero

# verdicts
RSUP_SLACK = 1e-10              # an invariant >= 1 - RSUP_SLACK meets the uncertainty threshold 1
ZERO_COUPLING_TOL = 1e-10       # |imaginary cross coupling| of a product ground state

# closed forms against their numeric routes
SECTOR_GAP_TOL = 1e-10          # smallest sector denominator of the closed-form square root
HAMILTONIAN_CHECK_TOL = 1e-10   # relative gap of the two equivalent-Hamiltonian routes
DEGENERATE_MODES_TOL = 1e-12    # normal modes with a frequency discriminant at or below this coincide
NORMAL_MODE_CHECK_TOL = 1e-8    # relative gap of closed-form mode data to the eigenproblem of J H
SINGULAR_MOMENTUM_TOL = 1e-12   # relative floor of the momentum coefficient determinant
EXPONENT_CHECK_TOL = 1e-9       # relative gap of the two ground-state exponent routes
DECOUPLED_TOL = 1e-13           # cross couplings below this, relative to the frequency, vanish

# resolutions
BISECT_TOL = 1e-6               # width to which theta_sweep bisects a margin crossing
FD_STEP = 1e-5                  # central-difference step of fisher_metric_numeric
