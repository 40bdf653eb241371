"""Numeric tolerances and resolutions, one named constant each.

The kernels read these constants directly and take no tolerance, step or
resolution argument, so a verdict or a figure always means the same thing.
"Relative" tolerances are multiplied by the scale their check names.
"""

# input validation
SYMMETRY_TOL = 1e-12            # max |M - M^T| of a state (|M + M^T| of a form) taken as exact
SPD_TOL = 1e-12                 # a positive-definite matrix's eigenvalues must exceed this
SINGULAR_RCOND = 1e-12          # a form with s_min <= this * s_max is singular

# verdicts
RSUP_SLACK = 1e-10              # an invariant >= 1 - RSUP_SLACK meets the uncertainty threshold 1
TUNED_LINE_TOL = 1e-15          # |eta - m1 m2 theta w1 w2|, relative to the sum, taken as zero

# closed forms against their numeric routes
DECOUPLED_TOL = 1e-13           # cross couplings below this, relative to the frequency, vanish
GROUND_STATE_CHECK_TOL = 1e-13  # ground state's relative gap to its polar form, per unit of cond(H)

# resolutions
BISECT_TOL = 1e-6               # width to which theta_sweep bisects a margin crossing
