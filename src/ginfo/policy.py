"""Central numeric tolerance policy.

Every kernel that needs a tolerance takes an optional ``policy`` argument and
falls back to :data:`DEFAULT_POLICY`, so tolerances live in exactly one place.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class NumericPolicy:
    symmetry_tol: float = 1e-12        # max |M - M^T| for symmetric inputs
    spd_tol: float = 1e-12             # smallest admissible eigenvalue of an SPD matrix
    equality_tol: float = 1e-10        # generic elementwise equality checks
    singular_form_tol: float = 1e-14   # |det| floor for symplectic forms
    singular_transform_tol: float = 1e-12  # |det| floor for congruence transforms
    rsup_slack: float = 1e-10          # uncertainty threshold is 1 - rsup_slack
    zero_coupling_tol: float = 1e-10   # |imag cross coupling| treated as zero


DEFAULT_POLICY = NumericPolicy()
