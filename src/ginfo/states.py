"""Two-mode Gaussian states: canonical form, physicality and separability.

The canonical family is the standard block form ``[[a I, C], [C, b I]]`` with
``C = diag(c, d)`` in the mode-interleaved basis (x1, p1, x2, p2): mode 1 has
variances (a, a), mode 2 has (b, b), and c, d are the x-x and p-p cross
correlations. Membership tests for the physical and separable parameter
regions are implemented from their closed-form windows, with the spectral
checks (:func:`ginfo.symplectic.rsup_check`, :func:`ppt_separable`) as the
authoritative verdicts whenever the two disagree on a boundary.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryIndeterminateError
from .policy import VANISHING_TOL
from .symplectic import (
    J2,
    CovarianceMatrix,
    Ordering,
    _check_finite,
    _check_spd_matrix,
    _validated,
    rsup_check,
)


@dataclass(frozen=True)
class CanonicalTwoModeParams:
    """Entries (a, b, c, d) of the canonical two-mode covariance matrix."""

    a: float
    b: float
    c: float = 0.0
    d: float = 0.0

    def __post_init__(self):
        _check_finite("a, b, c and d", self.a, self.b, self.c, self.d)
        if self.a <= 0 or self.b <= 0:
            raise ValueError(f"diagonal entries must be positive, got a={self.a}, b={self.b}")


def canonical_two_mode_matrix(p: CanonicalTwoModeParams) -> np.ndarray:
    """Raw 4x4 canonical matrix, without the SPD validation."""
    a, b, c, d = p.a, p.b, p.c, p.d
    return np.array([
        [a, 0, c, 0],
        [0, a, 0, d],
        [c, 0, b, 0],
        [0, d, 0, b],
    ], dtype=float)


def canonical_two_mode_cvm(p: CanonicalTwoModeParams) -> CovarianceMatrix:
    """Canonical two-mode covariance matrix (mode-interleaved ordering)."""
    return CovarianceMatrix(canonical_two_mode_matrix(p), ordering=Ordering.MODE_INTERLEAVED)


@dataclass(frozen=True)
class TwoModeBounds:
    """Derived window bounds for the canonical family at fixed (a, b, c).

    ``c2_cap_wide`` bounds 4c^2 on the branch b < a and ``c2_cap_narrow`` on
    the branch a < b; ``d_low`` and ``d_high`` delimit the admissible p-p
    correlation. ``window_gap`` is the radicand building block shared with the
    separable window.
    """

    ratio: float        # a / b
    scale: float        # 4ab
    c2_cap_wide: float      # scale - ratio
    c2_cap_narrow: float    # scale - 1/ratio
    window_gap: float
    d_radicand: float
    d_low: float
    d_high: float


def two_mode_bounds(p: CanonicalTwoModeParams) -> TwoModeBounds:
    """Closed-form region bounds for the canonical family."""
    a, b, c = p.a, p.b, p.c
    ratio = a / b
    scale = 4.0 * a * b
    denom = scale - 4.0 * c * c
    if abs(denom) < VANISHING_TOL:
        raise BoundaryIndeterminateError("window endpoints are undefined at 4ab = 4c^2")
    gap = (np.sqrt(scale) + 1.0 / np.sqrt(scale)) ** 2 \
        - (np.sqrt(ratio) + 1.0 / np.sqrt(ratio)) ** 2
    radicand = c * c + 0.25 * scale * denom * (gap - 4.0 * c * c)
    if radicand >= 0:
        root = np.sqrt(radicand)
        d_low = (-c - root) / denom
        d_high = (-c + root) / denom
    else:
        d_low = np.nan
        d_high = np.nan
    return TwoModeBounds(ratio=ratio, scale=scale,
                         c2_cap_wide=scale - ratio,
                         c2_cap_narrow=scale - 1.0 / ratio,
                         window_gap=gap, d_radicand=radicand,
                         d_low=d_low, d_high=d_high)


def in_quantum_region(p: CanonicalTwoModeParams) -> bool:
    """Closed-form membership test for physically admissible (a, b, c, d).

    Mirrors the two-branch window (b < a vs a < b); the a = b case uses the
    common value of the two caps, which coincide there. Agreement with
    ``rsup_check`` on the built matrix is property-tested; the spectral check
    wins on any boundary disagreement.
    """
    a, b = p.a, p.b
    if a <= 0.5 or b <= 0.5:
        return False
    bounds = two_mode_bounds(p)
    if bounds.d_radicand < 0:
        return False
    cap = bounds.c2_cap_wide if a >= b else bounds.c2_cap_narrow
    if not p.c * p.c < cap / 4.0:
        return False
    return bool(bounds.d_low <= p.d <= bounds.d_high)


def in_separable_region(p: CanonicalTwoModeParams) -> bool:
    """Closed-form membership test for the separable window.

    The two sign-of-c branches exclude c = 0 by construction;
    :func:`ppt_separable` is authoritative on conflict.
    """
    a, b, c, d = p.a, p.b, p.c, p.d
    if a <= 0.5 or b <= 0.5:
        return False
    bounds = two_mode_bounds(p)
    if bounds.d_radicand < 0:
        return False
    root_gap = np.sqrt(max(bounds.window_gap, 0.0))
    if -root_gap < 2.0 * c < 0.0:
        return bool(bounds.d_low <= d <= -bounds.d_low)
    if 0.0 < 2.0 * c < root_gap:
        return bool(-bounds.d_high <= d <= bounds.d_high)
    return False


@functools.cache
def _sign_pattern(dim: int, ordering: Ordering) -> np.ndarray:
    """Read-only ``outer(s, s)`` for the signs ``s`` that flip party B's momenta.

    Party B holds the second half of the modes; ``ordering`` locates their
    momentum coordinates.
    """
    n_modes = dim // 2
    if n_modes % 2:
        raise ValueError(f"cannot split {n_modes} modes into two equal parties")
    if ordering is Ordering.MODE_INTERLEAVED:
        momenta = slice(n_modes + 1, dim, 2)
    else:
        momenta = slice(n_modes + n_modes // 2, dim)
    signs = np.ones(dim)
    signs[momenta] = -1.0
    pattern = np.outer(signs, signs)
    pattern.setflags(write=False)
    return pattern


def partial_transpose(sigma: CovarianceMatrix) -> CovarianceMatrix:
    """Flip the momentum coordinates of party B (mirror reflection).

    ``sigma`` must be a CovarianceMatrix in a named ordering, which locates
    the momenta; party B is the second half of its modes. The operation is
    an involution: applying it twice returns the input. The sign flips are
    exact, so the output keeps the symmetry and spectrum that passed when
    ``sigma`` was built and is not checked again.
    """
    if not isinstance(sigma, CovarianceMatrix) or sigma.ordering is None:
        raise ValueError("partial_transpose needs a CovarianceMatrix in a named ordering")
    m = sigma.matrix
    return _validated(m * _sign_pattern(len(m), sigma.ordering), sigma.ordering)


@dataclass(frozen=True)
class PptResult:
    separable: bool
    margin: float   # min post-reflection invariant minus 1


def ppt_separable(sigma: CovarianceMatrix, form) -> PptResult:
    """Positive-partial-transpose separability verdict for a bipartite state.

    A separable Gaussian state stays a valid state after the mirror
    reflection of party B (:func:`partial_transpose`), so the verdict is the
    uncertainty check on the reflected matrix against ``form``.
    ``margin >= 0`` means separable.
    """
    result = rsup_check(partial_transpose(sigma), form)
    return PptResult(separable=result.valid, margin=result.min_invariant - 1.0)


@dataclass(frozen=True)
class SimonInvariants:
    """Local-symplectic invariants of a two-mode state and the criterion value.

    ``criterion >= 0`` certifies separability; it combines the block
    determinants with the quartic trace invariant and flips only through
    ``|det_cross|`` under mirror reflection.
    """

    det_a: float
    det_b: float
    det_cross: float
    det_total: float
    quad_trace: float
    criterion: float


def simon_invariants(sigma) -> SimonInvariants:
    """Invariant-based separability criterion for a 4x4 interleaved state in units of hbar."""
    if isinstance(sigma, CovarianceMatrix) and sigma.ordering is not Ordering.MODE_INTERLEAVED:
        raise ValueError("simon_invariants expects the mode-interleaved ordering")
    m = _check_spd_matrix(sigma)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 two-mode matrix, got {m.shape}")
    v11 = m[:2, :2]
    v12 = m[:2, 2:]
    v22 = m[2:, 2:]
    det_a = float(np.linalg.det(v11))
    det_b = float(np.linalg.det(v22))
    det_cross = float(np.linalg.det(v12))
    quad_trace = float(np.trace(v11 @ J2 @ v12 @ J2 @ v22 @ J2 @ v12.T @ J2))
    criterion = det_a * det_b + (0.25 - abs(det_cross)) ** 2 \
        - quad_trace - (det_a + det_b) / 4.0
    return SimonInvariants(det_a=det_a, det_b=det_b, det_cross=det_cross,
                           det_total=float(np.linalg.det(m)),
                           quad_trace=quad_trace, criterion=criterion)
