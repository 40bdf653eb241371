"""Two-mode Gaussian states: canonical form, physicality and separability.

The canonical family is the standard block form ``[[a I, C], [C, b I]]`` with
``C = diag(c, d)`` in the mode-interleaved basis (x1, p1, x2, p2): mode 1 has
variances (a, a), mode 2 has (b, b), and c, d are the x-x and p-p cross
correlations. Membership tests for the physical and separable parameter
regions follow their closed-form windows; the verdicts on the state's
invariants (:func:`ginfo.symplectic.rsup_check`, :func:`ppt_separable`)
are authoritative whenever the two disagree on a boundary.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericDomainError
from .policy import RSUP_SLACK, SPD_TOL
from .symplectic import (
    J2,
    CovarianceMatrix,
    Ordering,
    _check_finite,
    _check_min_eigenvalue,
    _check_spd_matrix,
    _party_size,
    _validated,
    _xp_positions,
    rsup_check,
)


class _CanonicalFields(NamedTuple):
    """The fields of :class:`CanonicalTwoModeParams`, unchecked."""

    a: float
    b: float
    c: float = 0.0
    d: float = 0.0


class CanonicalTwoModeParams(_CanonicalFields):
    """Entries (a, b, c, d) of the canonical two-mode covariance matrix.

    An immutable named tuple, checked when built: every entry finite and
    ``a, b > 0``. Build new records with the constructor; the named tuple's
    ``_make`` and ``_replace`` skip the checks.
    """

    __slots__ = ()

    def __new__(cls, a, b, c=0.0, d=0.0):
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c) and math.isfinite(d)):
            _check_finite("a, b, c and d", a, b, c, d)   # raises, naming all four
        if a <= 0 or b <= 0:
            raise ValueError(f"diagonal entries must be positive, got a={a}, b={b}")
        return tuple.__new__(cls, (a, b, c, d))


def _canonical_matrices(rows) -> np.ndarray:
    """``(..., 4, 4)`` canonical matrices of ``(..., 4)`` rows (a, b, c, d), unvalidated."""
    a, b, c, d = np.moveaxis(np.asarray(rows, dtype=float), -1, 0)
    out = np.zeros(a.shape + (4, 4))
    out[..., 0, 0] = out[..., 1, 1] = a
    out[..., 2, 2] = out[..., 3, 3] = b
    out[..., 0, 2] = out[..., 2, 0] = c
    out[..., 1, 3] = out[..., 3, 1] = d
    return out


def _sector_low(a, b, c):
    """Low eigenvalue of the sector ``[[a, c], [c, b]]`` on Python or numpy floats.

    The canonical matrix splits into the x sector (c) and the p sector (d).
    The low eigenvalue is the determinant over the high one,
    ``(a + b)/2 + hypot((a - b)/2, c)``, which adds two nonnegative terms, so
    it takes no difference of two nearly equal roots. The hypotenuse is the
    absolute value of a complex number: the same libm ``hypot`` that
    ``np.hypot`` runs, without a numpy call.
    """
    return (a * b - c * c) / (0.5 * (a + b) + abs(complex(0.5 * (a - b), c)))


def _sector_eigenvalues(a, b, c):
    """``(low, high)`` eigenvalues of the sector ``[[a, c], [c, b]]``, on arrays.

    :func:`_sector_low`'s formula with ``np.hypot``, which also takes scalars
    and returns numpy floats; both give the same bits on the same inputs.
    """
    high = 0.5 * (a + b) + np.hypot(0.5 * (a - b), c)
    return (a * b - c * c) / high, high


def _min_invariant(a, b, c, d):
    """Smaller symplectic invariant ``nu_-`` of canonical (a, b, c, d), on floats or arrays.

    With ``Delta = det A + det B + 2 det C = a^2 + b^2 + 2cd`` and
    ``det S = (ab - c^2)(ab - d^2)``, ``nu_- = sqrt(8 det S / (Delta + sqrt(D)))``
    where ``D = Delta^2 - 4 det S`` (Serafini, Illuminati & De Siena, J. Phys.
    B 37, L21, 2004). ``D`` is evaluated in its factored form
    ``(a^2 - b^2)^2 + 4(ac + bd)(ad + bc)``: where the two invariants nearly
    coincide (near pure symmetric states, and near the vacuum after the mirror
    reflection) ``Delta^2`` and ``4 det S`` almost cancel, and the difference
    taken as written loses up to half the digits of ``nu_-``, enough to flip
    verdicts that the eigenvalue route gets right. The mirror reflection maps
    the state to (a, b, c, -d), so its invariant is ``_min_invariant(a, b, c, -d)``.

    The state must be positive definite. The arithmetic is plain, so Python
    floats make no numpy call: ``disc * (disc > 0)`` sets a discriminant that
    rounding left below 0 to 0, and ``x ** 0.5`` is numpy's ``sqrt`` on
    arrays and within an ulp of it on floats. Past the float range the value
    comes out inf or NaN.
    """
    delta = a * a + b * b + 2.0 * c * d
    det = (a * b - c * c) * (a * b - d * d)
    skew = a * a - b * b
    disc = skew * skew + 4.0 * (a * c + b * d) * (a * d + b * c)
    disc = disc * (disc > 0.0)
    return (8.0 * det / (delta + disc ** 0.5)) ** 0.5


def canonical_two_mode_matrix(p: CanonicalTwoModeParams) -> np.ndarray:
    """Raw 4x4 canonical matrix, without the SPD validation."""
    return _canonical_matrices((p.a, p.b, p.c, p.d))


def canonical_two_mode_cvm(p: CanonicalTwoModeParams) -> CovarianceMatrix:
    """Canonical two-mode covariance matrix (mode-interleaved ordering)."""
    return CovarianceMatrix(canonical_two_mode_matrix(p), ordering=Ordering.MODE_INTERLEAVED)


_OVERFLOWED = "overflowed"   # _window_scalars' answer where an entry's size overflows the windows


def _window_scalars(p: CanonicalTwoModeParams):
    """``(ratio, denom, gap, root)`` that both closed-form windows share, None
    outside them, or ``_OVERFLOWED``.

    Outside means ``a`` or ``b`` at most 1/2, or an x sector that is no state:
    its low eigenvalue is at most ``SPD_TOL`` (the volume gate's rule). Inside,
    ``denom = 4ab - 4c^2`` is four times that eigenvalue's positive numerator,
    and ``root`` is the square root of the p-p radicand, NaN where that is
    negative, so that no ``d`` lies between the edges it sets. The radicand
    is of degree 6 in the entries and overflows past ~1e50; where any of
    these scalars comes out non-finite, or the x sector's hypotenuse
    overflows, the answer is ``_OVERFLOWED``, without a warning, and the
    windows take the spectral verdict (:func:`_spectral_window`).
    """
    a, b, c = p.a, p.b, p.c
    if a <= 0.5 or b <= 0.5:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            low = _sector_low(a, b, c)
        except OverflowError:
            return _OVERFLOWED
        ratio = a / b
        scale = 4.0 * a * b
        denom = scale - 4.0 * c * c
        gap = (np.sqrt(scale) + 1.0 / np.sqrt(scale)) ** 2 \
            - (np.sqrt(ratio) + 1.0 / np.sqrt(ratio)) ** 2
        radicand = c * c + 0.25 * scale * denom * (gap - 4.0 * c * c)
    if low <= SPD_TOL:
        return None
    if not all(map(math.isfinite, (low, ratio, scale, denom, gap, radicand))):
        return _OVERFLOWED
    root = np.sqrt(radicand) if radicand >= 0 else np.nan
    return ratio, denom, gap, root


def _spectral_window(p: CanonicalTwoModeParams, separable: bool) -> bool:
    """Window membership from the spectra of the built matrix: positive
    definite, :func:`~ginfo.symplectic.rsup_check` valid and, for the
    separable window, :func:`ppt_separable` on the matrix."""
    try:
        cvm = canonical_two_mode_cvm(p)
    except NumericDomainError:
        return False
    return rsup_check(cvm).valid and (not separable or ppt_separable(cvm).separable)


def in_quantum_region(p: CanonicalTwoModeParams) -> bool:
    """Closed-form membership test for physically admissible (a, b, c, d).

    The cap on ``c^2`` takes the larger of ``a/b`` and ``b/a``. Agreement with
    ``rsup_check`` on the built matrix is property-tested; the spectral check
    wins on any boundary disagreement, and decides where the entries are too
    large for the closed form.
    """
    window = _window_scalars(p)
    if window is None:
        return False
    if window is _OVERFLOWED:
        return _spectral_window(p, separable=False)
    ratio, denom, _, root = window
    c = p.c
    return bool(c * c < (4.0 * p.a * p.b - max(ratio, 1.0 / ratio)) / 4.0
                and (-c - root) / denom <= p.d <= (-c + root) / denom)


def in_separable_region(p: CanonicalTwoModeParams) -> bool:
    """Closed-form membership test for the separable window, ``c = 0`` included.

    :func:`ppt_separable` is authoritative on conflict, and decides on the
    built matrix where the entries are too large for the closed form. A
    ``selftest`` battery checks the two against each other away from the
    boundary.
    """
    window = _window_scalars(p)
    if window is None:
        return False
    if window is _OVERFLOWED:
        return _spectral_window(p, separable=True)
    _, denom, gap, root = window
    c = abs(p.c)
    return bool(2.0 * c < np.sqrt(max(gap, 0.0)) and abs(p.d) <= (root - c) / denom)


@functools.cache
def _sign_pattern(dim: int, ordering: Ordering) -> np.ndarray:
    """Read-only ``outer(s, s)`` for the signs ``s`` that flip party B's momenta.

    Party B holds the second half of the modes; ``ordering`` locates their
    momentum coordinates.
    """
    n_modes = dim // 2
    _, p = _xp_positions(n_modes, ordering)
    signs = np.ones(dim)
    signs[p[_party_size(n_modes):]] = -1.0
    pattern = np.outer(signs, signs)
    pattern.setflags(write=False)
    return pattern


def partial_transpose(sigma: CovarianceMatrix) -> CovarianceMatrix:
    """Flip the momentum coordinates of party B (mirror reflection).

    ``sigma`` must be a CovarianceMatrix, whose ordering locates the
    momenta; party B is the second half of its modes. The operation is
    an involution: applying it twice returns the input. The sign flips are
    exact, so the output keeps the symmetry and spectrum that passed when
    ``sigma`` was built and is not checked again.
    """
    if not isinstance(sigma, CovarianceMatrix):
        raise ValueError("partial_transpose needs a CovarianceMatrix, which names its ordering")
    m = sigma.matrix
    return _validated(m * _sign_pattern(len(m), sigma.ordering), sigma.ordering)


class PptResult(NamedTuple):
    """Verdict of :func:`ppt_separable`, an immutable named tuple."""

    separable: bool
    margin: float   # min post-reflection invariant minus 1


def ppt_separable(sigma: CovarianceMatrix | CanonicalTwoModeParams) -> PptResult:
    """Positive-partial-transpose separability verdict for a bipartite state.

    A separable Gaussian state stays a valid state after the mirror
    reflection of party B, so the verdict compares the reflected state's
    smallest invariant with the uncertainty threshold, at the slack of
    :func:`~ginfo.symplectic.rsup_check`: ``margin >= -RSUP_SLACK`` means
    separable. It has two routes:

    * a CovarianceMatrix: ``rsup_check`` on the reflected matrix
      (:func:`partial_transpose`), an eigensolver call;
    * a canonical state's parameters: closed form, in one straight pass of
      scalar arithmetic on the record's entries with no numpy call. The
      reflection maps (a, b, c, d) to (a, b, c, -d) exactly, so the invariant
      is ``_min_invariant(a, b, c, -d)``, written out here with the
      reflection folded into its signs, which changes no bit; a test pins
      the two copies together.
      The state must be positive definite: both sectors' low eigenvalues
      (:func:`_sector_low`) must exceed ``SPD_TOL``, else NumericDomainError
      as from :func:`~ginfo.symplectic.check_spd`. A sector's low eigenvalue
      is its determinant (``ab - c^2`` or ``ab - d^2``, whose product is
      ``det S``) over its high one, which is below ``2(a + b)``. So where
      both determinants exceed ``4 SPD_TOL (a + b)``, both lows exceed
      ``2 SPD_TOL`` and the check passes without them. Nearer the edge, and
      where an entry's size overflows the products (past ~1e77,
      ``det S ~ a^4``), :func:`_ppt_rescaled` takes the verdict.

    Both routes return a built-in ``bool`` and ``float``, also for entries
    that are numpy floats.
    """
    if isinstance(sigma, CanonicalTwoModeParams):
        a, b, c, d = sigma
        if not (type(a) is type(b) is type(c) is type(d) is float):
            a, b, c, d = map(float, sigma)   # numpy floats would warn on overflow
        ab = a * b
        det_c, det_d = ab - c * c, ab - d * d
        bound = 4.0 * SPD_TOL * (a + b)   # past it, both sector lows exceed 2 SPD_TOL
        if det_c > bound and det_d > bound:
            aa, bb = a * a, b * b
            skew = aa - bb
            disc = skew * skew + 4.0 * (a * c - b * d) * (b * c - a * d)
            if disc < 0.0:
                disc = 0.0
            nu = (8.0 * (det_c * det_d) / (aa + bb - 2.0 * c * d + disc ** 0.5)) ** 0.5
            if nu - nu == 0.0:    # finite
                return tuple.__new__(PptResult, (nu >= 1.0 - RSUP_SLACK, nu - 1.0))
        return _ppt_rescaled(a, b, c, d)
    result = rsup_check(partial_transpose(sigma))
    return PptResult(separable=result.valid, margin=result.min_invariant - 1.0)


def _ppt_rescaled(a: float, b: float, c: float, d: float) -> PptResult:
    """:func:`ppt_separable`'s closed form off its fast path, on ``(a, b, c, d) * 2^-k``.

    The fast path leaves a state near or past the edge of positive
    definiteness, where the sector lows decide, and one whose determinants
    or invariant came out non-finite because an entry's size overflowed a
    product. ``k`` is the exponent of ``max(a, b)``, floored at 0, so the
    scaling only shrinks and cannot overflow: the larger of the scaled
    ``a, b`` is below 1, and on a positive definite state ``|c|, |d|`` are
    smaller still, so no product overflows. The sector lows and ``nu_-`` are
    homogeneous of degree 1 and a power of two scales exactly: ``ldexp(., k)``
    gives them back at the state's own scale, bit for bit wherever nothing
    underflows, and the checks and the threshold apply there. A state that
    is no state raises NumericDomainError as on the fast path.
    """
    k = max(math.frexp(max(a, b))[1], 0)
    a, b, c, d = (math.ldexp(x, -k) for x in (a, b, c, d))
    low, low_d = _sector_low(a, b, c), _sector_low(a, b, d)
    _check_min_eigenvalue(math.ldexp(low_d if low_d < low else low, k))
    nu = math.ldexp(_min_invariant(a, b, c, -d), k)
    return PptResult(nu >= 1.0 - RSUP_SLACK, nu - 1.0)


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
                           quad_trace=quad_trace, criterion=criterion)
