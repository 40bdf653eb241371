"""Two-mode Gaussian states: canonical form, physicality and separability.

The canonical family is the standard block form ``[[a I, C], [C, b I]]`` with
``C = diag(c, d)`` in the mode-interleaved basis (x1, p1, x2, p2): mode 1 has
variances (a, a), mode 2 has (b, b), and c, d are the x-x and p-p cross
correlations. Membership tests for the physical and separable parameter
regions follow their closed-form windows, signs that build no matrix at any
scale; the verdicts on the state's invariants (:func:`ginfo.symplectic.rsup_check`,
:func:`ppt_separable`) are authoritative whenever the two disagree on a boundary.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

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
    ``_make`` and ``_replace`` skip the checks, and so does
    :func:`_validated_records`, for rows that a caller has already checked.
    """

    __slots__ = ()

    def __new__(cls, a, b, c=0.0, d=0.0):
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c) and math.isfinite(d)):
            _check_finite("a, b, c and d", a, b, c, d)   # raises, naming all four
        if a <= 0 or b <= 0:
            raise ValueError(f"diagonal entries must be positive, got a={a}, b={b}")
        return tuple.__new__(cls, (a, b, c, d))


def _validated_records(columns) -> list[CanonicalTwoModeParams]:
    """Records of the rows of four columns (a, b, c, d), unchecked.

    The caller vouches for every row: finite entries with ``a, b > 0``, as
    the volume gate has shown of each physical draw. The entries are taken
    as they are, so columns of Python floats give records of Python floats.
    """
    return list(map(tuple.__new__, repeat(CanonicalTwoModeParams), zip(*columns)))


def _canonical_matrices(rows) -> np.ndarray:
    """``(..., 4, 4)`` canonical matrices of ``(..., 4)`` rows (a, b, c, d), unvalidated."""
    a, b, c, d = np.moveaxis(np.asarray(rows, dtype=float), -1, 0)
    out = np.zeros(a.shape + (4, 4))
    out[..., 0, 0] = out[..., 1, 1] = a
    out[..., 2, 2] = out[..., 3, 3] = b
    out[..., 0, 2] = out[..., 2, 0] = c
    out[..., 1, 3] = out[..., 3, 1] = d
    return out


def _sector_eigenvalues(a, b, c):
    """``(low, high)`` eigenvalues of the sector ``[[a, c], [c, b]]``, on floats or arrays.

    The canonical matrix splits into the x sector (c) and the p sector (d).
    The high eigenvalue is ``(a + b)/2 + hypot((a - b)/2, c)``, which adds two
    nonnegative terms, and the low one is the determinant over it, so it
    takes no difference of two nearly equal roots. On Python floats the
    results are numpy floats, with the same bits as on arrays.
    """
    high = 0.5 * (a + b) + np.hypot(0.5 * (a - b), c)
    return (a * b - c * c) / high, high


# past 2^254, a product of degree 4 in a state's entries (up to 16 max(a, b)^4) may overflow
_LARGE = 2.0 ** 254


def _scaling(a, b):
    """Exponents ``(k, m)`` that keep canonical invariants in range, on floats or arrays.

    None where every ``max(a, b)`` is below ``_LARGE``. Else, on the rows at
    or past it (0 on the others), ``k`` is the mean ``frexp`` exponent of
    ``a`` and ``b``, so ``ab 2^-2k`` lies in [1/4, 2) even with ``b << a``,
    and ``m`` that of ``max(a, b)``, so the entries times ``2^-m`` lie below 1.
    """
    top = np.maximum(a, b)
    large = top >= _LARGE
    if large.any():
        return (np.frexp(a)[1] + np.frexp(b)[1]) // 2 * large, np.frexp(top)[1] * large
    return None


def _min_eigenvalue(a, b, c, d):
    """Smallest eigenvalue, the lower sector low, of canonical (a, b, c, d) at any scale."""
    scaling = _scaling(a, b)
    if scaling is not None:
        k = scaling[0]
        a, b, c, d = (np.ldexp(x, -k) for x in (a, b, c, d))
    low = np.minimum(_sector_eigenvalues(a, b, c)[0], _sector_eigenvalues(a, b, d)[0])
    return low if scaling is None else np.ldexp(low, k)


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
    verdicts that the eigenvalue route gets right.

    The state must be positive definite. Where :func:`_scaling` finds large
    entries, ``det S`` is taken on them times ``2^-k`` and ``Delta + sqrt(D)``
    times ``2^-m``, and ``nu_-`` is the root of the quotient times
    ``2^(2k - m)``: nothing overflows, even with ``a/b`` past ~1e154, and on
    arrays the powers of two keep every bit wherever the unscaled form is in
    range. ``disc * (disc > 0)`` sets a discriminant that rounding left below
    0 to 0, and ``x ** 0.5`` is numpy's ``sqrt`` on arrays and within an ulp
    of it on floats.
    """
    scaling = _scaling(a, b)
    at_k = at_m = (a, b, c, d)
    if scaling is not None:
        k, m = scaling
        at_k = [np.ldexp(x, -k) for x in at_k]
        at_m = [np.ldexp(x, -m) for x in at_m]
    a, b, c, d = at_k
    det = (a * b - c * c) * (a * b - d * d)
    a, b, c, d = at_m
    skew = a * a - b * b
    disc = skew * skew + 4.0 * (a * c + b * d) * (a * d + b * c)
    disc = disc * (disc > 0.0)
    nu = (8.0 * det / (a * a + b * b + 2.0 * c * d + disc ** 0.5)) ** 0.5
    return nu if scaling is None else np.ldexp(nu, 2 * k - m)


def canonical_two_mode_matrix(p: CanonicalTwoModeParams) -> np.ndarray:
    """Raw 4x4 canonical matrix, without the SPD validation."""
    return _canonical_matrices((p.a, p.b, p.c, p.d))


def canonical_two_mode_cvm(p: CanonicalTwoModeParams) -> CovarianceMatrix:
    """Canonical two-mode covariance matrix (mode-interleaved ordering)."""
    return CovarianceMatrix(canonical_two_mode_matrix(p), ordering=Ordering.MODE_INTERLEAVED)


def _uncertainty_window(a: float, b: float, c: float, d: float) -> bool:
    """Whether canonical (a, b, c, d) is a state whose invariants are both at least 1.

    Outside are ``a`` or ``b`` at most 1/2, and an x sector whose low
    eigenvalue is at most ``SPD_TOL`` (the volume gate's rule). Inside, the
    squared invariants are the roots of ``x^2 - 4 Delta x + 16 det S``, so
    both are at least 1 where ``16 det S - 4 Delta + 1`` and ``Delta - 1/2``
    are nonnegative. These are ``16 (x y - e/4)`` and ``x + y + e`` for
    ``x, y = ab - 1/4 - c^2, ab - 1/4 - d^2``, ``e = (a - b)^2 + (c + d)^2``
    and ``ab - 1/4 = uv + (u + v)/2``, ``u, v = a - 1/2, b - 1/2``
    (``tests/reference/canonical_windows.py``), which keep their digits near
    the vacuum, where the polynomial's terms cancel far below the rounding
    of 1. The signs are taken on ``(a, b, c, d) * 2^-k``, 1/2 on ``2^-k/2``,
    ``k`` the mean exponent of ``a`` and ``b``: the scaled ``ab`` lies in
    [1/4, 2), so no product of a state overflows, even with ``b << a``.
    """
    if a <= 0.5 or b <= 0.5:
        return False
    k = (math.frexp(a)[1] + math.frexp(b)[1]) // 2
    a, b, c, d = (math.ldexp(x, -k) for x in (a, b, c, d))
    if math.ldexp(_sector_eigenvalues(a, b, c)[0], k) <= SPD_TOL:
        return False
    h = math.ldexp(0.5, -k)
    u, v = a - h, b - h
    excess = u * v + (u + v) * h
    x, y = excess - c * c, excess - d * d
    e = (a - b) * (a - b) + (c + d) * (c + d)
    return x * y >= e * h * h and x + y + e >= 0.0


def in_quantum_region(p: CanonicalTwoModeParams) -> bool:
    """Closed-form membership test for physically admissible (a, b, c, d).

    The uncertainty window (:func:`_uncertainty_window`); ``rsup_check`` on
    the built matrix wins on any boundary disagreement (property-tested).
    """
    return _uncertainty_window(*p)


def in_separable_region(p: CanonicalTwoModeParams) -> bool:
    """Closed-form membership test for the separable window, ``c = 0`` included.

    The state and its mirror reflection ``d -> -d`` both lie in the
    uncertainty window (:func:`_uncertainty_window`). :func:`ppt_separable`
    is authoritative on conflict; a ``selftest`` battery checks the two
    against each other away from the boundary.
    """
    return _uncertainty_window(*p) and _uncertainty_window(p.a, p.b, p.c, -p.d)


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
    * a canonical state's parameters: closed form, ``_min_invariant(a, b, c, -d)``
      (the reflection maps d to -d exactly). Its fast path writes it out in
      scalar arithmetic with no numpy call, the reflection folded into its
      signs, which changes no bit (a test pins the copies together), and skips
      the SPD check where both sector determinants exceed ``4 SPD_TOL (a + b)``:
      a sector's low eigenvalue is its determinant over its high one, below
      ``2(a + b)``. Any other state, and one whose products overflow (past
      ~1e77), takes the scale-free check (:func:`_min_eigenvalue` above
      ``SPD_TOL``, else NumericDomainError as from ``check_spd``), then ``_min_invariant``.

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
            nu = (8.0 * (det_c * det_d) / (aa + bb - 2.0 * c * d
                                           + (disc if disc > 0.0 else 0.0) ** 0.5)) ** 0.5
            # an overflowed skew^2 would give nu = 0, finite
            if nu - nu == 0.0 and disc < math.inf:
                return tuple.__new__(PptResult, (nu >= 1.0 - RSUP_SLACK, nu - 1.0))
        _check_min_eigenvalue(_min_eigenvalue(a, b, c, d))
        nu = float(_min_invariant(a, b, c, -d))
        return tuple.__new__(PptResult, (nu >= 1.0 - RSUP_SLACK, nu - 1.0))
    result = rsup_check(partial_transpose(sigma))
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
