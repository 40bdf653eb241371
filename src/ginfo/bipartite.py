"""Symmetric correlated pair of two-dimensional parties under a Bopp shift.

An 8-dimensional bipartite Gaussian family parametrized by two correlation
amplitudes (m, n) with radius R = hypot(m, n) < 1 and overall scale
b = (1 + R)/(1 - R). The family starts separable; a position-position /
momentum-momentum deformation of strengths (theta, eta) is applied as a
congruence and separability is re-examined through the mirror-reflection
spectrum.

Basis: ``Ordering.PARTY_BLOCK_XP``, i.e. (x1, x2, p1, p2) per party, party A
first. The pair state, the shift and its deformed form are all in this basis,
so a pair state can be written to a matrix file and its undeformed form and
mirror reflection come from the ordering like those of every other state.
The numeric spectrum is the authoritative verdict and drives the sweeps;
:func:`pair_boundary` gives the same verdict in closed form, as an
independent check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import SingularMatrixError
from .policy import BISECT_TOL
from .states import partial_transpose
from .symplectic import (
    J2,
    CovarianceMatrix,
    Ordering,
    SymplecticForm,
    _check_finite,
    _check_singular_values,
    _validated,
    _validated_form,
    build_symplectic_form,
    symplectic_spectrum,
)


@dataclass(frozen=True)
class PairConfig:
    """Correlation amplitudes and deformation strengths of the pair.

    The Bopp shift is singular at ``theta * eta = 4``; the pair needs ``theta * eta < 4``.
    """

    m: float
    n: float
    theta: float = 0.0
    eta: float = 0.0

    def __post_init__(self):
        _check_finite("m, n, theta and eta", self.m, self.n, self.theta, self.eta)
        if self.radius >= 1.0:
            raise ValueError(f"correlation radius must stay below 1, got {self.radius}")
        if self.theta * self.eta >= 4.0:
            raise SingularMatrixError(
                "deformation too strong: the Bopp shift is singular at theta*eta = 4, "
                f"got theta*eta = {self.theta * self.eta:g}")

    @property
    def radius(self) -> float:
        return math.hypot(self.m, self.n)

    @property
    def scale(self) -> float:
        """Overall variance scale b = (1 + R)/(1 - R) > 1."""
        return (1.0 + self.radius) / (1.0 - self.radius)


def pair_cvm(cfg: PairConfig) -> CovarianceMatrix:
    """Covariance matrix ``(b/2) [[I, gamma], [gamma, I]]`` of the pair.

    ``gamma = [[n I, m sz], [m sz, -n I]]`` couples the parties; it is
    symmetric with eigenvalues +-R, so the matrix is symmetric by construction
    and its eigenvalues ``(b/2)(1 +- R)`` are at least ``(1 + R)/2 >= 1/2``
    for every R < 1. It is wrapped without a numeric SPD check. The state does
    not depend on theta or eta, so it is built once per ``(m, n)`` and shared
    read-only.
    """
    return _pair_state(cfg.m, cfg.n)


@functools.lru_cache(maxsize=32)
def _pair_state(m: float, n: float) -> CovarianceMatrix:
    half_b = PairConfig(m, n).scale / 2.0
    # where gamma's entries n, n, -n, -n, m, -m, m, -m sit in the lower-left block
    rows, cols = [4, 5, 6, 7, 4, 5, 6, 7], [0, 1, 2, 3, 2, 3, 0, 1]
    state = half_b * np.eye(8)
    state[rows, cols] = state[cols, rows] = half_b * np.array([n, n, -n, -n, m, -m, m, -m])
    return _validated(state, Ordering.PARTY_BLOCK_XP)


@dataclass(frozen=True, eq=False)
class BoppShift:
    matrix: np.ndarray        # 8x8 congruence transform
    form: SymplecticForm      # deformed commutation form S Omega S^T


def bopp_shift(cfg: PairConfig) -> BoppShift:
    """Deformation congruence and the commutation form it induces.

    Per party the transform is ``[[I, -(theta/2) J2], [(eta/2) J2, I]]`` on
    (x1, x2, p1, p2); the induced form has ``theta J2`` and ``eta J2`` corner
    blocks and ``(1 + theta eta / 4) I`` cross blocks. ``PairConfig`` keeps
    ``theta eta < 4``, where the shift is invertible. The form is decided
    invertible by the ``SINGULAR_RCOND`` rule on its singular values, which
    are known in closed form (:func:`_form_singular_values`), and wrapped
    without the SVD and the antisymmetry check of the ``SymplecticForm``
    constructor: ``0.5 (F - F^T)`` is antisymmetric by construction.
    """
    _check_singular_values(*_form_singular_values(cfg.theta, cfg.eta), "symplectic form")
    s = np.eye(8)
    s[0:2, 2:4] = s[4:6, 6:8] = -cfg.theta / 2.0 * J2
    s[2:4, 0:2] = s[6:8, 4:6] = cfg.eta / 2.0 * J2
    deformed = s @ build_symplectic_form(4, Ordering.PARTY_BLOCK_XP).matrix @ s.T
    return BoppShift(matrix=s, form=_validated_form(0.5 * (deformed - deformed.T),
                                                    Ordering.PARTY_BLOCK_XP))


def _form_singular_values(theta: float, eta: float) -> tuple[float, float]:
    """Smallest and largest singular value of the Bopp-shifted form, in closed form.

    Each party's block ``[[theta J2, k I], [-k I, eta J2]]``, ``k = 1 + theta eta/4``,
    is the complex 2x2 matrix ``[[i theta, k], [-k, i eta]]`` with ``J2``
    acting as ``i``, so the form's singular values are that matrix's two,
    four times each. Its determinant is ``k^2 - theta eta = h^2`` with
    ``h = 1 - theta eta / 4`` and its squared Frobenius norm is
    ``theta^2 + eta^2 + 2 k^2``; so the sum and the difference of the two
    singular values are ``hypot(theta - eta, 2k)`` and ``|theta + eta|``.
    The largest is their mean, and the smallest ``h^2`` over it, taken as
    ``h (h / s_max)``, which cancels nothing and cannot overflow
    (``h <= s_max``). A ``theta eta`` past the float range gives NaN.
    """
    p = theta * eta
    h = 1.0 - p / 4.0
    s_max = 0.5 * (math.hypot(theta - eta, 2.0 + p / 2.0) + abs(theta + eta))
    return h * (h / s_max), s_max


@dataclass(frozen=True, eq=False)
class PtSpectrum:
    invariants: np.ndarray   # four values, ascending
    min_invariant: float


def deformed_pt_spectrum(cfg: PairConfig) -> PtSpectrum:
    """Mirror-reflection spectrum of the deformed pair (authoritative path).

    Applies the shift to the state, reflects party B (``partial_transpose``)
    and returns the symplectic invariants with respect to the deformed form.
    A minimum below 1 certifies entanglement.
    """
    shift = bopp_shift(cfg)
    state = pair_cvm(cfg).matrix
    deformed = shift.matrix @ state @ shift.matrix.T
    reflected = partial_transpose(CovarianceMatrix(0.5 * (deformed + deformed.T),
                                                   Ordering.PARTY_BLOCK_XP))
    invariants = symplectic_spectrum(reflected, shift.form)
    return PtSpectrum(invariants=invariants, min_invariant=float(invariants[0]))


def separability_margin(cfg: PairConfig) -> float:
    """Minimum reflected invariant minus one; nonnegative means separable."""
    return deformed_pt_spectrum(cfg).min_invariant - 1.0


def pair_boundary(cfg: PairConfig) -> tuple[float, float]:
    """Exact separability boundary ``(F_plus, F_minus)``; separable iff both >= 0.

    With ``R = hypot(m, n)``, ``s = theta + eta`` and ``p = theta * eta``::

        P = R (R + 2) (R + 3) (R^2 + R + 2)
        Q = (R + 1) (R^2 + 3 R + 4)
        T = R (R^4 + 6 R^3 + 21 R^2 + 32 R + 20)
        F+- = P (p^2 + 16) +- 8 Q s (p + 4) - 8 T p

    Derivation, following the partial-transpose step of Simon, PRL 84, 2726
    (2000): with ``Sigma' = S Sigma S^T``, ``Omega' = S Omega S^T`` and the
    reflection ``M`` that flips party B's momenta, the characteristic
    polynomial of ``(Omega'^-1 M Sigma' M)^2`` is the square of a quartic
    ``q(lambda)`` whose roots are ``-nu_k^2 / 4`` for the four reflected
    invariants nu_k, and whose coefficients depend on (m, n) only through R.
    At the threshold nu = 1, i.e. lambda = -1/4, it factors as
    ``q(-1/4) = R^2 F_plus F_minus / (4^8 (1 - R)^4 (1 - p/4)^4)``, so a sign
    change of either factor is an invariant crossing 1. Both factors equal
    16 P > 0 at theta = eta = 0. At eta = 0 the crossing is
    ``theta* = P / (2 Q)``.

    Checked against the sign of :func:`separability_margin` on 3,000 seeded
    points with R in (0.005, 0.97), a random (m, n) angle and theta, eta in
    (-1.9, 1.9), 1,797 of them entangled: no verdict differs, at most one
    invariant is below 1 at any point, and the factorization of ``q(-1/4)``
    holds to 8.7e-13 relative.
    """
    r = cfg.radius
    s = cfg.theta + cfg.eta
    p = cfg.theta * cfg.eta
    big_p = r * (r + 2.0) * (r + 3.0) * (r * r + r + 2.0)
    big_q = (r + 1.0) * (r * r + 3.0 * r + 4.0)
    big_t = r * (r ** 4 + 6.0 * r ** 3 + 21.0 * r * r + 32.0 * r + 20.0)
    even = big_p * (p * p + 16.0) - 8.0 * big_t * p
    odd = 8.0 * big_q * s * (p + 4.0)
    return even + odd, even - odd


# ---------------------------------------------------------------------------
# sweeps

@dataclass(frozen=True)
class SweepRow:
    theta: float
    min_invariant: float
    margin: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    crossing_theta: float | None


def theta_sweep(cfg_base: PairConfig, theta_grid) -> SweepResult:
    """Margin table over a grid of deformation strengths.

    One row per theta value (eta and the correlations fixed by ``cfg_base``),
    sorted ascending. When the margin changes sign between neighbours, the
    crossing is refined by bisection to ``policy.BISECT_TOL``.
    """
    grid = sorted(float(t) for t in theta_grid)
    if not grid:
        raise ValueError("theta grid is empty")
    if grid[0] <= 0.0 or grid[-1] >= 1.0:
        raise ValueError("theta grid must lie strictly inside (0, 1)")

    def margin_at(t: float) -> float:
        return separability_margin(replace(cfg_base, theta=t))

    margins = [margin_at(t) for t in grid]
    rows = tuple(SweepRow(theta=t, min_invariant=m + 1.0, margin=m)
                 for t, m in zip(grid, margins))
    crossing = None
    for (t_lo, m_lo), (t_hi, m_hi) in zip(zip(grid, margins), zip(grid[1:], margins[1:])):
        if m_lo >= 0.0 > m_hi or m_lo < 0.0 <= m_hi:
            crossing = _bisect_margin(margin_at, t_lo, t_hi, m_lo)
            break
    return SweepResult(rows=rows, crossing_theta=crossing)


def _bisect_margin(margin_at, lo: float, hi: float, margin_lo: float) -> float:
    lo_nonneg = margin_lo >= 0.0
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if (margin_at(mid) >= 0.0) == lo_nonneg:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
