"""Symmetric correlated pair of two-dimensional parties under a Bopp shift.

An 8-dimensional bipartite Gaussian family parametrized by two correlation
amplitudes (m, n) with radius R = hypot(m, n) < 1 and overall scale
b = (1 + R)/(1 - R). The family starts separable; a position-position /
momentum-momentum deformation of strengths (theta, eta) is applied as a
congruence and separability is re-examined through the mirror-reflection
spectrum.

Basis: parties are stacked as (x1, x2, p1, p2) per party, party A first.
The wrapper objects carry ``ordering=None`` for that reason; all kernels
here build their companions (form, reflection, shift) in the same basis.
The numeric spectrum is the authoritative verdict; the closed-form invariant
expressions are kept for comparison reports only, since they disagree with
the spectrum already in the undeformed limit.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericDomainError, SingularMatrixError
from .policy import DEFAULT_POLICY, NumericPolicy
from .symplectic import (
    J2,
    CovarianceMatrix,
    Ordering,
    SymplecticForm,
    ordering_permutation,
    symplectic_spectrum,
)

_SZ = np.diag([1.0, -1.0])


@dataclass(frozen=True)
class PairConfig:
    """Correlation amplitudes and deformation strengths of the pair."""

    m: float
    n: float
    theta: float = 0.0
    eta: float = 0.0

    def __post_init__(self):
        if self.radius >= 1.0:
            raise ValueError(f"correlation radius must stay below 1, got {self.radius}")

    @property
    def radius(self) -> float:
        return math.hypot(self.m, self.n)

    @property
    def scale(self) -> float:
        """Overall variance scale b = (1 + R)/(1 - R) > 1."""
        return (1.0 + self.radius) / (1.0 - self.radius)

    @property
    def hbar_effective(self) -> float:
        return 1.0 + self.theta * self.eta / 4.0


def party_form() -> SymplecticForm:
    """Undeformed commutation form of the pair in the party basis."""
    block = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
    m = np.zeros((8, 8))
    m[:4, :4] = block
    m[4:, 4:] = block
    return SymplecticForm(m, ordering=None)


def reflection_matrix() -> np.ndarray:
    """Mirror reflection of party B: flips its two momentum coordinates."""
    return np.diag([1.0, 1, 1, 1, 1, 1, -1, -1])


def party_to_interleaved() -> np.ndarray:
    """Permutation taking the party basis to the global interleaved basis."""
    block = ordering_permutation(2, Ordering.BLOCK_XP, Ordering.MODE_INTERLEAVED)
    out = np.zeros((8, 8))
    out[:4, :4] = block
    out[4:, 4:] = block
    return out


def pair_cvm(cfg: PairConfig, policy: NumericPolicy = DEFAULT_POLICY) -> CovarianceMatrix:
    """Covariance matrix ``(b/2) [[I, gamma], [gamma, I]]`` of the pair.

    ``gamma = [[n I, m sz], [m sz, -n I]]`` couples the parties; it is
    symmetric with eigenvalues +-R, so the matrix is SPD for every R < 1.
    """
    gamma = np.block([[cfg.n * np.eye(2), cfg.m * _SZ],
                      [cfg.m * _SZ, -cfg.n * np.eye(2)]])
    m = cfg.scale / 2.0 * np.block([[np.eye(4), gamma.T], [gamma, np.eye(4)]])
    return CovarianceMatrix(m, ordering=None, policy=policy)


@dataclass(frozen=True, eq=False)
class BoppShift:
    matrix: np.ndarray        # 8x8 congruence transform
    form: SymplecticForm      # deformed commutation form S Omega S^T


def bopp_shift(cfg: PairConfig) -> BoppShift:
    """Deformation congruence and the commutation form it induces.

    Per party the transform is ``[[I, -(theta/2) J2], [(eta/2) J2, I]]`` on
    (x1, x2, p1, p2); the induced form has ``theta J2`` and ``eta J2`` corner
    blocks and ``hbar_effective I`` cross blocks.
    """
    if abs(1.0 - cfg.theta * cfg.eta / 4.0) < 1e-14:
        raise SingularMatrixError("shift is singular at theta*eta = 4")
    party = np.block([[np.eye(2), -cfg.theta / 2.0 * J2],
                      [cfg.eta / 2.0 * J2, np.eye(2)]])
    s = np.zeros((8, 8))
    s[:4, :4] = party
    s[4:, 4:] = party
    omega = party_form().matrix
    deformed = s @ omega @ s.T
    return BoppShift(matrix=s,
                     form=SymplecticForm(0.5 * (deformed - deformed.T), ordering=None))


@dataclass(frozen=True, eq=False)
class PtSpectrum:
    invariants: np.ndarray   # four values, ascending
    min_invariant: float


def deformed_pt_spectrum(cfg: PairConfig,
                         policy: NumericPolicy = DEFAULT_POLICY) -> PtSpectrum:
    """Mirror-reflection spectrum of the deformed pair (authoritative path).

    Applies the shift to the state, reflects party B, and returns the
    symplectic invariants with respect to the deformed form. A minimum below
    1 certifies entanglement.
    """
    shift = bopp_shift(cfg)
    state = pair_cvm(cfg, policy).matrix
    deformed = shift.matrix @ state @ shift.matrix.T
    refl = reflection_matrix()
    reflected = refl @ deformed @ refl.T
    invariants = symplectic_spectrum(0.5 * (reflected + reflected.T), shift.form, policy)
    return PtSpectrum(invariants=invariants, min_invariant=float(invariants[0]))


def separability_margin(cfg: PairConfig,
                        policy: NumericPolicy = DEFAULT_POLICY) -> float:
    """Minimum reflected invariant minus one; nonnegative means separable."""
    return deformed_pt_spectrum(cfg, policy).min_invariant - 1.0


# ---------------------------------------------------------------------------
# closed-form invariants (report-only)

@dataclass(frozen=True, eq=False)
class ClosedFormSpectrum:
    """Closed-form reflected invariants and their deviation from the spectrum.

    ``values`` are the four assembled squared invariants, ``roots`` their
    square roots (to be scaled by b). ``oracle_deviation`` is the maximum
    relative disagreement with :func:`deformed_pt_spectrum`; it is reported,
    never asserted, because the closed-form expressions are unreliable.
    """

    coeff_const: float
    coeff_sqrt: float
    coeff_inner: float
    coeff_skew: float
    values: np.ndarray       # assembled order: largest combination first
    roots: np.ndarray
    scaled: np.ndarray       # b * roots
    oracle_deviation: float


def closed_form_coefficients(cfg: PairConfig) -> tuple[float, float, float, float]:
    """The four coefficient combinations entering the closed-form invariants."""
    t, e = cfg.theta, cfg.eta
    he = cfg.hbar_effective
    det_s = (1.0 - t * e / 4.0) ** 4
    det_party = (1.0 - t * e / 4.0) ** 2
    rsq = cfg.radius ** 2
    const = (t * t + he * he) * (e * e + he * he) / det_s \
        + (t * e + he * he) * rsq / det_party
    under_sqrt = he ** 4 / det_s ** 2 * ((t + e) ** 2 + 4.0 * det_party * rsq)
    inner = he ** 4 / (4.0 * det_s ** 2) * (
        16.0 * t * e * det_s * (cfg.m ** 4 + cfg.n ** 4)
        + 16.0 * det_party * (1.0 + 0.5 * (t * t + e * e) * (t * e + 3.0 * he * he)
                              + t * t * e * e / 256.0 * (30.0 + (4.0 + t * e / 4.0) ** 2)) * rsq
        + 2.0 * t * e * det_party * cfg.m ** 2 * cfg.n ** 2
        + 8.0 * (t + e) ** 2 * (t * t + he * he) * (e * e + he * he))
    skew = -(t + e) ** 2 * he ** 4 / (4.0 * det_s ** 3) \
        * ((t + e) ** 2 + 4.0 * det_party * rsq)
    return const, under_sqrt, inner, skew


def closed_form_spectrum(cfg: PairConfig,
                         policy: NumericPolicy = DEFAULT_POLICY) -> ClosedFormSpectrum:
    """Assemble the closed-form invariants and compare them with the spectrum."""
    const, under_sqrt, inner, skew = closed_form_coefficients(cfg)
    if under_sqrt < 0:
        raise NumericDomainError(f"leading radicand negative ({under_sqrt:.3e}) at {cfg}")
    lead = math.sqrt(under_sqrt)
    tilt = skew / (4.0 * lead) if lead > 0 else 0.0
    inner_minus = inner - tilt
    inner_plus = inner + tilt
    if inner_minus < 0 or inner_plus < 0:
        raise NumericDomainError(
            f"inner radicand negative (minus branch {inner_minus:.3e}, "
            f"plus branch {inner_plus:.3e}) at {cfg}")
    values = np.array([
        const + lead / 2.0 + math.sqrt(inner_minus) / 2.0,
        const + lead / 2.0 - math.sqrt(inner_minus) / 2.0,
        const - lead / 2.0 + math.sqrt(inner_plus) / 2.0,
        const - lead / 2.0 - math.sqrt(inner_plus) / 2.0,
    ])
    if values.min() < 0:
        raise NumericDomainError(f"assembled invariant came out negative at {cfg}")
    roots = np.sqrt(values)
    scaled = cfg.scale * roots
    oracle = deformed_pt_spectrum(cfg, policy).invariants
    deviation = float(np.max(np.abs(np.sort(scaled) - oracle) / oracle))
    return ClosedFormSpectrum(coeff_const=const, coeff_sqrt=under_sqrt,
                              coeff_inner=inner, coeff_skew=skew,
                              values=values, roots=roots, scaled=scaled,
                              oracle_deviation=deviation)


def limiting_min_invariant(t: float, radius: float) -> float:
    """Single-parameter limit of the smallest closed-form invariant.

    Equals the fourth assembled value when the other deformation parameter is
    sent to zero; the same function of either parameter, which is why a sweep
    over one of them suffices.
    """
    root = math.sqrt(t * t + 4.0 * radius ** 2)
    inner = 32.0 * (2.0 + 3.0 * t * t) * radius ** 2 \
        + t * t * (32.0 * (1.0 + t * t) - root)
    return (1.0 + t * t + radius ** 2) - 0.5 * root - 0.125 * math.sqrt(inner)


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


def _thread_count(grid_size: int) -> int:
    raw = os.environ.get("GINFO_NUM_THREADS", "1")
    try:
        count = int(raw)
    except ValueError:
        count = 1
    return max(1, min(count, grid_size))


def theta_sweep(cfg_base: PairConfig, theta_grid,
                bisect_tol: float = 1e-6,
                policy: NumericPolicy = DEFAULT_POLICY) -> SweepResult:
    """Margin table over a grid of deformation strengths.

    One row per theta value (eta and the correlations fixed by ``cfg_base``),
    sorted ascending. When the margin changes sign between neighbours, the
    crossing is refined by bisection to ``bisect_tol``. Grid evaluation may
    be parallelized with the GINFO_NUM_THREADS environment variable; the
    result is assembled by index and independent of scheduling.
    """
    grid = sorted(float(t) for t in theta_grid)
    if not grid:
        raise ValueError("theta grid is empty")
    if grid[0] <= 0.0 or grid[-1] >= 1.0:
        raise ValueError("theta grid must lie strictly inside (0, 1)")

    def margin_at(t: float) -> float:
        return separability_margin(replace(cfg_base, theta=t), policy)

    workers = _thread_count(len(grid))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            margins = list(pool.map(margin_at, grid))
    else:
        margins = [margin_at(t) for t in grid]

    rows = tuple(SweepRow(theta=t, min_invariant=m + 1.0, margin=m)
                 for t, m in zip(grid, margins))
    crossing = None
    for (t_lo, m_lo), (t_hi, m_hi) in zip(zip(grid, margins), zip(grid[1:], margins[1:])):
        if m_lo >= 0.0 > m_hi or m_lo < 0.0 <= m_hi:
            crossing = _bisect_margin(margin_at, t_lo, t_hi, m_lo, bisect_tol)
            break
    return SweepResult(rows=rows, crossing_theta=crossing)


def _bisect_margin(margin_at, lo: float, hi: float, margin_lo: float,
                   tol: float) -> float:
    lo_nonneg = margin_lo >= 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if (margin_at(mid) >= 0.0) == lo_nonneg:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
