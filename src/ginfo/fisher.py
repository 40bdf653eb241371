"""Fisher information geometry of Gaussian states.

Closed-form metric for the canonical two-mode family, a finite-difference
route for arbitrary parametrized families, the affine-invariant distance
between covariance matrices (two independent computations), the two-parameter
normal-form metric, and a regularized Monte-Carlo volume over constrained
parameter regions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, NumericDomainError
from .policy import FD_STEP, RSUP_SLACK, SECTOR_GAP_TOL, SPD_TOL, VANISHING_TOL
from .states import CanonicalTwoModeParams, ppt_separable
from .symplectic import (
    CovarianceMatrix,
    Ordering,
    as_matrix,
    build_symplectic_form,
    _check_finite,
    _check_spd_matrix,
    _validated,
    generalized_eigenvalues,
    rsup_check,  # noqa: F401  -- part of this namespace; bench/selftest.py traces it here
)


@dataclass(frozen=True, eq=False)
class FisherMetric:
    """Information matrix at a parameter point."""

    matrix: np.ndarray
    parameter_names: tuple[str, ...]
    point: tuple[float, ...]


def fisher_metric_numeric(sigma_fn, point) -> FisherMetric:
    """Fisher matrix by central differences of a covariance-matrix family.

    Evaluates ``g_mn = Tr[S^-1 dS_m S^-1 dS_n] / 2`` with the partial
    derivatives taken by central differences of ``sigma_fn`` around ``point``,
    of step ``policy.FD_STEP``. The parameters are named ``theta0, theta1, ...``.

    Args:
        sigma_fn: map from a parameter vector to an SPD matrix.
        point: parameter values at which to evaluate.
    """
    theta = np.asarray(point, dtype=float)
    m = theta.size
    center = _check_spd_matrix(sigma_fn(theta))
    inv = np.linalg.inv(center)
    partials = []
    for mu in range(m):
        offset = np.zeros(m)
        offset[mu] = FD_STEP
        hi = _check_spd_matrix(sigma_fn(theta + offset))
        lo = _check_spd_matrix(sigma_fn(theta - offset))
        partials.append((hi - lo) / (2.0 * FD_STEP))
    g = np.empty((m, m))
    for mu in range(m):
        left = inv @ partials[mu] @ inv
        for nu in range(mu, m):
            g[mu, nu] = 0.5 * np.trace(left @ partials[nu])
            g[nu, mu] = g[mu, nu]
    return FisherMetric(matrix=0.5 * (g + g.T),
                        parameter_names=tuple(f"theta{i}" for i in range(m)), point=tuple(theta))


def _deltas(p: CanonicalTwoModeParams) -> tuple[float, float, float]:
    dc = p.a * p.b - p.c * p.c
    dd = p.a * p.b - p.d * p.d
    if dc <= 0 or dd <= 0:
        raise NumericDomainError(f"state is singular or indefinite: ab-c^2={dc:.3e}, ab-d^2={dd:.3e}")
    return dc, dd, dc * dd


def fisher_metric_two_mode(p: CanonicalTwoModeParams) -> FisherMetric:
    """Closed-form Fisher matrix of the canonical family in (a, b, c, d).

    At c = d = 0 this is the flat metric diag(1/a^2, 1/b^2, 1/ab, 1/ab).
    """
    a, b, c, d = p.a, p.b, p.c, p.d
    dc, dd, ds = _deltas(p)
    skew = (c * c - d * d) ** 2
    g = np.zeros((4, 4))
    g[0, 0] = b * b / ds * (1.0 + skew / (2.0 * ds))
    g[1, 1] = a * a / ds * (1.0 + skew / (2.0 * ds))
    g[0, 1] = (c * c + d * d) / (2.0 * ds) + a * b * skew / (2.0 * ds * ds)
    g[0, 2] = -b * c / dc ** 2
    g[0, 3] = -b * d / dd ** 2
    g[1, 2] = -a * c / dc ** 2
    g[1, 3] = -a * d / dd ** 2
    g[2, 2] = (a * b + c * c) / dc ** 2
    g[2, 3] = 0.0
    g[3, 3] = (a * b + d * d) / dd ** 2
    g = g + np.triu(g, 1).T
    return FisherMetric(matrix=g, parameter_names=("a", "b", "c", "d"),
                        point=(a, b, c, d))


def fisher_det_two_mode(p: CanonicalTwoModeParams) -> float:
    """Closed-form determinant of the two-mode Fisher matrix."""
    _, _, ds = _deltas(p)
    a, b, c, d = p.a, p.b, p.c, p.d
    return (4.0 * a * a * b * b - (c * c + d * d) ** 2) / (4.0 * ds ** 3)


def pure_state_det_ratio(p: CanonicalTwoModeParams) -> dict:
    """Determinant at the pure-state slice d = -c versus its tempting shortcut.

    The shortcut ``(ab + c^2)/(ab - c^2)`` is off by a factor
    ``(ab - c^2)^4`` against the actual determinant, so both values and their
    ratio are returned instead of silently picking one.
    """
    pure = CanonicalTwoModeParams(p.a, p.b, p.c, -p.c)
    full = fisher_det_two_mode(pure)
    dc = p.a * p.b - p.c * p.c
    shortcut = (p.a * p.b + p.c * p.c) / dc
    return {"determinant": full, "simple_ratio": shortcut, "ratio": full / shortcut}


def fr_distance(sigma1, sigma2, dim_scaled: bool = False) -> float:
    """Affine-invariant distance between two SPD covariance matrices.

    ``sqrt(pref * sum_j log^2 lam_j)`` over the generalized eigenvalues of
    the pair. The default prefactor is 1/2; ``dim_scaled=True`` selects the
    alternative (dim/2) normalization, exposed separately because the two
    differ for more than one mode and must never be silently mixed.
    """
    lam = generalized_eigenvalues(sigma1, sigma2)
    pref = lam.size / 2.0 if dim_scaled else 0.5
    return float(np.sqrt(pref * np.sum(np.log(lam) ** 2)))


def _canonical_eigvals(p: CanonicalTwoModeParams) -> tuple[float, float, float, float]:
    trace = 2.0 * (p.a + p.b)
    dc, dd, _ = _deltas(p)
    root_c = math.sqrt(max(trace * trace - 16.0 * dc, 0.0))
    root_d = math.sqrt(max(trace * trace - 16.0 * dd, 0.0))
    lam1 = (trace - root_c) / 4.0   # x-sector low
    lam2 = (trace + root_c) / 4.0   # x-sector high
    lam3 = (trace - root_d) / 4.0   # p-sector low
    lam4 = (trace + root_d) / 4.0   # p-sector high
    return lam1, lam2, lam3, lam4


def canonical_sqrt_closed(p: CanonicalTwoModeParams) -> np.ndarray:
    """Elementwise closed form of the SPD square root of a canonical state.

    Valid only where the sector denominators do not vanish (they do at c = 0
    with a >= b, and at d = 0 with b >= a); raises DegenerateSpectrumError
    there so callers can fall back to the eigendecomposition route.
    """
    a, b, c, d = p.a, p.b, p.c, p.d
    lam1, lam2, lam3, lam4 = _canonical_eigvals(p)
    den_x = a - b + lam1 - lam2
    den_p = a - b + lam4 - lam3
    if abs(den_x) < SECTOR_GAP_TOL or abs(den_p) < SECTOR_GAP_TOL:
        raise DegenerateSpectrumError(
            f"sector denominators vanish (x: {den_x:.3e}, p: {den_p:.3e}); "
            "use matrix_sqrt_spd instead")
    tau_x = math.sqrt(lam1) + math.sqrt(lam2)
    tau_p = math.sqrt(lam3) + math.sqrt(lam4)
    s11 = 0.5 * (tau_x + (a - b) / tau_x)
    s13 = c / tau_x
    s22 = math.sqrt(lam4) - 2.0 * d * d / (den_p * tau_p)
    s24 = d / tau_p
    s33 = math.sqrt(lam2) + 2.0 * c * c / (tau_x * den_x)
    s44 = 0.5 * (tau_p + (b - a) / tau_p)
    out = np.zeros((4, 4))
    out[0, 0] = s11
    out[1, 1] = s22
    out[2, 2] = s33
    out[3, 3] = s44
    out[0, 2] = out[2, 0] = s13
    out[1, 3] = out[3, 1] = s24
    return out


@dataclass(frozen=True, eq=False)
class ExplicitDistance:
    """Distance between two canonical states with all intermediates exposed."""

    distance: float              # 1/2-prefactor convention
    distance_dim_scaled: float   # (dim/2)-prefactor convention
    lambda_m: np.ndarray         # generalized eigenvalues, ascending
    sqrt_elements: dict
    sqrt_inv_elements: dict
    m_elements: dict


def fr_distance_explicit(p: CanonicalTwoModeParams,
                         p0: CanonicalTwoModeParams) -> ExplicitDistance:
    """Distance between canonical states via the elementwise closed forms.

    Builds the square root elementwise, inverts it blockwise, assembles the
    six nonzero elements of ``S^-1/2 S0 S^-1/2`` and its sector eigenvalues.
    Requires a nondegenerate sector spectrum; both prefactor conventions are
    returned.
    """
    _deltas(p0)  # validate the target state as well
    root = canonical_sqrt_closed(p)
    s11, s22, s33, s44 = root[0, 0], root[1, 1], root[2, 2], root[3, 3]
    s13, s24 = root[0, 2], root[1, 3]
    det_x = s11 * s33 - s13 * s13
    det_p = s22 * s44 - s24 * s24
    inv_elems = {
        "i11": s33 / det_x, "i13": -s13 / det_x, "i33": s11 / det_x,
        "i22": s44 / det_p, "i24": -s24 / det_p, "i44": s22 / det_p,
    }
    a0, b0, c0, d0 = p0.a, p0.b, p0.c, p0.d
    m11 = (a0 * s33 ** 2 + b0 * s13 ** 2 - 2.0 * c0 * s13 * s33) / det_x ** 2
    m13 = (-a0 * s13 * s33 - b0 * s11 * s13 + c0 * (s13 ** 2 + s11 * s33)) / det_x ** 2
    m33 = (a0 * s13 ** 2 + b0 * s11 ** 2 - 2.0 * c0 * s11 * s13) / det_x ** 2
    m22 = (a0 * s44 ** 2 + b0 * s24 ** 2 - 2.0 * d0 * s24 * s44) / det_p ** 2
    m24 = (-a0 * s24 * s44 - b0 * s22 * s24 + d0 * (s24 ** 2 + s22 * s44)) / det_p ** 2
    m44 = (a0 * s24 ** 2 + b0 * s22 ** 2 - 2.0 * d0 * s22 * s24) / det_p ** 2
    tr_x = m11 + m33
    tr_p = m22 + m44
    disc_x = math.sqrt(max(tr_x ** 2 - 4.0 * (m11 * m33 - m13 ** 2), 0.0))
    disc_p = math.sqrt(max(tr_p ** 2 - 4.0 * (m22 * m44 - m24 ** 2), 0.0))
    lam = np.sort([(tr_x - disc_x) / 2.0, (tr_x + disc_x) / 2.0,
                   (tr_p - disc_p) / 2.0, (tr_p + disc_p) / 2.0])
    logs_sq = np.sum(np.log(lam) ** 2)
    return ExplicitDistance(
        distance=float(np.sqrt(0.5 * logs_sq)),
        distance_dim_scaled=float(np.sqrt(2.0 * logs_sq)),
        lambda_m=lam,
        sqrt_elements={"s11": s11, "s13": s13, "s22": s22,
                       "s24": s24, "s33": s33, "s44": s44},
        sqrt_inv_elements=inv_elems,
        m_elements={"m11": m11, "m13": m13, "m22": m22,
                    "m24": m24, "m33": m33, "m44": m44},
    )


# ---------------------------------------------------------------------------
# two-parameter normal-form metric

@dataclass(frozen=True)
class NormalFormPoint:
    """Point (a, c) of the correlated normal-form family.

    ``a`` is the common variance scale, ``c`` the cross correlation induced
    by the phase-space deformation; valid states satisfy a > |c|.
    """

    a: float
    c: float

    def __post_init__(self):
        _check_finite("a and c", self.a, self.c)

    @classmethod
    def from_exponent(cls, m11: float, m22: float, cross_imag: float,
                      hbar: float = 1.0) -> "NormalFormPoint":
        """Build the point from a Gaussian ground-state exponent matrix."""
        prod = m11 * m22
        if prod <= 0:
            raise NumericDomainError("exponent diagonal must be positive")
        a = hbar / 2.0 * math.sqrt(1.0 + cross_imag ** 2 / prod)
        c = hbar * cross_imag / (2.0 * math.sqrt(prod))
        return cls(a=a, c=c)


@dataclass(frozen=True, eq=False)
class NormalFormMetric:
    matrix: np.ndarray          # 2x2, indefinite by construction
    eigenvalues: tuple[float, float]
    rotation: np.ndarray        # orthogonal Q with Q^T g Q diagonal
    transformed: tuple[float, float]
    indefinite: bool = True     # one negative eigenvalue; not Riemannian


def normal_form_metric(pt: NormalFormPoint) -> NormalFormMetric:
    """Metric components of the (a, c) family, with its diagonalization.

    ``g00 = -g11 = 2(a^2 - c^2)/(a^2 + c^2)^2`` and
    ``g01 = 4ac/(a^2 + c^2)^2``; the eigenvalues are +-2/(a^2 + c^2). One of
    them is always negative, hence the indefinite flag on the result.
    """
    a, c = pt.a, pt.c
    r2 = a * a + c * c
    if r2 <= VANISHING_TOL:
        raise ValueError("the point (a, c) = (0, 0) is outside the family")
    g = np.array([
        [2.0 * (a * a - c * c) / r2 ** 2, 4.0 * a * c / r2 ** 2],
        [4.0 * a * c / r2 ** 2, -2.0 * (a * a - c * c) / r2 ** 2],
    ])
    root = math.sqrt(r2)
    q = np.array([[a, -c], [c, a]]) / root
    transformed = ((a * a - c * c) / root, 2.0 * a * c / root)
    return NormalFormMetric(matrix=g, eigenvalues=(2.0 / r2, -2.0 / r2),
                            rotation=q, transformed=transformed)


def normal_form_cvm(pt: NormalFormPoint) -> CovarianceMatrix:
    """Covariance matrix of the normal-form point (positive-definite reading).

    A sign-flipped lower-right block would not be a state, so the +a reading
    is used; the matrix is SPD exactly when a > |c|.
    """
    a, c = pt.a, pt.c
    sz = np.diag([1.0, -1.0])
    m = np.block([[a * np.eye(2), c * sz], [c * sz, a * np.eye(2)]])
    return CovarianceMatrix(m, ordering=Ordering.MODE_INTERLEAVED)


# ---------------------------------------------------------------------------
# regularized volume

@dataclass(frozen=True)
class RegularizerConfig:
    """Damping parameters of the volume regularizer."""

    kappa: float = 1.0
    power: int = 4    # defaults to the parameter count of the canonical family

    def __post_init__(self):
        _check_finite("kappa and power", self.kappa, self.power)
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.power < 1:
            raise ValueError("power must be a positive integer")


def regularizer_value(sigma, reg: RegularizerConfig) -> float:
    """Symplectically invariant damping factor for the volume integrand.

    ``exp(-Tr[adj(S)]/kappa) * log(1 + det(S)^m)``; the adjugate trace is the
    degree-(n-1) elementary symmetric polynomial of the eigenvalues.
    """
    w = np.linalg.eigvalsh(as_matrix(sigma)).tolist()
    det = math.prod(w)
    adj_trace = sum(det / wi for wi in w) if det != 0 else 0.0
    return math.exp(-adj_trace / reg.kappa) * math.log1p(det ** reg.power)


@dataclass(frozen=True)
class Region:
    """Axis-aligned box in (a, b, c, d) plus a membership predicate."""

    box: tuple[tuple[float, float], ...]
    predicate: str   # "quantum" | "separable" | "entangled"

    def __post_init__(self):
        if len(self.box) != 4:
            raise ValueError("box must give (low, high) for each of a, b, c, d")
        _check_finite("box edges", *(edge for pair in self.box for edge in pair))
        for lo, hi in self.box:
            if not hi > lo:
                raise ValueError(f"empty box interval ({lo}, {hi})")
        if self.predicate not in ("quantum", "separable", "entangled"):
            raise ValueError(f"unknown predicate {self.predicate!r}")


def _canonical_stack(draws: np.ndarray) -> np.ndarray:
    """``(samples, 4, 4)`` canonical matrices of ``(samples, 4)`` rows (a, b, c, d)."""
    a, b, c, d = draws.T
    stack = np.zeros((len(draws), 4, 4))
    stack[:, 0, 0] = stack[:, 1, 1] = a
    stack[:, 2, 2] = stack[:, 3, 3] = b
    stack[:, 0, 2] = stack[:, 2, 0] = c
    stack[:, 1, 3] = stack[:, 3, 1] = d
    return stack


def _physical(draws: np.ndarray) -> np.ndarray:
    """Physicality mask of ``(samples, 4)`` canonical rows (a, b, c, d), in closed form.

    A row passes when ``a, b > 0``, the matrix is positive definite and its
    smaller symplectic invariant is at least ``1 - RSUP_SLACK``.

    * Positive definiteness: the matrix splits into the x sector
      ``[[a, c], [c, b]]`` and the p sector ``[[a, d], [d, b]]``, so its
      smallest eigenvalue is ``(ab - max(c^2, d^2)) / ((a+b)/2 + hypot((a-b)/2,
      max(|c|, |d|)))``: the determinant of the sector with the stronger
      correlation over its larger eigenvalue.
    * Uncertainty: with ``Delta = det A + det B + 2 det C = a^2 + b^2 + 2cd``
      and ``det S = (ab - c^2)(ab - d^2)``, the smaller invariant is
      ``nu_- = sqrt(8 det S / (Delta + sqrt(D)))`` where
      ``D = Delta^2 - 4 det S`` (Serafini, Illuminati & De Siena, J. Phys. B
      37, L21, 2004). ``D`` is evaluated in its factored form
      ``(a^2 - b^2)^2 + 4(ac + bd)(ad + bc)``: near pure states ``Delta^2``
      and ``4 det S`` almost cancel, and the difference taken as written
      loses up to half the digits of ``nu_-``, enough to flip verdicts that
      the eigenvalue route gets right.
    """
    a, b, c, d = draws.T
    positive = (a > 0) & (b > 0)
    a, b, c, d = a[positive], b[positive], c[positive], d[positive]
    cross = np.maximum(np.abs(c), np.abs(d))
    lam_min = (a * b - cross * cross) / (0.5 * (a + b) + np.hypot(0.5 * (a - b), cross))
    spd = lam_min > SPD_TOL
    a, b, c, d = a[spd], b[spd], c[spd], d[spd]
    delta = a * a + b * b + 2.0 * c * d
    det = (a * b - c * c) * (a * b - d * d)
    disc = (a * a - b * b) ** 2 + 4.0 * (a * c + b * d) * (a * d + b * c)
    nu_minus = np.sqrt(8.0 * det / (delta + np.sqrt(np.maximum(disc, 0.0))))
    spd[spd] = nu_minus >= 1.0 - RSUP_SLACK
    positive[positive] = spd
    return positive


@dataclass(frozen=True)
class VolumeEstimate:
    volume: float
    std_error: float
    samples: int
    accepted: int
    seed: int
    zero_measure: bool = False


def regularized_volume(region: Region, reg: RegularizerConfig,
                       samples: int, seed: int) -> VolumeEstimate:
    """Monte-Carlo estimate of the regularized information volume of a region.

    Integrates ``regularizer * sqrt(det g)`` over the members of the region
    inside the box, with a deterministic seeded sample stream. Returns a
    zero-measure flag when no sample lands in the region.

    The physicality gate evaluates the closed-form two-mode invariants on
    the whole sample array at once: ``a, b > 0``, the smallest eigenvalue
    above ``SPD_TOL``, and the smaller symplectic invariant
    ``sqrt(8 det S / (Delta + sqrt(D)))`` at least ``1 - RSUP_SLACK``. The
    discriminant ``D`` is taken in factored form, because near pure states
    ``Delta^2 - 4 det S`` cancels catastrophically (see :func:`_physical`).
    Only the physical samples then take the per-sample PPT verdict on the
    eigenvalue route (for the separable and entangled regions), and only the
    accepted ones evaluate the integrand. The gate is the only validation of
    a sample; the per-sample verdict runs no further SPD check.
    """
    if samples < 1000:
        raise ValueError("use at least 1e3 samples")
    rng = np.random.default_rng(seed)
    lows = np.array([lo for lo, _ in region.box])
    highs = np.array([hi for _, hi in region.box])
    box_volume = float(np.prod(highs - lows))
    draws = rng.uniform(lows, highs, size=(samples, 4))
    stack = _canonical_stack(draws)
    form = build_symplectic_form(2, Ordering.MODE_INTERLEAVED)
    physical = _physical(draws)
    values = np.zeros(samples)
    accepted = 0
    rows = draws.tolist()
    for i in np.flatnonzero(physical).tolist():
        if region.predicate != "quantum":
            sigma = _validated(stack[i], Ordering.MODE_INTERLEAVED)
            separable = ppt_separable(sigma, form).separable
            if separable != (region.predicate == "separable"):
                continue
        accepted += 1
        det_g = fisher_det_two_mode(CanonicalTwoModeParams(*rows[i]))
        values[i] = regularizer_value(stack[i], reg) * math.sqrt(max(det_g, 0.0))
    mean = values.mean()
    err = box_volume * values.std(ddof=1) / math.sqrt(samples)
    return VolumeEstimate(volume=float(box_volume * mean), std_error=float(err),
                          samples=samples, accepted=accepted, seed=seed,
                          zero_measure=accepted == 0)
