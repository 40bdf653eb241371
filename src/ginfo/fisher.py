"""Fisher information geometry of Gaussian states.

Closed-form metric for the canonical two-mode family and its exact
trace-formula route, the affine-invariant distance between covariance
matrices (two independent computations: the generalized spectrum, and on
the canonical family the exact elementwise square root of each 2x2 sector),
and a regularized Monte-Carlo volume over constrained parameter regions.
The canonical closed forms read the family's layout and its 2x2 sector
spectrum from :mod:`ginfo.states`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, repeat
from operator import itemgetter

import numpy as np

from .errors import NumericDomainError
from .policy import RSUP_SLACK, SPD_TOL
from .states import (CanonicalTwoModeParams, _canonical_matrices, _min_eigenvalue,
                     _min_invariant, _sector_eigenvalues, _validated_records,
                     canonical_two_mode_matrix, ppt_separable)
from .symplectic import (
    _check_finite,
    _check_spd_matrix,
    generalized_eigenvalues,
    rsup_check,  # noqa: F401  -- part of this namespace; bench/selftest.py traces it here
)


@dataclass(frozen=True, eq=False)
class FisherMetric:
    """Information matrix at a parameter point."""

    matrix: np.ndarray
    parameter_names: tuple[str, ...]


def fisher_metric_numeric(p: CanonicalTwoModeParams) -> FisherMetric:
    """Fisher matrix of the canonical family in (a, b, c, d) by the trace formula.

    The family is linear in its parameters, ``S = a E_a + b E_b + c E_c + d E_d``
    with constant basis matrices ``E_k``, so ``g_mn = Tr[S^-1 E_m S^-1 E_n] / 2``
    is exact and needs no step. It shares no arithmetic with
    :func:`fisher_metric_two_mode`.
    """
    inv = np.linalg.inv(_check_spd_matrix(canonical_two_mode_matrix(p)))
    left = inv @ _canonical_matrices(np.eye(4))    # S^-1 E_k, one per parameter
    g = 0.5 * np.einsum("mij,nji->mn", left, left)
    return FisherMetric(matrix=0.5 * (g + g.T), parameter_names=("a", "b", "c", "d"))


def _deltas(p: CanonicalTwoModeParams) -> tuple[float, float, float]:
    """Sector determinants ``ab - c^2``, ``ab - d^2`` and their product ``det S``."""
    a, b, c, d = p
    dc = a * b - c * c
    dd = a * b - d * d
    if dc <= 0 or dd <= 0:
        _reject_singular(dc, dd)
    return dc, dd, dc * dd


def _reject_singular(dc: float, dd: float):
    raise NumericDomainError(f"state is singular or indefinite: ab-c^2={dc:.3e}, ab-d^2={dd:.3e}")


def fisher_metric_two_mode(p: CanonicalTwoModeParams) -> FisherMetric:
    """Closed-form Fisher matrix of the canonical family in (a, b, c, d).

    At c = d = 0 this is the flat metric diag(1/a^2, 1/b^2, 1/ab, 1/ab).
    Raises FloatingPointError where an entry overflows to a non-finite value.
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
    if not np.isfinite(g).all():
        raise FloatingPointError(f"closed-form metric has a non-finite entry at "
                                 f"(a, b, c, d) = ({a:.3e}, {b:.3e}, {c:.3e}, {d:.3e})")
    return FisherMetric(matrix=g, parameter_names=("a", "b", "c", "d"))


def fisher_det_two_mode(p: CanonicalTwoModeParams) -> float:
    """Closed-form determinant of the two-mode Fisher matrix.

    ``(4 a^2 b^2 - (c^2 + d^2)^2) / (4 ds^3)``, ``ds = det S``, with :func:`_deltas`
    written out, so the record is unpacked once per call. Where ``ds``
    overflows, it is at most ``(ab)^2 / ds^3``, below ~1e-308: 0.0, not inf/inf.
    """
    a, b, c, d = p
    ab = a * b
    dc, dd = ab - c * c, ab - d * d
    if dc <= 0 or dd <= 0:
        _reject_singular(dc, dd)
    ds = dc * dd
    if ds == math.inf:
        return 0.0
    # one division per power of ds: ds^3 overflows where the determinant is finite
    return (4.0 * a * a * b * b - (c * c + d * d) ** 2) / (4.0 * ds) / ds / ds


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


def canonical_sqrt_closed(p: CanonicalTwoModeParams) -> np.ndarray:
    """Elementwise closed form of the SPD square root of a canonical state.

    Each sector ``S = [[a, c], [c, b]]`` with ``s = sqrt(det S)`` satisfies
    ``(S + s I)^2 = (tr S + 2s) S`` (Cayley-Hamilton), so its root is
    ``(S + s I) / t`` with ``t = sqrt(tr S + 2s)``. Every term is positive
    except the off-diagonal ``c / t``: nothing cancels, and no state is
    degenerate.
    """
    dc, dd, _ = _deltas(p)
    out = np.zeros((4, 4))
    for i, corr, det in ((0, p.c, dc), (1, p.d, dd)):   # x sector (x1, x2), p sector (p1, p2)
        s = math.sqrt(det)
        t = math.sqrt(p.a + p.b + 2.0 * s)
        out[i, i] = (p.a + s) / t
        out[i + 2, i + 2] = (p.b + s) / t
        out[i, i + 2] = out[i + 2, i] = corr / t
    return out


def fr_distance_explicit(p: CanonicalTwoModeParams,
                         p0: CanonicalTwoModeParams) -> tuple[float, np.ndarray]:
    """Distance between canonical states via the elementwise closed forms.

    Builds the square root elementwise, inverts each sector through its
    adjugate (``det(R)^2 = det S``), assembles the six nonzero elements of
    ``S^-1/2 S0 S^-1/2`` and its sector eigenvalues. Returns the distance in
    the 1/2-prefactor convention and the generalized eigenvalues, ascending:
    an independent route to :func:`fr_distance` on the canonical family,
    checked against it by a ``selftest`` battery.
    """
    _deltas(p0)  # validate the target state as well
    dc, dd, _ = _deltas(p)
    root = canonical_sqrt_closed(p)
    s11, s22, s33, s44 = root[0, 0], root[1, 1], root[2, 2], root[3, 3]
    s13, s24 = root[0, 2], root[1, 3]
    a0, b0, c0, d0 = p0.a, p0.b, p0.c, p0.d
    m11 = (a0 * s33 ** 2 + b0 * s13 ** 2 - 2.0 * c0 * s13 * s33) / dc
    m13 = (-a0 * s13 * s33 - b0 * s11 * s13 + c0 * (s13 ** 2 + s11 * s33)) / dc
    m33 = (a0 * s13 ** 2 + b0 * s11 ** 2 - 2.0 * c0 * s11 * s13) / dc
    m22 = (a0 * s44 ** 2 + b0 * s24 ** 2 - 2.0 * d0 * s24 * s44) / dd
    m24 = (-a0 * s24 * s44 - b0 * s22 * s24 + d0 * (s24 ** 2 + s22 * s44)) / dd
    m44 = (a0 * s24 ** 2 + b0 * s22 ** 2 - 2.0 * d0 * s22 * s24) / dd
    lam = np.sort([*_sector_eigenvalues(m11, m33, m13), *_sector_eigenvalues(m22, m44, m24)])
    return float(np.sqrt(0.5 * np.sum(np.log(lam) ** 2))), lam


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


def regularizer_value(p: CanonicalTwoModeParams, reg: RegularizerConfig) -> float:
    """Symplectically invariant damping factor for the volume integrand.

    ``exp(-Tr[adj(S)]/kappa) * log(1 + det(S)^m)`` in closed form: both sectors
    have trace ``a + b``, so ``det S = (ab - c^2)(ab - d^2)`` and
    ``Tr adj S = (a + b)(2ab - c^2 - d^2)``. :func:`_deltas` is written out,
    so the record is unpacked once per call. Where ``det(S)^m`` is past the
    float range, ``log1p`` of it is ``m log det(S)`` to the last bit (it
    exceeds 2^53 by far). Where the damping underflows to 0, it is the
    value, even where ``det(S)`` overflows and the logarithm is inf.
    """
    a, b, c, d = p
    ab = a * b
    dc, dd = ab - c * c, ab - d * d
    if dc <= 0 or dd <= 0:
        _reject_singular(dc, dd)
    damping = math.exp(-(a + b) * (dc + dd) / reg.kappa)
    if damping == 0.0:
        return damping
    try:
        return damping * math.log1p((dc * dd) ** reg.power)
    except OverflowError:
        return damping * (reg.power * math.log(dc * dd))


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


def _physical(draws: np.ndarray) -> np.ndarray:
    """Physicality mask of ``(samples, 4)`` canonical rows (a, b, c, d), in closed form.

    A row passes when ``a, b > 0``, its smallest eigenvalue
    (:func:`~ginfo.states._min_eigenvalue`) exceeds ``SPD_TOL`` and its
    smaller symplectic invariant (:func:`~ginfo.states._min_invariant`) is at
    least ``1 - RSUP_SLACK``. Both kernels scale the rows past ~1e77 by
    powers of two (:func:`~ginfo.states._scaling`), so the gate holds at
    every scale and keeps the other rows' bits.
    """
    a, b, c, d = draws.T
    positive = (a > 0) & (b > 0)
    a, b, c, d = a[positive], b[positive], c[positive], d[positive]
    spd = _min_eigenvalue(a, b, c, d) > SPD_TOL
    spd[spd] = _min_invariant(a[spd], b[spd], c[spd], d[spd]) >= 1.0 - RSUP_SLACK
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


MIN_VOLUME_SAMPLES = 1000   # the fewest draws regularized_volume takes, and the CLI's floor


def regularized_volume(region: Region, reg: RegularizerConfig,
                       samples: int, seed: int) -> VolumeEstimate:
    """Monte-Carlo estimate of the regularized information volume of a region.

    Integrates ``regularizer * sqrt(det g)`` over the members of the region
    inside the box, with a deterministic seeded sample stream of at least
    ``MIN_VOLUME_SAMPLES`` draws. Returns a zero-measure flag when no sample
    lands in the region.

    The physicality gate (:func:`_physical`) takes the whole sample array at
    once. Only the physical samples then take the per-sample PPT verdict
    (for the separable and entangled regions), and only the accepted ones
    evaluate the integrand. Both are closed form in (a, b, c, d), at any
    scale, and run no eigensolver: the verdict is
    :func:`~ginfo.states.ppt_separable` on the sample's parameters.

    The per-sample work runs as ``map`` passes over one list of
    :class:`~ginfo.states.CanonicalTwoModeParams` records of Python floats,
    one per physical row: a pass of the verdict gives the keep mask, then one
    pass each of :func:`regularizer_value` and :func:`fisher_det_two_mode`
    over the kept records. The gate has shown every physical row finite with
    ``a, b > 0``, so the records are built from its columns unchecked
    (:func:`~ginfo.states._validated_records`), not through the constructor.
    The integrand ``damping * sqrt(max(det, 0))`` is one numpy expression on
    the two result arrays, written into the sample array once.
    """
    if samples < MIN_VOLUME_SAMPLES:
        raise ValueError(f"use at least {MIN_VOLUME_SAMPLES} samples")
    rng = np.random.default_rng(seed)
    lows = np.array([lo for lo, _ in region.box])
    highs = np.array([hi for _, hi in region.box])
    box_volume = float(np.prod(highs - lows))
    draws = rng.uniform(lows, highs, size=(samples, 4))
    rows = np.flatnonzero(_physical(draws))
    records = _validated_records(draws[rows].T.tolist())
    if region.predicate != "quantum":
        separable = np.fromiter(map(itemgetter(0), map(ppt_separable, records)),  # .separable
                                bool, len(records))
        keep = separable if region.predicate == "separable" else ~separable
        records = list(compress(records, keep.tolist()))
        rows = rows[keep]
    damping = np.fromiter(map(regularizer_value, records, repeat(reg)), float, len(records))
    det = np.fromiter(map(fisher_det_two_mode, records), float, len(records))
    values = np.zeros(samples)
    values[rows] = damping * np.sqrt(np.maximum(det, 0.0))
    accepted = len(records)
    mean = values.mean()
    err = box_volume * values.std(ddof=1) / math.sqrt(samples)
    return VolumeEstimate(volume=float(box_volume * mean), std_error=float(err),
                          samples=samples, accepted=accepted, seed=seed,
                          zero_measure=accepted == 0)
