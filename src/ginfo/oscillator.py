"""Anisotropic oscillator on a deformed phase space, reduced to standard form.

Pipeline: deformation parameters -> Darboux (Bopp-shift) transform -> an
equivalent standard-space Hamiltonian with effective masses, stiffnesses and
a momentum-position cross coupling -> normal-mode frequencies -> Gaussian
ground state in Williamson's closed form -> its covariance matrix, the
exponent read off it, and the separability verdict. Every covariance is
checked by the identity that defines it on the transformed Hamiltonian.

Basis throughout is mode-interleaved (x1, p1, x2, p2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericDomainError, SingularMatrixError
from .policy import GROUND_STATE_CHECK_TOL, TUNED_LINE_TOL
from .symplectic import (J2, CovarianceMatrix, Ordering, _check_finite, _check_min_eigenvalue,
                         _validated, build_symplectic_form)


@dataclass(frozen=True)
class OscillatorParams:
    """Masses, deformed-frame frequencies and deformation strengths."""

    mass1: float
    mass2: float
    freq1: float
    freq2: float
    theta: float = 0.0
    eta: float = 0.0
    hbar: float = 1.0

    def __post_init__(self):
        _check_finite("masses, frequencies, theta, eta and hbar", self.mass1, self.mass2,
                      self.freq1, self.freq2, self.theta, self.eta, self.hbar)
        for name in ("mass1", "mass2", "freq1", "freq2", "hbar"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.theta < 0 or self.eta < 0:
            raise ValueError("deformation parameters must be nonnegative")
        if self.theta * self.eta >= 4.0 * self.hbar ** 2:
            raise SingularMatrixError(
                "deformation too strong: theta*eta must stay below 4*hbar^2")

    @property
    def hbar_effective(self) -> float:
        return self.hbar * (1.0 + self.theta * self.eta / (4.0 * self.hbar ** 2))


def darboux_matrix(p: OscillatorParams) -> np.ndarray:
    """Linear map from standard coordinates to the deformed ones.

    Identity blocks on the diagonal, ``-Pi J2 / 2 hbar`` and its negative off
    the diagonal with ``Pi = diag(theta, eta)``. Invertible for all admitted
    parameters.
    """
    b = np.diag([p.theta, p.eta]) @ J2 / (2.0 * p.hbar)
    eye = np.eye(2)
    return np.block([[eye, -b], [b, eye]])


def nc_hamiltonian_matrix(p: OscillatorParams) -> np.ndarray:
    """Quadratic-form matrix of the oscillator in the deformed frame."""
    return np.diag([p.mass1 * p.freq1 ** 2, 1.0 / p.mass1,
                    p.mass2 * p.freq2 ** 2, 1.0 / p.mass2])


@dataclass(frozen=True)
class EquivalentParams:
    """Standard-frame parameters of the transformed Hamiltonian."""

    mass1: float        # effective masses
    mass2: float
    stiffness1: float   # mass * frequency^2
    stiffness2: float
    coupling1: float    # x-p cross couplings
    coupling2: float
    freq1: float        # sqrt(stiffness / mass)
    freq2: float


def equivalent_params(p: OscillatorParams) -> EquivalentParams:
    """Closed-form effective masses, stiffnesses and couplings."""
    h2 = p.hbar ** 2
    mass1 = 1.0 / (1.0 / p.mass1 + p.mass2 * p.freq2 ** 2 * p.theta ** 2 / (4.0 * h2))
    mass2 = 1.0 / (1.0 / p.mass2 + p.mass1 * p.freq1 ** 2 * p.theta ** 2 / (4.0 * h2))
    stiff1 = p.mass1 * p.freq1 ** 2 + p.eta ** 2 / (4.0 * h2 * p.mass2)
    stiff2 = p.mass2 * p.freq2 ** 2 + p.eta ** 2 / (4.0 * h2 * p.mass1)
    m12 = p.mass1 * p.mass2
    coup1 = (p.eta + m12 * p.freq2 ** 2 * p.theta) / (4.0 * p.mass1 * p.hbar)
    coup2 = (p.eta + m12 * p.freq1 ** 2 * p.theta) / (4.0 * p.mass2 * p.hbar)
    return EquivalentParams(mass1=mass1, mass2=mass2,
                            stiffness1=stiff1, stiffness2=stiff2,
                            coupling1=coup1, coupling2=coup2,
                            freq1=math.sqrt(stiff1 / mass1),
                            freq2=math.sqrt(stiff2 / mass2))


def equivalent_hamiltonian(p: OscillatorParams) -> np.ndarray:
    """Standard-frame Hamiltonian matrix by the product route ``Ups^T H_nc Ups``.

    It shares no arithmetic with :func:`equivalent_params`, whose closed-form
    blocks assemble the same matrix.
    """
    ups = darboux_matrix(p)
    return ups.T @ nc_hamiltonian_matrix(p) @ ups


@dataclass(frozen=True)
class ModeSpectrum:
    """Normal-mode frequencies, ascending."""

    freq1: float          # lower mode
    freq2: float          # upper mode


def mode_spectrum(p: OscillatorParams, eq: EquivalentParams) -> ModeSpectrum:
    """Normal-mode frequencies of ``eq``, the equivalent parameters of ``p``.

    The high mode is the closed form of the block-determinant sum and the
    discriminant ``high^2 - low^2``, the ``hypot`` of three terms, which
    neither underflows nor overflows where its square would. The low mode
    comes from the product of the two,
    ``low * high = (1 - theta eta / 4 hbar^2)^2 freq1 freq2`` in the
    deformed-frame frequencies of ``p``, since ``det H = det(Ups)^2 det H_nc``;
    so it keeps its relative accuracy as it softens toward the singular edge,
    where the difference of the sum and the discriminant cancels. Neither
    formula divides by the discriminant, so coinciding modes need no case of
    their own: at ``disc = 0`` both give the one frequency.
    """
    inv_sum = eq.freq1 ** 2 + eq.freq2 ** 2 + 8.0 * eq.coupling1 * eq.coupling2
    disc = math.hypot(eq.freq1 ** 2 - eq.freq2 ** 2,
                      4.0 * math.sqrt(eq.coupling1 * eq.coupling2) * (eq.freq1 - eq.freq2),
                      4.0 * (math.sqrt(eq.mass1 / eq.mass2) * eq.freq1 * eq.coupling1
                             + math.sqrt(eq.mass2 / eq.mass1) * eq.freq2 * eq.coupling2))
    high = math.sqrt((inv_sum + disc) / 2.0)
    det_ups = (1.0 - p.theta * p.eta / (4.0 * p.hbar ** 2)) ** 2
    return ModeSpectrum(freq1=det_ups * p.freq1 * p.freq2 / high, freq2=high)


@dataclass(frozen=True)
class GroundStateExponent:
    """Entries of the Gaussian ground-state exponent matrix.

    The wavefunction is ``exp(-x^T M x / 2)`` with real diagonal entries
    ``m11``, ``m22`` and purely imaginary off-diagonal entry
    ``i * cross_imag``. A nonzero ``cross_imag`` is exactly what entangles
    the two coordinates.
    """

    m11: float
    m22: float
    cross_imag: float


def _polar_ground_state(h: np.ndarray, hbar: float) -> np.ndarray:
    """Ground-state covariance of the Hamiltonian matrix ``h`` by Williamson's polar form.

    ``(hbar/2) h^-1/2 |h^1/2 i Omega h^1/2| h^-1/2`` (Williamson, Am. J. Math.
    58, 141 (1936)): the second route of selftest's ``polar_ground_state``.
    Raises NumericDomainError if ``h`` rounds to indefinite.
    """
    w, v = np.linalg.eigh(h)
    if not w[0] > 0:
        raise NumericDomainError(f"Hamiltonian is not positive definite: min eigenvalue {w[0]:.3e}")
    root, inv_root = (v * np.sqrt(w)) @ v.T, (v / np.sqrt(w)) @ v.T
    lam, u = np.linalg.eigh(root @ (1j * build_symplectic_form(2).matrix) @ root)
    return hbar / 2.0 * (inv_root @ ((u * np.abs(lam)) @ u.conj().T).real @ inv_root)


@dataclass(frozen=True)
class GroundState:
    """One run of the pipeline: its stages' results and their end-to-end check."""

    equivalent: EquivalentParams
    modes: ModeSpectrum
    exponent: GroundStateExponent
    covariance: CovarianceMatrix
    residual: float     # max |(2 Sigma H / hbar)^2 + (Omega H)^2| / (2 max|Sigma| / hbar)^2


def ground_state(p: OscillatorParams) -> GroundState:
    """Ground state for arbitrary admissible parameters, checked end to end.

    Williamson's form ``Sigma H = (hbar/2) (-K^2)^(1/2)``, ``K = Omega H``, in
    closed form: ``-K^2`` has the eigenvalues ``low^2`` and ``high^2`` of the
    modes, so by Cayley-Hamilton ``(-K^2)^(1/2) = (-K^2 + s I) / t`` with
    ``s = low * high`` and ``t = low + high``, and

        Sigma = (hbar/2) (s H^-1 + Omega H Omega^T) / t.

    Both terms are positive definite, so nothing cancels, and there is no
    decoupled or degenerate case: coinciding modes give ``freq * I``, and an
    undeformed H is diagonal, so its cross term is exactly zero.
    ``H^-1 = Ups^-1 H_nc^-1 Ups^-T`` with the exact inverse
    ``Ups^-1 = (2 I - Ups) / (1 - theta eta / 4 hbar^2)``, since the
    off-diagonal block ``B`` of :func:`darboux_matrix` has
    ``B^2 = -(theta eta / 4 hbar^2) I``. The exponent is read off the
    covariance's layout: ``m11 = 1 / (2 Sigma_00)``,
    ``m22 = 1 / (2 Sigma_22)`` and ``cross_imag = -Sigma_03 / (hbar Sigma_00)``.

    The check is the identity that defines Sigma, ``(2 Sigma H / hbar)^2 =
    -(Omega H)^2`` on the product-route H: ``Sigma H`` has a positive spectrum,
    so meeting it makes ``Sigma H`` the principal square root (Higham,
    *Functions of Matrices*, Thm 1.29). Its residual, on H scaled exactly by a
    power of two and per ``(2 max|Sigma| / hbar)^2`` (``cond(Sigma)`` within 16
    for a pure state), past ``GROUND_STATE_CHECK_TOL`` raises NumericDomainError,
    as do non-finite entries and a smallest eigenvalue at most ``SPD_TOL``.
    Sigma is pure, so that is ``(hbar/2)^2`` over the largest; ``eigvalsh``
    rounds the smallest itself to noise where ``eps * lam_max`` passes it.
    """
    h = equivalent_hamiltonian(p)
    eq = equivalent_params(p)
    modes = mode_spectrum(p, eq)
    ups_inv = (2.0 * np.eye(4) - darboux_matrix(p)) / (1.0 - p.theta * p.eta / (4.0 * p.hbar ** 2))
    omega = build_symplectic_form(2).matrix
    terms = modes.freq1 * modes.freq2 * (ups_inv / np.diag(nc_hamiltonian_matrix(p)) @ ups_inv.T) \
        + omega @ h @ omega.T
    # averaged with its transpose, the matrix is symmetric to the last bit
    sigma = p.hbar / (4.0 * (modes.freq1 + modes.freq2)) * (terms + terms.T)
    if not np.isfinite(sigma).all():
        raise NumericDomainError("ground-state covariance has non-finite entries")
    _check_min_eigenvalue((p.hbar / 2.0) ** 2 / np.linalg.eigvalsh(sigma)[-1])
    covariance = _validated(sigma, Ordering.MODE_INTERLEAVED)
    sigma = covariance.matrix
    # 0.0 - x leaves an exact zero unsigned
    exponent = GroundStateExponent(m11=float(0.5 / sigma[0, 0]), m22=float(0.5 / sigma[2, 2]),
                                   cross_imag=float(0.0 - sigma[0, 3] / (p.hbar * sigma[0, 0])))
    h = np.ldexp(h, -math.frexp(np.abs(h).max())[1])   # a power of two: exact
    unit = np.abs(sigma).max()
    root, k = sigma @ h / unit, p.hbar / (2.0 * unit) * (omega @ h)
    residual = float(np.abs(root @ root + k @ k).max())
    if residual > GROUND_STATE_CHECK_TOL:
        raise NumericDomainError(f"ground state misses (2 Sigma H / hbar)^2 = -(Omega H)^2 "
                                 f"by {residual:.3e}, relative to (2 max|Sigma| / hbar)^2")
    return GroundState(eq, modes, exponent, covariance, residual)


@dataclass(frozen=True)
class SeparabilityReport:
    separable: bool
    constraint_gap: float


def separability_condition(p: OscillatorParams) -> SeparabilityReport:
    """Separability verdict of the ground state of ``p``, from its factored constraint.

    With ``M = m1 m2`` the closed-form constraint is ``gap = (w1 - w2)(w1 + w2)
    (eta - M theta w1 w2)(eta + M theta w1 w2)(4 hbar^2 - theta eta)^2 / M^3 = 0``,
    a product that cancels only inside its factors. The last factor is positive
    on the admitted domain, so the state is separable exactly when ``w1 == w2``
    or on the tuned line ``eta = M theta w1 w2``, within ``TUNED_LINE_TOL`` of the sum.

    Where ``M^3`` overflows (``M`` past ~1e102) or underflows to 0, or a
    squared factor overflows, the gap is taken as ``(w1 - w2)(w1 + w2)
    (eta/M - theta w1 w2)(eta/M + theta w1 w2)(4 hbar^2 - theta eta)^2 / M``,
    with ``M`` divided out one mass at a time. Those products neither raise
    nor divide by 0: a gap past the float range comes out 0 or non-finite,
    which a report rejects as a non-finite result.
    """
    m12 = p.mass1 * p.mass2
    tuned = m12 * p.theta * p.freq1 * p.freq2
    split = (p.freq1 - p.freq2) * (p.freq1 + p.freq2)
    try:
        gap = split * (p.eta - tuned) * (p.eta + tuned) \
            * (4.0 * p.hbar ** 2 - p.theta * p.eta) ** 2 / m12 ** 3
    except (OverflowError, ZeroDivisionError):
        eta_m, line = p.eta / p.mass1 / p.mass2, p.theta * p.freq1 * p.freq2
        edge = 4.0 * p.hbar * p.hbar - p.theta * p.eta
        gap = split * (eta_m - line) * (eta_m + line) * edge * edge / p.mass1 / p.mass2
    on_line = abs(p.eta - tuned) <= TUNED_LINE_TOL * (p.eta + tuned)
    return SeparabilityReport(bool(p.freq1 == p.freq2 or on_line), float(gap))
