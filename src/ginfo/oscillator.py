"""Anisotropic oscillator on a deformed phase space, reduced to standard form.

Pipeline: deformation parameters -> Darboux (Bopp-shift) transform -> an
equivalent standard-space Hamiltonian with effective masses, stiffnesses and
a momentum-position cross coupling -> normal-mode frequencies -> Gaussian
ground state -> covariance matrix and separability verdict.

Basis throughout is mode-interleaved (x1, p1, x2, p2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    NormalizationError,
    NumericDomainError,
    SingularMatrixError,
)
from .policy import (DECOUPLED_TOL, DEGENERATE_MODES_TOL, EXPONENT_CHECK_TOL, HAMILTONIAN_CHECK_TOL,
                     NORMAL_MODE_CHECK_TOL, SINGULAR_MOMENTUM_TOL, ZERO_COUPLING_TOL)
from .symplectic import J2, CovarianceMatrix, Ordering, _check_finite, build_symplectic_form


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


def equivalent_hamiltonian_matrix(eq: EquivalentParams) -> np.ndarray:
    """Standard-frame Hamiltonian assembled from the closed-form blocks."""
    h1 = np.diag([eq.stiffness1, 1.0 / eq.mass1])
    h2 = np.diag([eq.stiffness2, 1.0 / eq.mass2])
    cross = np.array([[0.0, -2.0 * eq.coupling2], [2.0 * eq.coupling1, 0.0]])
    return np.block([[h1, cross], [cross.T, h2]])


def equivalent_hamiltonian(p: OscillatorParams) -> tuple[np.ndarray, EquivalentParams]:
    """Transform the Hamiltonian to the standard frame, both routes checked.

    The matrix product route and the closed-form block assembly must agree
    elementwise to ``HAMILTONIAN_CHECK_TOL``; a mismatch indicates corrupted
    inputs.
    """
    ups = darboux_matrix(p)
    transformed = ups.T @ nc_hamiltonian_matrix(p) @ ups
    eq = equivalent_params(p)
    assembled = equivalent_hamiltonian_matrix(eq)
    dev = np.abs(transformed - assembled).max()
    if dev > HAMILTONIAN_CHECK_TOL * max(1.0, np.abs(transformed).max()):
        raise NumericDomainError(f"closed-form Hamiltonian deviates from transform route by {dev:.3e}")
    return 0.5 * (transformed + transformed.T), eq


@dataclass(frozen=True)
class ModeSpectrum:
    """Normal-mode frequencies, ascending."""

    freq1: float          # lower mode
    freq2: float          # upper mode


def mode_spectrum(eq: EquivalentParams) -> ModeSpectrum:
    """Normal-mode frequencies of the equivalent Hamiltonian.

    Closed form via the block-determinant sum and the discriminant, verified
    against the numeric eigenvalues of J H. Degenerate spectra (possible only
    for the isotropic undeformed oscillator) are rejected.
    """
    w1sq = eq.freq1 ** 2
    w2sq = eq.freq2 ** 2
    inv_sum = w1sq + w2sq + 8.0 * eq.coupling1 * eq.coupling2
    disc_sq = (w1sq - w2sq) ** 2 \
        + 16.0 * eq.coupling1 * eq.coupling2 * (eq.freq1 - eq.freq2) ** 2 \
        + 16.0 * (math.sqrt(eq.mass1 / eq.mass2) * eq.freq1 * eq.coupling1
                  + math.sqrt(eq.mass2 / eq.mass1) * eq.freq2 * eq.coupling2) ** 2
    disc = math.sqrt(max(disc_sq, 0.0))
    if disc <= DEGENERATE_MODES_TOL:
        raise DegenerateSpectrumError("degenerate normal modes (isotropic undeformed case)")
    low = math.sqrt((inv_sum - disc) / 2.0)
    high = math.sqrt((inv_sum + disc) / 2.0)
    j = build_symplectic_form(2, Ordering.MODE_INTERLEAVED).matrix
    numeric = np.sort(np.abs(np.linalg.eigvals(j @ equivalent_hamiltonian_matrix(eq)).imag))[::2]
    if np.abs(numeric - [low, high]).max() > NORMAL_MODE_CHECK_TOL * max(1.0, high):
        raise NumericDomainError("closed-form mode frequencies disagree with eig(JH)")
    return ModeSpectrum(freq1=low, freq2=high)


@dataclass(frozen=True, eq=False)
class ModeCoefficients:
    """Left-eigenvector components (kappa) and normalizations per mode.

    ``coeffs[j]`` holds the four real components of mode j's left eigenvector
    ``k_j (i k0, k1, k2, i k3)``; the eigenvector phase is fixed by taking the
    normalization constants real positive, which the ground state cannot see.
    """

    coeffs: np.ndarray   # shape (2, 4)
    norms: tuple[float, float]


def _mode_coeff_row(lam: float, eq: EquivalentParams) -> np.ndarray:
    m1, m2 = eq.mass1, eq.mass2
    n1, n2 = eq.coupling1, eq.coupling2
    w1sq = eq.freq1 ** 2
    w2sq = eq.freq2 ** 2
    return np.array([
        -2.0 * m1 * lam * (m1 * n1 * w1sq + m2 * n2 * w2sq),
        2.0 * (m2 * n2 * w2sq - 4.0 * m1 * n1 ** 2 * n2 + m1 * n1 * lam ** 2),
        m1 * (4.0 * m1 * n1 ** 2 * w1sq - m2 * w1sq * w2sq + m2 * w2sq * lam ** 2),
        -m1 * lam * (w1sq + 4.0 * n1 * n2 - lam ** 2),
    ])


def eigvec_coefficients(eq: EquivalentParams, spec: ModeSpectrum) -> ModeCoefficients:
    """Polynomial left-eigenvector components for both modes.

    Raises NormalizationError when the norm-square ``2(k2 k3 - k0 k1)`` is
    not positive, which happens exactly when the coefficient polynomials
    degenerate (the undeformed limit); the decoupled branch of
    :func:`ground_state` covers that case.
    """
    rows = np.array([_mode_coeff_row(spec.freq1, eq), _mode_coeff_row(spec.freq2, eq)])
    norms = []
    hj = (build_symplectic_form(2, Ordering.MODE_INTERLEAVED).matrix
          @ equivalent_hamiltonian_matrix(eq))
    for j, lam in enumerate((spec.freq1, spec.freq2)):
        k0, k1, k2, k3 = rows[j]
        norm_sq = 2.0 * (k2 * k3 - k0 * k1)
        if norm_sq <= 0:
            raise NormalizationError(
                f"mode {j + 1} eigenvector norm-square is {norm_sq:.3e}; "
                "coefficients degenerate at this parameter point")
        norms.append(1.0 / math.sqrt(norm_sq))
        chi = np.array([1j * k0, k1, k2, 1j * k3])
        scale = np.abs(chi).max()
        residual = np.abs(chi @ hj + 1j * lam * chi).max()
        if residual > NORMAL_MODE_CHECK_TOL * max(scale, 1.0):
            raise NumericDomainError(
                f"mode {j + 1} left-eigenvector residual {residual:.3e} exceeds tolerance")
    return ModeCoefficients(coeffs=rows, norms=(norms[0], norms[1]))


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

    def __post_init__(self):
        if self.m11 <= 0 or self.m22 <= 0:
            raise NumericDomainError("ground state is not normalizable: diagonal must be positive")

    @property
    def weighted_det(self) -> float:
        return self.m11 * self.m22 + self.cross_imag ** 2


def ground_state_exponent(coeffs: ModeCoefficients, hbar: float) -> GroundStateExponent:
    """Exponent matrix from the eigenvector components, two routes checked.

    The display ratios and the matrix route ``(i/hbar) Up^-1 Ux`` must agree
    to ``EXPONENT_CHECK_TOL``, and the matrix route must show the real/imaginary
    structure to the same tolerance.
    """
    (k10, k11, k12, k13), (k20, k21, k22, k23) = coeffs.coeffs
    den = hbar * (k11 * k23 - k21 * k13)
    if abs(den) < SINGULAR_MOMENTUM_TOL * max(1.0, np.abs(coeffs.coeffs).max() ** 2):
        raise NormalizationError("momentum coefficient matrix is singular; ansatz not normalizable")
    m11 = (k13 * k20 - k23 * k10) / den
    m22 = (k11 * k22 - k21 * k12) / den
    cross = (k23 * k12 - k13 * k22) / den
    cross_alt = (k20 * k11 - k21 * k10) / den
    # matrix route: Up rows (k1, i k3), Ux rows (i k0, k2)
    ux = np.array([[1j * k10, k12], [1j * k20, k22]])
    up = np.array([[k11, 1j * k13], [k21, 1j * k23]])
    mat = 1j / hbar * np.linalg.solve(up, ux)
    scale = max(1.0, np.abs(mat).max())
    structure = max(abs(mat[0, 0].imag), abs(mat[1, 1].imag),
                    abs(mat[0, 1].real), abs(mat[1, 0].real),
                    np.abs(mat[0, 1] - mat[1, 0]).max())
    if structure > EXPONENT_CHECK_TOL * scale:
        raise NumericDomainError(f"exponent matrix structure violation: {structure:.3e}")
    dev = max(abs(mat[0, 0].real - m11), abs(mat[1, 1].real - m22),
              abs(mat[0, 1].imag - cross), abs(cross_alt - cross))
    if dev > EXPONENT_CHECK_TOL * scale:
        raise NumericDomainError(f"exponent ratios deviate from matrix route by {dev:.3e}")
    return GroundStateExponent(m11=float(m11), m22=float(m22), cross_imag=float(cross))


def _decoupled(eq: EquivalentParams, scale: float) -> bool:
    return max(abs(eq.coupling1), abs(eq.coupling2)) < DECOUPLED_TOL * scale


def ground_state(p: OscillatorParams) -> GroundStateExponent:
    """Ground-state exponent for arbitrary admissible parameters.

    Runs the eigenvector pipeline; in the exactly decoupled case (both cross
    couplings zero, i.e. no deformation) the ground state is the product of
    two independent oscillator ground states and is written down directly.
    """
    eq = equivalent_params(p)
    if _decoupled(eq, max(eq.freq1, eq.freq2)):
        return GroundStateExponent(m11=eq.mass1 * eq.freq1 / p.hbar,
                                   m22=eq.mass2 * eq.freq2 / p.hbar,
                                   cross_imag=0.0)
    spec = mode_spectrum(eq)
    coeffs = eigvec_coefficients(eq, spec)
    return ground_state_exponent(coeffs, p.hbar)


def ground_state_cvm(exponent: GroundStateExponent, hbar: float) -> CovarianceMatrix:
    """Covariance matrix of the Gaussian ground state (interleaved basis)."""
    m11, m22 = exponent.m11, exponent.m22
    cross = exponent.cross_imag
    wdet = exponent.weighted_det
    v11 = np.diag([1.0 / (hbar * m11), hbar * wdet / m22])
    v22 = np.diag([1.0 / (hbar * m22), hbar * wdet / m11])
    v12 = np.array([[0.0, -cross / m11], [-cross / m22, 0.0]])
    m = hbar / 2.0 * np.block([[v11, v12], [v12.T, v22]])
    try:
        return CovarianceMatrix(m, ordering=Ordering.MODE_INTERLEAVED)
    except NumericDomainError as exc:
        raise NumericDomainError(f"inconsistent exponent produced a non-SPD state: {exc}") from exc


def separability_sides(p: OscillatorParams) -> tuple[float, float]:
    """Both sides of the closed-form separability constraint on the inputs."""
    m12 = p.mass1 * p.mass2
    h2 = p.hbar ** 2
    w1s, w2s = p.freq1 ** 2, p.freq2 ** 2
    lhs = (4.0 * h2 / m12 + w1s * p.theta ** 2) \
        * (p.eta / m12 + w2s * p.theta) ** 2 * (p.eta ** 2 / m12 + 4.0 * h2 * w1s)
    rhs = (4.0 * h2 / m12 + w2s * p.theta ** 2) \
        * (p.eta / m12 + w1s * p.theta) ** 2 * (p.eta ** 2 / m12 + 4.0 * h2 * w2s)
    return lhs, rhs


@dataclass(frozen=True)
class SeparabilityReport:
    separable: bool
    lhs_rhs_gap: float
    cross_imag: float


def separability_condition(p: OscillatorParams) -> SeparabilityReport:
    """Ground-state separability verdict with the closed-form gap.

    Separable exactly when the imaginary cross coupling of the ground-state
    exponent vanishes; the gap between the two sides of the closed-form
    frequency constraint is reported alongside and must agree in its zero
    set.
    """
    exponent = ground_state(p)
    lhs, rhs = separability_sides(p)
    return SeparabilityReport(
        separable=bool(abs(exponent.cross_imag) < ZERO_COUPLING_TOL),
        lhs_rhs_gap=float(lhs - rhs),
        cross_imag=float(exponent.cross_imag),
    )
