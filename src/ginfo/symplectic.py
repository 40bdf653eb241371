"""Dense small-matrix kernels for Gaussian phase-space states.

Symplectic forms in three named coordinate orderings, symplectic spectra,
uncertainty checks, SPD square roots and generalized eigenvalues (from two
Cholesky factors), on plain ``numpy`` arrays. A wrapper names its ordering,
and the verdicts read a state's form from it; a raw array trusts its caller's
basis.

Conventions: the uncertainty threshold is 1, i.e. the spectrum returned by
:func:`symplectic_spectrum` is ``2 |Im eig(Omega^-1 Sigma)|`` and the vacuum
(``Sigma = I/2``) sits exactly at 1. Deformed forms carry their effective
Planck constant inside the form matrix itself, never as a separate scale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NumericDomainError, SingularMatrixError
from .policy import RSUP_SLACK, SINGULAR_RCOND, SPD_TOL, SYMMETRY_TOL

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


class Ordering(Enum):
    """Phase-space coordinate ordering of a 2n-dimensional vector."""

    MODE_INTERLEAVED = "mode_interleaved"   # (x1, p1, x2, p2, ...)
    BLOCK_XP = "block_xp"                   # (x1, ..., xn, p1, ..., pn)
    PARTY_BLOCK_XP = "party_block_xp"       # two equal parties in BLOCK_XP, party A first


def _party_size(n_modes: int) -> int:
    if n_modes % 2:
        raise ValueError(f"cannot split {n_modes} modes into two equal parties")
    return n_modes // 2


def _xp_positions(n_modes: int, ordering: Ordering) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``(x1, ..., xn)`` and of ``(p1, ..., pn)`` in a vector of ``ordering``.

    The one coordinate map: forms, permutations and reflections read it.
    """
    k = np.arange(n_modes)
    if ordering is Ordering.MODE_INTERLEAVED:
        return 2 * k, 2 * k + 1
    if ordering is Ordering.BLOCK_XP:
        return k, n_modes + k
    if ordering is Ordering.PARTY_BLOCK_XP:
        half = _party_size(n_modes)
        x = k + (k // half) * half   # party B starts after party A's 2 * half coordinates
        return x, x + half
    raise ValueError(f"unknown ordering {ordering!r}")


def _freeze(matrix) -> np.ndarray:
    out = np.array(matrix, dtype=float)
    out.setflags(write=False)
    return out


def as_matrix(obj) -> np.ndarray:
    """Return the underlying ndarray of a wrapper, or the array itself."""
    if isinstance(obj, (CovarianceMatrix, SymplecticForm)):
        return obj.matrix
    return np.asarray(obj, dtype=float)


def _check_finite(names: str, *values) -> None:
    """Raise ValueError unless every one of the named parameter values is finite."""
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{names} must be finite, got {values}")


def _check_stack_square_even(matrix: np.ndarray) -> int:
    """Mode count n of a ``(..., 2n, 2n)`` stack of square matrices."""
    if matrix.ndim < 2 or matrix.shape[-1] != matrix.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {matrix.shape}")
    if matrix.shape[-1] % 2:
        raise ValueError(f"phase-space dimension must be even, got {matrix.shape[-1]}")
    return matrix.shape[-1] // 2


def _check_square_even(matrix: np.ndarray) -> int:
    if matrix.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    return _check_stack_square_even(matrix)


def _check_invertible(matrix: np.ndarray, what: str) -> None:
    """Raise SingularMatrixError unless ``matrix`` is invertible to working precision.

    The test is scale-free: the smallest singular value must exceed
    ``SINGULAR_RCOND`` times the largest, so ``c M`` passes exactly when ``M``
    does. It multiplies and never divides, so a zero matrix fails it cleanly,
    also under ``np.errstate(divide="raise")``.
    """
    sv = np.linalg.svd(matrix, compute_uv=False)
    if not sv[-1] > SINGULAR_RCOND * sv[0]:
        raise SingularMatrixError(f"{what} is singular: singular values "
                                  f"{sv[-1]:.3e} to {sv[0]:.3e}")


def check_spd(matrix) -> np.ndarray:
    """Validate symmetry and positive definiteness, returning the array.

    Accepts a single matrix or a ``(..., 2n, 2n)`` stack; a stack passes only
    if every member does. Non-finite entries are rejected.
    """
    m = as_matrix(matrix)
    _check_stack_square_even(m)
    with np.errstate(invalid="ignore"):
        asym = np.abs(m - np.swapaxes(m, -1, -2)).max(initial=0.0)
    # a nan or inf entry makes asym nan or inf, so this also stops non-finite
    # input before LAPACK sees it
    if not asym <= SYMMETRY_TOL:
        fault = "is not symmetric" if np.isfinite(asym) else "has non-finite entries"
        raise NumericDomainError(f"matrix {fault}: max |M - M^T| = {asym:.3e}")
    _check_min_eigenvalue(np.linalg.eigvalsh(m).min(initial=np.inf))
    return m


def _check_min_eigenvalue(lam_min) -> None:
    """Raise NumericDomainError unless a state's smallest eigenvalue exceeds ``SPD_TOL``."""
    if not lam_min > SPD_TOL:
        raise NumericDomainError(f"matrix is not positive definite: min eigenvalue = "
                                 f"{lam_min:.3e} <= SPD_TOL = {SPD_TOL:g}")


def _check_spd_matrix(matrix) -> np.ndarray:
    """:func:`check_spd` for one-matrix kernels; a CovarianceMatrix was checked when built."""
    if isinstance(matrix, CovarianceMatrix):
        return matrix.matrix
    m = as_matrix(matrix)
    _check_square_even(m)
    return check_spd(m)


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Symmetric positive-definite matrix of symmetrized second moments.

    ``ordering`` names the basis, which gives the matrix its standard form
    and its matrix-file header (:mod:`ginfo.matrixio`); a bipartite pair
    state is in ``Ordering.PARTY_BLOCK_XP``, which needs an even mode count.
    """

    matrix: np.ndarray
    ordering: Ordering = Ordering.MODE_INTERLEAVED

    def __post_init__(self):
        m = _check_spd_matrix(np.asarray(self.matrix, dtype=float))
        if self.ordering is Ordering.PARTY_BLOCK_XP:
            _party_size(len(m) // 2)
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2


def _validated(matrix: np.ndarray, ordering: Ordering) -> CovarianceMatrix:
    """Wrap a matrix known to be symmetric positive definite, unchecked.

    Takes ownership: a float array is not copied but made read-only in place,
    so the caller must not write to it afterwards.
    """
    matrix = np.asarray(matrix, dtype=float)
    matrix.setflags(write=False)
    cvm = object.__new__(CovarianceMatrix)
    object.__setattr__(cvm, "matrix", matrix)
    object.__setattr__(cvm, "ordering", ordering)
    return cvm


@dataclass(frozen=True, eq=False)
class SymplecticForm:
    """Antisymmetric invertible matrix encoding the commutation relations.

    Checked once when built, so :func:`symplectic_spectrum` does not test its
    invertibility again. Non-finite entries are rejected before the
    invertibility test sees them.
    """

    matrix: np.ndarray
    ordering: Ordering = Ordering.MODE_INTERLEAVED

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        _check_square_even(m)
        with np.errstate(invalid="ignore"):
            asym = np.abs(m + m.T).max()
        # a nan or inf entry makes asym nan or inf; it must not reach the SVD
        if not asym <= SYMMETRY_TOL:
            fault = "is not antisymmetric" if np.isfinite(asym) else "has non-finite entries"
            raise NumericDomainError(f"form {fault}: max |M + M^T| = {asym:.3e}")
        _check_invertible(m, "symplectic form")
        object.__setattr__(self, "matrix", _freeze(m))


@functools.cache
def build_symplectic_form(n_modes: int, ordering: Ordering = Ordering.MODE_INTERLEAVED) -> SymplecticForm:
    """Undeformed form for ``n_modes`` modes in the requested ordering.

    ``[x_k, p_k] = 1`` wherever ``ordering`` puts x_k and p_k: ``diag(J2, ...)``
    in MODE_INTERLEAVED, ``[[0, I], [-I, 0]]`` in BLOCK_XP, one per party. A
    signed permutation is a valid form, so it is wrapped unchecked, once per
    ``(n_modes, ordering)`` given positionally, and shared read-only.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    x, p = _xp_positions(n_modes, ordering)
    m = np.zeros((2 * n_modes, 2 * n_modes))
    m[x, p] = 1.0
    m[p, x] = -1.0
    m.setflags(write=False)
    form = object.__new__(SymplecticForm)
    object.__setattr__(form, "matrix", m)
    object.__setattr__(form, "ordering", ordering)
    return form


def permute_ordering(matrix: np.ndarray, source: Ordering, target: Ordering) -> np.ndarray:
    """Move a raw matrix from ``source`` to ``target`` ordering, entries unchanged."""
    m = np.asarray(matrix, dtype=float)
    n = _check_square_even(m)
    source_at, target_at = (np.concatenate(_xp_positions(n, o)) for o in (source, target))
    # entry i of a target vector is entry take[i] of the source vector
    take = source_at[np.argsort(target_at)]
    return m[np.ix_(take, take)]


def _check_same_ordering(first, second, names: tuple[str, str]) -> None:
    """Raise ValueError if two wrappers name different orderings; a raw array names none."""
    a, b = getattr(first, "ordering", None), getattr(second, "ordering", None)
    if a is not None and b is not None and a is not b:
        raise ValueError(f"ordering mismatch: {names[0]} {a} vs {names[1]} {b}")


def _check_compatible(sigma, form) -> tuple[np.ndarray, np.ndarray]:
    s, w = as_matrix(sigma), as_matrix(form)
    if s.shape[-2:] != w.shape:
        raise ValueError(f"size mismatch: state {s.shape} vs form {w.shape}")
    _check_same_ordering(sigma, form, ("state", "form"))
    return s, w


def symplectic_spectrum(sigma, form) -> np.ndarray:
    """Symplectic (Williamson) invariants of a state with respect to a form.

    Args:
        sigma: SPD state matrix (CovarianceMatrix or ndarray), or a
            ``(..., 2n, 2n)`` ndarray stack of them.
        form: one invertible antisymmetric form in the same basis, shared by
            every member of a stack. A CovarianceMatrix and a SymplecticForm
            must name the same ordering; a raw array names none.

    Returns:
        The n moduli of the conjugate eigenvalue pairs of ``Omega^-1 Sigma``
        times 2, sorted ascending, with shape ``(..., n)``. With this scaling
        the uncertainty threshold is exactly 1. Each member's spectrum is the
        one a separate call on that member returns, to the last bit; a stack
        raises if any member fails validation.

    Every form, standard or deformed, takes ``Omega^-1 Sigma`` through
    ``solve``, so a SymplecticForm and its raw matrix give the same bits. A
    raw form is first checked for invertibility, which a SymplecticForm's
    constructor already did.
    """
    s, w = _check_compatible(sigma, form)
    if not isinstance(sigma, CovarianceMatrix):
        s = check_spd(s)
    if not isinstance(form, SymplecticForm):
        _check_invertible(w, "symplectic form")
    eigvals = np.linalg.eigvals(np.linalg.solve(w, s))
    # LAPACK returns the complex eigenvalues of a real matrix in exact
    # conjugate pairs, and an even dimension leaves an even number of real
    # ones, so the sorted moduli pair up exactly; their sum is twice their
    # mean, the scaling the threshold 1 needs
    vals = np.sort(np.abs(eigvals.imag), axis=-1)
    return vals[..., 0::2] + vals[..., 1::2]


@dataclass(frozen=True)
class RsupResult:
    valid: bool
    min_invariant: float


def rsup_check(sigma: CovarianceMatrix) -> RsupResult:
    """Robertson-Schrodinger uncertainty check against the undeformed form of the
    state's ordering: all invariants >= 1 (a deformed form takes :func:`symplectic_spectrum`)."""
    if not isinstance(sigma, CovarianceMatrix):
        raise ValueError("rsup_check needs a CovarianceMatrix, which names its ordering")
    spectrum = symplectic_spectrum(sigma, build_symplectic_form(sigma.n_modes, sigma.ordering))
    lo = float(spectrum[0])
    return RsupResult(valid=lo >= 1.0 - RSUP_SLACK, min_invariant=lo)


def matrix_sqrt_spd(matrix) -> np.ndarray:
    """Symmetric positive-definite square root via eigendecomposition.

    Degenerate eigenvalues are fine; only symmetry and positivity are
    required. ``R @ R`` reproduces the input to roundoff.
    """
    m = _check_spd_matrix(matrix)
    w, v = np.linalg.eigh(m)
    root = (v * np.sqrt(w)) @ v.T
    return 0.5 * (root + root.T)


def generalized_eigenvalues(sigma1, sigma2) -> np.ndarray:
    """Roots of ``det(Sigma2 - lam Sigma1) = 0``, sorted ascending.

    With the Cholesky factors ``Sigma_i = L_i L_i^T`` they are the squared
    singular values of ``L1^-1 L2``, so none can come out negative. The SVD
    is accurate relative to the largest singular value: ``lam_j`` is good to
    tens of ``eps sqrt(lam_max / lam_j)``, relative, also on states whose
    rows and columns are graded by up to ``2^+-12``. Two CovarianceMatrix
    inputs must name the same ordering. A state that passes :func:`check_spd`
    but has no Cholesky factor (``lam_min / lam_max`` near ``eps``) is named.
    """
    m1, m2 = _check_spd_matrix(sigma1), _check_spd_matrix(sigma2)
    if m1.shape != m2.shape:
        raise ValueError(f"size mismatch: {m1.shape} vs {m2.shape}")
    _check_same_ordering(sigma1, sigma2, ("state 1", "state 2"))
    factors = []
    for which, m in (("1", m1), ("2", m2)):
        try:
            factors.append(np.linalg.cholesky(m))
        except np.linalg.LinAlgError:
            lam = np.linalg.eigvalsh(m)
            raise NumericDomainError(f"state {which} is not numerically positive definite: "
                                     f"lam_min/lam_max = {lam[0] / lam[-1]:.3e}") from None
    sv = np.linalg.svd(np.linalg.solve(*factors), compute_uv=False)
    vals = sv[::-1] ** 2
    if not vals[0] > 0:
        raise NumericDomainError(f"generalized eigenvalue underflows to 0: sigma = {sv[-1]:.3e}")
    return vals
