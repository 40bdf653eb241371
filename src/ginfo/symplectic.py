"""Dense small-matrix kernels for Gaussian phase-space states.

Symplectic forms in the two common coordinate orderings, symplectic spectra,
uncertainty checks, congruence transforms, SPD square roots and generalized
eigenvalues. Everything operates on plain ``numpy`` arrays; the light wrapper
types carry the phase-space ordering so callers cannot silently mix bases.

Conventions: the uncertainty threshold is 1, i.e. the spectrum returned by
:func:`symplectic_spectrum` is ``2 |Im eig(Omega^-1 Sigma)|`` and the vacuum
(``Sigma = I/2``) sits exactly at 1. Deformed forms carry their effective
Planck constant inside the form matrix itself, never as a separate scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import NumericDomainError, SingularMatrixError
from .policy import RSUP_SLACK, SINGULAR_FORM_TOL, SINGULAR_TRANSFORM_TOL, SPD_TOL, SYMMETRY_TOL

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


class Ordering(Enum):
    """Phase-space coordinate ordering of a 2n-dimensional vector."""

    MODE_INTERLEAVED = "mode_interleaved"   # (x1, p1, x2, p2, ...)
    BLOCK_XP = "block_xp"                   # (x1, ..., xn, p1, ..., pn)


def _freeze(matrix) -> np.ndarray:
    out = np.array(matrix, dtype=float)
    out.setflags(write=False)
    return out


def as_matrix(obj) -> np.ndarray:
    """Return the underlying ndarray of a wrapper, or the array itself."""
    if isinstance(obj, (CovarianceMatrix, SymplecticForm)):
        return obj.matrix
    return np.asarray(obj, dtype=float)


def _ordering_of(obj):
    if isinstance(obj, (CovarianceMatrix, SymplecticForm)):
        return obj.ordering
    return None


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
    lam_min = np.linalg.eigvalsh(m).min(initial=np.inf)
    if lam_min <= SPD_TOL:
        raise NumericDomainError(f"matrix is not positive definite: min eigenvalue = {lam_min:.3e}")
    return m


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

    ``ordering`` may be None for caller-managed bases (e.g. a party-blocked
    layout); such objects cannot be re-ordered but work with every spectral
    kernel as long as the companion form uses the same basis.
    """

    matrix: np.ndarray
    ordering: Ordering | None = Ordering.MODE_INTERLEAVED

    def __post_init__(self):
        m = _check_spd_matrix(np.asarray(self.matrix, dtype=float))
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2


def _validated(matrix: np.ndarray, ordering: Ordering | None) -> CovarianceMatrix:
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

    ``orthogonal`` records whether ``M^T M == I`` holds exactly, as it does
    for every signed-permutation form (:func:`build_symplectic_form`);
    :func:`symplectic_spectrum` then uses ``M^T`` as the inverse. Non-finite
    entries are rejected before any property is derived from them.
    """

    matrix: np.ndarray
    ordering: Ordering | None = Ordering.MODE_INTERLEAVED
    orthogonal: bool = field(init=False, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        _check_square_even(m)
        with np.errstate(invalid="ignore"):
            asym = np.abs(m + m.T).max()
        # a nan or inf entry makes asym nan or inf; it must not reach det
        if not asym <= SYMMETRY_TOL:
            fault = "is not antisymmetric" if np.isfinite(asym) else "has non-finite entries"
            raise NumericDomainError(f"form {fault}: max |M + M^T| = {asym:.3e}")
        if abs(np.linalg.det(m)) < SINGULAR_FORM_TOL:
            raise SingularMatrixError("symplectic form is singular")
        object.__setattr__(self, "matrix", _freeze(m))
        object.__setattr__(self, "orthogonal", np.array_equal(m.T @ m, np.eye(len(m))))

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2


def build_symplectic_form(n_modes: int, ordering: Ordering = Ordering.MODE_INTERLEAVED) -> SymplecticForm:
    """Undeformed form for ``n_modes`` modes in the requested ordering.

    MODE_INTERLEAVED gives ``diag(J2, ..., J2)``; BLOCK_XP gives
    ``[[0, I], [-I, 0]]``.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    if ordering is Ordering.MODE_INTERLEAVED:
        m = np.kron(np.eye(n_modes), J2)
    elif ordering is Ordering.BLOCK_XP:
        eye = np.eye(n_modes)
        zero = np.zeros((n_modes, n_modes))
        m = np.block([[zero, eye], [-eye, zero]])
    else:
        raise ValueError(f"unknown ordering {ordering!r}")
    return SymplecticForm(m, ordering=ordering)


def ordering_permutation(n_modes: int, source: Ordering, target: Ordering) -> np.ndarray:
    """Permutation P with ``v_target = P v_source`` (and P^-1 = P^T)."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    if source is target:
        return np.eye(2 * n_modes)
    p = np.zeros((2 * n_modes, 2 * n_modes))
    # rows index BLOCK_XP, columns MODE_INTERLEAVED
    for k in range(n_modes):
        p[k, 2 * k] = 1.0
        p[n_modes + k, 2 * k + 1] = 1.0
    if source is Ordering.MODE_INTERLEAVED and target is Ordering.BLOCK_XP:
        return p
    return p.T


def permute_ordering(matrix: np.ndarray, source: Ordering, target: Ordering) -> np.ndarray:
    """Conjugate a raw matrix from ``source`` to ``target`` ordering."""
    m = np.asarray(matrix, dtype=float)
    n = _check_square_even(m)
    p = ordering_permutation(n, source, target)
    return p @ m @ p.T


def reorder(obj, target: Ordering):
    """Re-express a CovarianceMatrix or SymplecticForm in ``target`` ordering."""
    ordering = _ordering_of(obj)
    if ordering is None:
        raise ValueError("object carries no named ordering; use permute_ordering with an explicit source")
    if isinstance(obj, CovarianceMatrix):
        return CovarianceMatrix(permute_ordering(obj.matrix, ordering, target), ordering=target)
    if isinstance(obj, SymplecticForm):
        return SymplecticForm(permute_ordering(obj.matrix, ordering, target), ordering=target)
    raise TypeError(f"cannot reorder object of type {type(obj).__name__}")


def _check_compatible(sigma, form) -> tuple[np.ndarray, np.ndarray]:
    s = as_matrix(sigma)
    w = as_matrix(form)
    if s.shape[-2:] != w.shape:
        raise ValueError(f"size mismatch: state {s.shape} vs form {w.shape}")
    so, wo = _ordering_of(sigma), _ordering_of(form)
    if so is not None and wo is not None and so is not wo:
        raise ValueError(f"ordering mismatch: state {so} vs form {wo}")
    return s, w


def symplectic_spectrum(sigma, form) -> np.ndarray:
    """Symplectic (Williamson) invariants of a state with respect to a form.

    Args:
        sigma: SPD state matrix (CovarianceMatrix or ndarray), or a
            ``(..., 2n, 2n)`` ndarray stack of them.
        form: one invertible antisymmetric form in the same basis, shared by
            every member of a stack.

    Returns:
        The n moduli of the conjugate eigenvalue pairs of ``Omega^-1 Sigma``
        times 2, sorted ascending, with shape ``(..., n)``. With this scaling
        the uncertainty threshold is exactly 1. Each member's spectrum is the
        one a separate call on that member returns, to the last bit; a stack
        raises if any member fails validation.

    ``Omega^-1 Sigma`` is taken as ``Omega^T Sigma`` for an orthogonal
    SymplecticForm (``SymplecticForm.orthogonal``; every signed-permutation
    form, such as :func:`build_symplectic_form` and the party form of
    :mod:`ginfo.bipartite` give), and through ``solve`` for every other form
    and for a raw array. For a signed permutation both products are exact
    and equal in value. They can differ only in the sign of a zero entry,
    which the eigensolver's Householder steps read: on matrices with such
    zeros the spectra may then differ in the last bits (measured: none on
    mode-interleaved two-mode states, up to 29 ulp on party-basis pair
    states).
    """
    s, w = _check_compatible(sigma, form)
    if not isinstance(sigma, CovarianceMatrix):
        s = check_spd(s)
    if isinstance(form, SymplecticForm):
        orthogonal = form.orthogonal   # the constructor made the |det| check
    else:
        orthogonal = False
        if abs(np.linalg.det(w)) < SINGULAR_FORM_TOL:
            raise SingularMatrixError("symplectic form is singular")
    eigvals = np.linalg.eigvals(w.T @ s if orthogonal else np.linalg.solve(w, s))
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


def rsup_check(sigma, form) -> RsupResult:
    """Robertson-Schrodinger uncertainty check: all invariants >= 1."""
    _check_square_even(as_matrix(sigma))
    spectrum = symplectic_spectrum(sigma, form)
    lo = float(spectrum[0])
    return RsupResult(valid=lo >= 1.0 - RSUP_SLACK, min_invariant=lo)


def _check_invertible_transform(s: np.ndarray, dim: int):
    if s.shape != (dim, dim):
        raise ValueError(f"transform shape {s.shape} does not match dimension {dim}")
    if abs(np.linalg.det(s)) <= SINGULAR_TRANSFORM_TOL:
        raise SingularMatrixError("congruence transform is singular")


def congruence_apply(s, sigma) -> CovarianceMatrix:
    """Transform a state by ``Sigma -> S Sigma S^T``.

    The result carries no named ordering: a general invertible S mixes the
    coordinate roles, so the caller owns the basis bookkeeping.
    """
    sm = np.asarray(s, dtype=float)
    m = _check_spd_matrix(sigma)
    _check_invertible_transform(sm, m.shape[0])
    out = sm @ m @ sm.T
    return CovarianceMatrix(0.5 * (out + out.T), ordering=None)


def congruence_form(s, form) -> SymplecticForm:
    """Transform a form by ``Omega -> S Omega S^T`` (same basis caveat)."""
    sm = np.asarray(s, dtype=float)
    if not isinstance(form, SymplecticForm):
        form = SymplecticForm(as_matrix(form), ordering=None)
    _check_invertible_transform(sm, form.matrix.shape[0])
    out = sm @ form.matrix @ sm.T
    return SymplecticForm(0.5 * (out - out.T), ordering=None)


def matrix_sqrt_spd(matrix) -> np.ndarray:
    """Symmetric positive-definite square root via eigendecomposition.

    Degenerate eigenvalues are fine; only symmetry and positivity are
    required. ``R @ R`` reproduces the input to roundoff.
    """
    m = _check_spd_matrix(matrix)
    w, v = np.linalg.eigh(m)
    root = (v * np.sqrt(w)) @ v.T
    return 0.5 * (root + root.T)


def matrix_inv_sqrt_spd(matrix) -> np.ndarray:
    """Inverse SPD square root, same route as :func:`matrix_sqrt_spd`."""
    m = _check_spd_matrix(matrix)
    w, v = np.linalg.eigh(m)
    root = (v / np.sqrt(w)) @ v.T
    return 0.5 * (root + root.T)


def generalized_eigenvalues(sigma1, sigma2) -> np.ndarray:
    """Eigenvalues of ``Sigma1^-1/2 Sigma2 Sigma1^-1/2``, sorted ascending.

    These solve ``det(Sigma2 - lam Sigma1) = 0``; the symmetric route keeps
    them real and positive for SPD inputs.
    """
    inv_root = matrix_inv_sqrt_spd(sigma1)
    m2 = _check_spd_matrix(sigma2)
    if inv_root.shape != m2.shape:
        raise ValueError(f"size mismatch: {inv_root.shape} vs {m2.shape}")
    vals = np.linalg.eigvalsh(inv_root @ m2 @ inv_root)
    if vals.min() <= 0:
        raise NumericDomainError("generalized eigenvalues came out nonpositive")
    return np.sort(vals)
