"""Seeded random matrices for the property batteries and the CLI self checks.

Every generator draws only from the ``numpy.random.Generator`` it is given,
so a seed fixes the matrix. None of the spectral kernels depends on this
module.
"""

from __future__ import annotations

import numpy as np

from .symplectic import Ordering, build_symplectic_form


def random_spd(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random well-conditioned SPD matrix ``A A^T + I/2``."""
    a = rng.normal(size=(dim, dim))
    return a @ a.T + 0.5 * np.eye(dim)


def random_invertible(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random invertible matrix with singular values in [1/2, 2]."""
    q1, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    q2, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    s = np.exp(rng.uniform(np.log(0.5), np.log(2.0), size=dim))
    return q1 @ np.diag(s) @ q2


def random_symplectic(n_modes: int, rng: np.random.Generator,
                      ordering: Ordering = Ordering.MODE_INTERLEAVED) -> np.ndarray:
    """Random symplectic matrix, the Cayley transform of ``H = J A``.

    With A symmetric, H is Hamiltonian and ``(I - H/2)^-1 (I + H/2)``
    preserves J exactly in exact arithmetic. The map is ill-conditioned
    when an eigenvalue of ``H/2`` nears 1; with A's entries of scale 1/2
    that stays rare for one and two modes.
    """
    j = build_symplectic_form(n_modes, ordering).matrix
    a = rng.normal(size=(2 * n_modes, 2 * n_modes), scale=0.5)
    half = 0.5 * (j @ (0.5 * (a + a.T)))
    eye = np.eye(2 * n_modes)
    return np.linalg.solve(eye - half, eye + half)


def random_local_symplectic(rng: np.random.Generator) -> np.ndarray:
    """Block-diagonal pair of single-mode symplectics (interleaved basis)."""
    s1 = random_symplectic(1, rng)
    s2 = random_symplectic(1, rng)
    out = np.zeros((4, 4))
    out[:2, :2] = s1
    out[2:, 2:] = s2
    return out
