"""Independent numpy reference for every output the benchmark checks.

Nothing here imports ``ginfo``. The matrices are rebuilt from the formulas in
the ginfo docstrings, and every symplectic spectrum takes the Hermitian route
``2 |eigvalsh(i S^1/2 W^-1 S^1/2)|`` on whole stacks, not the
``eigvals(W^-1 S)`` pairing route that ginfo uses. Agreement between the two
routes is therefore a real check, not a replay.
"""

from __future__ import annotations

import math

import numpy as np

# Tolerances, in the units of the quantity compared.
MARGIN_TOL = 1e-9        # sweep margins and invariants (as in the acceptance suite)
REL_TOL = 1e-9           # distances, metrics, volumes (relative)
RSUP_SLACK = 1e-10       # ginfo's uncertainty threshold is 1 - RSUP_SLACK
SPD_FLOOR = 1e-12        # ginfo rejects matrices whose smallest eigenvalue is below this

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
I2 = np.eye(2)
SZ = np.diag([1.0, -1.0])
FORM4 = np.kron(np.eye(2), J2)                    # two modes, interleaved
_PARTY_BLOCK = np.block([[np.zeros((2, 2)), I2], [-I2, np.zeros((2, 2))]])
PARTY_FORM = np.kron(np.eye(2), _PARTY_BLOCK)     # pair, party basis (x1, x2, p1, p2) x 2
REFLECT_B = np.array([1.0, 1, 1, 1, 1, 1, -1, -1])


def symplectic_invariants(sigma, form) -> np.ndarray:
    """Ascending symplectic invariants of a stack ``(..., 2n, 2n)``."""
    sigma = np.asarray(sigma, dtype=float)
    form = np.broadcast_to(np.asarray(form, dtype=float), sigma.shape)
    w, v = np.linalg.eigh(sigma)
    root = (v * np.sqrt(w)[..., None, :]) @ np.swapaxes(v, -1, -2)
    herm = 1j * (root @ np.linalg.inv(form) @ root)
    herm = 0.5 * (herm + np.conj(np.swapaxes(herm, -1, -2)))
    vals = 2.0 * np.linalg.eigvalsh(herm)
    half = sigma.shape[-1] // 2
    return vals[..., half:]


# ---------------------------------------------------------------------------
# bipartite pair under a Bopp shift

def pair_state(m: float, n: float) -> np.ndarray:
    """``(b/2) [[I, g], [g, I]]`` with ``g = [[n I, m sz], [m sz, -n I]]``."""
    radius = math.hypot(m, n)
    scale = (1.0 + radius) / (1.0 - radius)
    gamma = np.block([[n * I2, m * SZ], [m * SZ, -n * I2]])
    return scale / 2.0 * np.block([[np.eye(4), gamma.T], [gamma, np.eye(4)]])


def pair_margins(m: float, n: float, eta: float, thetas) -> np.ndarray:
    """Minimum reflected invariant minus one, for each theta at once."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    shift = np.zeros((thetas.size, 8, 8))
    for base in (0, 4):
        shift[:, base:base + 2, base:base + 2] = I2
        shift[:, base + 2:base + 4, base + 2:base + 4] = I2
        shift[:, base:base + 2, base + 2:base + 4] = -thetas[:, None, None] / 2.0 * J2
        shift[:, base + 2:base + 4, base:base + 2] = eta / 2.0 * J2
    shift_t = np.swapaxes(shift, -1, -2)
    state = shift @ pair_state(m, n) @ shift_t
    state = state * np.outer(REFLECT_B, REFLECT_B)
    form = shift @ PARTY_FORM @ shift_t
    return symplectic_invariants(state, form)[:, 0] - 1.0


def first_crossing(grid, margins):
    """Index of the first neighbour pair whose margins change sign, or None."""
    for i in range(len(grid) - 1):
        lo, hi = margins[i], margins[i + 1]
        if lo >= 0.0 > hi or lo < 0.0 <= hi:
            return i
    return None


def bisection_steps(lo: float, hi: float, tol: float) -> int:
    """Halvings of ``[lo, hi]`` until its width is at most ``tol``."""
    steps = 0
    while hi - lo > tol:
        lo = 0.5 * (lo + hi)
        steps += 1
    return steps


def refine_crossing(m, n, eta, lo, hi, tol=1e-13) -> float:
    """Sign change of the oracle margin inside ``[lo, hi]``, to ``tol``."""
    lo_nonneg = pair_margins(m, n, eta, lo)[0] >= 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if (pair_margins(m, n, eta, mid)[0] >= 0.0) == lo_nonneg:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def check_sweep(m, n, eta, thetas, margins, crossing, bisect_tol) -> list[str]:
    """Problems with one sweep's margins and crossing; empty when correct."""
    grid = np.sort(np.asarray(thetas, dtype=float))
    expected = pair_margins(m, n, eta, grid)
    problems = []
    worst = float(np.max(np.abs(np.asarray(margins) - expected)))
    if not worst <= MARGIN_TOL:
        problems.append(f"margin off by {worst:.3e}")
    idx = first_crossing(grid, expected)
    if idx is None:
        if crossing is not None:
            problems.append(f"crossing {crossing} reported where the oracle has none")
    elif crossing is None:
        problems.append("no crossing reported where the oracle has one")
    else:
        ref = refine_crossing(m, n, eta, grid[idx], grid[idx + 1])
        if not abs(crossing - ref) <= bisect_tol:
            problems.append(f"crossing {crossing} vs oracle {ref}")
    return problems


def sweep_margin_calls(m, n, eta, thetas, bisect_tol) -> int:
    """Margin evaluations a scalar sweep with bisection must make."""
    grid = np.sort(np.asarray(thetas, dtype=float))
    idx = first_crossing(grid, pair_margins(m, n, eta, grid))
    steps = 0 if idx is None else bisection_steps(grid[idx], grid[idx + 1], bisect_tol)
    return grid.size + steps


# ---------------------------------------------------------------------------
# canonical two-mode family

_BASIS = np.zeros((4, 4, 4))
_BASIS[0][[0, 1], [0, 1]] = 1.0          # d/da
_BASIS[1][[2, 3], [2, 3]] = 1.0          # d/db
_BASIS[2][[0, 2], [2, 0]] = 1.0          # d/dc
_BASIS[3][[1, 3], [3, 1]] = 1.0          # d/dd


def canonical(params) -> np.ndarray:
    """Stack of canonical matrices from rows ``(a, b, c, d)``."""
    params = np.atleast_2d(np.asarray(params, dtype=float))
    return np.einsum("sk,kij->sij", params, _BASIS)


def fisher_metric(params) -> np.ndarray:
    """``g_mn = Tr[S^-1 dS_m S^-1 dS_n] / 2`` on a stack of parameter rows."""
    inv = np.linalg.inv(canonical(params))
    left = np.einsum("sij,kjl->skil", inv, _BASIS)
    return 0.5 * np.einsum("smij,snji->smn", left, left)


def min_invariant(sigma) -> np.ndarray:
    return symplectic_invariants(sigma, FORM4)[..., 0]


def partial_transpose(sigma) -> np.ndarray:
    """Flip the momentum of the second mode (interleaved basis)."""
    signs = np.array([1.0, 1.0, 1.0, -1.0])
    return np.asarray(sigma) * np.outer(signs, signs)


def region_members(params, predicate: str):
    """Membership mask and the count of samples that reach the PPT step."""
    params = np.atleast_2d(params)
    sigma = canonical(params)
    positive = (params[:, 0] > 0) & (params[:, 1] > 0)
    spd = positive & (np.linalg.eigvalsh(sigma).min(axis=-1) > SPD_FLOOR)
    physical = np.zeros(len(params), dtype=bool)
    physical[spd] = min_invariant(sigma[spd]) >= 1.0 - RSUP_SLACK
    if predicate == "quantum":
        return physical, 0
    separable = np.zeros(len(params), dtype=bool)
    separable[physical] = min_invariant(partial_transpose(sigma[physical])) >= 1.0 - RSUP_SLACK
    member = separable if predicate == "separable" else physical & ~separable
    return member, int(physical.sum())


def volume(box, predicate, kappa, power, samples, seed) -> dict:
    """Regularized Monte-Carlo volume from the same seeded draws as ginfo."""
    lows = np.array([lo for lo, _ in box])
    highs = np.array([hi for _, hi in box])
    box_volume = float(np.prod(highs - lows))
    draws = np.random.default_rng(seed).uniform(lows, highs, size=(samples, 4))
    member, ppt_calls = region_members(draws, predicate)
    values = np.zeros(samples)
    if member.any():
        inside = draws[member]
        w = np.linalg.eigvalsh(canonical(inside))
        det = np.prod(w, axis=-1)
        adj_trace = np.sum(det[:, None] / w, axis=-1)
        det_g = np.linalg.det(fisher_metric(inside))
        values[member] = (np.exp(-adj_trace / kappa) * np.log1p(det ** power)
                          * np.sqrt(np.maximum(det_g, 0.0)))
    return {"volume": box_volume * values.mean(),
            "std_error": box_volume * values.std(ddof=1) / math.sqrt(samples),
            "accepted": int(member.sum()), "ppt_calls": ppt_calls}


def check_volume(expected: dict, volume, std_error, accepted) -> list[str]:
    problems = []
    if accepted != expected["accepted"]:
        problems.append(f"accepted {accepted} vs oracle {expected['accepted']}")
    for name, got in (("volume", volume), ("std_error", std_error)):
        ref = expected[name]
        if not abs(got - ref) <= REL_TOL * max(abs(ref), 1e-300):
            problems.append(f"{name} {got!r} vs oracle {ref!r}")
    return problems


def distance(sigma1, sigma2) -> tuple[float, np.ndarray]:
    """Half-prefactor affine-invariant distance and the generalized eigenvalues."""
    lam = np.sort(np.linalg.eigvals(np.linalg.solve(sigma1, sigma2)).real)
    return math.sqrt(0.5 * float(np.sum(np.log(lam) ** 2))), lam


def close(got, ref, rel=REL_TOL) -> bool:
    """Same shape, and every entry within ``rel`` of the larger of max |ref| and 1."""
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    return got.shape == ref.shape and bool(
        np.all(np.abs(got - ref) <= rel * np.maximum(np.abs(ref).max(initial=0.0), 1.0)))
