"""The one catalogue of seeded property batteries, which is also the route map.

Each battery checks one documented invariant of a module and reports a name,
a pass flag, the number of cases exercised and a short detail string; its
entry in :data:`BATTERIES` also names the route it exercises and the second
route it checks that route against. The catalogue runs behind the CLI
selftest command, and ``tests/test_selftest.py`` reads each battery's verdict
from one run of that command. A property that a battery checks is not
re-checked by a unit test at the same or a looser bound.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import bipartite, fisher, oscillator, states
from .policy import RSUP_SLACK
from .randmat import random_invertible, random_local_symplectic, random_spd, random_symplectic
from .symplectic import (
    CovarianceMatrix,
    Ordering,
    build_symplectic_form,
    generalized_eigenvalues,
    matrix_sqrt_spd,
    permute_ordering,
    rsup_check,
    symplectic_spectrum,
)


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    cases: int
    detail: str


def _result(name, deviation, tol, cases) -> PropertyResult:
    return PropertyResult(name=name, passed=deviation <= tol, cases=cases,
                          detail=f"max deviation {deviation:.3e} (tol {tol:.0e})")


# ---------------------------------------------------------------------------
# symplectic kernels

def _orderings(n_modes: int) -> list[Ordering]:
    """The orderings of ``n_modes`` modes: a party basis needs an even count."""
    return [o for o in Ordering if n_modes % 2 == 0 or o is not Ordering.PARTY_BLOCK_XP]


def battery_form_antisymmetry(rng) -> PropertyResult:
    dev = 0.0
    cases = 0
    for n in (1, 2, 3, 4):
        for ordering in _orderings(n):
            m = build_symplectic_form(n, ordering).matrix
            dev = max(dev, np.abs(m + m.T).max())
            cases += 1
    return _result("form antisymmetry", dev, 0.0, cases)


def battery_williamson_invariance(rng) -> PropertyResult:
    cases = 200
    form = build_symplectic_form(2, Ordering.MODE_INTERLEAVED)
    dev = 0.0
    for _ in range(cases):
        sigma = random_spd(4, rng)
        s = random_symplectic(2, rng)
        moved = s @ sigma @ s.T
        before = symplectic_spectrum(sigma, form)
        after = symplectic_spectrum(0.5 * (moved + moved.T), form)
        dev = max(dev, np.abs(before - after).max())
    return _result("Williamson invariance under symplectic congruence", dev, 1e-8, cases)


def battery_sqrt_round_trip(rng) -> PropertyResult:
    cases = 200
    dev = 0.0
    for _ in range(cases):
        dim = int(rng.choice([2, 4, 8]))
        m = random_spd(dim, rng)
        root = matrix_sqrt_spd(m)
        dev = max(dev, np.abs(root @ root - m).max())
    return _result("SPD square-root round trip", dev, 1e-10, cases)


def battery_geneig_congruence(rng) -> PropertyResult:
    cases = 200
    dev = 0.0
    for _ in range(cases):
        dim = int(rng.choice([4, 8]))
        s1 = random_spd(dim, rng)
        s2 = random_spd(dim, rng)
        t = random_invertible(dim, rng) @ np.diag(10.0 ** rng.uniform(-2.0, 2.0, size=dim))
        before = generalized_eigenvalues(s1, s2)
        # with columns of T scaled over 10^+-2, T S T^T misses SYMMETRY_TOL
        after = generalized_eigenvalues(*(0.5 * (m + m.T) for m in (t @ s1 @ t.T, t @ s2 @ t.T)))
        relative = np.abs(after / before - 1.0).max()
        dev = max(dev, relative / (np.finfo(float).eps * np.linalg.cond(t) ** 2))
    return _result("generalized-eigenvalue congruence invariance, relative per eps*cond(T)^2",
                   dev, 8.0, cases)


def battery_ordering_round_trip(rng) -> PropertyResult:
    cases = 100
    dev = 0.0
    for _ in range(cases):
        n = int(rng.integers(1, 5))
        m = rng.normal(size=(2 * n, 2 * n))
        for source, target in itertools.permutations(_orderings(n), 2):
            there = permute_ordering(m, source, target)
            back = permute_ordering(there, target, source)
            dev = max(dev, np.abs(back - m).max())
    return _result("ordering round trip", dev, 0.0, cases)


# ---------------------------------------------------------------------------
# separability machinery

def _random_valid_canonical(rng) -> states.CanonicalTwoModeParams:
    while True:
        a, b = rng.uniform(0.55, 2.5, size=2)
        c, d = rng.uniform(-1.0, 1.0, size=2)
        p = states.CanonicalTwoModeParams(a, b, c, d)
        m = states.canonical_two_mode_matrix(p)
        if np.linalg.eigvalsh(m).min() < 1e-6:
            continue
        if symplectic_spectrum(m, build_symplectic_form(2, Ordering.MODE_INTERLEAVED)).min() < 1.0:
            continue
        return p


def battery_mirror_invariants(rng) -> PropertyResult:
    cases = 200
    dev = 0.0
    for _ in range(cases):
        sigma = CovarianceMatrix(random_spd(4, rng))
        inv = states.simon_invariants(sigma)
        refl = states.partial_transpose(sigma)
        inv_r = states.simon_invariants(refl)
        dev = max(dev,
                  abs(inv.det_a - inv_r.det_a),
                  abs(inv.det_b - inv_r.det_b),
                  abs(inv.quad_trace - inv_r.quad_trace),
                  abs(inv.det_cross + inv_r.det_cross))
    return _result("mirror reflection fixes block invariants, flips the cross one",
                   dev, 1e-10, cases)


def battery_local_symplectic_invariance(rng) -> PropertyResult:
    cases = 200
    dev = 0.0
    for _ in range(cases):
        sigma = CovarianceMatrix(random_spd(4, rng))
        inv = states.simon_invariants(sigma)
        s = random_local_symplectic(rng)
        moved = s @ sigma.matrix @ s.T
        moved = states.simon_invariants(0.5 * (moved + moved.T))
        dev = max(dev,
                  abs(inv.det_a - moved.det_a), abs(inv.det_b - moved.det_b),
                  abs(inv.det_cross - moved.det_cross),
                  abs(inv.quad_trace - moved.quad_trace))
    return _result("local symplectic invariance of the block invariants", dev, 1e-8, cases)


def battery_ppt_simon_agreement(rng) -> PropertyResult:
    cases = 500
    bad = 0
    used = 0
    while used < cases:
        p = _random_valid_canonical(rng)
        cvm = states.canonical_two_mode_cvm(p)
        verdict = states.ppt_separable(cvm)
        criterion = states.simon_invariants(cvm).criterion
        if abs(verdict.margin) < 1e-8 or abs(criterion) < 1e-10:
            continue
        used += 1
        bad += (criterion >= 0) != verdict.separable
    return PropertyResult("invariant criterion agrees with the reflection verdict",
                          bad == 0, used, f"{bad} disagreements in {used} states")


def battery_quantum_region_oracle(rng) -> PropertyResult:
    cases = 1500
    form = build_symplectic_form(2, Ordering.MODE_INTERLEAVED)
    bad = 0
    used = 0
    for _ in range(cases):
        a, b = rng.uniform(0.3, 2.5, size=2)
        c, d = rng.uniform(-1.5, 1.5, size=2)
        p = states.CanonicalTwoModeParams(a, b, c, d)
        m = states.canonical_two_mode_matrix(p)
        spd = np.linalg.eigvalsh(m).min() > 1e-9
        margin = symplectic_spectrum(m, form).min() - 1.0 if spd else -1.0   # no state
        if abs(margin) < 1e-6:
            continue
        used += 1
        bad += states.in_quantum_region(p) != (margin >= 0)
    return PropertyResult("closed-form physical region matches the spectral check",
                          bad == 0, used, f"{bad} disagreements in {used} samples")


# ---------------------------------------------------------------------------
# information geometry

def battery_metric_closed_vs_numeric(rng) -> PropertyResult:
    cases = 100
    dev = 0.0
    for _ in range(cases):
        a, b = rng.uniform(0.6, 2.5, size=2)
        c = rng.uniform(-0.85, 0.85) * math.sqrt(a * b)
        d = rng.uniform(-0.85, 0.85) * math.sqrt(a * b)
        p = states.CanonicalTwoModeParams(a, b, c, d)
        closed = fisher.fisher_metric_two_mode(p).matrix
        numeric = fisher.fisher_metric_numeric(p).matrix
        dev = max(dev, np.abs(closed - numeric).max() / np.abs(closed).max())
    return _result("closed-form metric matches the trace formula", dev, 1e-12, cases)


def battery_distance_axioms(rng) -> PropertyResult:
    cases = 60
    worst = 0.0
    for _ in range(cases):
        s1, s2, s3 = (random_spd(4, rng) for _ in range(3))
        d12 = fisher.fr_distance(s1, s2)
        d21 = fisher.fr_distance(s2, s1)
        d11 = fisher.fr_distance(s1, s1)
        d13 = fisher.fr_distance(s1, s3)
        d23 = fisher.fr_distance(s2, s3)
        worst = max(worst, abs(d12 - d21), d11, max(0.0, d13 - (d12 + d23)),
                    max(0.0, -d12))
    return _result("distance axioms (symmetry, identity, triangle)", worst, 1e-9, cases)


def battery_distance_isometry(rng) -> PropertyResult:
    cases = 200
    dev = 0.0
    for _ in range(cases):
        dim = int(rng.choice([4, 8]))
        s1 = random_spd(dim, rng)
        s2 = random_spd(dim, rng)
        t = random_invertible(dim, rng)
        dev = max(dev, abs(fisher.fr_distance(t @ s1 @ t.T, t @ s2 @ t.T)
                           - fisher.fr_distance(s1, s2)))
    return _result("distance invariance under congruence", dev, 1e-10, cases)


def battery_sqrt_elements(rng) -> PropertyResult:
    cases = 200
    dev = 0.0
    for _ in range(cases):
        a, b = rng.uniform(0.6, 2.5, size=2)
        c, d = rng.uniform(-0.85, 0.85, size=2) * math.sqrt(a * b)
        p = states.CanonicalTwoModeParams(a, b, c, d)
        m = states.canonical_two_mode_matrix(p)
        dev = max(dev, np.abs(fisher.canonical_sqrt_closed(p) - matrix_sqrt_spd(m)).max())
    return _result("elementwise square root matches the eigendecomposition", dev, 1e-13, cases)


# ---------------------------------------------------------------------------
# deformed oscillator

def _edge_draw(rng) -> oscillator.OscillatorParams:
    """An oscillator at hbar 0.5, 1 or 2 with 1 - theta*eta/4hbar^2 log-uniform in (1e-3, 1)."""
    hbar = float(rng.choice([0.5, 1.0, 2.0]))
    strength = 2.0 * hbar * math.sqrt(1.0 - 10.0 ** rng.uniform(-3.0, 0.0))
    ratio = math.exp(rng.uniform(-1.0, 1.0))
    return oscillator.OscillatorParams(*rng.uniform(0.2, 3.0, size=4), theta=strength * ratio,
                                       eta=strength / ratio, hbar=hbar)


def battery_commutative_limit(rng) -> PropertyResult:
    worst_tail = 0.0
    steps = 16   # final eps ~ 6e-6, all gaps are O(eps)
    for k in range(steps):
        eps = 0.2 * 2.0 ** (-k)
        p = oscillator.OscillatorParams(1.0, 1.0, 1.0, 2.0, theta=eps, eta=eps)
        ups_gap = np.abs(oscillator.darboux_matrix(p) - np.eye(4)).max()
        h_gap = np.abs(oscillator.equivalent_hamiltonian(p)
                       - oscillator.nc_hamiltonian_matrix(p)).max()
        cross = abs(oscillator.ground_state(p).exponent.cross_imag)
        hbar_gap = abs(p.hbar_effective - p.hbar)
        if k == steps - 1:
            worst_tail = max(ups_gap, h_gap, cross, hbar_gap)
    return _result("commutative limit restores the undeformed pipeline",
                   worst_tail, 1e-4, steps)


def battery_spectrum_closed_vs_numeric(rng) -> PropertyResult:
    cases = 200
    dev = 0.0
    for _ in range(cases):
        p = _edge_draw(rng)
        spec = oscillator.mode_spectrum(p, oscillator.equivalent_params(p))
        closed = np.array([spec.freq1, spec.freq2])
        h = oscillator.equivalent_hamiltonian(p)
        numeric = np.sort(np.abs(np.linalg.eigvals(
            build_symplectic_form(2, Ordering.MODE_INTERLEAVED).matrix @ h).imag))[::2]
        dev = max(dev, (np.abs(numeric - closed) / closed).max() / np.linalg.cond(h))
    return _result("closed-form mode frequencies match eig(JH), relative per mode and per "
                   "unit of cond(H), up to theta*eta/4hbar^2 = 0.999", dev, 1e-14, cases)


def battery_polar_ground_state(rng) -> PropertyResult:
    cases = 200
    dev = 0.0
    for _ in range(cases):
        p = _edge_draw(rng)
        h = oscillator.equivalent_hamiltonian(p)
        polar = oscillator._polar_ground_state(h, p.hbar)
        deviation = np.abs(oscillator.ground_state(p).covariance.matrix - polar).max()
        dev = max(dev, deviation / np.abs(polar).max() / np.linalg.cond(h))
    return _result("ground state matches its polar form, relative per unit of cond(H), "
                   "up to theta*eta/4hbar^2 = 0.999", dev, 1e-14, cases)


_ROUNDING_BAND = 8.0   # eps * cond(H) within which the oscillator's second routes vanish


def _eps_cond(p: oscillator.OscillatorParams) -> float:
    return float(np.finfo(float).eps * np.linalg.cond(oscillator.equivalent_hamiltonian(p)))


def battery_separability_triangle(rng) -> PropertyResult:
    checks = []
    points = [
        oscillator.OscillatorParams(1.0, 1.0, 1.0, 2.0),                      # undeformed
        oscillator.OscillatorParams(1.3, 1.3, 1.7, 1.7, theta=0.4, eta=0.3),  # isotropic
        oscillator.OscillatorParams(2.0, 0.5, 2.0, 0.5, theta=0.7, eta=0.7),  # reciprocal pair
        oscillator.OscillatorParams(1.0, 1.0, 1.0, 2.0, theta=0.3, eta=0.2),  # generic
    ]
    for p in points:
        state = oscillator.ground_state(p)
        e = state.exponent
        uncoupled = abs(e.cross_imag) / math.sqrt(e.m11 * e.m22) <= _ROUNDING_BAND * _eps_cond(p)
        checks.append(oscillator.separability_condition(p).separable == uncoupled
                      == states.ppt_separable(state.covariance).separable)
    return PropertyResult("factored constraint, cross coupling and reflection verdict agree",
                          all(checks), len(points), f"verdict pattern {checks}")


def battery_isotropy_separable(rng) -> PropertyResult:
    # isotropic points and points on the tuned line eta = m1 m2 theta w1 w2
    # at frequency scales 1e-6 to 1e3; an entangled verdict counts as inf
    worst, points = 0.0, []
    for scale in 10.0 ** np.arange(-6, 4):
        w1, w2, m12, grid = 1.1 * scale, 2.0 * scale, 1.3 * 0.7, np.linspace(0.0, 0.9, 6)
        points += [oscillator.OscillatorParams(1.2, 1.2, 1.5 * scale, 1.5 * scale, theta=t, eta=e)
                   for t in grid for e in grid]
        points += [oscillator.OscillatorParams(1.3, 0.7, w1, w2, theta=t, eta=t * (w1 * w2) * m12)
                   for t in np.sqrt(4.0 * np.linspace(0.1, 0.9, 9) / (m12 * w1 * w2))]
    for p in points:
        state = oscillator.ground_state(p)
        e = state.exponent
        deviation = max(abs(e.cross_imag) / math.sqrt(e.m11 * e.m22),
                        -states.ppt_separable(state.covariance).margin) / _eps_cond(p)
        worst = max(worst, deviation if oscillator.separability_condition(p).separable
                    else math.inf)
    return _result("isotropic and tuned oscillators stay separable at frequency scales 1e-6 "
                   "to 1e3, per eps*cond(H)", worst, _ROUNDING_BAND, len(points))


# ---------------------------------------------------------------------------
# bipartite pair

def battery_shift_preserves_validity(rng) -> PropertyResult:
    cases = 100
    dev = 0.0
    for _ in range(cases):
        m, n = rng.uniform(-0.6, 0.6, size=2)
        cfg = bipartite.PairConfig(m=m, n=n, theta=rng.uniform(0, 0.95),
                                   eta=rng.uniform(0, 0.95))
        shift = bipartite.bopp_shift(cfg)
        state = bipartite.pair_cvm(cfg)
        moved = shift.matrix @ state.matrix @ shift.matrix.T
        before = symplectic_spectrum(state, build_symplectic_form(4, state.ordering))
        after = symplectic_spectrum(0.5 * (moved + moved.T), shift.form)
        dev = max(dev, np.abs(before - after).max())
    return _result("shift leaves the physical spectrum unchanged", dev, 1e-9, cases)


def battery_margin_symmetry(rng) -> PropertyResult:
    dev = 0.0
    grid = np.linspace(0.05, 0.95, 20)
    for t in grid:
        a = bipartite.separability_margin(bipartite.PairConfig(0.125, 0.125, theta=float(t)))
        b = bipartite.separability_margin(bipartite.PairConfig(0.125, 0.125, eta=float(t)))
        dev = max(dev, abs(a - b))
    return _result("deformation parameters act symmetrically on the margin",
                   dev, 1e-9, grid.size)


def battery_pair_distance_isometry(rng) -> PropertyResult:
    cases = 50
    dev = 0.0
    for _ in range(cases):
        cfgs = [bipartite.PairConfig(*rng.uniform(-0.6, 0.6, size=2)) for _ in range(2)]
        shift = bipartite.bopp_shift(bipartite.PairConfig(
            0.0, 0.0, theta=rng.uniform(0, 0.9), eta=rng.uniform(0, 0.9)))
        s1 = bipartite.pair_cvm(cfgs[0]).matrix
        s2 = bipartite.pair_cvm(cfgs[1]).matrix
        moved = abs(fisher.fr_distance(shift.matrix @ s1 @ shift.matrix.T,
                                       shift.matrix @ s2 @ shift.matrix.T)
                    - fisher.fr_distance(s1, s2))
        dev = max(dev, moved)
    return _result("shift is an isometry of the pair family", dev, 1e-10, cases)


def battery_reflection_structure(rng) -> PropertyResult:
    cases = 50
    dev = 0.0
    swap = np.roll(np.eye(8), 4, axis=0)   # exchanges the parties' 4x4 blocks
    form = build_symplectic_form(4, Ordering.PARTY_BLOCK_XP)
    for _ in range(cases):
        m, n = rng.uniform(-0.6, 0.6, size=2)
        pair = bipartite.pair_cvm(bipartite.PairConfig(m=m, n=n))
        twice = states.partial_transpose(states.partial_transpose(pair))
        dev = max(dev, np.abs(twice.matrix - pair.matrix).max())
        swapped = swap @ pair.matrix @ swap.T
        dev = max(dev, np.abs(symplectic_spectrum(swapped, form)
                              - symplectic_spectrum(pair, form)).max())
    return _result("reflection is an involution and the parties are exchangeable",
                   dev, 1e-10, cases)


def battery_margin_continuity(rng) -> PropertyResult:
    grid = np.linspace(0.01, 0.99, 99)
    sweep = bipartite.theta_sweep(bipartite.PairConfig(0.125, 0.125), grid)
    margins = np.array([row.margin for row in sweep.rows])
    jumps = np.abs(np.diff(margins))
    bound = 4.0 * float(np.median(jumps)) + 1e-3
    return PropertyResult("margin varies continuously over the sweep",
                          float(jumps.max()) <= bound, grid.size,
                          f"max jump {jumps.max():.3e}, bound {bound:.3e}")


def battery_boundary_agreement(rng) -> PropertyResult:
    grid = np.linspace(0.01, 0.99, 99)
    bad = 0
    closest = math.inf
    for mn in (0.125, 0.25, 0.0625):   # figures 1, 2 and 3
        for theta in grid:
            cfg = bipartite.PairConfig(mn, mn, theta=float(theta))
            margin = bipartite.separability_margin(cfg)
            bad += (min(bipartite.pair_boundary(cfg)) >= 0.0) != (margin >= 0.0)
            closest = min(closest, abs(margin))
    return PropertyResult("exact boundary agrees with the reflection spectrum",
                          bad == 0, 3 * grid.size,
                          f"{bad} disagreements; smallest |margin| {closest:.3e}")



# ---------------------------------------------------------------------------
# second routes to the paper's closed forms

def battery_explicit_distance(rng) -> PropertyResult:
    cases = 200
    dev = 0.0
    for _ in range(cases):
        p, p0 = _random_valid_canonical(rng), _random_valid_canonical(rng)
        explicit, _ = fisher.fr_distance_explicit(p, p0)
        symmetric = fisher.fr_distance(states.canonical_two_mode_matrix(p),
                                       states.canonical_two_mode_matrix(p0))
        dev = max(dev, abs(explicit - symmetric))
    return _result("explicit canonical distance matches the symmetric route", dev, 1e-13, cases)


def battery_separable_region_oracle(rng) -> PropertyResult:
    cases = 500
    bad = 0
    used = 0
    while used < cases:
        p = _random_valid_canonical(rng)
        verdict = states.ppt_separable(states.canonical_two_mode_cvm(p))
        if abs(verdict.margin) < 1e-6:
            continue
        used += 1
        bad += states.in_separable_region(p) != verdict.separable
    return PropertyResult("closed-form separable region matches the reflection verdict",
                          bad == 0, used, f"{bad} disagreements in {used} states")


def battery_canonical_ppt_closed_form(rng) -> PropertyResult:
    # verdicts must agree outside the margins' rounding band around the threshold
    cases = 500
    tol = 32.0
    dev = 0.0
    bad = 0
    for _ in range(cases):
        p = _random_valid_canonical(rng)
        closed = states.ppt_separable(p)
        spectral = rsup_check(states.partial_transpose(states.canonical_two_mode_cvm(p)))
        scale = np.finfo(float).eps * max(p.a, p.b)
        dev = max(dev, abs(closed.margin + 1.0 - spectral.min_invariant) / scale)
        near = abs(spectral.min_invariant - 1.0 + RSUP_SLACK) <= tol * scale
        bad += closed.separable != spectral.valid and not near
    return PropertyResult("closed-form canonical PPT verdict matches the reflection spectrum, "
                          "margins per eps*max(a,b)", bad == 0 and dev <= tol, cases,
                          f"{bad} disagreements; max deviation {dev:.3e} (tol {tol:.0e})")


# a battery, the route it exercises, and the second route it checks that route against
Battery = namedtuple("Battery", "check route second", defaults=(None,))


BATTERIES = [
    Battery(battery_form_antisymmetry, build_symplectic_form),
    Battery(battery_williamson_invariance, symplectic_spectrum),
    Battery(battery_sqrt_round_trip, matrix_sqrt_spd),
    Battery(battery_geneig_congruence, generalized_eigenvalues),
    Battery(battery_ordering_round_trip, permute_ordering),
    Battery(battery_mirror_invariants, states.partial_transpose),
    Battery(battery_local_symplectic_invariance, states.simon_invariants),
    Battery(battery_ppt_simon_agreement, states.ppt_separable, states.simon_invariants),
    Battery(battery_quantum_region_oracle, symplectic_spectrum, states.in_quantum_region),
    Battery(battery_metric_closed_vs_numeric, fisher.fisher_metric_two_mode,
            fisher.fisher_metric_numeric),
    Battery(battery_distance_axioms, fisher.fr_distance),
    Battery(battery_distance_isometry, fisher.fr_distance),
    Battery(battery_sqrt_elements, fisher.canonical_sqrt_closed, matrix_sqrt_spd),
    Battery(battery_commutative_limit, oscillator.ground_state),
    Battery(battery_spectrum_closed_vs_numeric, oscillator.mode_spectrum,
            oscillator.equivalent_hamiltonian),
    Battery(battery_polar_ground_state, oscillator.ground_state, oscillator._polar_ground_state),
    Battery(battery_separability_triangle, oscillator.separability_condition, states.ppt_separable),
    Battery(battery_isotropy_separable, oscillator.separability_condition, states.ppt_separable),
    Battery(battery_shift_preserves_validity, bipartite.bopp_shift),
    Battery(battery_margin_symmetry, bipartite.separability_margin),
    Battery(battery_pair_distance_isometry, fisher.fr_distance),
    Battery(battery_reflection_structure, states.partial_transpose),
    Battery(battery_margin_continuity, bipartite.theta_sweep),
    Battery(battery_boundary_agreement, bipartite.separability_margin, bipartite.pair_boundary),
    Battery(battery_explicit_distance, fisher.fr_distance, fisher.fr_distance_explicit),
    Battery(battery_separable_region_oracle, states.ppt_separable, states.in_separable_region),
    Battery(battery_canonical_ppt_closed_form, states.ppt_separable, rsup_check),
]


def run_all(seed: int) -> tuple[PropertyResult, ...]:
    """Run every battery with a fresh seeded generator per battery."""
    return tuple(battery.check(np.random.default_rng(seed + index))
                 for index, battery in enumerate(BATTERIES))
