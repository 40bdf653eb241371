"""The one catalogue of seeded property batteries.

Each battery checks one documented invariant of a module and reports a name,
a pass flag, the number of cases exercised and a short detail string. The
catalogue runs behind the CLI selftest command and, at the same seed, as one
pytest case per battery (``tests/test_selftest.py``). A property that a
battery checks is not re-checked by a unit test at the same or a looser bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bipartite, fisher, oscillator, states
from .randmat import random_invertible, random_local_symplectic, random_spd, random_symplectic
from .symplectic import (
    CovarianceMatrix,
    Ordering,
    build_symplectic_form,
    congruence_apply,
    generalized_eigenvalues,
    matrix_sqrt_spd,
    permute_ordering,
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

def battery_form_antisymmetry(rng) -> PropertyResult:
    dev = 0.0
    cases = 0
    for n in (1, 2, 3, 4):
        for ordering in Ordering:
            m = build_symplectic_form(n, ordering).matrix
            dev = max(dev, np.abs(m + m.T).max())
            cases += 1
    return _result("form antisymmetry", dev, 0.0, cases)


def battery_williamson_invariance(rng, cases=200) -> PropertyResult:
    form = build_symplectic_form(2)
    dev = 0.0
    for _ in range(cases):
        sigma = random_spd(4, rng)
        s = random_symplectic(2, rng)
        before = symplectic_spectrum(sigma, form)
        after = symplectic_spectrum(congruence_apply(s, sigma), form)
        dev = max(dev, np.abs(before - after).max())
    return _result("Williamson invariance under symplectic congruence", dev, 1e-8, cases)


def battery_sqrt_round_trip(rng, cases=200) -> PropertyResult:
    dev = 0.0
    for _ in range(cases):
        dim = int(rng.choice([2, 4, 8]))
        m = random_spd(dim, rng)
        root = matrix_sqrt_spd(m)
        dev = max(dev, np.abs(root @ root - m).max())
    return _result("SPD square-root round trip", dev, 1e-10, cases)


def battery_geneig_congruence(rng, cases=200) -> PropertyResult:
    dev = 0.0
    for _ in range(cases):
        dim = int(rng.choice([4, 8]))
        s1 = random_spd(dim, rng)
        s2 = random_spd(dim, rng)
        t = random_invertible(dim, rng)
        before = generalized_eigenvalues(s1, s2)
        after = generalized_eigenvalues(t @ s1 @ t.T, t @ s2 @ t.T)
        dev = max(dev, np.abs(before - after).max())
    return _result("generalized-eigenvalue congruence invariance", dev, 1e-10, cases)


def battery_ordering_round_trip(rng, cases=100) -> PropertyResult:
    dev = 0.0
    for _ in range(cases):
        n = int(rng.integers(1, 5))
        m = rng.normal(size=(2 * n, 2 * n))
        there = permute_ordering(m, Ordering.MODE_INTERLEAVED, Ordering.BLOCK_XP)
        back = permute_ordering(there, Ordering.BLOCK_XP, Ordering.MODE_INTERLEAVED)
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
        if symplectic_spectrum(m, build_symplectic_form(2)).min() < 1.0:
            continue
        return p


def battery_mirror_invariants(rng, cases=200) -> PropertyResult:
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


def battery_local_symplectic_invariance(rng, cases=200) -> PropertyResult:
    dev = 0.0
    for _ in range(cases):
        sigma = CovarianceMatrix(random_spd(4, rng))
        inv = states.simon_invariants(sigma)
        s = random_local_symplectic(rng)
        moved = states.simon_invariants(congruence_apply(s, sigma).matrix)
        dev = max(dev,
                  abs(inv.det_a - moved.det_a), abs(inv.det_b - moved.det_b),
                  abs(inv.det_cross - moved.det_cross),
                  abs(inv.quad_trace - moved.quad_trace))
    return _result("local symplectic invariance of the block invariants", dev, 1e-8, cases)


def battery_ppt_simon_agreement(rng, cases=500) -> PropertyResult:
    form = build_symplectic_form(2)
    bad = 0
    used = 0
    while used < cases:
        p = _random_valid_canonical(rng)
        cvm = states.canonical_two_mode_cvm(p)
        verdict = states.ppt_separable(cvm, form)
        criterion = states.simon_invariants(cvm).criterion
        if abs(verdict.margin) < 1e-8 or abs(criterion) < 1e-10:
            continue
        used += 1
        if (criterion >= 0) != verdict.separable:
            bad += 1
    return PropertyResult("invariant criterion agrees with the reflection verdict",
                          bad == 0, used, f"{bad} disagreements in {used} states")


def battery_quantum_region_oracle(rng, cases=1500) -> PropertyResult:
    form = build_symplectic_form(2)
    bad = 0
    used = 0
    for _ in range(cases):
        a, b = rng.uniform(0.3, 2.5, size=2)
        c, d = rng.uniform(-1.5, 1.5, size=2)
        p = states.CanonicalTwoModeParams(a, b, c, d)
        m = states.canonical_two_mode_matrix(p)
        spd = np.linalg.eigvalsh(m).min() > 1e-9
        if spd:
            margin = symplectic_spectrum(m, form).min() - 1.0
            if abs(margin) < 1e-6:
                continue
            oracle = margin >= 0
        else:
            oracle = False
        try:
            member = states.in_quantum_region(p)
        except states.BoundaryIndeterminateError:
            continue
        used += 1
        if member != oracle:
            bad += 1
    return PropertyResult("closed-form physical region matches the spectral check",
                          bad == 0, used, f"{bad} disagreements in {used} samples")


# ---------------------------------------------------------------------------
# information geometry

def battery_metric_closed_vs_numeric(rng, cases=100) -> PropertyResult:
    dev = 0.0
    for _ in range(cases):
        a, b = rng.uniform(0.6, 2.5, size=2)
        c = rng.uniform(-0.85, 0.85) * math.sqrt(a * b)
        d = rng.uniform(-0.85, 0.85) * math.sqrt(a * b)
        p = states.CanonicalTwoModeParams(a, b, c, d)
        closed = fisher.fisher_metric_two_mode(p).matrix
        numeric = fisher.fisher_metric_numeric(
            lambda t: states.canonical_two_mode_matrix(
                states.CanonicalTwoModeParams(*t)), (a, b, c, d)).matrix
        dev = max(dev, np.abs(closed - numeric).max())
    return _result("closed-form metric matches central differences", dev, 1e-6, cases)


def battery_distance_axioms(rng, cases=60) -> PropertyResult:
    worst = 0.0
    for _ in range(cases):
        s1 = random_spd(4, rng)
        s2 = random_spd(4, rng)
        s3 = random_spd(4, rng)
        d12 = fisher.fr_distance(s1, s2)
        d21 = fisher.fr_distance(s2, s1)
        d11 = fisher.fr_distance(s1, s1)
        d13 = fisher.fr_distance(s1, s3)
        d23 = fisher.fr_distance(s2, s3)
        worst = max(worst, abs(d12 - d21), d11, max(0.0, d13 - (d12 + d23)),
                    max(0.0, -d12))
    return _result("distance axioms (symmetry, identity, triangle)", worst, 1e-9, cases)


def battery_distance_isometry(rng, cases=200) -> PropertyResult:
    dev = 0.0
    for _ in range(cases):
        dim = int(rng.choice([4, 8]))
        s1 = random_spd(dim, rng)
        s2 = random_spd(dim, rng)
        t = random_invertible(dim, rng)
        dev = max(dev, abs(fisher.fr_distance(t @ s1 @ t.T, t @ s2 @ t.T)
                           - fisher.fr_distance(s1, s2)))
    return _result("distance invariance under congruence", dev, 1e-10, cases)


def battery_normal_form_eigen(rng, cases=200) -> PropertyResult:
    dev = 0.0
    for _ in range(cases):
        a = rng.uniform(0.2, 3.0)
        c = rng.uniform(-1.0, 1.0) * a
        nf = fisher.normal_form_metric(fisher.NormalFormPoint(a, c))
        lam_plus, lam_minus = nf.eigenvalues
        expect = 2.0 / (a * a + c * c)
        diag = nf.rotation.T @ nf.matrix @ nf.rotation
        dev = max(dev, abs(lam_plus - expect), abs(lam_minus + expect),
                  abs(diag[0, 1]), abs(diag[1, 0]),
                  abs(diag[0, 0] - expect), abs(diag[1, 1] + expect),
                  np.abs(nf.rotation @ nf.rotation.T - np.eye(2)).max())
    return _result("normal-form metric eigenstructure", dev, 1e-12, cases)


def battery_sqrt_elements(rng, cases=200) -> PropertyResult:
    dev = 0.0
    used = 0
    while used < cases:
        a, b = rng.uniform(0.6, 2.5, size=2)
        c = rng.uniform(-0.85, -0.05) if rng.uniform() < 0.5 else rng.uniform(0.05, 0.85)
        d = rng.uniform(-0.85, -0.05) if rng.uniform() < 0.5 else rng.uniform(0.05, 0.85)
        c *= math.sqrt(a * b)
        d *= math.sqrt(a * b)
        p = states.CanonicalTwoModeParams(a, b, c, d)
        m = states.canonical_two_mode_matrix(p)
        if np.linalg.eigvalsh(m).min() < 1e-6:
            continue
        used += 1
        closed = fisher.canonical_sqrt_closed(p)
        dev = max(dev, np.abs(closed - matrix_sqrt_spd(m)).max())
    return _result("elementwise square root matches the eigendecomposition",
                   dev, 1e-9, used)


# ---------------------------------------------------------------------------
# deformed oscillator

def battery_commutative_limit(rng) -> PropertyResult:
    worst_tail = 0.0
    steps = 16   # final eps ~ 6e-6, all gaps are O(eps)
    for k in range(steps):
        eps = 0.2 * 2.0 ** (-k)
        p = oscillator.OscillatorParams(1.0, 1.0, 1.0, 2.0, theta=eps, eta=eps)
        ups_gap = np.abs(oscillator.darboux_matrix(p) - np.eye(4)).max()
        h_gap = np.abs(oscillator.equivalent_hamiltonian(p)[0]
                       - oscillator.nc_hamiltonian_matrix(p)).max()
        cross = abs(oscillator.ground_state(p).cross_imag)
        hbar_gap = abs(p.hbar_effective - p.hbar)
        if k == steps - 1:
            worst_tail = max(ups_gap, h_gap, cross, hbar_gap)
    return _result("commutative limit restores the undeformed pipeline",
                   worst_tail, 1e-4, steps)


def battery_spectrum_closed_vs_numeric(rng, cases=200) -> PropertyResult:
    # mode_spectrum validates itself against eig(JH) at 1e-8 on every call
    dev = 0.0
    for _ in range(cases):
        p = oscillator.OscillatorParams(*rng.uniform(0.5, 2.0, size=4),
                                        theta=rng.uniform(0.0, 0.9),
                                        eta=rng.uniform(0.0, 0.9))
        eq = oscillator.equivalent_params(p)
        spec = oscillator.mode_spectrum(eq)
        numeric = np.sort(np.abs(np.linalg.eigvals(
            build_symplectic_form(2).matrix
            @ oscillator.equivalent_hamiltonian_matrix(eq)).imag))[::2]
        dev = max(dev, np.abs(numeric - [spec.freq1, spec.freq2]).max())
    return _result("closed-form mode frequencies match eig(JH)", dev, 1e-8, cases)


def battery_exponent_structure(rng, cases=150) -> PropertyResult:
    # ground_state_exponent raises if the matrix route breaks the structure
    done = 0
    for _ in range(cases):
        p = oscillator.OscillatorParams(*rng.uniform(0.5, 2.0, size=4),
                                        theta=rng.uniform(0.01, 0.9),
                                        eta=rng.uniform(0.01, 0.9))
        oscillator.ground_state(p)
        done += 1
    return PropertyResult("exponent matrix keeps its real/imaginary structure",
                          True, done, "structure asserted at 1e-9 inside the pipeline")


def battery_separability_triangle(rng) -> PropertyResult:
    form = build_symplectic_form(2)
    checks = []
    points = [
        oscillator.OscillatorParams(1.0, 1.0, 1.0, 2.0),                      # undeformed
        oscillator.OscillatorParams(1.3, 1.3, 1.7, 1.7, theta=0.4, eta=0.3),  # isotropic
        oscillator.OscillatorParams(2.0, 0.5, 2.0, 0.5, theta=0.7, eta=0.7),  # reciprocal pair
        oscillator.OscillatorParams(1.0, 1.0, 1.0, 2.0, theta=0.3, eta=0.2),  # generic
    ]
    for p in points:
        report = oscillator.separability_condition(p)
        lhs, rhs = oscillator.separability_sides(p)
        rel_gap = abs(report.lhs_rhs_gap) / max(abs(lhs), abs(rhs), 1e-300)
        cvm = oscillator.ground_state_cvm(oscillator.ground_state(p), p.hbar)
        ppt = states.ppt_separable(cvm, form)
        gap_zero = rel_gap < 1e-9
        checks.append(report.separable == gap_zero == ppt.separable)
    return PropertyResult("cross coupling, closed-form gap and reflection verdict agree",
                          all(checks), len(points), f"verdict pattern {checks}")


def battery_isotropy_separable(rng) -> PropertyResult:
    form = build_symplectic_form(2)
    worst = 0.0
    cases = 0
    for theta in np.linspace(0.0, 0.9, 6):
        for eta in np.linspace(0.0, 0.9, 6):
            p = oscillator.OscillatorParams(1.2, 1.2, 1.5, 1.5,
                                            theta=float(theta), eta=float(eta))
            cross = abs(oscillator.ground_state(p).cross_imag)
            cvm = oscillator.ground_state_cvm(oscillator.ground_state(p), p.hbar)
            margin = states.ppt_separable(cvm, form).margin
            worst = max(worst, cross, max(0.0, -margin))
            cases += 1
    return _result("isotropic oscillator stays separable over the grid", worst, 1e-9, cases)


# ---------------------------------------------------------------------------
# bipartite pair

def battery_shift_preserves_validity(rng, cases=100) -> PropertyResult:
    dev = 0.0
    for _ in range(cases):
        m, n = rng.uniform(-0.6, 0.6, size=2)
        cfg = bipartite.PairConfig(m=m, n=n, theta=rng.uniform(0, 0.95),
                                   eta=rng.uniform(0, 0.95))
        shift = bipartite.bopp_shift(cfg)
        state = bipartite.pair_cvm(cfg).matrix
        moved = shift.matrix @ state @ shift.matrix.T
        before = symplectic_spectrum(state, bipartite.party_form())
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


def battery_pair_distance_isometry(rng, cases=50) -> PropertyResult:
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


def battery_reflection_structure(rng, cases=50) -> PropertyResult:
    dev = 0.0
    refl = bipartite.reflection_matrix()
    swap = np.zeros((8, 8))
    swap[:4, 4:] = np.eye(4)
    swap[4:, :4] = np.eye(4)
    form = bipartite.party_form()
    for _ in range(cases):
        m, n = rng.uniform(-0.6, 0.6, size=2)
        state = bipartite.pair_cvm(bipartite.PairConfig(m=m, n=n)).matrix
        twice = refl @ (refl @ state @ refl.T) @ refl.T
        dev = max(dev, np.abs(twice - state).max())
        swapped = swap @ state @ swap.T
        dev = max(dev, np.abs(symplectic_spectrum(swapped, form)
                              - symplectic_spectrum(state, form)).max())
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


BATTERIES = [
    battery_form_antisymmetry,
    battery_williamson_invariance,
    battery_sqrt_round_trip,
    battery_geneig_congruence,
    battery_ordering_round_trip,
    battery_mirror_invariants,
    battery_local_symplectic_invariance,
    battery_ppt_simon_agreement,
    battery_quantum_region_oracle,
    battery_metric_closed_vs_numeric,
    battery_distance_axioms,
    battery_distance_isometry,
    battery_normal_form_eigen,
    battery_sqrt_elements,
    battery_commutative_limit,
    battery_spectrum_closed_vs_numeric,
    battery_exponent_structure,
    battery_separability_triangle,
    battery_isotropy_separable,
    battery_shift_preserves_validity,
    battery_margin_symmetry,
    battery_pair_distance_isometry,
    battery_reflection_structure,
    battery_margin_continuity,
    battery_boundary_agreement,
]


@dataclass(frozen=True)
class SelftestReport:
    seed: int
    results: tuple[PropertyResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def run_all(seed: int = 20240901) -> SelftestReport:
    """Run every battery with a fresh seeded generator per battery."""
    results = []
    for index, battery in enumerate(BATTERIES):
        rng = np.random.default_rng(seed + index)
        results.append(battery(rng))
    return SelftestReport(seed=seed, results=tuple(results))
