"""Acceptance suite: one test per release criterion, at its stated tolerance.

All 14 criteria pass; criterion 10 (the eigenstructure of a two-parameter
normal-form metric) is retired with the metric. Criterion 4 (the m = n = 1/4
sweep of figure 2) was corrected: it used to assert that this sweep stays
separable at every grid point, an expectation that came only from
closed-form invariant expressions that disagreed with the exact reflection
spectrum already at theta = 0 (criterion 2) and have since been deleted.
The mirror-reflection spectrum and the independent Hermitian test
``R S Sigma S^T R + (i/2) S Omega S^T >= 0`` both find a single crossing at
theta* = 0.492689293595588..., confirmed by a 40-digit root of the
determinant. The criterion now asserts that crossing: separable below
theta* at the unchanged 1e-10 tolerance, entangled above it, and the latest
crossing of the correlation strengths, so the strongest correlation stays
separable longest. Criterion 15 checks the exact separability boundary
``bipartite.pair_boundary`` against the spectrum at every figure grid point.
"""

import math
from dataclasses import replace

import numpy as np

from ginfo import bipartite
from ginfo.fisher import (
    canonical_sqrt_closed,
    fisher_det_two_mode,
    fisher_metric_numeric,
    fisher_metric_two_mode,
    fr_distance,
)
from ginfo.oscillator import (
    OscillatorParams,
    equivalent_params,
    ground_state,
    mode_spectrum,
    separability_condition,
)
from ginfo.randmat import random_invertible, random_spd, random_symplectic
from ginfo.states import (
    CanonicalTwoModeParams,
    canonical_two_mode_matrix,
    partial_transpose,
    ppt_separable,
    simon_invariants,
)
from ginfo.symplectic import (
    CovarianceMatrix,
    Ordering,
    build_symplectic_form,
    matrix_sqrt_spd,
    symplectic_spectrum,
)

from helpers import (
    QUARTER_CROSSING,
    equivalent_hamiltonian_matrix,
    hermitian_crossing,
    hermitian_min_eigenvalue,
    random_valid_canonical,
)

FORM2 = build_symplectic_form(2)
GRID99 = np.linspace(0.01, 0.99, 99)
PAIR_CASES = (0.125, 0.25, 0.0625)


def test_ac01_pair_uncertainty_spectrum():
    # all four invariants of the undeformed pair equal (1 + R) sqrt(b)
    for mn in PAIR_CASES:
        cfg = bipartite.PairConfig(mn, mn)
        expected = (1 + cfg.radius) * math.sqrt(cfg.scale)
        spec = symplectic_spectrum(bipartite.pair_cvm(cfg),
                                   build_symplectic_form(4, Ordering.PARTY_BLOCK_XP))
        assert np.abs(spec - expected).max() < 1e-9, (mn, spec, expected)


def test_ac02_pair_reflection_spectrum():
    for mn in PAIR_CASES:
        cfg = bipartite.PairConfig(mn, mn)
        out = bipartite.deformed_pt_spectrum(cfg)
        b, r = cfg.scale, cfg.radius
        expected = np.array([b * (1 - r), b * (1 - r), b * (1 + r), b * (1 + r)])
        assert np.abs(out.invariants - expected).max() < 1e-9
        assert abs(out.min_invariant - (1 + r)) < 1e-9


def test_ac03_weak_correlation_sweep_has_single_crossing():
    sweep = bipartite.theta_sweep(bipartite.PairConfig(0.125, 0.125), GRID99)
    margins = np.array([row.margin for row in sweep.rows])
    assert margins[0] >= 0.0                       # separable at small theta
    assert margins[-1] < 0.0                       # entangled near theta = 1
    assert np.count_nonzero(np.diff(np.sign(margins))) == 1
    assert sweep.crossing_theta is not None
    assert 0.0 < sweep.crossing_theta < 1.0


def test_ac04_quarter_correlation_sweep_stays_separable():
    # m = n = 1/4 stays separable up to theta*, the latest crossing of the
    # three correlation strengths, and is entangled beyond it. theta* comes
    # from the Hermitian route, which shares no code with the spectrum.
    theta_star = hermitian_crossing(0.25, 0.25)
    assert abs(theta_star - QUARTER_CROSSING) < 1e-9, theta_star
    sweep = bipartite.theta_sweep(bipartite.PairConfig(0.25, 0.25), GRID99)
    below = [row for row in sweep.rows if row.theta < theta_star]
    above = [row for row in sweep.rows if row.theta > theta_star]
    worst = min(below, key=lambda row: row.min_invariant)
    assert worst.min_invariant >= 1.0 - 1e-10, (worst.theta, worst.min_invariant)
    assert all(row.margin < 0.0 for row in above), [
        (row.theta, row.margin) for row in above if row.margin >= 0.0]
    margins = np.array([row.margin for row in sweep.rows])
    assert np.count_nonzero(np.diff(np.sign(margins))) == 1
    assert sweep.crossing_theta is not None
    assert abs(sweep.crossing_theta - theta_star) < 1e-6, sweep.crossing_theta
    # both routes give the same verdict at every grid point
    hermitian = [hermitian_min_eigenvalue(0.25, 0.25, row.theta) for row in sweep.rows]
    assert [h >= 0.0 for h in hermitian] == [row.margin >= 0.0 for row in sweep.rows]
    mid = bipartite.theta_sweep(bipartite.PairConfig(0.125, 0.125), GRID99)
    assert mid.crossing_theta is not None
    assert mid.crossing_theta < sweep.crossing_theta


def test_ac05_stronger_entanglement_for_weaker_correlations():
    weak = bipartite.theta_sweep(bipartite.PairConfig(0.0625, 0.0625), GRID99)
    mid = bipartite.theta_sweep(bipartite.PairConfig(0.125, 0.125), GRID99)
    assert weak.crossing_theta is not None and mid.crossing_theta is not None
    assert weak.crossing_theta < mid.crossing_theta


def test_ac06_distance_congruence_isometry():
    rng = np.random.default_rng(106)
    worst = 0.0
    for trial in range(200):
        dim = 4 if trial % 2 == 0 else 8
        s1, s2 = random_spd(dim, rng), random_spd(dim, rng)
        t = random_invertible(dim, rng)
        worst = max(worst, abs(fr_distance(t @ s1 @ t.T, t @ s2 @ t.T)
                               - fr_distance(s1, s2)))
    assert worst < 1e-10, worst


def test_ac07_spectrum_symplectic_invariance():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(200):
        sigma = random_spd(4, rng)
        s = random_symplectic(2, rng)
        worst = max(worst, np.abs(symplectic_spectrum(s @ sigma @ s.T, FORM2)
                                  - symplectic_spectrum(sigma, FORM2)).max())
    assert worst < 1e-8, worst


def test_ac08_metric_closed_form_vs_trace_formula():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(100):
        p = random_valid_canonical(rng)
        closed = fisher_metric_two_mode(p).matrix
        numeric = fisher_metric_numeric(p).matrix
        worst = max(worst, np.abs(closed - numeric).max() / np.abs(closed).max())
    assert worst < 1e-12, worst
    # uncorrelated case is exactly the flat metric
    a, b = 1.3, 0.8
    flat = fisher_metric_two_mode(CanonicalTwoModeParams(a, b)).matrix
    np.testing.assert_allclose(
        flat, np.diag([1 / a ** 2, 1 / b ** 2, 1 / (a * b), 1 / (a * b)]), rtol=1e-14)


def test_ac09_metric_determinant_identity():
    rng = np.random.default_rng(108)   # same sample as criterion 8
    worst = 0.0
    for _ in range(100):
        p = random_valid_canonical(rng)
        closed = fisher_det_two_mode(p)
        numeric = np.linalg.det(fisher_metric_two_mode(p).matrix)
        worst = max(worst, abs(closed - numeric) / max(1.0, abs(closed)))
    assert worst < 1e-9, worst


def test_ac11_square_root_routes_agree():
    rng = np.random.default_rng(111)
    worst_match = 0.0
    worst_square = 0.0
    for _ in range(100):
        p = random_valid_canonical(rng)
        closed = canonical_sqrt_closed(p)
        target = canonical_two_mode_matrix(p)
        worst_match = max(worst_match, np.abs(closed - matrix_sqrt_spd(target)).max())
        worst_square = max(worst_square, np.abs(closed @ closed - target).max())
    assert worst_match < 1e-9, worst_match
    assert worst_square < 1e-10, worst_square


def test_ac12_oscillator_pipeline():
    # (i) no deformation: uncorrelated and separable
    flat = OscillatorParams(1.0, 1.0, 1.0, 2.0)
    undeformed = separability_condition(flat)
    assert undeformed.separable and ground_state(flat).exponent.cross_imag == 0.0
    # (ii) equal deformed-frame frequencies: still uncorrelated
    iso = ground_state(OscillatorParams(1.3, 1.3, 1.7, 1.7, theta=0.4, eta=0.3))
    assert abs(iso.exponent.cross_imag) < 1e-10
    # (iii) unit mass product, reciprocal frequencies, equal strengths: separable
    pair = OscillatorParams(2.0, 0.5, 2.0, 0.5, theta=0.7, eta=0.7)
    reciprocal = separability_condition(pair)
    assert reciprocal.separable
    # (iv) generic anisotropic deformed point: correlated and entangled
    generic = OscillatorParams(1.0, 1.0, 1.0, 2.0, theta=0.3, eta=0.2)
    state = ground_state(generic)
    report = separability_condition(generic)
    assert not report.separable and abs(state.exponent.cross_imag) > 1e-10
    assert not ppt_separable(state.covariance).separable
    # (v) closed-form mode frequencies against eig(JH)
    rng = np.random.default_rng(112)
    worst = 0.0
    for _ in range(100):
        p = OscillatorParams(*rng.uniform(0.5, 2.0, size=4),
                             theta=rng.uniform(0.02, 0.9), eta=rng.uniform(0.02, 0.9))
        eq = equivalent_params(p)
        spec = mode_spectrum(p, eq)
        numeric = np.sort(np.abs(np.linalg.eigvals(
            FORM2.matrix @ equivalent_hamiltonian_matrix(eq)).imag))[::2]
        worst = max(worst, np.abs(numeric - [spec.freq1, spec.freq2]).max())
    assert worst < 1e-8, worst


def test_ac13_mirror_reflection_invariants():
    rng = np.random.default_rng(113)
    worst = 0.0
    for _ in range(200):
        cvm = CovarianceMatrix(random_spd(4, rng))
        inv = simon_invariants(cvm)
        refl = simon_invariants(partial_transpose(cvm))
        worst = max(worst,
                    abs(inv.det_a - refl.det_a),
                    abs(inv.det_b - refl.det_b),
                    abs(inv.quad_trace - refl.quad_trace),
                    abs(inv.det_cross + refl.det_cross))
    assert worst < 1e-10, worst


def test_ac14_deformation_parameter_symmetry():
    worst = 0.0
    for t in np.linspace(0.05, 0.95, 20):
        with_theta = bipartite.separability_margin(
            bipartite.PairConfig(0.125, 0.125, theta=float(t)))
        with_eta = bipartite.separability_margin(
            bipartite.PairConfig(0.125, 0.125, eta=float(t)))
        worst = max(worst, abs(with_theta - with_eta))
    assert worst < 1e-9, worst


def test_ac15_exact_boundary_matches_figure_spectra():
    # the closed-form boundary and the reflection spectrum give the same
    # verdict at all 3 x 99 figure points
    checked = 0
    for mn in PAIR_CASES:
        cfg = bipartite.PairConfig(mn, mn)
        for row in bipartite.theta_sweep(cfg, GRID99).rows:
            f_plus, f_minus = bipartite.pair_boundary(replace(cfg, theta=row.theta))
            assert (min(f_plus, f_minus) >= 0.0) == (row.margin >= 0.0), (mn, row.theta)
            checked += 1
    assert checked == 3 * 99
