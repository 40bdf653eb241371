import math
import os

import numpy as np
import pytest

from ginfo import fr_distance
from ginfo.bipartite import (
    PairConfig,
    bopp_shift,
    closed_form_coefficients,
    closed_form_spectrum,
    deformed_pt_spectrum,
    limiting_min_invariant,
    pair_cvm,
    party_form,
    party_to_interleaved,
    reflection_matrix,
    separability_margin,
    theta_sweep,
)
from ginfo.errors import SingularMatrixError
from ginfo.symplectic import J2, Ordering, build_symplectic_form, symplectic_spectrum

from helpers import QUARTER_CROSSING

RSUP_18 = 1.4069616518051216   # (1 + R) sqrt(b) at m = n = 1/8
GRID = np.linspace(0.01, 0.99, 99)


class TestPairCvm:
    def test_uncorrelated_is_vacuum(self):
        cfg = PairConfig(0.0, 0.0)
        np.testing.assert_allclose(pair_cvm(cfg).matrix, 0.5 * np.eye(8), atol=1e-15)

    def test_radius_bound(self):
        with pytest.raises(ValueError):
            PairConfig(0.8, 0.8)

    def test_invariants_all_equal(self):
        for mn, expected in ((0.125, RSUP_18), (0.25, 1.9586045346243641),
                             (0.0625, 1.1892437876685034)):
            spec = symplectic_spectrum(pair_cvm(PairConfig(mn, mn)), party_form())
            np.testing.assert_allclose(spec, expected, atol=1e-9)

    def test_party_swap_symmetry(self):
        cfg = PairConfig(0.3, 0.1)
        state = pair_cvm(cfg).matrix
        swap = np.zeros((8, 8))
        swap[:4, 4:] = np.eye(4)
        swap[4:, :4] = np.eye(4)
        swapped = swap @ state @ swap.T
        np.testing.assert_allclose(
            symplectic_spectrum(swapped, party_form()),
            symplectic_spectrum(state, party_form()), atol=1e-10)

    def test_interleaved_conversion_is_consistent(self):
        cfg = PairConfig(0.2, 0.15)
        perm = party_to_interleaved()
        state = perm @ pair_cvm(cfg).matrix @ perm.T
        form = build_symplectic_form(4, Ordering.MODE_INTERLEAVED)
        np.testing.assert_allclose(
            np.sort(symplectic_spectrum(state, form)),
            np.sort(symplectic_spectrum(pair_cvm(cfg), party_form())), atol=1e-10)


class TestBoppShift:
    def test_undeformed_identity(self):
        shift = bopp_shift(PairConfig(0.1, 0.1))
        np.testing.assert_array_equal(shift.matrix, np.eye(8))
        np.testing.assert_array_equal(shift.form.matrix, party_form().matrix)

    def test_deformed_form_blocks(self):
        cfg = PairConfig(0.1, 0.1, theta=0.5, eta=0.3)
        shift = bopp_shift(cfg)
        he = cfg.hbar_effective
        party_block = np.block([
            [cfg.theta * J2, he * np.eye(2)],
            [-he * np.eye(2), cfg.eta * J2]])
        expected = np.zeros((8, 8))
        expected[:4, :4] = party_block
        expected[4:, 4:] = party_block
        np.testing.assert_allclose(shift.form.matrix, expected, atol=1e-14)
        assert he == pytest.approx(1.0 + 0.5 * 0.3 / 4)
        cross = shift.form.matrix[[0, 1, 4, 5], [2, 3, 6, 7]]   # [x_k, p_k] entries
        np.testing.assert_allclose(cross, he, rtol=0, atol=1e-14)

    def test_position_position_commutator_entry(self):
        cfg = PairConfig(0.1, 0.1, theta=0.7, eta=0.2)
        form = bopp_shift(cfg).form.matrix
        assert form[0, 1] == pytest.approx(0.7)    # [x1, x2] entry
        assert form[2, 3] == pytest.approx(0.2)    # [p1, p2] entry

    def test_determinant(self):
        cfg = PairConfig(0.1, 0.1, theta=0.9, eta=0.8)
        det = np.linalg.det(bopp_shift(cfg).matrix)
        np.testing.assert_allclose(det, (1 - 0.9 * 0.8 / 4) ** 4, rtol=1e-12)

    def test_singular_shift_rejected(self):
        with pytest.raises(SingularMatrixError):
            bopp_shift(PairConfig(0.1, 0.1, theta=2.0, eta=2.0))

    def test_shift_preserves_validity_spectrum(self):
        rng = np.random.default_rng(50)
        worst = 0.0
        for _ in range(50):
            m, n = rng.uniform(-0.6, 0.6, size=2)
            if math.hypot(m, n) >= 0.95:
                continue
            cfg = PairConfig(m, n, theta=rng.uniform(0, 0.95), eta=rng.uniform(0, 0.95))
            shift = bopp_shift(cfg)
            state = pair_cvm(cfg).matrix
            moved = shift.matrix @ state @ shift.matrix.T
            worst = max(worst, np.abs(
                symplectic_spectrum(state, party_form())
                - symplectic_spectrum(0.5 * (moved + moved.T), shift.form)).max())
        assert worst < 1e-9


class TestDeformedSpectrum:
    def test_undeformed_reflection_spectrum(self):
        cfg = PairConfig(0.125, 0.125)
        out = deformed_pt_spectrum(cfg)
        b, r = cfg.scale, cfg.radius
        np.testing.assert_allclose(
            out.invariants,
            [b * (1 - r), b * (1 - r), b * (1 + r), b * (1 + r)], atol=1e-9)
        assert out.min_invariant == pytest.approx(1 + r, abs=1e-9)

    def test_strong_deformation_entangles(self):
        out = deformed_pt_spectrum(PairConfig(0.125, 0.125, theta=0.9))
        assert out.min_invariant < 1.0

    def test_margin_examples(self):
        assert separability_margin(PairConfig(0.125, 0.125)) == pytest.approx(
            PairConfig(0.125, 0.125).radius, abs=1e-9)
        assert separability_margin(PairConfig(0.125, 0.125, theta=0.95)) < 0

    def test_margin_parameter_symmetry(self):
        for t in (0.2, 0.5, 0.9):
            a = separability_margin(PairConfig(0.125, 0.125, theta=t))
            b = separability_margin(PairConfig(0.125, 0.125, eta=t))
            assert abs(a - b) < 1e-9

    def test_reflection_involution(self):
        refl = reflection_matrix()
        np.testing.assert_array_equal(refl @ refl, np.eye(8))


class TestClosedForm:
    def test_undeformed_coefficients(self):
        cfg = PairConfig(0.125, 0.125)
        const, lead, inner, skew = closed_form_coefficients(cfg)
        rsq = cfg.radius ** 2
        assert const == pytest.approx(1 + rsq, abs=1e-14)
        assert lead == pytest.approx(4 * rsq, abs=1e-14)
        assert skew == 0.0

    def test_undeformed_extreme_values(self):
        # outermost assembled values reproduce the reflection extremes; the
        # middle pair does not (the closed-form expressions are unreliable, which
        # is why the spectrum stays the verdict authority)
        cfg = PairConfig(0.125, 0.125)
        out = closed_form_spectrum(cfg)
        r = cfg.radius
        assert out.values[0] == pytest.approx((1 + r) ** 2, abs=1e-12)
        assert out.values[3] == pytest.approx((1 - r) ** 2, abs=1e-12)
        assert out.scaled.max() == pytest.approx(cfg.scale * (1 + r), abs=1e-9)
        assert out.scaled.min() == pytest.approx(cfg.scale * (1 - r), abs=1e-9)
        assert out.oracle_deviation > 0.01   # middle pair disagrees

    def test_limiting_function_matches_min_value(self):
        for mn in (0.125, 0.25):
            radius = PairConfig(mn, mn).radius
            for t in (0.2, 0.5, 0.9):
                eta_zero = closed_form_spectrum(PairConfig(mn, mn, theta=t)).values[3]
                theta_zero = closed_form_spectrum(PairConfig(mn, mn, eta=t)).values[3]
                limit = limiting_min_invariant(t, radius)
                assert eta_zero == pytest.approx(limit, abs=1e-12)
                assert theta_zero == pytest.approx(limit, abs=1e-12)

    def test_deviation_reported(self):
        out = closed_form_spectrum(PairConfig(0.125, 0.125, theta=0.5))
        assert np.isfinite(out.oracle_deviation)
        assert out.oracle_deviation > 0.0


class TestThetaSweep:
    def test_single_crossing_for_weak_correlations(self):
        sweep = theta_sweep(PairConfig(0.125, 0.125), GRID)
        margins = np.array([row.margin for row in sweep.rows])
        signs = np.sign(margins)
        assert np.count_nonzero(np.diff(signs)) == 1
        assert sweep.crossing_theta == pytest.approx(0.25141448974609365, abs=1e-3)

    def test_crossing_ordering_with_correlation_strength(self):
        weak = theta_sweep(PairConfig(0.0625, 0.0625), GRID).crossing_theta
        mid = theta_sweep(PairConfig(0.125, 0.125), GRID).crossing_theta
        assert weak is not None and mid is not None
        assert weak < mid

    def test_quarter_correlations_cross_despite_expectations(self):
        # the spectrum finds a crossing for m = n = 1/4 as well, where the
        # closed forms expected none; checked against the 40-digit root of the
        # Hermitian test, at the bisection tolerance (acceptance criterion 4)
        sweep = theta_sweep(PairConfig(0.25, 0.25), GRID)
        assert sweep.crossing_theta == pytest.approx(QUARTER_CROSSING, abs=1e-6)

    def test_rows_sorted_and_deterministic(self):
        sweep1 = theta_sweep(PairConfig(0.125, 0.125), GRID[::-1])
        sweep2 = theta_sweep(PairConfig(0.125, 0.125), GRID)
        assert [r.theta for r in sweep1.rows] == [r.theta for r in sweep2.rows]
        assert [r.margin for r in sweep1.rows] == [r.margin for r in sweep2.rows]

    def test_thread_env_equivalence(self):
        grid = np.linspace(0.05, 0.95, 12)
        serial = theta_sweep(PairConfig(0.125, 0.125), grid)
        os.environ["GINFO_NUM_THREADS"] = "3"
        try:
            threaded = theta_sweep(PairConfig(0.125, 0.125), grid)
        finally:
            del os.environ["GINFO_NUM_THREADS"]
        assert [r.margin for r in serial.rows] == [r.margin for r in threaded.rows]
        assert serial.crossing_theta == threaded.crossing_theta

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            theta_sweep(PairConfig(0.125, 0.125), [0.0, 0.5])
        with pytest.raises(ValueError):
            theta_sweep(PairConfig(0.125, 0.125), [])


class TestDistanceIsometry:
    def test_shift_is_isometry_on_pairs(self):
        rng = np.random.default_rng(51)
        worst = 0.0
        for _ in range(25):
            cfgs = []
            while len(cfgs) < 2:
                m, n = rng.uniform(-0.6, 0.6, size=2)
                if math.hypot(m, n) < 0.95:
                    cfgs.append(PairConfig(m, n))
            shift = bopp_shift(PairConfig(0.0, 0.0, theta=rng.uniform(0, 0.9),
                                          eta=rng.uniform(0, 0.9)))
            s1 = pair_cvm(cfgs[0]).matrix
            s2 = pair_cvm(cfgs[1]).matrix
            worst = max(worst, abs(
                fr_distance(shift.matrix @ s1 @ shift.matrix.T,
                            shift.matrix @ s2 @ shift.matrix.T) - fr_distance(s1, s2)))
        assert worst < 1e-10
