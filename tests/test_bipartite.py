import math
from collections import Counter

import numpy as np
import pytest

from ginfo import bipartite, symplectic
from ginfo.bipartite import (
    PairConfig,
    bopp_shift,
    deformed_pt_spectrum,
    pair_boundary,
    pair_cvm,
    separability_margin,
    theta_sweep,
)
from ginfo.errors import SingularMatrixError
from ginfo.states import partial_transpose
from ginfo.symplectic import (
    CovarianceMatrix,
    J2,
    Ordering,
    build_symplectic_form,
    permute_ordering,
    symplectic_spectrum,
)

from helpers import QUARTER_CROSSING, hermitian_margin

RSUP_18 = 1.4069616518051216   # (1 + R) sqrt(b) at m = n = 1/8
GRID = np.linspace(0.01, 0.99, 99)
PARTY_FORM = build_symplectic_form(4, Ordering.PARTY_BLOCK_XP)


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
            spec = symplectic_spectrum(pair_cvm(PairConfig(mn, mn)), PARTY_FORM)
            np.testing.assert_allclose(spec, expected, atol=1e-9)

    def test_party_swap_symmetry(self):
        cfg = PairConfig(0.3, 0.1)
        state = pair_cvm(cfg).matrix
        swap = np.zeros((8, 8))
        swap[:4, 4:] = np.eye(4)
        swap[4:, :4] = np.eye(4)
        swapped = swap @ state @ swap.T
        np.testing.assert_allclose(
            symplectic_spectrum(swapped, PARTY_FORM),
            symplectic_spectrum(state, PARTY_FORM), atol=1e-10)

    def test_interleaved_conversion_is_consistent(self):
        cfg = PairConfig(0.2, 0.15)
        # per party, (x1, x2, p1, p2) -> (x1, p1, x2, p2)
        state = permute_ordering(pair_cvm(cfg).matrix, Ordering.PARTY_BLOCK_XP,
                                 Ordering.MODE_INTERLEAVED)
        form = build_symplectic_form(4, Ordering.MODE_INTERLEAVED)
        np.testing.assert_allclose(
            np.sort(symplectic_spectrum(state, form)),
            np.sort(symplectic_spectrum(pair_cvm(cfg), PARTY_FORM)), atol=1e-10)


    @pytest.mark.parametrize("field", ["m", "n", "theta", "eta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_config_rejected(self, field, value):
        values = {"m": 0.1, "n": 0.1, "theta": 0.2, "eta": 0.0, field: value}
        with pytest.raises(ValueError, match="finite"):
            PairConfig(**values)

    @pytest.mark.parametrize("theta, eta", [(2.0, 2.0), (0.89, 4.5), (-2.1, -2.1), (4.0, 1.0)])
    def test_singular_shift_domain_rejected(self, theta, eta):
        with pytest.raises(SingularMatrixError, match="Bopp shift is singular at theta[*]eta = 4"):
            PairConfig(0.1, 0.1, theta=theta, eta=eta)

    def test_matches_the_block_formula(self):
        cfg = PairConfig(-0.3, 0.2, theta=0.4, eta=-0.6)
        gamma = np.block([[cfg.n * np.eye(2), cfg.m * np.diag([1.0, -1.0])],
                          [cfg.m * np.diag([1.0, -1.0]), -cfg.n * np.eye(2)]])
        expected = cfg.scale / 2.0 * np.block([[np.eye(4), gamma], [gamma, np.eye(4)]])
        np.testing.assert_array_equal(pair_cvm(cfg).matrix, expected)

    def test_built_once_per_correlation(self):
        state = pair_cvm(PairConfig(0.3, 0.1, theta=0.2, eta=0.7)).matrix
        assert pair_cvm(PairConfig(0.3, 0.1, theta=0.9, eta=-1.0)).matrix is state
        assert pair_cvm(PairConfig(0.1, 0.3)).matrix is not state

    @pytest.fixture
    def spd_calls(self, monkeypatch):
        calls = []
        real = symplectic.check_spd

        def counted(matrix, *args, **kwargs):
            calls.append(np.shape(matrix))
            return real(matrix, *args, **kwargs)

        monkeypatch.setattr(symplectic, "check_spd", counted)
        return calls

    def test_built_without_an_spd_check(self, spd_calls):
        rng = np.random.default_rng(8)
        for _ in range(50):
            cfg = PairConfig(*rng.uniform(-0.7, 0.7, 2))
            cvm = pair_cvm(cfg)
            assert spd_calls == []
            checked = CovarianceMatrix(cvm.matrix, ordering=Ordering.PARTY_BLOCK_XP)
            assert spd_calls == [(8, 8)]
            spd_calls.clear()
            np.testing.assert_array_equal(cvm.matrix, checked.matrix)
            assert not cvm.matrix.flags.writeable
            assert cvm.ordering is Ordering.PARTY_BLOCK_XP

    def test_one_spd_check_per_margin(self, spd_calls):
        separability_margin(PairConfig(0.125, 0.125, theta=0.4, eta=0.1))
        assert spd_calls == [(8, 8)]      # the reflected deformed matrix


class TestBoppShift:
    def test_undeformed_identity(self):
        shift = bopp_shift(PairConfig(0.1, 0.1))
        np.testing.assert_array_equal(shift.matrix, np.eye(8))
        np.testing.assert_array_equal(shift.form.matrix, PARTY_FORM.matrix)

    def test_deformed_form_blocks(self):
        cfg = PairConfig(0.1, 0.1, theta=0.5, eta=0.3)
        shift = bopp_shift(cfg)
        he = 1.0 + 0.5 * 0.3 / 4     # the effective hbar 1 + theta eta / 4
        party_block = np.block([
            [cfg.theta * J2, he * np.eye(2)],
            [-he * np.eye(2), cfg.eta * J2]])
        expected = np.zeros((8, 8))
        expected[:4, :4] = party_block
        expected[4:, 4:] = party_block
        np.testing.assert_allclose(shift.form.matrix, expected, atol=1e-14)
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

    def test_shift_next_to_its_singular_point_accepted(self):
        # theta*eta = 3.96: |det S| = 1e-8 and |det S Omega S^T| = 1e-16, but cond(S) is 726
        shift = bopp_shift(PairConfig(0.2, 0.1, theta=0.88, eta=4.5))
        assert np.linalg.cond(shift.matrix) < 1e3


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
        for m, n in [(0.125, 0.125), (0.3, 0.1)]:
            assert separability_margin(PairConfig(m, n)) == pytest.approx(
                PairConfig(m, n).radius, abs=1e-9)
        assert separability_margin(PairConfig(0.125, 0.125, theta=0.95)) < 0

    @pytest.mark.parametrize("theta, eta", [(0.5, 0.5), (0.88, 4.5)])   # theta*eta 0.25, 3.96
    def test_margin_matches_hermitian_route(self, theta, eta):
        margin = separability_margin(PairConfig(0.2, 0.1, theta=theta, eta=eta))
        assert margin == pytest.approx(hermitian_margin(0.2, 0.1, theta, eta), abs=1e-9)

    def test_reflection_involution(self):
        pair = pair_cvm(PairConfig(0.3, 0.1))
        once = partial_transpose(pair)
        signs = np.array([1.0, 1, 1, 1, 1, 1, -1, -1])   # party B's momenta p3, p4
        np.testing.assert_array_equal(once.matrix, pair.matrix * np.outer(signs, signs))
        np.testing.assert_array_equal(partial_transpose(once).matrix, pair.matrix)


def _boundary_roots(m, n, eta):
    """Real roots in theta of F+ and F- at fixed (m, n, eta).

    Each factor is quadratic in theta at fixed eta; its coefficients are read
    off three evaluations of ``pair_boundary`` and the quadratic is solved in
    the cancellation-free form, which also covers a vanishing leading term.
    """
    roots = []
    for factor in (0, 1):
        at = [pair_boundary(PairConfig(m, n, theta=t, eta=eta))[factor]
              for t in (-1.0, 0.0, 1.0)]
        c = at[1]
        b = 0.5 * (at[2] - at[0])
        a = 0.5 * (at[2] + at[0]) - c
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            continue
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        roots.append(c / q)
        if a != 0.0:
            roots.append(q / a)
    return roots


class TestPairBoundary:
    def test_verdict_matches_spectrum_on_random_points(self):
        rng = np.random.default_rng(52)
        used = entangled = mismatches = 0
        for _ in range(2400):
            radius = rng.uniform(0.005, 0.97)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            theta, eta = rng.uniform(-1.9, 1.9, size=2)
            cfg = PairConfig(radius * math.cos(angle), radius * math.sin(angle),
                             theta=theta, eta=eta)
            margin = separability_margin(cfg)
            if abs(margin) < 1e-9:
                continue
            used += 1
            entangled += margin < 0.0
            mismatches += (min(pair_boundary(cfg)) >= 0.0) != (margin >= 0.0)
        assert used >= 2000
        assert 0 < entangled < used
        assert mismatches == 0

    def test_factors_the_threshold_quartic(self):
        # prod(nu_k^2 - 1) / 4^4 = R^2 F+ F- / (4^8 (1 - R)^4 (1 - theta eta / 4)^4)
        rng = np.random.default_rng(55)
        worst = 0.0
        for _ in range(200):
            radius = rng.uniform(0.005, 0.97)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            theta, eta = rng.uniform(-1.9, 1.9, size=2)
            cfg = PairConfig(radius * math.cos(angle), radius * math.sin(angle),
                             theta=theta, eta=eta)
            nu = deformed_pt_spectrum(cfg).invariants
            quartic = np.prod(nu ** 2 - 1.0) / 4.0 ** 4
            f_plus, f_minus = pair_boundary(cfg)
            closed = radius ** 2 * f_plus * f_minus / (
                4.0 ** 8 * (1.0 - radius) ** 4 * (1.0 - theta * eta / 4.0) ** 4)
            worst = max(worst, abs(quartic - closed) / abs(quartic))
        assert worst < 1e-10

    def test_eta_zero_crossing_reproduces_quarter_crossing(self):
        # at eta = 0, F+- = 16 P +- 32 Q theta, so at theta = 1 the ratio
        # (F+ + F-) / (F+ - F-) is the crossing P / (2 Q)
        f_plus, f_minus = pair_boundary(PairConfig(0.25, 0.25, theta=1.0))
        assert abs((f_plus + f_minus) / (f_plus - f_minus) - QUARTER_CROSSING) <= 1e-15

    def test_roots_match_sweep_bisection(self):
        configs = [(mn, mn, 0.0) for mn in (0.125, 0.25, 0.0625)]   # figures 1-3
        rng = np.random.default_rng(53)
        for _ in range(10):
            radius = rng.uniform(0.05, 0.6)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            configs.append((radius * math.cos(angle), radius * math.sin(angle),
                            rng.uniform(0.0, 0.05)))
        for m, n, eta in configs:
            crossing = theta_sweep(PairConfig(m, n, eta=eta), GRID).crossing_theta
            assert crossing is not None
            assert min(abs(r - crossing) for r in _boundary_roots(m, n, eta)) < 1e-6, (m, n, eta)

    def test_margin_invariant_under_rotation(self):
        rng = np.random.default_rng(54)
        worst = 0.0
        for _ in range(40):
            radius = rng.uniform(0.005, 0.97)
            theta, eta = rng.uniform(-1.9, 1.9, size=2)
            axis = separability_margin(PairConfig(radius, 0.0, theta=theta, eta=eta))
            angle = rng.uniform(0.0, 2.0 * math.pi)
            turned = separability_margin(PairConfig(
                radius * math.cos(angle), radius * math.sin(angle), theta=theta, eta=eta))
            worst = max(worst, abs(turned - axis))
        assert worst < 1e-12


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

    @pytest.mark.parametrize("eta", [0.0, 0.8])   # one crossing, none
    def test_one_spectrum_per_grid_point_and_bisection_step(self, monkeypatch, eta):
        calls = Counter()

        def count(name):
            real = getattr(bipartite, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(bipartite, name, wrapper)

        for name in ("separability_margin", "deformed_pt_spectrum"):
            count(name)
        grid = np.linspace(0.01, 0.99, 30)
        sweep = theta_sweep(PairConfig(0.125, 0.125, eta=eta), grid)
        assert (sweep.crossing_theta is None) == (eta != 0.0)
        steps = 0
        if sweep.crossing_theta is not None:
            # replay the bisection: every kept half contains the final midpoint
            margins = [row.margin for row in sweep.rows]
            k = next(i for i in range(grid.size - 1)
                     if (margins[i] >= 0.0) != (margins[i + 1] >= 0.0))
            lo, hi = sweep.rows[k].theta, sweep.rows[k + 1].theta
            while hi - lo > 1e-6:
                steps += 1
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if mid < sweep.crossing_theta else (lo, mid)
            assert 0.5 * (lo + hi) == sweep.crossing_theta
        assert calls["separability_margin"] == grid.size + steps
        assert calls["deformed_pt_spectrum"] == grid.size + steps

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            theta_sweep(PairConfig(0.125, 0.125), [0.0, 0.5])
        with pytest.raises(ValueError):
            theta_sweep(PairConfig(0.125, 0.125), [])
