import math
from collections import Counter

import numpy as np
import pytest

from ginfo import fisher, symplectic
from ginfo import (
    CanonicalTwoModeParams,
    DegenerateSpectrumError,
    NormalFormPoint,
    Region,
    RegularizerConfig,
    canonical_sqrt_closed,
    canonical_two_mode_matrix,
    fisher_det_two_mode,
    fisher_metric_numeric,
    fisher_metric_two_mode,
    fr_distance,
    fr_distance_explicit,
    generalized_eigenvalues,
    matrix_sqrt_spd,
    normal_form_cvm,
    normal_form_metric,
    pure_state_det_ratio,
    regularized_volume,
    regularizer_value,
)
from ginfo.policy import RSUP_SLACK, SPD_TOL
from ginfo.randmat import random_spd

from helpers import (
    canonical_hermitian_verdicts,
    random_nondegenerate_canonical,
    random_valid_canonical,
)


def canonical_family(theta):
    return canonical_two_mode_matrix(CanonicalTwoModeParams(*theta))


class TestNumericMetric:
    def test_scalar_family(self):
        # hand evaluation: Sigma = t * I_4 gives g = n_modes / t^2
        metric = fisher_metric_numeric(lambda t: t[0] * np.eye(4), [1.0])
        np.testing.assert_allclose(metric.matrix, [[2.0]], rtol=1e-9)

    def test_flat_point(self):
        metric = fisher_metric_numeric(canonical_family, (1.0, 1.0, 0.0, 0.0))
        np.testing.assert_allclose(metric.matrix, np.eye(4), atol=1e-9)


class TestClosedFormMetric:
    def test_flat_metric(self):
        g = fisher_metric_two_mode(CanonicalTwoModeParams(1.0, 1.0)).matrix
        np.testing.assert_allclose(g, np.eye(4), atol=1e-15)

    def test_flat_metric_general_scale(self):
        a, b = 1.7, 0.9
        g = fisher_metric_two_mode(CanonicalTwoModeParams(a, b)).matrix
        np.testing.assert_allclose(
            g, np.diag([1 / a ** 2, 1 / b ** 2, 1 / (a * b), 1 / (a * b)]), rtol=1e-14)

    def test_balanced_pure_entry(self):
        # substituting d = -c into the p-sector entry gives (1+c^2)/(1-c^2)^2
        c = 0.3
        g = fisher_metric_two_mode(CanonicalTwoModeParams(1.0, 1.0, c, -c)).matrix
        expected = (1 + c * c) / (1 - c * c) ** 2
        np.testing.assert_allclose(g[2, 2], expected, rtol=1e-14)
        np.testing.assert_allclose(g[3, 3], expected, rtol=1e-14)

    def test_determinant_identity(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            p = random_valid_canonical(rng)
            closed = fisher_det_two_mode(p)
            numeric = np.linalg.det(fisher_metric_two_mode(p).matrix)
            np.testing.assert_allclose(closed, numeric, atol=1e-9 * max(1, abs(closed)))

    def test_pure_state_ratio_reported(self):
        # the shortcut differs from the determinant by (ab - c^2)^-4
        p = CanonicalTwoModeParams(1.2, 0.9, 0.4, 0.0)
        report = pure_state_det_ratio(p)
        dc = p.a * p.b - p.c ** 2
        np.testing.assert_allclose(report["ratio"] * dc ** 4, 1.0, rtol=1e-10)

    def test_singular_state_rejected(self):
        with pytest.raises(ValueError):
            fisher_metric_two_mode(CanonicalTwoModeParams(1.0, 1.0, 1.0, 0.0))


class TestDistance:
    def test_identity(self):
        m = random_spd(4, np.random.default_rng(23))
        assert fr_distance(m, m) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_scaling(self):
        m = random_spd(4, np.random.default_rng(24))
        # all generalized eigenvalues are 2: sqrt(1/2 * 4 * log^2 2)
        np.testing.assert_allclose(fr_distance(m, 2 * m), math.sqrt(2) * math.log(2),
                                   rtol=1e-12)
        s = 0.7
        np.testing.assert_allclose(fr_distance(m, math.exp(s) * m), s * math.sqrt(2),
                                   rtol=1e-12)

    def test_dim_scaled_convention(self):
        m = random_spd(4, np.random.default_rng(25))
        m2 = random_spd(4, np.random.default_rng(26))
        assert fr_distance(m, m2, dim_scaled=True) == pytest.approx(2 * fr_distance(m, m2))

    def test_symmetry(self):
        rng = np.random.default_rng(27)
        s1, s2 = random_spd(4, rng), random_spd(4, rng)
        assert fr_distance(s1, s2) == pytest.approx(fr_distance(s2, s1), abs=1e-11)


class TestExplicitDistance:
    def test_same_state(self):
        # the sector discriminant cancels at coincident roots, so the closed
        # route resolves unity eigenvalues only to square-root precision
        p = CanonicalTwoModeParams(1.0, 0.9, 0.2, -0.3)
        out = fr_distance_explicit(p, p)
        np.testing.assert_allclose(out.lambda_m, np.ones(4), rtol=0, atol=1e-7)
        assert out.distance == pytest.approx(0.0, abs=1e-7)

    def test_sqrt_elements_balanced_point(self):
        p = CanonicalTwoModeParams(1.0, 1.0, 0.3, -0.3)
        closed = canonical_sqrt_closed(p)
        np.testing.assert_allclose(closed, matrix_sqrt_spd(canonical_two_mode_matrix(p)),
                                   atol=1e-10)

    def test_eigenvalues_match_symmetric_route(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            p = random_nondegenerate_canonical(rng)
            p0 = random_valid_canonical(rng)
            out = fr_distance_explicit(p, p0)
            oracle = generalized_eigenvalues(canonical_two_mode_matrix(p),
                                             canonical_two_mode_matrix(p0))
            np.testing.assert_allclose(out.lambda_m, oracle, atol=1e-9)
            assert out.distance == pytest.approx(
                fr_distance(canonical_two_mode_matrix(p), canonical_two_mode_matrix(p0)),
                abs=1e-9)
            assert out.distance_dim_scaled == pytest.approx(2 * out.distance, abs=1e-9)

    def test_degenerate_sector_rejected(self):
        # c = 0 with a > b makes an element denominator vanish even though all
        # four ordinary eigenvalues are distinct
        with pytest.raises(DegenerateSpectrumError):
            canonical_sqrt_closed(CanonicalTwoModeParams(2.0, 1.0, 0.0, 0.3))


class TestNormalFormMetric:
    def test_axis_point(self):
        out = normal_form_metric(NormalFormPoint(1.0, 0.0))
        np.testing.assert_allclose(out.matrix, np.diag([2.0, -2.0]), atol=1e-15)
        assert out.eigenvalues == pytest.approx((2.0, -2.0))
        assert out.transformed == pytest.approx((1.0, 0.0))
        assert out.indefinite

    def test_diagonal_point(self):
        out = normal_form_metric(NormalFormPoint(1.0, 1.0))
        np.testing.assert_allclose(out.matrix, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)
        assert out.eigenvalues == pytest.approx((1.0, -1.0))

    def test_from_exponent_pins_invariant(self):
        pt = NormalFormPoint.from_exponent(0.8, 2.4, 0.35)
        assert pt.a ** 2 - pt.c ** 2 == pytest.approx(0.25, abs=1e-12)
        cvm = normal_form_cvm(pt)
        assert np.linalg.eigvalsh(cvm.matrix).min() > 0

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            normal_form_metric(NormalFormPoint(0.0, 0.0))


class TestRegularizedVolume:
    def test_regularizer_formula(self):
        rng = np.random.default_rng(32)
        reg = RegularizerConfig(kappa=1.3, power=4)
        for _ in range(20):
            m = random_spd(4, rng)
            det = np.linalg.det(m)
            adj_trace = det * np.trace(np.linalg.inv(m))
            expected = math.exp(-adj_trace / reg.kappa) * math.log1p(det ** reg.power)
            np.testing.assert_allclose(regularizer_value(m, reg), expected, rtol=1e-10)

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_regularizer_float_route_keeps_the_bits(self, dim):
        # the numpy-scalar arithmetic the float-only integrand replaced
        rng = np.random.default_rng(33 + dim)
        reg = RegularizerConfig(kappa=1.3, power=4)
        for _ in range(200):
            m = random_spd(dim, rng)
            w = np.linalg.eigvalsh(m)
            det = float(np.prod(w))
            adj_trace = sum(det / wi for wi in w)
            expected = math.exp(-adj_trace / reg.kappa) * math.log1p(det ** reg.power)
            assert regularizer_value(m, reg) == expected

    def test_empty_region(self):
        region = Region(box=((10.0, 10.1), (10.0, 10.1), (-9.9, -9.8), (-9.9, -9.8)),
                        predicate="quantum")
        est = regularized_volume(region, RegularizerConfig(), samples=1000, seed=1)
        assert est.zero_measure and est.volume == 0.0

    def test_deterministic_and_error_scaling(self):
        region = Region(box=((0.5, 1.5), (0.5, 1.5), (-0.5, 0.5), (-0.5, 0.5)),
                        predicate="quantum")
        reg = RegularizerConfig()
        est1 = regularized_volume(region, reg, samples=1500, seed=9)
        est1b = regularized_volume(region, reg, samples=1500, seed=9)
        assert est1.volume == est1b.volume and est1.std_error == est1b.std_error
        est2 = regularized_volume(region, reg, samples=6000, seed=9)
        ratio = est1.std_error / est2.std_error
        assert 1.4 < ratio < 3.0   # fourfold samples: expect about 2

    def test_subset_ordering(self):
        box = ((0.5, 1.5), (0.5, 1.5), (-0.5, 0.5), (-0.5, 0.5))
        reg = RegularizerConfig()
        vol_q = regularized_volume(Region(box, "quantum"), reg, samples=4000, seed=5)
        vol_s = regularized_volume(Region(box, "separable"), reg, samples=4000, seed=5)
        vol_e = regularized_volume(Region(box, "entangled"), reg, samples=4000, seed=5)
        assert vol_s.volume <= vol_q.volume + 1e-12
        assert vol_e.volume <= vol_q.volume + 1e-12
        np.testing.assert_allclose(vol_s.volume + vol_e.volume, vol_q.volume, rtol=1e-10)

    @pytest.mark.parametrize("edge", [math.inf, -math.inf, math.nan])
    def test_non_finite_box_edge_rejected(self, edge):
        box = [(0.5, 1.5), (0.5, 1.5), (-0.5, 0.5), (-0.5, 0.5)]
        box[1] = (0.5, edge) if edge > 0 else (edge, 1.5)
        with pytest.raises(ValueError, match="finite"):
            Region(tuple(box), "quantum")

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            regularized_volume(Region(((0.5, 1.5),) * 4, "quantum"),
                               RegularizerConfig(), samples=10, seed=0)


# Boxes whose samples fall on both sides of each physicality decision.
GATE_BOXES = {
    "spd-boundary": ((0.3, 1.2), (0.3, 1.2), (-1.2, 1.2), (-1.2, 1.2)),
    "uncertainty-boundary": ((0.4, 0.9), (0.4, 0.9), (-0.3, 0.3), (-0.3, 0.3)),
    "ppt-boundary": ((0.5, 1.5), (0.5, 1.5), (-0.5, 0.5), (-0.5, 0.5)),
    "negative-a": ((-0.5, 1.5), (0.5, 1.5), (-0.5, 0.5), (-0.5, 0.5)),
}
GATE_SAMPLES = 2000
NEAR_PURE_SAMPLES = 4000


def _gate_draws(box, seed):
    lows = np.array([lo for lo, _ in box])
    highs = np.array([hi for _, hi in box])
    draws = np.random.default_rng(seed).uniform(lows, highs, size=(GATE_SAMPLES, 4))
    return draws, float(np.prod(highs - lows))


def _per_sample_volume(box, predicate, reg, seed):
    """Volume and acceptance with the Hermitian-route verdict taken sample by sample."""
    draws, box_volume = _gate_draws(box, seed)
    physical, separable = canonical_hermitian_verdicts(draws)
    member = {"quantum": physical, "separable": physical & separable,
              "entangled": physical & ~separable}[predicate]
    values = np.zeros(GATE_SAMPLES)
    for i in np.flatnonzero(member):
        p = CanonicalTwoModeParams(*draws[i])
        values[i] = (regularizer_value(canonical_two_mode_matrix(p), reg)
                     * math.sqrt(max(fisher_det_two_mode(p), 0.0)))
    return box_volume * values.mean(), int(member.sum())


class TestVolumeGate:
    """The batched physicality gate against an independent per-sample route."""

    def test_boxes_straddle_their_boundaries(self):
        def verdicts(name):
            draws, _ = _gate_draws(GATE_BOXES[name], seed=11)
            positive = (draws[:, 0] > 0) & (draws[:, 1] > 0)
            spd = positive.copy()
            spd[positive] = [np.linalg.eigvalsh(canonical_two_mode_matrix(
                CanonicalTwoModeParams(*row))).min() > 0 for row in draws[positive]]
            return (positive, spd, *canonical_hermitian_verdicts(draws))

        def mixed(mask):
            return 0 < mask.sum() < mask.size

        positive, spd, _, _ = verdicts("spd-boundary")
        assert positive.all() and mixed(spd)
        _, spd, physical, _ = verdicts("uncertainty-boundary")
        assert spd.all() and mixed(physical)
        _, _, physical, separable = verdicts("ppt-boundary")
        assert mixed(separable[physical])
        positive, _, _, _ = verdicts("negative-a")
        assert mixed(positive)

    @pytest.mark.parametrize("predicate", ["quantum", "separable", "entangled"])
    @pytest.mark.parametrize("box", list(GATE_BOXES), ids=list(GATE_BOXES))
    def test_matches_per_sample_route(self, box, predicate):
        reg = RegularizerConfig()
        est = regularized_volume(Region(GATE_BOXES[box], predicate), reg,
                                 samples=GATE_SAMPLES, seed=11)
        volume, accepted = _per_sample_volume(GATE_BOXES[box], predicate, reg, seed=11)
        assert est.accepted == accepted
        np.testing.assert_allclose(est.volume, volume, rtol=1e-12)

    @pytest.mark.parametrize("predicate", ["quantum", "separable", "entangled"])
    def test_per_sample_call_counts(self, monkeypatch, predicate):
        calls = Counter()

        def count(name):
            real = getattr(fisher, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(fisher, name, wrapper)

        for name in ("ppt_separable", "regularizer_value", "fisher_det_two_mode",
                     "build_symplectic_form"):
            count(name)
        box = GATE_BOXES["negative-a"]
        est = regularized_volume(Region(box, predicate), RegularizerConfig(),
                                 samples=GATE_SAMPLES, seed=4)
        physical, _ = canonical_hermitian_verdicts(_gate_draws(box, seed=4)[0])
        assert est.accepted > 0
        assert calls["ppt_separable"] == (0 if predicate == "quantum" else physical.sum())
        assert calls["regularizer_value"] == est.accepted
        assert calls["fisher_det_two_mode"] == est.accepted
        assert calls["build_symplectic_form"] == 1   # one form per call, not per sample

    @pytest.mark.parametrize("predicate", ["quantum", "separable", "entangled"])
    def test_each_sample_validated_once(self, monkeypatch, predicate):
        calls = []
        built = []
        real = symplectic.check_spd
        real_post_init = symplectic.CovarianceMatrix.__post_init__

        def counted(matrix, *args, **kwargs):
            calls.append(np.shape(matrix))
            return real(matrix, *args, **kwargs)

        def counted_post_init(self):
            built.append(self)
            real_post_init(self)

        monkeypatch.setattr(symplectic, "check_spd", counted)
        monkeypatch.setattr(symplectic.CovarianceMatrix, "__post_init__", counted_post_init)
        est = regularized_volume(Region(GATE_BOXES["ppt-boundary"], predicate),
                                 RegularizerConfig(), samples=GATE_SAMPLES, seed=4)
        assert est.accepted > 0
        assert calls == []                          # the closed-form gate validates
        assert built == []                          # samples are wrapped, not rebuilt

    @pytest.mark.parametrize("box", list(GATE_BOXES), ids=list(GATE_BOXES))
    def test_closed_form_gate_matches_spectral_routes(self, box):
        draws, _ = _gate_draws(GATE_BOXES[box], seed=11)
        physical = fisher._physical(draws)
        np.testing.assert_array_equal(physical, canonical_hermitian_verdicts(draws)[0])
        # the eigenvalue route the gate replaced
        positive = (draws[:, 0] > 0) & (draws[:, 1] > 0)
        stack = fisher._canonical_stack(draws[positive])
        spd = np.linalg.eigvalsh(stack)[:, 0] > SPD_TOL
        spectral = np.zeros_like(positive)
        spectral[np.flatnonzero(positive)[spd]] = (
            symplectic.symplectic_spectrum(stack[spd], symplectic.build_symplectic_form(2))[:, 0]
            >= 1.0 - RSUP_SLACK)
        np.testing.assert_array_equal(physical, spectral)

    def test_near_pure_symmetric_states(self):
        # two-mode squeezed vacua nudged by 1e-12 ... 1e-4 per entry: the
        # smaller invariant sits within that distance of 1, where the
        # unfactored discriminant Delta^2 - 4 det S cancels to ~1e-17 absolute
        # and moves nu_- by up to ~1e-9
        rng = np.random.default_rng(2024)
        r = rng.uniform(0.05, 0.6, NEAR_PURE_SAMPLES)
        a = np.cosh(2.0 * r) / 2.0
        c = np.sinh(2.0 * r) / 2.0
        draws = np.column_stack([a, a, c, -c])
        nudge = rng.choice([-1.0, 1.0], draws.shape) * 10.0 ** rng.uniform(-12, -4, draws.shape)
        draws = draws + nudge
        physical = fisher._physical(draws)
        expected = canonical_hermitian_verdicts(draws)[0]
        assert 0 < expected.sum() < expected.size
        np.testing.assert_array_equal(physical, expected)

    def test_box_without_positive_samples(self):
        region = Region(box=((-2.0, -1.0), (0.5, 1.5), (-0.5, 0.5), (-0.5, 0.5)),
                        predicate="separable")
        est = regularized_volume(region, RegularizerConfig(), samples=1000, seed=2)
        assert est.zero_measure and est.accepted == 0 and est.volume == 0.0
