import math
from collections import Counter

import numpy as np
import pytest

from ginfo import fisher, states, symplectic
from ginfo.errors import NumericDomainError
from ginfo.fisher import (
    Region,
    RegularizerConfig,
    canonical_sqrt_closed,
    fisher_det_two_mode,
    fisher_metric_numeric,
    fisher_metric_two_mode,
    fr_distance,
    fr_distance_explicit,
    pure_state_det_ratio,
    regularized_volume,
    regularizer_value,
)
from ginfo.policy import RSUP_SLACK, SPD_TOL
from ginfo.randmat import random_spd
from ginfo.states import CanonicalTwoModeParams, canonical_two_mode_matrix
from ginfo.symplectic import generalized_eigenvalues, matrix_sqrt_spd

from helpers import (
    CANONICAL_SQRT_REFERENCES,
    GATE_BOXES,
    GATE_SAMPLES,
    canonical_hermitian_verdicts,
    gate_draws,
    random_valid_canonical,
)


class TestNumericMetric:
    def test_basis_spans_the_family(self):
        # the trace formula's constant derivatives E_k build the family exactly
        basis = states._canonical_matrices(np.eye(4))
        rng = np.random.default_rng(31)
        for _ in range(50):
            p = random_valid_canonical(rng)
            built = np.einsum("k,kij->ij", [p.a, p.b, p.c, p.d], basis)
            np.testing.assert_array_equal(built, canonical_two_mode_matrix(p))

    def test_flat_point(self):
        metric = fisher_metric_numeric(CanonicalTwoModeParams(1.0, 1.0))
        np.testing.assert_array_equal(metric.matrix, np.eye(4))
        assert metric.parameter_names == ("a", "b", "c", "d")

    def test_rejects_an_indefinite_state(self):
        with pytest.raises(NumericDomainError):
            fisher_metric_numeric(CanonicalTwoModeParams(1.0, 1.0, 2.0))


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

    def test_overflow_raises_instead_of_returning_nan(self):
        # ab overflows at a = b = 1e300, and the entries are inf / inf.
        # FloatingPointError is no ValueError, so the CLI exits 4, not 3
        with pytest.raises(FloatingPointError, match="non-finite"):
            fisher_metric_two_mode(CanonicalTwoModeParams(1e300, 1e300))


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
        # the sector spectrum takes no difference of nearly equal roots, so
        # coincident unit eigenvalues come out to rounding
        p = CanonicalTwoModeParams(1.0, 0.9, 0.2, -0.3)
        distance, lam = fr_distance_explicit(p, p)
        np.testing.assert_allclose(lam, np.ones(4), rtol=0, atol=1e-14)
        assert distance == pytest.approx(0.0, abs=1e-14)

    def test_sqrt_elements_balanced_point(self):
        p = CanonicalTwoModeParams(1.0, 1.0, 0.3, -0.3)
        closed = canonical_sqrt_closed(p)
        np.testing.assert_allclose(closed, matrix_sqrt_spd(canonical_two_mode_matrix(p)),
                                   atol=1e-15)

    def test_eigenvalues_match_symmetric_route(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            p = random_valid_canonical(rng)
            p0 = random_valid_canonical(rng)
            _, lam = fr_distance_explicit(p, p0)
            oracle = generalized_eigenvalues(canonical_two_mode_matrix(p),
                                             canonical_two_mode_matrix(p0))
            np.testing.assert_allclose(lam, oracle, atol=1e-9)

    def test_uncorrelated_sectors_match_eigh(self):
        # c = 0 or d = 0 makes a sector diagonal; it needs no special case
        for params in [(2.0, 1.0, 0.0, 0.3), (1.0, 2.0, 0.3, 0.0), (2.0, 1.0, 0.0, 0.0)]:
            p = CanonicalTwoModeParams(*params)
            np.testing.assert_allclose(canonical_sqrt_closed(p),
                                       matrix_sqrt_spd(canonical_two_mode_matrix(p)),
                                       rtol=0, atol=1e-15)

    @pytest.mark.parametrize("params, root, target", CANONICAL_SQRT_REFERENCES,
                             ids=["anisotropic", "uncorrelated-sector"])
    def test_mpmath_references(self, params, root, target):
        # 60-digit references at a/b = 1e6 and at an uncorrelated sector
        p = CanonicalTwoModeParams(*params)
        root = np.array(root)
        error = np.abs(canonical_sqrt_closed(p) - root).max()
        assert error <= 1e-15 * np.abs(root).max(), error
        if target is not None:
            p0, lam, distance = target
            got_distance, got_lam = fr_distance_explicit(p, CanonicalTwoModeParams(*p0))
            np.testing.assert_allclose(got_lam, lam, rtol=1e-14, atol=0)
            assert got_distance == pytest.approx(distance, rel=1e-14, abs=0)

    def test_anisotropic_roots_match_eigh(self):
        # a, b over six decades and correlations up to 0.95 sqrt(ab)
        rng = np.random.default_rng(33)
        worst = 0.0
        for _ in range(2000):
            a, b = 10.0 ** rng.uniform(-3.0, 3.0, size=2)
            c, d = rng.uniform(-0.95, 0.95, size=2) * math.sqrt(a * b)
            p = CanonicalTwoModeParams(a, b, c, d)
            oracle = matrix_sqrt_spd(canonical_two_mode_matrix(p))
            error = np.abs(canonical_sqrt_closed(p) - oracle).max() / np.abs(oracle).max()
            worst = max(worst, error)
        assert worst < 1e-12, worst


class TestRegularizedVolume:
    def test_regularizer_formula(self):
        # against det(S) and Tr adj(S) = det(S) Tr(S^-1) of the built matrix
        rng = np.random.default_rng(32)
        reg = RegularizerConfig(kappa=1.3, power=4)
        for _ in range(200):
            p = random_valid_canonical(rng)
            m = canonical_two_mode_matrix(p)
            det = np.linalg.det(m)
            adj_trace = det * np.trace(np.linalg.inv(m))
            expected = math.exp(-adj_trace / reg.kappa) * math.log1p(det ** reg.power)
            np.testing.assert_allclose(regularizer_value(p, reg), expected, rtol=1e-12)

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
NEAR_PURE_SAMPLES = 4000


def _per_sample_volume(box, predicate, reg, seed):
    """Volume and acceptance with the Hermitian-route verdict taken sample by sample."""
    draws, box_volume = gate_draws(box, seed)
    physical, separable = canonical_hermitian_verdicts(draws)
    member = {"quantum": physical, "separable": physical & separable,
              "entangled": physical & ~separable}[predicate]
    values = np.zeros(GATE_SAMPLES)
    for i in np.flatnonzero(member):
        p = CanonicalTwoModeParams(*draws[i])
        values[i] = regularizer_value(p, reg) * math.sqrt(max(fisher_det_two_mode(p), 0.0))
    return box_volume * values.mean(), int(member.sum())


class TestVolumeGate:
    """The batched physicality gate against an independent per-sample route."""

    def test_boxes_straddle_their_boundaries(self):
        def verdicts(name):
            draws, _ = gate_draws(GATE_BOXES[name], seed=11)
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

        for name in ("ppt_separable", "regularizer_value", "fisher_det_two_mode"):
            count(name)
        real_spectrum = symplectic.symplectic_spectrum

        def spectrum(*args, **kwargs):
            calls["symplectic_spectrum"] += 1
            return real_spectrum(*args, **kwargs)

        monkeypatch.setattr(symplectic, "symplectic_spectrum", spectrum)
        before = symplectic.build_symplectic_form.cache_info()
        box = GATE_BOXES["negative-a"]
        est = regularized_volume(Region(box, predicate), RegularizerConfig(),
                                 samples=GATE_SAMPLES, seed=4)
        physical, _ = canonical_hermitian_verdicts(gate_draws(box, seed=4)[0])
        assert est.accepted > 0
        assert calls["ppt_separable"] == (0 if predicate == "quantum" else physical.sum())
        assert calls["regularizer_value"] == est.accepted
        assert calls["fisher_det_two_mode"] == est.accepted
        # the verdicts are closed form: no form is looked up and no spectrum taken
        after = symplectic.build_symplectic_form.cache_info()
        assert (after.hits + after.misses) - (before.hits + before.misses) == 0
        assert calls["symplectic_spectrum"] == 0

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
        assert built == []                          # no sample becomes a matrix

    @pytest.mark.parametrize("box", list(GATE_BOXES), ids=list(GATE_BOXES))
    def test_closed_form_gate_matches_spectral_routes(self, box):
        draws, _ = gate_draws(GATE_BOXES[box], seed=11)
        physical = fisher._physical(draws)
        np.testing.assert_array_equal(physical, canonical_hermitian_verdicts(draws)[0])
        # the eigenvalue route the gate replaced
        positive = (draws[:, 0] > 0) & (draws[:, 1] > 0)
        stack = states._canonical_matrices(draws[positive])
        spd = np.linalg.eigvalsh(stack)[:, 0] > SPD_TOL
        spectral = np.zeros_like(positive)
        spectral[np.flatnonzero(positive)[spd]] = (
            symplectic.symplectic_spectrum(stack[spd], symplectic.build_symplectic_form(2))[:, 0]
            >= 1.0 - RSUP_SLACK)
        np.testing.assert_array_equal(physical, spectral)

    @pytest.mark.parametrize("box, separable", [("spd-boundary", 235),
                                                ("uncertainty-boundary", 835),
                                                ("ppt-boundary", 1594), ("negative-a", 810)])
    def test_closed_form_windows_match_the_gate(self, box, separable):
        # the paper's windows are a third route to the gate's verdicts; outside
        # the family's a, b > 0 no draw is physical. A draw whose spectral
        # margin is within 1e-6 of zero is skipped
        draws, _ = gate_draws(GATE_BOXES[box], seed=11)
        form = symplectic.build_symplectic_form(2)
        agree = Counter()
        for row, physical in zip(draws.tolist(), fisher._physical(draws).tolist()):
            if min(row[:2]) <= 0:
                agree["quantum"] += not physical
                continue
            p = CanonicalTwoModeParams(*row)
            m = canonical_two_mode_matrix(p)
            if (np.linalg.eigvalsh(m)[0] > SPD_TOL
                    and abs(symplectic.symplectic_spectrum(m, form)[0] - 1.0) < 1e-6):
                continue
            agree["quantum"] += states.in_quantum_region(p) == physical
            if physical:
                verdict = states.ppt_separable(states.canonical_two_mode_cvm(p))
                if abs(verdict.margin) >= 1e-6:
                    agree["separable"] += states.in_separable_region(p) == verdict.separable
        # every draw agrees, and none is skipped
        assert agree == {"quantum": GATE_SAMPLES, "separable": separable}

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

    def test_sample_floor(self, monkeypatch):
        # the floor that the CLI's --samples check reads, named in the message
        region = Region(GATE_BOXES["ppt-boundary"], "quantum")
        with pytest.raises(ValueError, match="at least"):
            regularized_volume(region, RegularizerConfig(),
                               samples=fisher.MIN_VOLUME_SAMPLES - 1, seed=2)
        with monkeypatch.context() as patch:
            patch.setattr(fisher, "MIN_VOLUME_SAMPLES", 1500)
            with pytest.raises(ValueError, match="^use at least 1500 samples$"):
                regularized_volume(region, RegularizerConfig(), samples=1499, seed=2)
        est = regularized_volume(region, RegularizerConfig(),
                                 samples=fisher.MIN_VOLUME_SAMPLES, seed=2)
        assert est.samples == fisher.MIN_VOLUME_SAMPLES

    def test_box_without_positive_samples(self):
        region = Region(box=((-2.0, -1.0), (0.5, 1.5), (-0.5, 0.5), (-0.5, 0.5)),
                        predicate="separable")
        est = regularized_volume(region, RegularizerConfig(), samples=1000, seed=2)
        assert est.zero_measure and est.accepted == 0 and est.volume == 0.0
