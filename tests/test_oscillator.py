import dataclasses
import math
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from ginfo import oscillator
from ginfo.errors import NumericDomainError, SingularMatrixError
from ginfo.oscillator import (
    OscillatorParams,
    _polar_ground_state,
    darboux_matrix,
    equivalent_hamiltonian,
    equivalent_params,
    ground_state,
    mode_spectrum,
    nc_hamiltonian_matrix,
    separability_condition,
)
from ginfo.states import ppt_separable, simon_invariants
from ginfo.symplectic import J2, CovarianceMatrix, build_symplectic_form, symplectic_spectrum

from helpers import (
    OSCILLATOR_REFERENCES,
    equivalent_hamiltonian_matrix,
    separability_sides,
    stationary_residual,
)

FORM2 = build_symplectic_form(2)

GENERIC = OscillatorParams(1.0, 1.0, 1.0, 2.0, theta=0.3, eta=0.2)
ISOTROPIC = OscillatorParams(1.3, 1.3, 1.7, 1.7, theta=0.4, eta=0.3)
RECIPROCAL = OscillatorParams(2.0, 0.5, 2.0, 0.5, theta=0.7, eta=0.7)
EPS = np.finfo(float).eps
BAND = 8.0   # rounding band of the cross coupling, in eps * cond(H)
ROUTE_TOL = 1e-13   # the polar form's and the modes' relative deviation, per unit of cond(H)


def _box_draw(rng, scale, kind):
    """An oscillator with frequencies of order ``scale`` and theta*eta/4 in (0.01, 0.9).

    ``kind`` is "isotropic" (w1 == w2, equal or unequal masses), "tuned"
    (eta == m1 m2 theta w1 w2) or "generic".
    """
    m1, m2 = rng.uniform(0.5, 2.0, size=2)
    w1, w2 = scale * rng.uniform(0.5, 2.5, size=2)
    if kind == "isotropic":
        m2, w2 = (m1 if rng.random() < 0.5 else m2), w1
    strength = rng.uniform(0.01, 0.9)
    if kind == "tuned":
        theta = np.sqrt(4.0 * strength / (m1 * m2 * w1 * w2))
        eta = theta * w1 * w2 * m1 * m2
    else:
        ratio = np.exp(rng.uniform(-2.0, 2.0))
        theta, eta = 2.0 * np.sqrt(strength) * ratio, 2.0 * np.sqrt(strength) / ratio
    return OscillatorParams(m1, m2, w1, w2, theta=theta, eta=eta)


def _edge_draws(seed, count):
    """Oscillators near the singular edge: m, w log-uniform in (0.01, 10), hbar = 1,
    1 - theta eta / 4 = 10^U(-8, 0) and theta / eta = e^U(-3, 3)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m1, m2, w1, w2 = 10.0 ** rng.uniform(-2.0, 1.0, size=4)
        strength = 1.0 - 10.0 ** rng.uniform(-8.0, 0.0)
        ratio = math.exp(rng.uniform(-3.0, 3.0))
        yield OscillatorParams(m1, m2, w1, w2, theta=math.sqrt(4.0 * strength * ratio),
                               eta=math.sqrt(4.0 * strength / ratio))


def random_params(rng):
    return OscillatorParams(*rng.uniform(0.5, 2.0, size=4),
                            theta=rng.uniform(0.02, 0.9), eta=rng.uniform(0.02, 0.9))


class TestDarboux:
    def test_undeformed_is_identity(self):
        p = OscillatorParams(1.0, 1.0, 1.0, 2.0)
        np.testing.assert_array_equal(darboux_matrix(p), np.eye(4))

    def test_recovers_deformed_commutators(self):
        # hbar_e * deformed form == hbar * Ups J Ups^T
        for p in (GENERIC, RECIPROCAL, OscillatorParams(0.7, 1.9, 1.1, 0.6, 0.8, 0.5)):
            ups = darboux_matrix(p)
            right = p.hbar * ups @ FORM2.matrix @ ups.T
            pi = np.diag([p.theta, p.eta])
            deformed = np.block([
                [J2, pi / p.hbar_effective],
                [-pi / p.hbar_effective, J2]])
            np.testing.assert_allclose(p.hbar_effective * deformed, right, atol=1e-12)

    def test_determinant(self):
        p = OscillatorParams(1.0, 1.0, 1.0, 2.0, theta=1.0, eta=1.0)
        det = np.linalg.det(darboux_matrix(p))
        np.testing.assert_allclose(det, (1 - 0.25) ** 2, rtol=1e-12)

    def test_too_strong_deformation_rejected(self):
        with pytest.raises(SingularMatrixError):
            OscillatorParams(1.0, 1.0, 1.0, 1.0, theta=2.0, eta=2.0)


class TestEquivalentHamiltonian:
    def test_undeformed_passthrough(self):
        p = OscillatorParams(1.0, 1.0, 1.0, 2.0)
        h, eq = equivalent_hamiltonian(p), equivalent_params(p)
        np.testing.assert_allclose(h, nc_hamiltonian_matrix(p), atol=1e-14)
        assert eq.coupling1 == 0.0 and eq.coupling2 == 0.0
        assert eq.mass1 == p.mass1 and eq.mass2 == p.mass2

    def test_isotropic_symmetry(self):
        eq = equivalent_params(ISOTROPIC)
        assert eq.mass1 == pytest.approx(eq.mass2)
        assert eq.stiffness1 == pytest.approx(eq.stiffness2)
        assert eq.coupling1 == pytest.approx(eq.coupling2)

    def test_closed_blocks_match_product(self):
        p = GENERIC
        ups = darboux_matrix(p)
        product = ups.T @ nc_hamiltonian_matrix(p) @ ups
        assembled = equivalent_hamiltonian_matrix(equivalent_params(p))
        np.testing.assert_allclose(assembled, product, atol=1e-12)


class TestModeSpectrum:
    def test_decoupled_anisotropic(self):
        p = OscillatorParams(1.0, 1.0, 1.0, 2.0)
        spec = mode_spectrum(p, equivalent_params(p))
        assert spec.freq1 == pytest.approx(1.0, abs=1e-12)
        assert spec.freq2 == pytest.approx(2.0, abs=1e-12)

    def test_coinciding_modes_are_exact(self):
        # isotropic and undeformed: the discriminant vanishes and both modes
        # come out as the one frequency
        p = OscillatorParams(1.0, 1.0, 1.5, 1.5)
        spec = mode_spectrum(p, equivalent_params(p))
        assert (spec.freq1, spec.freq2) == (1.5, 1.5)

    @pytest.mark.parametrize("scale", [1e-100, 1e-80, 1e80])
    def test_frequency_scales_keep_every_digit(self, scale):
        # the discriminant's square, of degree 4 in the frequencies, would
        # underflow or overflow here; the modes and the ground state that
        # reads them keep their digits (m w = 1)
        p = OscillatorParams(1.0 / scale, 1.0 / scale, scale, 2.0 * scale)
        spec = mode_spectrum(p, equivalent_params(p))
        assert spec.freq1 == pytest.approx(scale, rel=4 * EPS)
        assert spec.freq2 == pytest.approx(2.0 * scale, rel=4 * EPS)
        np.testing.assert_allclose(ground_state(p).covariance.matrix,
                                   np.diag([0.5, 0.5, 0.25, 1.0]), rtol=8 * EPS, atol=0.0)


class TestGroundState:
    def test_commutative_isotropic_product(self):
        p = OscillatorParams(1.4, 1.4, 1.1, 1.1)
        e = ground_state(p).exponent
        assert e.cross_imag == 0.0
        assert e.m11 == pytest.approx(1.4 * 1.1 / p.hbar)
        assert e.m22 == pytest.approx(1.4 * 1.1 / p.hbar)

    def test_deformed_isotropic_uncorrelated(self):
        e = ground_state(ISOTROPIC).exponent
        assert abs(e.cross_imag) < 1e-12
        assert e.m11 == pytest.approx(e.m22, rel=1e-9)

    def test_generic_anisotropic_correlated(self):
        e = ground_state(GENERIC).exponent
        assert abs(e.cross_imag) > 1e-3

    def test_isotropic_and_near_degenerate_draws(self):
        # equal masses, equal or nearly equal frequencies, weak or vanishing
        # deformations: every draw has a ground state and its modes, the
        # modes agree with the eigenvalues of J H, and an isotropic draw is
        # separable
        rng = np.random.default_rng(11)

        def log_uniform(lo, hi):
            return 10.0 ** rng.uniform(np.log10(lo), np.log10(hi))

        for k in range(1000):
            mass, freq = log_uniform(0.1, 10.0), log_uniform(1e-3, 10.0)
            isotropic = k % 2 == 0
            freq2 = freq if isotropic else freq * (1.0 + log_uniform(1e-15, 1e-3))
            theta, eta = (0.0 if rng.random() < 0.2 else log_uniform(1e-14, 0.1)
                          for _ in range(2))
            p = OscillatorParams(mass, mass, freq, freq2, theta=theta, eta=eta)
            state = ground_state(p)
            h = equivalent_hamiltonian(p)
            want = np.sort(np.abs(np.linalg.eigvals(FORM2.matrix @ h).imag))[::2]
            got = np.array([state.modes.freq1, state.modes.freq2])
            assert np.abs(got / want - 1.0).max() <= 1e-14 * np.linalg.cond(h), p
            if isotropic:
                assert separability_condition(p).separable, p

    def test_rounding_indefinite_hamiltonian_reports_its_state(self):
        # eps cond(H) = 18: eigh gives the rounded H a negative eigenvalue, yet
        # the closed form needs no eigensolver and is within 8 eps of the
        # 60-digit reference (the "rounding-indefinite" case of TestReferences)
        p = OscillatorParams(1.69354767334799, 1.1584497945524372, 1.0070940064921396e-06,
                             5.626082907547214e-07, theta=0.2929345562425935,
                             eta=11.425549418307192)
        h = equivalent_hamiltonian(p)
        assert EPS * np.linalg.cond(h) > 16.0 and np.linalg.eigvalsh(h)[0] < 0.0
        assert ground_state(p).residual <= 4.0 * EPS

    def test_near_edge_draws_all_report(self):
        # 4,000 seeded draws next to the singular edge; a check by the polar
        # form rounds H to indefinite on 750 of them and raises there, where
        # the closed form is as good as anywhere.
        # Each reports a pure state: Sigma + i Omega / 2 positive semidefinite
        # and every invariant 1, both to 8 eps cond(Sigma)
        for p in _edge_draws(49, 4000):
            sigma = ground_state(p).covariance.matrix
            bound = 8.0 * EPS * np.linalg.cond(sigma)
            assert np.linalg.eigvalsh(sigma + 0.5j * FORM2.matrix)[0] \
                >= -bound * np.abs(sigma).max(), p
            assert np.abs(symplectic_spectrum(sigma, FORM2) - 1.0).max() <= bound, p

    def test_checks_only_the_covariance_by_eigensolver(self, monkeypatch):
        # the defining identity takes matrix products only: of all of
        # numpy.linalg, only the CovarianceMatrix check's eigvalsh runs
        calls = Counter()

        def spy(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in np.linalg.__all__:
            real = getattr(np.linalg, name)
            if callable(real) and not isinstance(real, type):
                monkeypatch.setattr(np.linalg, name, spy(name, real))
        ground_state(GENERIC)
        assert calls == Counter(eigvalsh=1)

    def test_cross_term_sign_flip_fails_the_identity(self, monkeypatch):
        # flipping the sign of the block between the two modes is a mutant
        # that stays a valid pure state (diag(1, 1, -1, -1) is symplectic), so
        # only the identity can catch it
        flip = np.diag([1.0, 1.0, -1.0, -1.0])
        monkeypatch.setattr(oscillator, "CovarianceMatrix",
                            lambda matrix: CovarianceMatrix(flip @ matrix @ flip))
        with pytest.raises(NumericDomainError, match=r"misses .* by 3\.553e-03"):
            ground_state(GENERIC)

    def test_tiny_frequency_state_names_the_spd_floor(self):
        # the exponent is consistent; only the momentum variance hbar m w / 2
        # = 5e-14 lies below the absolute floor SPD_TOL
        with pytest.raises(NumericDomainError,
                           match=r"min eigenvalue = 5\.000e-14 <= SPD_TOL = 1e-12$"):
            ground_state(OscillatorParams(1.0, 1.0, 1e-13, 1e-13))

    def test_ratio_route_matches_matrix_route(self):
        # the exponent read off the covariance's entries against the matrix
        # route M = Sxx^-1 / 2 - (i / hbar) Sxx^-1 Sxp on the polar form's
        # (x, p) blocks, with its realness structure
        rng = np.random.default_rng(44)
        for _ in range(25):
            p = random_params(rng)
            h = equivalent_hamiltonian(p)
            e = ground_state(p).exponent
            polar = _polar_ground_state(h, p.hbar)
            x, q = [0, 2], [1, 3]
            sxx_inv = np.linalg.inv(polar[np.ix_(x, x)])
            mat = sxx_inv / 2.0 - 1j / p.hbar * sxx_inv @ polar[np.ix_(x, q)]
            bound = ROUTE_TOL * np.linalg.cond(h) * np.abs(mat).max()
            assert abs(mat[0, 0] - e.m11) <= bound
            assert abs(mat[1, 1] - e.m22) <= bound
            assert abs(mat[0, 1] - 1j * e.cross_imag) <= bound
            assert abs(mat[1, 0] - 1j * e.cross_imag) <= bound

    def test_exponent_solves_the_stationary_equation(self):
        # the reported exponent makes exp(-x^T M x / 2) an eigenstate of H,
        # read from H and the exponent alone, and is normalizable
        rng = np.random.default_rng(50)
        for _ in range(200):
            p = random_params(rng)
            h = equivalent_hamiltonian(p)
            e = ground_state(p).exponent
            assert e.m11 > 0 and e.m22 > 0
            assert stationary_residual(h, e, p.hbar) <= EPS * np.linalg.cond(h), p
        for point, _, _ in OSCILLATOR_REFERENCES:
            p = OscillatorParams(*point)
            h = equivalent_hamiltonian(p)
            assert stationary_residual(h, ground_state(p).exponent, p.hbar) \
                <= EPS * np.linalg.cond(h), p

    def test_closed_form_over_the_deformation_domain(self):
        # 4,000 draws: m in 10^+-1, w in 10^+-2, hbar in 10^+-1, theta in
        # 10^(-3 ... 0.5) and theta*eta up to 0.99 * 4 hbar^2, every tenth
        # undeformed. Every draw reports. Sigma + i hbar Omega / 2 is positive
        # semidefinite with all invariants 1 (a pure state), to eps cond(H);
        # on the 215 draws with eps cond(H) >= 1, where the polar form keeps
        # no digit, to 8 eps cond(Sigma). Elsewhere the covariance matches the
        # polar form to ROUTE_TOL * cond(H). An undeformed draw has an exactly
        # zero cross term
        rng = np.random.default_rng(51)
        ill = 0
        for k in range(4000):
            m1, m2 = 10.0 ** rng.uniform(-1.0, 1.0, size=2)
            w1, w2 = 10.0 ** rng.uniform(-2.0, 2.0, size=2)
            hbar = 10.0 ** rng.uniform(-1.0, 1.0)
            theta = 0.0 if k % 10 == 0 else 10.0 ** rng.uniform(-3.0, 0.5)
            eta = 0.0 if k % 10 == 0 else rng.uniform(0.0, 0.99) * 4.0 * hbar ** 2 / theta
            p = OscillatorParams(m1, m2, w1, w2, theta=theta, eta=eta, hbar=hbar)
            h = equivalent_hamiltonian(p)
            cond = np.linalg.cond(h)
            state = ground_state(p)
            sigma = state.covariance.matrix
            if EPS * cond < 1.0:
                polar = _polar_ground_state(h, hbar)
                assert np.abs(sigma - polar).max() <= ROUTE_TOL * cond * np.abs(polar).max(), p
            else:
                ill += 1
                cond = 8.0 * np.linalg.cond(sigma)
            hermitian = np.linalg.eigvalsh(sigma + 0.5j * hbar * FORM2.matrix)
            assert hermitian[0] >= -EPS * cond * np.abs(sigma).max(), p
            invariants = symplectic_spectrum(sigma / hbar, FORM2)
            assert np.abs(invariants - 1.0).max() <= EPS * cond, p
            if k % 10 == 0:
                assert state.exponent.cross_imag == 0.0, p
        assert ill == 215


class TestReferences:
    @pytest.mark.parametrize("point, modes, sigma", OSCILLATOR_REFERENCES,
                             ids=["edge", "edge-draw", "commutative", "wide", "weak",
                                  "isotropic-weak-eta", "near-degenerate", "near-edge",
                                  "rounding-indefinite", "edge-draw-2", "edge-draw-3"])
    def test_both_routes_within_the_check_bound(self, point, modes, sigma):
        # against 60-digit references: the modes within ROUTE_TOL * cond(H),
        # relative per mode, and the reported closed-form covariance within
        # 8 eps with no cond(H) factor, relative to its largest entry; the
        # polar form within ROUTE_TOL * cond(H) where eps cond(H) < 1, for
        # past that it keeps no digit
        p = OscillatorParams(*point)
        h = equivalent_hamiltonian(p)
        bound = ROUTE_TOL * np.linalg.cond(h)
        state = ground_state(p)
        got = np.array([state.modes.freq1, state.modes.freq2])
        assert np.abs(got / np.array(modes) - 1.0).max() <= bound
        want = np.array(sigma)
        scale = np.abs(want).max()
        assert np.abs(state.covariance.matrix - want).max() <= 8.0 * EPS * scale
        if EPS * np.linalg.cond(h) < 1.0:
            assert np.abs(_polar_ground_state(h, p.hbar) - want).max() <= bound * scale


class TestGroundStateCvm:
    def test_vacuum_exponent(self):
        state = ground_state(OscillatorParams(1.0, 1.0, 1.0, 1.0))
        np.testing.assert_array_equal(state.covariance.matrix, 0.5 * np.eye(4))
        assert (state.exponent.m11, state.exponent.m22, state.exponent.cross_imag) \
            == (1.0, 1.0, 0.0)

    def test_pure_state_saturates_uncertainty(self):
        rng = np.random.default_rng(45)
        for _ in range(25):
            p = random_params(rng)
            spec = symplectic_spectrum(ground_state(p).covariance.matrix / p.hbar, FORM2)
            np.testing.assert_allclose(spec, 1.0, atol=1e-13)

    def test_uncorrelated_form_is_block_diagonal(self):
        # undeformed, the modes' cross block is exactly zero
        state = ground_state(OscillatorParams(1.2, 0.8, 1.0, 2.0))
        np.testing.assert_array_equal(state.covariance.matrix[:2, 2:], np.zeros((2, 2)))
        assert state.exponent.cross_imag == 0.0


class TestSeparability:
    def test_undeformed_separable(self):
        p = OscillatorParams(1.0, 1.0, 1.0, 2.0)
        report = separability_condition(p)
        assert report.separable
        assert report.constraint_gap == 0.0
        assert ground_state(p).exponent.cross_imag == 0.0

    def test_isotropic_deformed_separable(self):
        report = separability_condition(ISOTROPIC)
        assert report.separable
        assert report.constraint_gap == 0.0

    def test_reciprocal_frequency_pair_separable(self):
        # unit mass product with reciprocal frequencies and equal deformation
        # strengths keeps the ground state uncorrelated
        report = separability_condition(RECIPROCAL)
        assert report.separable
        lhs, rhs = separability_sides(RECIPROCAL)
        assert abs(report.constraint_gap) <= 1e-12 * max(abs(lhs), abs(rhs))
        eq = equivalent_params(RECIPROCAL)
        lhs_freq = eq.mass1 * eq.coupling1 * eq.freq1
        rhs_freq = eq.mass2 * eq.coupling2 * eq.freq2
        assert lhs_freq == pytest.approx(rhs_freq, rel=1e-12)

    def test_generic_anisotropic_entangled(self):
        state = ground_state(GENERIC)
        report = separability_condition(GENERIC)
        assert not report.separable
        assert abs(report.constraint_gap) > 1.0
        assert abs(state.exponent.cross_imag) > 1e-3
        ppt = ppt_separable(state.covariance)
        assert not ppt.separable

    def test_gap_matches_the_unfactored_constraint(self):
        # the factored gap against lhs - rhs of the two sides as written,
        # relative to the larger side; the unfactored difference loses
        # everything below eps times that scale to cancellation (at most
        # 3.7 eps on these draws)
        rng = np.random.default_rng(47)
        for _ in range(500):
            p = _box_draw(rng, 10.0 ** rng.uniform(-3.0, 3.0),
                          ("generic", "isotropic", "tuned")[rng.integers(3)])
            lhs, rhs = separability_sides(p)
            gap = separability_condition(p).constraint_gap
            assert abs(gap - (lhs - rhs)) <= 16 * EPS * max(abs(lhs), abs(rhs)), p

    def test_tuned_line_holds_only_to_rounding(self):
        # decimal inputs on eta = m1 m2 theta w1 w2 read separable; 1e-12 off
        # the line, where the cross coupling (-8.3e-14) is still of rounding
        # size, the float inputs are entangled
        on_line = OscillatorParams(1.3, 0.7, 1.1, 2.0, theta=0.3, eta=0.6006)
        off_line = OscillatorParams(1.3, 0.7, 1.1, 2.0, theta=0.3, eta=0.6006000000006)
        assert separability_condition(on_line).separable
        assert not separability_condition(off_line).separable

    @pytest.mark.parametrize("scale", [1e-6, 1e-4, 1e-2, 1.0, 1e3])
    def test_second_routes_agree_outside_the_rounding_band(self, scale):
        # 60 isotropic, 60 tuned-line and 60 generic draws: wherever the cross
        # coupling, relative to sqrt(m11 m22), exceeds BAND eps cond(H), the
        # cross coupling and the PPT margin both call the state entangled, as
        # the factored verdict must. Separable draws of eleven seeds came
        # within 1.5 eps cond(H); BAND is 8. Inside the band neither route
        # decides: at seed 48 it holds every separable draw, and at 1e-6 also
        # 9 generic ones. 6 draws at 1e-6 (2 of them separable) have
        # eps cond(H) >= 1 and keep no digit of the ground state: each must
        # report or raise NumericDomainError, and none is checked further
        rng = np.random.default_rng(48)
        decided = 0
        for kind in ("isotropic", "tuned", "generic"):
            for _ in range(60):
                p = _box_draw(rng, scale, kind)
                eps_cond = EPS * np.linalg.cond(equivalent_hamiltonian(p))
                if eps_cond >= 1.0:
                    try:
                        ground_state(p)
                    except NumericDomainError:
                        pass
                    continue
                state = ground_state(p)
                e = state.exponent
                if abs(e.cross_imag) / np.sqrt(e.m11 * e.m22) <= BAND * eps_cond:
                    continue
                decided += 1
                assert not separability_condition(p).separable, p
                assert ppt_separable(state.covariance).margin < 0.0, p
        assert decided >= 45

    def test_invariant_criterion_sign_matches(self):
        for p, expect in ((GENERIC, False), (ISOTROPIC, True), (RECIPROCAL, True)):
            criterion = simon_invariants(ground_state(p).covariance).criterion
            if expect:
                assert criterion >= -1e-10
            else:
                assert criterion < 0

    # m1 m2 past ~1e102 overflows the cube of the mass product; below ~1e-108
    # the cube underflows to 0. The first two are the golden cases
    # oscillator-heavy and oscillator-light
    FAR_MASSES = {
        "heavy": OscillatorParams(1e60, 1e60, 1e-60, 2e-60),
        "light": OscillatorParams(1e-60, 1e-60, 1e60, 2e60),
        "heavy-tuned": OscillatorParams(1e60, 1e60, 1e-60, 2e-60,
                                        theta=0.5, eta=1e60 * 1e60 * 0.5 * 1e-60 * 2e-60),
    }

    @pytest.mark.parametrize("name", FAR_MASSES)
    def test_far_mass_product_keeps_a_finite_gap(self, name):
        p = self.FAR_MASSES[name]
        with np.errstate(over="raise", invalid="raise", divide="raise"):   # as the CLI runs
            ground_state(p)
            report = separability_condition(p)
        assert report.separable
        assert math.isfinite(report.constraint_gap)

    @pytest.mark.parametrize("p", [
        OscillatorParams(1e60, 1e60, 1e20, 3e20, theta=1.0, eta=1.0),
        OscillatorParams(1e-60, 1e-60, 1e-20, 3e-20, theta=1e60, eta=1e-100),
        OscillatorParams(1e-60, 1e-60, 3e-20, 1e-20, theta=3e60, eta=2e-100, hbar=1e10),
    ])
    def test_far_mass_gap_matches_exact_arithmetic(self, p):
        # entangled states whose gap is in range though the cube of the mass
        # product is not, against the unfactored constraint in exact rationals
        exact = SimpleNamespace(**{f.name: Fraction(getattr(p, f.name))
                                   for f in dataclasses.fields(p)})
        lhs, rhs = separability_sides(exact)
        report = separability_condition(p)
        assert not report.separable
        assert abs(Fraction(report.constraint_gap) - (lhs - rhs)) <= 16 * EPS * abs(lhs - rhs)

    def test_commutative_continuity(self):
        previous = None
        for k in range(8):
            eps = 0.2 * 2.0 ** (-k)
            p = OscillatorParams(1.0, 1.0, 1.0, 2.0, theta=eps, eta=eps)
            cross = abs(ground_state(p).exponent.cross_imag)
            if previous is not None:
                assert cross < previous + 1e-12
            previous = cross
        assert previous < 1e-3
