import numpy as np
import pytest

from ginfo import build_symplectic_form, ppt_separable, simon_invariants
from ginfo.errors import DegenerateSpectrumError, SingularMatrixError
from ginfo.oscillator import (
    EquivalentParams,
    GroundStateExponent,
    OscillatorParams,
    darboux_matrix,
    eigvec_coefficients,
    equivalent_hamiltonian,
    equivalent_hamiltonian_matrix,
    equivalent_params,
    ground_state,
    ground_state_cvm,
    ground_state_exponent,
    left_eigenvectors,
    mode_spectrum,
    nc_hamiltonian_matrix,
    right_eigenvector,
    separability_condition,
    separability_sides,
    wigner_quadratic_form,
)
from ginfo.symplectic import J2, Ordering, permute_ordering, symplectic_spectrum

FORM2 = build_symplectic_form(2)

GENERIC = OscillatorParams(1.0, 1.0, 1.0, 2.0, theta=0.3, eta=0.2)
ISOTROPIC = OscillatorParams(1.3, 1.3, 1.7, 1.7, theta=0.4, eta=0.3)
RECIPROCAL = OscillatorParams(2.0, 0.5, 2.0, 0.5, theta=0.7, eta=0.7)


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
        h, eq = equivalent_hamiltonian(p)
        np.testing.assert_allclose(h, nc_hamiltonian_matrix(p), atol=1e-14)
        assert eq.coupling1 == 0.0 and eq.coupling2 == 0.0
        assert eq.mass1 == p.mass1 and eq.mass2 == p.mass2

    def test_isotropic_symmetry(self):
        _, eq = equivalent_hamiltonian(ISOTROPIC)
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
        eq = equivalent_params(OscillatorParams(1.0, 1.0, 1.0, 2.0))
        spec = mode_spectrum(eq)
        assert spec.freq1 == pytest.approx(1.0, abs=1e-12)
        assert spec.freq2 == pytest.approx(2.0, abs=1e-12)

    def test_discriminant_nonnegative(self):
        rng = np.random.default_rng(40)
        for _ in range(100):
            eq = equivalent_params(random_params(rng))
            assert mode_spectrum(eq).discriminant >= 0

    def test_degenerate_case_rejected(self):
        eq = equivalent_params(OscillatorParams(1.0, 1.0, 1.5, 1.5))
        with pytest.raises(DegenerateSpectrumError):
            mode_spectrum(eq)


class TestEigvecCoefficients:
    def test_left_eigenvector_residual(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            eq = equivalent_params(random_params(rng))
            spec = mode_spectrum(eq)
            coeffs = eigvec_coefficients(eq, spec)
            hj = FORM2.matrix @ equivalent_hamiltonian_matrix(eq)
            chi1, chi2 = left_eigenvectors(coeffs)
            for chi, lam in ((chi1, spec.freq1), (chi2, spec.freq2)):
                residual = np.abs(chi @ hj + 1j * lam * chi).max()
                assert residual < 1e-8 * max(1.0, np.abs(chi).max())

    def test_mode_orthogonality_and_normalization(self):
        # chi_l1 chi_r2 = 0 (independent ladder operators commute) and
        # chi_lj chi_rj = 1 with the chosen normalization
        rng = np.random.default_rng(43)
        for _ in range(25):
            eq = equivalent_params(random_params(rng))
            coeffs = eigvec_coefficients(eq, mode_spectrum(eq))
            chi1, chi2 = left_eigenvectors(coeffs)
            assert abs(chi1 @ right_eigenvector(chi2)) < 1e-8
            assert abs(chi2 @ right_eigenvector(chi1)) < 1e-8
            assert chi1 @ right_eigenvector(chi1) == pytest.approx(1.0, abs=1e-8)
            assert chi2 @ right_eigenvector(chi2) == pytest.approx(1.0, abs=1e-8)

    def test_decoupled_limit_components(self):
        # with both couplings zero the first and fourth components collapse
        from ginfo.oscillator import _mode_coeff_row
        eq = EquivalentParams(mass1=1.0, mass2=1.0, stiffness1=1.0, stiffness2=4.0,
                              coupling1=0.0, coupling2=0.0, freq1=1.0, freq2=2.0)
        upper = _mode_coeff_row(2.0, eq)
        assert upper[0] == 0.0
        # remaining components solve the decoupled eigenproblem: ratio k2/k3 = mass2 * freq2
        assert upper[2] / upper[3] == pytest.approx(eq.mass2 * 2.0)
        lower = _mode_coeff_row(1.0, eq)
        np.testing.assert_allclose(lower, 0.0, atol=1e-15)


class TestGroundState:
    def test_commutative_isotropic_product(self):
        p = OscillatorParams(1.4, 1.4, 1.1, 1.1)
        e = ground_state(p)
        assert e.cross_imag == 0.0
        assert e.m11 == pytest.approx(1.4 * 1.1 / p.hbar)
        assert e.m22 == pytest.approx(1.4 * 1.1 / p.hbar)

    def test_deformed_isotropic_uncorrelated(self):
        e = ground_state(ISOTROPIC)
        assert abs(e.cross_imag) < 1e-12
        assert e.m11 == pytest.approx(e.m22, rel=1e-9)

    def test_generic_anisotropic_correlated(self):
        e = ground_state(GENERIC)
        assert abs(e.cross_imag) > 1e-3

    def test_ratio_route_matches_matrix_route(self):
        rng = np.random.default_rng(44)
        for _ in range(25):
            p = random_params(rng)
            eq = equivalent_params(p)
            coeffs = eigvec_coefficients(eq, mode_spectrum(eq))
            e = ground_state_exponent(coeffs, p.hbar)
            (k10, k11, k12, k13), (k20, k21, k22, k23) = coeffs.coeffs
            ux = np.array([[1j * k10, k12], [1j * k20, k22]])
            up = np.array([[k11, 1j * k13], [k21, 1j * k23]])
            mat = 1j / p.hbar * np.linalg.solve(up, ux)
            assert mat[0, 0].real == pytest.approx(e.m11, abs=1e-9)
            assert mat[1, 1].real == pytest.approx(e.m22, abs=1e-9)
            assert mat[0, 1].imag == pytest.approx(e.cross_imag, abs=1e-9)
            # realness structure
            assert abs(mat[0, 0].imag) < 1e-9 and abs(mat[1, 1].imag) < 1e-9
            assert abs(mat[0, 1].real) < 1e-9


class TestGroundStateCvm:
    def test_vacuum_exponent(self):
        cvm = ground_state_cvm(GroundStateExponent(1.0, 1.0, 0.0), hbar=1.0)
        np.testing.assert_allclose(cvm.matrix, 0.5 * np.eye(4), atol=1e-15)

    def test_pure_state_saturates_uncertainty(self):
        rng = np.random.default_rng(45)
        for _ in range(25):
            e = GroundStateExponent(rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0),
                                    rng.uniform(-1.0, 1.0))
            spec = symplectic_spectrum(ground_state_cvm(e, 1.0), FORM2)
            assert spec.min() >= 1.0 - 1e-9
            np.testing.assert_allclose(spec, 1.0, atol=1e-9)

    def test_second_moments_against_quadrature(self):
        # integrate the phase-space Gaussian on a tensor grid and compare all
        # second moments; grid spans 6 standard deviations at 41 points/axis
        e = ground_state(GENERIC)
        form = wigner_quadratic_form(e, 1.0)
        block_xp = permute_ordering(ground_state_cvm(e, 1.0).matrix,
                                    Ordering.MODE_INTERLEAVED, Ordering.BLOCK_XP)
        sd = np.sqrt(np.diag(block_xp))
        axes = [np.linspace(-6 * s, 6 * s, 41) for s in sd]
        weights = [np.gradient(ax) for ax in axes]
        x2, x3, x4 = np.meshgrid(axes[1], axes[2], axes[3], indexing="ij")
        w_rest = np.multiply.outer(weights[1], np.multiply.outer(weights[2], weights[3]))
        moments = np.zeros((4, 4))
        norm = 0.0
        for i, x1 in enumerate(axes[0]):
            pts = np.stack([np.full(x2.shape, x1), x2, x3, x4], axis=-1)
            density = np.exp(-np.einsum("...i,ij,...j->...", pts, form, pts)) \
                * w_rest * weights[0][i]
            norm += density.sum()
            for r in range(4):
                for s in range(r, 4):
                    moments[r, s] += (density * pts[..., r] * pts[..., s]).sum()
        moments = moments + np.triu(moments, 1).T
        np.testing.assert_allclose(moments / norm, block_xp, atol=1e-4)

    def test_quadratic_form_consistency(self):
        rng = np.random.default_rng(46)
        for _ in range(25):
            p = random_params(rng)
            e = ground_state(p)
            form = wigner_quadratic_form(e, p.hbar)
            assert np.linalg.eigvalsh(form).min() > 0
            recovered = permute_ordering(0.5 * np.linalg.inv(form),
                                         Ordering.BLOCK_XP, Ordering.MODE_INTERLEAVED)
            np.testing.assert_allclose(recovered, ground_state_cvm(e, p.hbar).matrix,
                                       atol=1e-10)

    def test_uncorrelated_form_is_block_diagonal(self):
        form = wigner_quadratic_form(GroundStateExponent(1.2, 0.8, 0.0), 1.0)
        np.testing.assert_array_equal(form[:2, 2:], np.zeros((2, 2)))


class TestSeparability:
    def test_undeformed_separable(self):
        report = separability_condition(OscillatorParams(1.0, 1.0, 1.0, 2.0))
        assert report.separable
        assert report.lhs_rhs_gap == 0.0
        assert report.cross_imag == 0.0

    def test_isotropic_deformed_separable(self):
        report = separability_condition(ISOTROPIC)
        assert report.separable
        assert report.lhs_rhs_gap == pytest.approx(0.0, abs=1e-9)

    def test_reciprocal_frequency_pair_separable(self):
        # unit mass product with reciprocal frequencies and equal deformation
        # strengths keeps the ground state uncorrelated
        report = separability_condition(RECIPROCAL)
        assert report.separable
        lhs, rhs = separability_sides(RECIPROCAL)
        assert abs(report.lhs_rhs_gap) <= 1e-12 * max(abs(lhs), abs(rhs))
        eq = equivalent_params(RECIPROCAL)
        lhs_freq = eq.mass1 * eq.coupling1 * eq.freq1
        rhs_freq = eq.mass2 * eq.coupling2 * eq.freq2
        assert lhs_freq == pytest.approx(rhs_freq, rel=1e-12)

    def test_generic_anisotropic_entangled(self):
        report = separability_condition(GENERIC)
        assert not report.separable
        assert abs(report.lhs_rhs_gap) > 1.0
        cvm = ground_state_cvm(ground_state(GENERIC), GENERIC.hbar)
        ppt = ppt_separable(cvm, FORM2)
        assert not ppt.separable

    def test_invariant_criterion_sign_matches(self):
        for p, expect in ((GENERIC, False), (ISOTROPIC, True), (RECIPROCAL, True)):
            cvm = ground_state_cvm(ground_state(p), p.hbar)
            criterion = simon_invariants(cvm).criterion
            if expect:
                assert criterion >= -1e-10
            else:
                assert criterion < 0

    def test_commutative_continuity(self):
        previous = None
        for k in range(8):
            eps = 0.2 * 2.0 ** (-k)
            p = OscillatorParams(1.0, 1.0, 1.0, 2.0, theta=eps, eta=eps)
            cross = abs(ground_state(p).cross_imag)
            if previous is not None:
                assert cross < previous + 1e-12
            previous = cross
        assert previous < 1e-3
