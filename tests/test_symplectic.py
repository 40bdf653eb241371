import numpy as np
import pytest

from ginfo import (
    CanonicalTwoModeParams,
    CovarianceMatrix,
    NormalFormPoint,
    NumericDomainError,
    Ordering,
    RegularizerConfig,
    Region,
    SingularMatrixError,
    SymplecticForm,
    build_symplectic_form,
    congruence_apply,
    congruence_form,
    generalized_eigenvalues,
    matrix_sqrt_spd,
    ordering_permutation,
    reorder,
    rsup_check,
    symplectic_spectrum,
)
from ginfo import bipartite, symplectic
from ginfo.oscillator import OscillatorParams
from ginfo.randmat import random_invertible, random_spd, random_symplectic
from ginfo.symplectic import J2, _validated, check_spd


class TestBuildForm:
    def test_single_mode_interleaved(self):
        form = build_symplectic_form(1, Ordering.MODE_INTERLEAVED)
        np.testing.assert_array_equal(form.matrix, [[0, 1], [-1, 0]])

    def test_two_mode_block_xp(self):
        form = build_symplectic_form(2, Ordering.BLOCK_XP)
        expected = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
        np.testing.assert_array_equal(form.matrix, expected)

    def test_two_mode_interleaved_is_block_diag(self):
        form = build_symplectic_form(2, Ordering.MODE_INTERLEAVED)
        expected = np.zeros((4, 4))
        expected[:2, :2] = J2
        expected[2:, 2:] = J2
        np.testing.assert_array_equal(form.matrix, expected)

    def test_zero_modes_rejected(self):
        with pytest.raises(ValueError):
            build_symplectic_form(0)


class TestReorder:
    def test_identity_invariant(self):
        cvm = CovarianceMatrix(np.eye(4), ordering=Ordering.MODE_INTERLEAVED)
        out = reorder(cvm, Ordering.BLOCK_XP)
        np.testing.assert_array_equal(out.matrix, np.eye(4))

    def test_diagonal_permutation(self):
        cvm = CovarianceMatrix(np.diag([1.0, 2, 3, 4]), ordering=Ordering.MODE_INTERLEAVED)
        out = reorder(cvm, Ordering.BLOCK_XP)
        np.testing.assert_array_equal(np.diag(out.matrix), [1, 3, 2, 4])

    def test_permutation_inverse_is_transpose(self):
        p = ordering_permutation(3, Ordering.MODE_INTERLEAVED, Ordering.BLOCK_XP)
        np.testing.assert_allclose(p @ p.T, np.eye(6), atol=0)

    def test_custom_basis_cannot_reorder(self):
        cvm = CovarianceMatrix(np.eye(8), ordering=None)
        with pytest.raises(ValueError, match="ordering"):
            reorder(cvm, Ordering.BLOCK_XP)


class TestSpectrum:
    def test_vacuum_saturates(self):
        form = build_symplectic_form(2)
        spec = symplectic_spectrum(0.5 * np.eye(4), form)
        np.testing.assert_allclose(spec, [1.0, 1.0], atol=1e-12)

    def test_block_xp_squeezed_pair(self):
        # brute force: eigenvalues of 2i Omega^-1 Sigma for diag(2,2,1/2,1/2)
        form = build_symplectic_form(2, Ordering.BLOCK_XP)
        sigma = CovarianceMatrix(np.diag([2.0, 2.0, 0.5, 0.5]), ordering=Ordering.BLOCK_XP)
        spec = symplectic_spectrum(sigma, form)
        np.testing.assert_allclose(spec, [2.0, 2.0], atol=1e-12)

    def test_pair_family_all_equal(self):
        cfg = bipartite.PairConfig(0.125, 0.125)
        spec = symplectic_spectrum(bipartite.pair_cvm(cfg), bipartite.party_form())
        np.testing.assert_allclose(spec, 1.4069616518051216, atol=1e-9)

    def test_rejects_indefinite(self):
        form = build_symplectic_form(1)
        with pytest.raises(NumericDomainError):
            symplectic_spectrum(np.diag([1.0, -1.0]), form)

    def test_rejects_singular_form(self):
        bad = np.zeros((2, 2))
        bad[0, 1], bad[1, 0] = 1e-20, -1e-20
        with pytest.raises(SingularMatrixError):
            SymplecticForm(bad)

    def test_rejects_mixed_orderings(self):
        sigma = CovarianceMatrix(np.eye(4), ordering=Ordering.BLOCK_XP)
        form = build_symplectic_form(2, Ordering.MODE_INTERLEAVED)
        with pytest.raises(ValueError, match="ordering mismatch"):
            symplectic_spectrum(sigma, form)


class TestSpectrumFormCheck:
    """The form's |det| check is skipped only where its constructor already made it."""

    @pytest.fixture
    def det_calls(self, monkeypatch):
        calls = []
        real = np.linalg.det

        def counted(matrix):
            calls.append(np.shape(matrix))
            return real(matrix)

        monkeypatch.setattr(np.linalg, "det", counted)
        return calls

    def test_raw_singular_array_raises(self):
        bad = np.zeros((4, 4))
        bad[:2, :2] = J2
        with pytest.raises(SingularMatrixError):
            symplectic_spectrum(np.eye(4), bad)

    def test_form_of_an_equal_policy_is_not_rechecked(self, det_calls):
        sigma = CovarianceMatrix(np.diag([1.0, 1.0, 2.0, 2.0]))
        standard = build_symplectic_form(2)
        skewed = congruence_form(random_invertible(4, np.random.default_rng(2)), standard)
        assert standard.orthogonal and not skewed.orthogonal
        for form in (standard, skewed):
            det_calls.clear()
            expected = symplectic_spectrum(sigma, form.matrix)
            assert det_calls == [(4, 4)]             # a raw array is checked
            det_calls.clear()
            np.testing.assert_array_equal(symplectic_spectrum(sigma, form), expected)
            assert det_calls == []


class TestSpectrumStack:
    @pytest.mark.parametrize("n", [2, 4])
    def test_equals_row_by_row_scalar_calls(self, n):
        rng = np.random.default_rng(40 + n)
        form = build_symplectic_form(n)
        stack = np.array([random_spd(2 * n, rng) for _ in range(60)])
        rows = np.array([symplectic_spectrum(m, form) for m in stack])
        batched = symplectic_spectrum(stack, form)
        assert batched.shape == (60, n)
        assert np.array_equal(batched, rows)
        grid = symplectic_spectrum(stack.reshape(3, 20, 2 * n, 2 * n), form)
        assert np.array_equal(grid, rows.reshape(3, 20, n))

    def test_empty_stack(self):
        out = symplectic_spectrum(np.zeros((0, 4, 4)), build_symplectic_form(2))
        assert out.shape == (0, 2)

    def test_one_indefinite_member_fails_the_stack(self):
        stack = np.array([np.eye(4), np.diag([1.0, 1.0, 1.0, -1.0]), np.eye(4)])
        with pytest.raises(NumericDomainError, match="positive definite"):
            check_spd(stack)
        with pytest.raises(NumericDomainError, match="positive definite"):
            symplectic_spectrum(stack, build_symplectic_form(2))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (1, 2)])
    def test_non_finite_entry_rejected(self, entry, where):
        single = np.eye(4)
        single[where] = entry
        stack = np.array([np.eye(4), single, np.eye(4)])
        for matrix in (single, stack):
            with pytest.raises(NumericDomainError, match="non-finite"):
                check_spd(matrix)
        with pytest.raises(NumericDomainError, match="non-finite"):
            symplectic_spectrum(stack, build_symplectic_form(2))

    def test_single_matrix_apis_reject_stacks(self):
        stack = np.array([np.eye(4), 2.0 * np.eye(4)])
        form = build_symplectic_form(2)
        with pytest.raises(ValueError, match="square matrix"):
            CovarianceMatrix(stack)
        with pytest.raises(ValueError, match="square matrix"):
            SymplecticForm(np.array([form.matrix, form.matrix]))
        for kernel in (lambda: rsup_check(stack, form), lambda: matrix_sqrt_spd(stack),
                       lambda: generalized_eigenvalues(stack, stack),
                       lambda: congruence_apply(np.eye(4), stack)):
            with pytest.raises(ValueError, match="square matrix"):
                kernel()


class TestFormValidation:
    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 0)])
    def test_non_finite_entry_rejected_by_name(self, entry, where):
        m = J2.copy()
        m[where] = entry
        with pytest.raises(NumericDomainError, match="non-finite"):
            SymplecticForm(m)

    def test_non_antisymmetric_rejected(self):
        with pytest.raises(NumericDomainError, match="not antisymmetric"):
            SymplecticForm([[0.0, 1.0], [-0.5, 0.0]])


class TestOrthogonalForms:
    """A signed-permutation form inverts by its transpose instead of ``solve``."""

    @pytest.fixture
    def solve_calls(self, monkeypatch):
        calls = []
        real = np.linalg.solve

        def counted(a, b):
            calls.append(np.shape(b))
            return real(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        return calls

    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("ordering", list(Ordering))
    def test_spectrum_equals_the_solve_route(self, solve_calls, n, ordering):
        form = build_symplectic_form(n, ordering)
        assert form.orthogonal
        rng = np.random.default_rng(70 + n)
        stack = np.array([random_spd(2 * n, rng) for _ in range(40)])
        solve_calls.clear()
        rows = np.array([symplectic_spectrum(m, form) for m in stack])
        batched = symplectic_spectrum(stack, form)
        assert solve_calls == []                    # the transpose route was taken
        assert np.array_equal(rows, np.array([symplectic_spectrum(m, form.matrix) for m in stack]))
        assert np.array_equal(batched, symplectic_spectrum(stack, form.matrix))
        assert np.array_equal(batched, rows)
        assert len(solve_calls) == len(stack) + 1   # a raw array takes solve

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("ordering", list(Ordering))
    def test_signed_zeros_move_last_bits_only(self, n, ordering):
        # block-diagonal states reflected by sign flips: the two products
        # agree in value but not in the signs of their zeros
        form = build_symplectic_form(n, ordering)
        rng = np.random.default_rng(80 + n)
        signs = np.where(np.arange(2 * n) % 3 == 1, -1.0, 1.0)
        mask = np.kron(np.eye(n), np.ones((2, 2)))
        stack = np.array([(mask * random_spd(2 * n, rng) + np.eye(2 * n)) * np.outer(signs, signs)
                          for _ in range(200)])
        assert np.array_equal(form.matrix.T @ stack, np.linalg.solve(form.matrix, stack))
        np.testing.assert_allclose(symplectic_spectrum(stack, form),
                                   symplectic_spectrum(stack, form.matrix), rtol=1e-13, atol=0)

    def test_party_forms_are_orthogonal(self):
        assert bipartite.party_form().orthogonal
        assert bipartite.bopp_shift(bipartite.PairConfig(0.1, 0.2)).form.orthogonal

    @pytest.mark.parametrize("theta, eta", [(0.3, 0.0), (0.0, 0.7), (0.4, -0.9)])
    def test_bopp_form_takes_solve(self, solve_calls, theta, eta):
        form = bipartite.bopp_shift(bipartite.PairConfig(0.1, 0.2, theta, eta)).form
        assert not form.orthogonal
        sigma = random_spd(8, np.random.default_rng(9))
        solve_calls.clear()
        np.testing.assert_array_equal(symplectic_spectrum(sigma, form),
                                      symplectic_spectrum(sigma, form.matrix))
        assert solve_calls == [(8, 8), (8, 8)]


class TestValidatedWrapper:
    """``_validated`` takes ownership of its array; ``CovarianceMatrix`` copies."""

    def test_shares_memory_and_freezes(self):
        m = random_spd(4, np.random.default_rng(3))
        cvm = _validated(m, Ordering.BLOCK_XP)
        assert np.shares_memory(cvm.matrix, m)
        assert not m.flags.writeable and not cvm.matrix.flags.writeable
        assert cvm.ordering is Ordering.BLOCK_XP
        with pytest.raises(ValueError):
            m[0, 0] = 1.0

    def test_covariance_matrix_keeps_its_copy(self):
        m = random_spd(4, np.random.default_rng(4))
        cvm = CovarianceMatrix(m)
        assert not np.shares_memory(cvm.matrix, m)
        assert m.flags.writeable and not cvm.matrix.flags.writeable


class TestRandomSymplectic:
    @pytest.mark.parametrize("ordering", list(Ordering))
    @pytest.mark.parametrize("n", [1, 2])
    def test_preserves_form_and_stays_conditioned(self, n, ordering):
        form = build_symplectic_form(n, ordering).matrix
        for seed in range(500):
            s = random_symplectic(n, np.random.default_rng(seed), ordering=ordering)
            drift = np.abs(s @ form @ s.T - form).max()
            assert drift <= 1e-12 * max(1.0, np.abs(s).max() ** 2), seed
            assert np.linalg.cond(s) < 1e3, seed


class TestRsup:
    def test_vacuum(self):
        res = rsup_check(0.5 * np.eye(4), build_symplectic_form(2))
        assert res.valid and abs(res.min_invariant - 1.0) < 1e-12

    def test_squeezed_below_threshold(self):
        res = rsup_check(0.4 * np.eye(4), build_symplectic_form(2))
        assert not res.valid
        np.testing.assert_allclose(res.min_invariant, 0.8, atol=1e-12)

    def test_pair_family(self):
        cfg = bipartite.PairConfig(0.125, 0.125)
        res = rsup_check(bipartite.pair_cvm(cfg), bipartite.party_form())
        assert res.valid
        np.testing.assert_allclose(res.min_invariant, 1.4069616518051216, atol=1e-9)


class TestCongruence:
    def test_identity(self):
        sigma = CovarianceMatrix(random_spd(4, np.random.default_rng(0)))
        out = congruence_apply(np.eye(4), sigma)
        np.testing.assert_array_equal(out.matrix, sigma.matrix)

    def test_form_transform_keeps_antisymmetry(self):
        rng = np.random.default_rng(1)
        s = random_invertible(4, rng)
        out = congruence_form(s, build_symplectic_form(2))
        assert np.abs(out.matrix + out.matrix.T).max() == 0.0

    def test_singular_transform_rejected(self):
        with pytest.raises(SingularMatrixError):
            congruence_apply(np.zeros((4, 4)), CovarianceMatrix(np.eye(4)))

    def test_shift_matches_direct_product(self):
        cfg = bipartite.PairConfig(0.2, 0.1, theta=0.5, eta=0.5)
        s = bipartite.bopp_shift(cfg).matrix
        sigma = bipartite.pair_cvm(cfg)
        out = congruence_apply(s, sigma)
        np.testing.assert_allclose(out.matrix, s @ sigma.matrix @ s.T, atol=1e-14)


class TestSqrt:
    def test_identity(self):
        np.testing.assert_array_equal(matrix_sqrt_spd(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        np.testing.assert_allclose(matrix_sqrt_spd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]),
                                   atol=1e-14)

    def test_root_is_exactly_symmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            root = matrix_sqrt_spd(random_spd(int(rng.choice([2, 4, 8])), rng))
            assert np.array_equal(root, root.T)

    def test_indefinite_rejected(self):
        with pytest.raises(NumericDomainError):
            matrix_sqrt_spd(np.diag([1.0, -2.0]))


class TestGeneralizedEigenvalues:
    def test_same_state(self):
        m = random_spd(4, np.random.default_rng(2))
        np.testing.assert_allclose(generalized_eigenvalues(m, m), np.ones(4), atol=1e-12)

    def test_scalar_scaling(self):
        m = random_spd(4, np.random.default_rng(3))
        np.testing.assert_allclose(generalized_eigenvalues(m, 2 * m), 2 * np.ones(4),
                                   atol=1e-12)

    def test_each_raw_input_checked_once(self, monkeypatch):
        rng = np.random.default_rng(6)
        s1, s2 = random_spd(4, rng), random_spd(4, rng)
        wrapped = (CovarianceMatrix(s1), CovarianceMatrix(s2))
        calls = []
        real = symplectic.check_spd

        def counted(matrix):
            calls.append(np.shape(matrix))
            return real(matrix)

        monkeypatch.setattr(symplectic, "check_spd", counted)
        raw = generalized_eigenvalues(s1, s2)
        assert calls == [(4, 4), (4, 4)]
        calls.clear()
        np.testing.assert_array_equal(generalized_eigenvalues(*wrapped), raw)
        assert calls == []


class TestFiniteParameters:
    """Every parameter class rejects nan and inf in its constructor."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("build", [
        lambda x: CanonicalTwoModeParams(x, 1.0),
        lambda x: OscillatorParams(1.0, 1.0, 1.0, 2.0, theta=x),
        lambda x: RegularizerConfig(kappa=x),
        lambda x: NormalFormPoint(x, 0.0),
        lambda x: bipartite.PairConfig(0.1, 0.1, eta=x),
        lambda x: Region(((0.5, 1.5), (0.5, x), (-0.5, 0.5), (-0.5, 0.5)), "quantum"),
    ], ids=["CanonicalTwoModeParams", "OscillatorParams", "RegularizerConfig",
            "NormalFormPoint", "PairConfig", "Region"])
    def test_non_finite_parameter_rejected(self, build, value):
        with pytest.raises(ValueError, match="must be finite"):
            build(value)
