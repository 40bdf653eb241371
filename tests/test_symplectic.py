import re

import numpy as np
import pytest

from ginfo import bipartite, symplectic
from ginfo.errors import NumericDomainError, SingularMatrixError
from ginfo.fisher import Region, RegularizerConfig
from ginfo.oscillator import OscillatorParams
from ginfo.randmat import random_invertible, random_spd, random_symplectic
from ginfo.selftest import _orderings
from ginfo.states import CanonicalTwoModeParams, canonical_two_mode_matrix
from ginfo.symplectic import (
    CovarianceMatrix,
    J2,
    Ordering,
    SymplecticForm,
    _validated,
    build_symplectic_form,
    check_spd,
    generalized_eigenvalues,
    matrix_sqrt_spd,
    permute_ordering,
    rsup_check,
    symplectic_spectrum,
)

from helpers import CANONICAL_SQRT_REFERENCES, GENEIG_GRADED_REFERENCES, graded_spd

PARTY_FORM = build_symplectic_form(4, Ordering.PARTY_BLOCK_XP)
EPS = np.finfo(float).eps


@pytest.fixture
def invertibility_checks(monkeypatch):
    calls = []
    real = symplectic._check_invertible

    def counted(matrix, what):
        calls.append(np.shape(matrix))
        return real(matrix, what)

    monkeypatch.setattr(symplectic, "_check_invertible", counted)
    return calls


@pytest.fixture
def solve_calls(monkeypatch):
    calls = []
    real = np.linalg.solve

    def counted(a, b):
        calls.append(np.shape(b))
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return calls


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

    def test_party_block_xp_is_one_block_xp_form_per_party(self):
        form = build_symplectic_form(4, Ordering.PARTY_BLOCK_XP)
        block = build_symplectic_form(2, Ordering.BLOCK_XP).matrix
        np.testing.assert_array_equal(form.matrix, np.kron(np.eye(2), block))
        assert form.ordering is Ordering.PARTY_BLOCK_XP

    def test_zero_modes_rejected(self):
        with pytest.raises(ValueError):
            build_symplectic_form(0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_one_shared_read_only_form(self, n):
        for ordering in _orderings(n):
            form = build_symplectic_form(n, ordering)
            assert build_symplectic_form(n, ordering) is form
            assert not form.matrix.flags.writeable
            with pytest.raises(ValueError):
                form.matrix[0, 1] = 2.0
            # wrapped unchecked: the constructor's checks pass and agree
            checked = SymplecticForm(form.matrix, ordering)
            assert np.array_equal(checked.matrix, form.matrix) and form.ordering is ordering

    @pytest.mark.parametrize("n", [1, 3])
    def test_odd_mode_count_has_no_party_basis(self, n):
        with pytest.raises(ValueError, match=f"cannot split {n} modes into two equal parties"):
            build_symplectic_form(n, Ordering.PARTY_BLOCK_XP)


class TestReorder:
    def test_identity_invariant(self):
        out = permute_ordering(np.eye(4), Ordering.MODE_INTERLEAVED, Ordering.BLOCK_XP)
        np.testing.assert_array_equal(out, np.eye(4))

    def test_diagonal_permutation(self):
        out = permute_ordering(np.diag([1.0, 2, 3, 4]), Ordering.MODE_INTERLEAVED,
                               Ordering.BLOCK_XP)
        np.testing.assert_array_equal(np.diag(out), [1, 3, 2, 4])

    def test_party_diagonal_permutation(self):
        # (x1, p1, ..., x4, p4) -> (x1, x2, p1, p2, x3, x4, p3, p4)
        out = permute_ordering(np.diag(np.arange(1.0, 9.0)), Ordering.MODE_INTERLEAVED,
                               Ordering.PARTY_BLOCK_XP)
        np.testing.assert_array_equal(np.diag(out), [1, 3, 2, 4, 5, 7, 6, 8])

    def test_permutation_inverse_is_transpose(self):
        # moving back undoes the move exactly, for every pair of orderings
        for n in (1, 2, 3, 4):
            m = np.random.default_rng(n).normal(size=(2 * n, 2 * n))
            for source in _orderings(n):
                for target in _orderings(n):
                    there = permute_ordering(m, source, target)
                    np.testing.assert_array_equal(permute_ordering(there, target, source), m)

    def test_forms_map_onto_each_other(self):
        for source in Ordering:
            for target in Ordering:
                moved = permute_ordering(build_symplectic_form(4, source).matrix, source, target)
                np.testing.assert_array_equal(moved, build_symplectic_form(4, target).matrix)


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
        spec = symplectic_spectrum(bipartite.pair_cvm(cfg), PARTY_FORM)
        np.testing.assert_allclose(spec, 1.4069616518051216, atol=1e-9)

    def test_rejects_indefinite(self):
        form = build_symplectic_form(1)
        with pytest.raises(NumericDomainError):
            symplectic_spectrum(np.diag([1.0, -1.0]), form)

    def test_rejects_singular_form(self):
        for second_mode in (0.0, 1e-13):   # rank-deficient, and near it at any scale
            bad = np.zeros((4, 4))
            bad[:2, :2] = J2
            bad[2:, 2:] = second_mode * J2
            for scale in (1.0, 1e6):
                with pytest.raises(SingularMatrixError, match="symplectic form is singular"):
                    SymplecticForm(scale * bad)

    def test_rejects_mixed_orderings(self):
        sigma = CovarianceMatrix(np.eye(4), ordering=Ordering.BLOCK_XP)
        form = build_symplectic_form(2, Ordering.MODE_INTERLEAVED)
        with pytest.raises(ValueError, match="ordering mismatch"):
            symplectic_spectrum(sigma, form)


class TestSpectrumFormCheck:
    """The form's invertibility check is skipped only where its constructor already made it."""

    def test_raw_singular_array_raises(self):
        bad = np.zeros((4, 4))
        bad[:2, :2] = J2
        with pytest.raises(SingularMatrixError):
            symplectic_spectrum(np.eye(4), bad)

    def test_form_of_an_equal_policy_is_not_rechecked(self, invertibility_checks):
        sigma = CovarianceMatrix(np.diag([1.0, 1.0, 2.0, 2.0]))
        standard = build_symplectic_form(2)
        t = random_invertible(4, np.random.default_rng(2))
        moved = t @ standard.matrix @ t.T
        skewed = SymplecticForm(0.5 * (moved - moved.T))
        for form in (standard, skewed):
            invertibility_checks.clear()
            expected = symplectic_spectrum(sigma, form.matrix)
            assert invertibility_checks == [(4, 4)]   # a raw array is checked
            invertibility_checks.clear()
            np.testing.assert_array_equal(symplectic_spectrum(sigma, form), expected)
            assert invertibility_checks == []


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
        with pytest.raises(ValueError, match="needs a CovarianceMatrix"):
            rsup_check(stack)
        for kernel in (lambda: matrix_sqrt_spd(stack),
                       lambda: generalized_eigenvalues(stack, stack)):
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

    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    def test_scaled_form_accepted(self, scale):
        # the invertibility test is scale-free: |det| of 1e-3 Omega is 1e-24 in 8x8
        form = SymplecticForm(scale * PARTY_FORM.matrix, Ordering.PARTY_BLOCK_XP)
        sigma = bipartite.pair_cvm(bipartite.PairConfig(0.2, 0.1))
        np.testing.assert_allclose(symplectic_spectrum(sigma, form),
                                   symplectic_spectrum(sigma, PARTY_FORM) / scale, rtol=1e-13)


class TestOrthogonalForms:
    """A signed-permutation form takes the same ``solve`` route as every other form."""

    @pytest.mark.parametrize("ordering, n", [(o, n) for o in Ordering for n in (1, 2, 4)
                                             if o in _orderings(n)])
    def test_spectrum_equals_the_solve_route(self, invertibility_checks, solve_calls, n, ordering):
        form = build_symplectic_form(n, ordering)
        rng = np.random.default_rng(70 + n)
        stack = np.array([random_spd(2 * n, rng) for _ in range(40)])
        invertibility_checks.clear()
        solve_calls.clear()
        rows = np.array([symplectic_spectrum(m, form) for m in stack])
        batched = symplectic_spectrum(stack, form)
        assert len(solve_calls) == len(stack) + 1   # the form takes solve
        assert invertibility_checks == []
        assert np.array_equal(rows, np.array([symplectic_spectrum(m, form.matrix) for m in stack]))
        assert np.array_equal(batched, symplectic_spectrum(stack, form.matrix))
        assert np.array_equal(batched, rows)
        # only the raw array is checked
        assert invertibility_checks == [(2 * n, 2 * n)] * (len(stack) + 1)

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("ordering", list(Ordering))
    def test_signed_zeros_move_last_bits_only(self, n, ordering):
        # block-diagonal states reflected by sign flips: the transpose product
        # agrees with solve in value but not in the signs of its zeros, so
        # one solve route gives a form and its raw matrix the same bits
        form = build_symplectic_form(n, ordering)
        rng = np.random.default_rng(80 + n)
        signs = np.where(np.arange(2 * n) % 3 == 1, -1.0, 1.0)
        mask = np.kron(np.eye(n), np.ones((2, 2)))
        stack = np.array([(mask * random_spd(2 * n, rng) + np.eye(2 * n)) * np.outer(signs, signs)
                          for _ in range(200)])
        assert np.array_equal(form.matrix.T @ stack, np.linalg.solve(form.matrix, stack))
        assert np.array_equal(symplectic_spectrum(stack, form),
                              symplectic_spectrum(stack, form.matrix))

    def test_party_forms_are_orthogonal(self):
        sigma = random_spd(8, np.random.default_rng(8))
        for form in (PARTY_FORM, bipartite.bopp_shift(bipartite.PairConfig(0.1, 0.2)).form):
            assert np.array_equal(form.matrix.T @ form.matrix, np.eye(8))
            np.testing.assert_array_equal(symplectic_spectrum(sigma, form),
                                          symplectic_spectrum(sigma, form.matrix))

    @pytest.mark.parametrize("theta, eta", [(0.3, 0.0), (0.0, 0.7), (0.4, -0.9)])
    def test_bopp_form_takes_solve(self, invertibility_checks, solve_calls, theta, eta):
        form = bipartite.bopp_shift(bipartite.PairConfig(0.1, 0.2, theta, eta)).form
        assert not np.array_equal(form.matrix.T @ form.matrix, np.eye(8))
        rng = np.random.default_rng(9)
        sigma = random_spd(8, rng)
        stack = np.array([random_spd(8, rng) for _ in range(40)])
        invertibility_checks.clear()
        solve_calls.clear()
        np.testing.assert_array_equal(symplectic_spectrum(sigma, form),
                                      symplectic_spectrum(sigma, form.matrix))
        assert solve_calls == [(8, 8), (8, 8)]
        assert invertibility_checks == [(8, 8)]     # only the raw array is checked
        rows = np.array([symplectic_spectrum(m, form) for m in stack])
        assert np.array_equal(symplectic_spectrum(stack, form), rows)
        assert np.array_equal(symplectic_spectrum(stack, form.matrix), rows)


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
    @pytest.mark.parametrize("n, ordering", [(n, o) for n in (1, 2) for o in _orderings(n)])
    def test_preserves_form_and_stays_conditioned(self, n, ordering):
        # drawn mode-interleaved and moved to ``ordering``, where it must
        # preserve that ordering's form
        form = build_symplectic_form(n, ordering).matrix
        for seed in range(500):
            s = permute_ordering(random_symplectic(n, np.random.default_rng(seed)),
                                 Ordering.MODE_INTERLEAVED, ordering)
            drift = np.abs(s @ form @ s.T - form).max()
            assert drift <= 1e-12 * max(1.0, np.abs(s).max() ** 2), seed
            assert np.linalg.cond(s) < 1e3, seed


class TestRsup:
    def test_vacuum(self):
        res = rsup_check(CovarianceMatrix(0.5 * np.eye(4)))
        assert res.valid and abs(res.min_invariant - 1.0) < 1e-12

    def test_squeezed_below_threshold(self):
        res = rsup_check(CovarianceMatrix(0.4 * np.eye(4)))
        assert not res.valid
        np.testing.assert_allclose(res.min_invariant, 0.8, atol=1e-12)

    def test_pair_family(self):
        cfg = bipartite.PairConfig(0.125, 0.125)
        res = rsup_check(bipartite.pair_cvm(cfg))
        assert res.valid
        np.testing.assert_allclose(res.min_invariant, 1.4069616518051216, atol=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_reads_the_form_of_its_ordering(self, n):
        rng = np.random.default_rng(40 + n)
        for ordering in _orderings(n):
            cvm = CovarianceMatrix(random_spd(2 * n, rng), ordering=ordering)
            expected = symplectic_spectrum(cvm, build_symplectic_form(n, ordering))[0]
            assert rsup_check(cvm).min_invariant == expected, ordering

    def test_raw_array_rejected(self):
        # a raw array names no ordering, so it has no form to be checked against
        with pytest.raises(ValueError, match="rsup_check needs a CovarianceMatrix, which "
                                             "names its ordering"):
            rsup_check(0.5 * np.eye(4))


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

    def test_rejects_mixed_orderings(self):
        # one matrix labelled with two orderings; a raw array names none
        m = np.diag([1.0, 2, 3, 4])
        interleaved = CovarianceMatrix(m, ordering=Ordering.MODE_INTERLEAVED)
        block = CovarianceMatrix(m, ordering=Ordering.BLOCK_XP)
        with pytest.raises(ValueError, match="ordering mismatch: state 1 .* vs state 2"):
            generalized_eigenvalues(interleaved, block)
        np.testing.assert_allclose(generalized_eigenvalues(interleaved, m), 1.0, atol=1e-15)

    def test_mpmath_reference(self):
        # at a / b = 1e6 the smallest eigenvalues are 1.3e-6 of the largest;
        # measured 6.6e-15 off, relative, from the 60-digit references
        params, _, (params0, lam, _) = CANONICAL_SQRT_REFERENCES[0]
        got = generalized_eigenvalues(canonical_two_mode_matrix(CanonicalTwoModeParams(*params)),
                                      canonical_two_mode_matrix(CanonicalTwoModeParams(*params0)))
        np.testing.assert_allclose(got, lam, rtol=2e-14, atol=0)

    @pytest.mark.parametrize("b1, k1, b2, k2, lam", GENEIG_GRADED_REFERENCES,
                             ids=[f"{len(ref[0])}x{len(ref[0])}-{i}"
                                  for i, ref in enumerate(GENEIG_GRADED_REFERENCES)])
    def test_graded_pair_references(self, b1, k1, b2, k2, lam):
        # rows and columns graded by 2^k, |k| <= 12: each eigenvalue lies
        # within 64 eps sqrt(lam_max / lam_j), relative, of its 50-digit
        # reference. Measured: 13.5 on these pairs and 54 on 480 random pairs
        # of the same construction
        want = np.array(lam)
        got = generalized_eigenvalues(graded_spd(b1, k1), graded_spd(b2, k2))
        bound = 64.0 * EPS * np.sqrt(want[-1] / want)
        assert np.all(np.abs(got / want - 1.0) <= bound)

    def test_badly_conditioned_pairs_stay_positive_and_ordered(self):
        # eigenvalues 10^U(-8, 8) in random bases: check_spd accepts every
        # state, and every pair has positive eigenvalues in ascending order
        rng = np.random.default_rng(27)

        def draw(dim):
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
            m = (q * 10.0 ** rng.uniform(-8.0, 8.0, size=dim)) @ q.T
            return 0.5 * (m + m.T)

        for _ in range(200):
            dim = int(rng.choice([4, 8]))
            s1, s2 = check_spd(draw(dim)), check_spd(draw(dim))
            lam = generalized_eigenvalues(s1, s2)
            assert np.all(lam > 0.0) and np.all(np.diff(lam) >= 0.0)

    def test_state_without_a_cholesky_factor_is_named(self):
        # eigenvalues 10^U(-11, 10) in a basis shared by the pair: check_spd's
        # absolute floor accepts states whose lam_min/lam_max is below eps,
        # and those have no Cholesky factor in floating point
        rng = np.random.default_rng(0)
        accepted, named = 0, []
        for _ in range(500):
            dim = int(rng.choice([4, 8]))
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
            pair = [q @ np.diag(10.0 ** rng.uniform(-11.0, 10.0, dim)) @ q.T for _ in range(2)]
            try:
                s1, s2 = (check_spd(0.5 * (m + m.T)) for m in pair)
            except NumericDomainError:
                continue
            accepted += 1
            try:
                lam = generalized_eigenvalues(s1, s2)
            except NumericDomainError as exc:
                found = re.fullmatch(r"state [12] is not numerically positive definite: "
                                     r"lam_min/lam_max = (\S+)", str(exc))
                named.append(float(found.group(1)))
                continue
            assert np.all(lam > 0.0) and np.all(np.diff(lam) >= 0.0)
        # 47 of 307 accepted pairs at numpy 2.4
        assert accepted > 250 and len(named) > 10
        assert max(named) < 4 * EPS

    def test_underflowing_eigenvalue_raises(self):
        # states outside SPD_TOL, wrapped unchecked: sigma = 1e-200 squares to 0
        tiny, huge = (_validated(v * np.eye(4), Ordering.MODE_INTERLEAVED) for v in (1e-200, 1e200))
        with pytest.raises(NumericDomainError, match="underflows to 0"):
            generalized_eigenvalues(huge, tiny)

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
        lambda x: bipartite.PairConfig(0.1, 0.1, eta=x),
        lambda x: Region(((0.5, 1.5), (0.5, x), (-0.5, 0.5), (-0.5, 0.5)), "quantum"),
    ], ids=["CanonicalTwoModeParams", "OscillatorParams", "RegularizerConfig",
            "PairConfig", "Region"])
    def test_non_finite_parameter_rejected(self, build, value):
        with pytest.raises(ValueError, match="must be finite"):
            build(value)
