from collections import Counter

import numpy as np
import pytest

from ginfo import (
    BoundaryIndeterminateError,
    CanonicalTwoModeParams,
    CovarianceMatrix,
    Ordering,
    bipartite,
    build_symplectic_form,
    canonical_two_mode_cvm,
    canonical_two_mode_matrix,
    in_quantum_region,
    in_separable_region,
    partial_transpose,
    ppt_separable,
    simon_invariants,
    states,
    symplectic,
    two_mode_bounds,
)
from ginfo.randmat import random_spd
from ginfo.symplectic import symplectic_spectrum

from helpers import FORM2, random_valid_canonical


class TestCanonicalForm:
    def test_two_vacua(self):
        cvm = canonical_two_mode_cvm(CanonicalTwoModeParams(0.5, 0.5))
        np.testing.assert_array_equal(cvm.matrix, 0.5 * np.eye(4))
        assert cvm.ordering is Ordering.MODE_INTERLEAVED

    def test_entry_placement(self):
        m = canonical_two_mode_matrix(CanonicalTwoModeParams(1.0, 1.0, 0.3, -0.3))
        assert m[0, 2] == 0.3 and m[2, 0] == 0.3
        assert m[1, 3] == -0.3 and m[3, 1] == -0.3
        np.testing.assert_array_equal(np.diag(m), [1, 1, 1, 1])

    def test_determinant_factorizes(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = random_valid_canonical(rng)
            det = np.linalg.det(canonical_two_mode_matrix(p))
            expected = (p.a * p.b - p.c ** 2) * (p.a * p.b - p.d ** 2)
            np.testing.assert_allclose(det, expected, rtol=1e-10)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            CanonicalTwoModeParams(0.0, 1.0)


class TestQuantumRegion:
    def test_uncorrelated_valid(self):
        assert in_quantum_region(CanonicalTwoModeParams(1.0, 1.0)) is True

    def test_too_squeezed(self):
        assert in_quantum_region(CanonicalTwoModeParams(0.4, 0.4)) is False

    def test_boundary_indeterminate(self):
        # 4ab = 4c^2 leaves the window endpoints undefined
        with pytest.raises(BoundaryIndeterminateError):
            two_mode_bounds(CanonicalTwoModeParams(1.0, 1.0, 1.0, 0.0))

    def test_window_matches_spectral_boundary(self):
        # sweep d at (a, b, c) = (1, 0.8, 0.2): membership flips exactly at the
        # window edges, checked against the uncertainty verdict at +-2e-4
        p0 = CanonicalTwoModeParams(1.0, 0.8, 0.2)
        bounds = two_mode_bounds(p0)
        for edge in (bounds.d_low, bounds.d_high):
            for offset in (-2e-4, 2e-4):
                d = edge + offset
                p = CanonicalTwoModeParams(p0.a, p0.b, p0.c, d)
                m = canonical_two_mode_matrix(p)
                spd = np.linalg.eigvalsh(m).min() > 0
                oracle = bool(spd and symplectic_spectrum(m, FORM2).min() >= 1 - 1e-10)
                assert in_quantum_region(p) == oracle


class TestSeparableRegion:
    def test_matches_reflection_verdict(self):
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 300:
            p = random_valid_canonical(rng)
            if abs(p.c) < 1e-3:
                continue  # the separable window excludes c = 0
            verdict = ppt_separable(canonical_two_mode_cvm(p), FORM2)
            if abs(verdict.margin) < 1e-6:
                continue
            checked += 1
            assert in_separable_region(p) == verdict.separable, p


class TestPartialTranspose:
    def test_diagonal_invariant(self):
        cvm = CovarianceMatrix(0.5 * np.eye(8), ordering=Ordering.MODE_INTERLEAVED)
        out = partial_transpose(cvm)
        np.testing.assert_array_equal(out.matrix, 0.5 * np.eye(8))

    def test_involution(self):
        rng = np.random.default_rng(9)
        m = random_spd(8, rng)
        cvm = CovarianceMatrix(m, ordering=Ordering.MODE_INTERLEAVED)
        twice = partial_transpose(partial_transpose(cvm))
        np.testing.assert_array_equal(twice.matrix, m)

    def test_unnamed_basis_rejected(self):
        # a raw array and a matrix without a named ordering do not locate party B
        pair = bipartite.pair_cvm(bipartite.PairConfig(0.1, 0.1))
        for sigma in (pair, pair.matrix):
            with pytest.raises(ValueError, match="named ordering"):
                partial_transpose(sigma)
            with pytest.raises(ValueError, match="named ordering"):
                ppt_separable(sigma, bipartite.party_form())


class TestPartialTransposeValidation:
    """A validated matrix is reflected without a second check."""

    @pytest.fixture
    def spd_calls(self, monkeypatch):
        calls = []
        real = symplectic.check_spd

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(symplectic, "check_spd", counted)
        return calls

    @pytest.mark.parametrize("ordering, flipped", [
        (Ordering.MODE_INTERLEAVED, (5, 7)),
        (Ordering.BLOCK_XP, (6, 7)),
    ])
    def test_validated_input_is_not_rechecked(self, spd_calls, ordering, flipped):
        cvm = CovarianceMatrix(random_spd(8, np.random.default_rng(5)), ordering=ordering)
        spd_calls.clear()
        out = partial_transpose(cvm)
        assert spd_calls == []
        signs = np.ones(8)
        signs[list(flipped)] = -1.0
        np.testing.assert_array_equal(out.matrix, cvm.matrix * np.outer(signs, signs))
        assert out.ordering is ordering
        assert not out.matrix.flags.writeable
        with pytest.raises(ValueError):
            out.matrix[0, 0] = 1.0


class TestSignPattern:
    """The reflection multiplies by one cached, read-only sign pattern."""

    @pytest.mark.parametrize("dim, ordering, flipped", [
        (4, Ordering.MODE_INTERLEAVED, (3,)),
        (4, Ordering.BLOCK_XP, (3,)),
        (8, Ordering.MODE_INTERLEAVED, (5, 7)),
        (8, Ordering.BLOCK_XP, (6, 7)),
    ])
    def test_pattern_equals_outer_product(self, dim, ordering, flipped):
        m = random_spd(dim, np.random.default_rng(dim))
        signs = np.ones(dim)
        signs[list(flipped)] = -1.0
        outer = np.outer(signs, signs)
        out = partial_transpose(CovarianceMatrix(m, ordering=ordering))
        np.testing.assert_array_equal(out.matrix, m * outer)
        pattern = states._sign_pattern(dim, ordering)
        np.testing.assert_array_equal(pattern, outer)
        assert states._sign_pattern(dim, ordering) is pattern
        assert not pattern.flags.writeable and not out.matrix.flags.writeable
        assert not np.shares_memory(out.matrix, pattern)

    @pytest.mark.parametrize("ordering", list(Ordering))
    def test_odd_mode_count_rejected(self, ordering):
        cvm = CovarianceMatrix(np.eye(6), ordering=ordering)
        with pytest.raises(ValueError, match="two equal parties"):
            partial_transpose(cvm)


class TestPptSeparable:
    def test_product_vacuum_on_boundary(self):
        cvm = CovarianceMatrix(0.5 * np.eye(8), ordering=Ordering.MODE_INTERLEAVED)
        form = build_symplectic_form(4)
        res = ppt_separable(cvm, form)
        assert res.separable
        np.testing.assert_allclose(res.margin, 0.0, atol=1e-12)


class TestPptEigensolverOnly:
    """A verdict on a validated state under a standard form runs one eigensolve and nothing else."""

    @pytest.fixture
    def linalg_calls(self, monkeypatch):
        calls = Counter()
        for name in ("solve", "det", "eigvals", "eigvalsh", "inv"):
            real = getattr(np.linalg, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    @pytest.mark.parametrize("ordering", list(Ordering))
    def test_one_eigvals_call(self, linalg_calls, ordering):
        rng = np.random.default_rng(13)
        form = build_symplectic_form(2, ordering)
        perm = symplectic.ordering_permutation(2, Ordering.MODE_INTERLEAVED, ordering)
        for _ in range(50):
            m = canonical_two_mode_matrix(random_valid_canonical(rng))
            cvm = CovarianceMatrix(perm @ m @ perm.T, ordering=ordering)
            linalg_calls.clear()
            res = ppt_separable(cvm, form)
            assert linalg_calls == {"eigvals": 1}
            raw = ppt_separable(cvm, form.matrix)    # the solve route
            assert raw.separable == res.separable
            np.testing.assert_allclose(res.margin, raw.margin, rtol=0, atol=1e-13)


class TestSimonInvariants:
    def test_product_vacuum_saturates(self):
        inv = simon_invariants(0.5 * np.eye(4))
        np.testing.assert_allclose(inv.criterion, 0.0, atol=1e-14)

    def test_uncorrelated_factorization(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            a, b = rng.uniform(0.5, 3.0, size=2)
            m = np.diag([a, a, b, b])
            inv = simon_invariants(m)
            np.testing.assert_allclose(inv.criterion, (a * a - 0.25) * (b * b - 0.25),
                                       rtol=1e-12)

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            simon_invariants(np.eye(6))
