import re
from collections import Counter

import numpy as np
import pytest

from ginfo import bipartite, fisher, states, symplectic
from ginfo.errors import NumericDomainError
from ginfo.policy import RSUP_SLACK, SPD_TOL
from ginfo.randmat import random_spd
from ginfo.states import (
    CanonicalTwoModeParams,
    canonical_two_mode_cvm,
    canonical_two_mode_matrix,
    in_quantum_region,
    in_separable_region,
    partial_transpose,
    ppt_separable,
    PptResult,
    simon_invariants,
)
from ginfo.symplectic import CovarianceMatrix, Ordering, build_symplectic_form, symplectic_spectrum

from helpers import (
    CANONICAL_PPT_EDGE_REFERENCES,
    FORM2,
    GATE_BOXES,
    canonical_hermitian_verdicts,
    gate_draws,
    random_valid_canonical,
)

EPS = np.finfo(float).eps


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


class TestRecords:
    """CanonicalTwoModeParams and PptResult are immutable named tuples, and
    CanonicalTwoModeParams checks its entries when built."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("field", "abcd")
    def test_non_finite_entry_rejected(self, field, value):
        entries = {"a": 1.0, "b": 0.8, "c": 0.2, "d": -0.1, field: value}
        message = f"a, b, c and d must be finite, got {tuple(entries.values())}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CanonicalTwoModeParams(**entries)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CanonicalTwoModeParams(*entries.values())

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
                                      (-0.0, -0.0)])
    def test_nonpositive_diagonal_rejected(self, a, b):
        message = f"diagonal entries must be positive, got a={a}, b={b}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CanonicalTwoModeParams(a, b, 0.1, 0.1)

    def test_positional_and_keyword_construction(self):
        p = CanonicalTwoModeParams(1.0, 0.8, 0.2, -0.1)
        assert p == CanonicalTwoModeParams(d=-0.1, c=0.2, b=0.8, a=1.0)
        assert (p.a, p.b, p.c, p.d) == tuple(p) == (1.0, 0.8, 0.2, -0.1)
        assert CanonicalTwoModeParams(2.0, 3.0) == CanonicalTwoModeParams(2.0, 3.0, 0.0, 0.0)
        assert repr(p) == "CanonicalTwoModeParams(a=1.0, b=0.8, c=0.2, d=-0.1)"
        verdict = ppt_separable(p)
        assert verdict == PptResult(separable=verdict.separable, margin=verdict.margin)
        assert repr(PptResult(True, 0.5)) == "PptResult(separable=True, margin=0.5)"

    def test_fields_are_read_only(self):
        p = CanonicalTwoModeParams(1.0, 0.8, 0.2, -0.1)
        verdict = ppt_separable(p)
        for record, name in [(p, "a"), (p, "b"), (p, "c"), (p, "d"),
                             (verdict, "separable"), (verdict, "margin")]:
            with pytest.raises(AttributeError):
                setattr(record, name, -1.0)
        with pytest.raises(AttributeError):
            p.e = 1.0
        assert p == CanonicalTwoModeParams(1.0, 0.8, 0.2, -0.1)

    def test_equal_records_compare_and_hash_equal(self):
        p = CanonicalTwoModeParams(1.0, 0.8, 0.2, -0.1)
        q = CanonicalTwoModeParams(a=1.0, b=0.8, c=0.2, d=-0.1)
        assert p == q and hash(p) == hash(q) and len({p, q}) == 1
        assert p != CanonicalTwoModeParams(1.0, 0.8, 0.2, 0.1)
        first, second = ppt_separable(p), ppt_separable(q)
        assert first == second and hash(first) == hash(second)


class TestSectorEigenvalues:
    """The 2x2 sector spectrum against LAPACK, relative per eigenvalue."""

    @staticmethod
    def _eigvalsh(a, b, c):
        return np.linalg.eigvalsh(np.stack([np.stack([a, c], -1), np.stack([c, b], -1)], -2))

    def test_matches_eigvalsh(self):
        rng = np.random.default_rng(23)
        a, b = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=(2, 2000)))
        c = rng.uniform(-0.9, 0.9, 2000) * np.sqrt(a * b)
        low, high = states._sector_eigenvalues(a, b, c)
        lapack = self._eigvalsh(a, b, c)
        np.testing.assert_allclose(low, lapack[:, 0], rtol=1e-14, atol=0)
        np.testing.assert_allclose(high, lapack[:, 1], rtol=1e-14, atol=0)

    @pytest.mark.parametrize("a, b, c", [(1e8, 1.0, 0.5), (1.0, 1e8, -0.5),
                                         (1e8, 1.0, 3e3), (1e-4, 1e4, 0.5)])
    def test_anisotropic_sector(self, a, b, c):
        # a/b = 1e8: (trace - root)/4 would lose 8 digits of the low eigenvalue
        low, high = states._sector_eigenvalues(a, b, c)
        np.testing.assert_allclose([low, high], self._eigvalsh(a, b, c), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("a, b, c", [(2.0, 0.5, 1 - 2.0 ** -20), (0.5, 2.0, -(1 - 2.0 ** -20)),
                                         (1.0, 1.0, 1 - 2.0 ** -26), (4.0, 1.0, 2 - 2.0 ** -24)])
    def test_near_singular_sector(self, a, b, c):
        # ab and c^2 are exact here, so low * high must give ab - c^2 to rounding;
        # LAPACK's low eigenvalue is itself accurate only to eps * high
        low, high = states._sector_eigenvalues(a, b, c)
        assert abs(low * high / (a * b - c * c) - 1.0) <= 4 * np.finfo(float).eps
        lapack = self._eigvalsh(a, b, c)
        assert abs(low - lapack[0]) <= 4 * np.finfo(float).eps * high
        assert high == pytest.approx(lapack[1], rel=1e-15)

    def test_scalars_and_arrays_agree(self):
        rows = np.random.default_rng(24).uniform(0.5, 2.0, size=(50, 3))
        lows, highs = states._sector_eigenvalues(*rows.T)
        for row, low, high in zip(rows.tolist(), lows, highs):
            # the scalar route of the canonical PPT verdict, on both kinds of float
            assert states._sector_eigenvalues(*row) == (low, high)
            assert states._sector_eigenvalues(*map(np.float64, row)) == (low, high)


class TestQuantumRegion:
    def test_uncorrelated_valid(self):
        assert in_quantum_region(CanonicalTwoModeParams(1.0, 1.0)) is True

    def test_too_squeezed(self):
        assert in_quantum_region(CanonicalTwoModeParams(0.4, 0.4)) is False

    def test_boundary_indeterminate(self):
        # ab <= c^2 leaves the window edges undefined; such an x sector is no
        # state, so it lies outside both windows
        for c in (1.0, 1.5):
            p = CanonicalTwoModeParams(1.0, 1.0, c, 0.0)
            assert in_quantum_region(p) is False and in_separable_region(p) is False

    def test_window_matches_spectral_boundary(self):
        # sweep d at (a, b, c) = (1, 0.8, 0.2): membership flips exactly at the
        # window edges, checked against the uncertainty verdict at +-2e-4. The
        # edges are the roots in d of 16 det S - 4 Delta + 1 = 0 (nu_- = 1),
        # with det S = (ab - c^2)(ab - d^2) and Delta = a^2 + b^2 + 2cd
        a, b, c = 1.0, 0.8, 0.2
        k = a * b - c * c
        edges = np.roots([16.0 * k, 8.0 * c, 4.0 * (a * a + b * b) - 1.0 - 16.0 * k * a * b])
        assert edges.size == 2 and np.isrealobj(edges)
        for edge in edges:
            verdicts = []
            for offset in (-2e-4, 2e-4):
                d = edge + offset
                p = CanonicalTwoModeParams(a, b, c, d)
                m = canonical_two_mode_matrix(p)
                spd = np.linalg.eigvalsh(m).min() > 0
                oracle = bool(spd and symplectic_spectrum(m, FORM2).min() >= 1 - 1e-10)
                assert in_quantum_region(p) == oracle
                verdicts.append(oracle)
            assert verdicts[0] != verdicts[1]

    @pytest.mark.parametrize("line", [2, 3], ids=["c=0", "d=0"])
    def test_separable_window_on_a_zero_correlation_line(self, line):
        # with c = 0 or d = 0, det C = cd = 0 and every physical state is
        # separable; the separable window must say so as the reflection verdict
        # does. A draw whose margin is within 1e-6 of zero is skipped
        rng = np.random.default_rng(29)
        draws = np.column_stack([rng.uniform(0.3, 3.0, (3000, 2)),
                                 rng.uniform(-1.5, 1.5, (3000, 2))])
        draws[:, line] = 0.0
        verdicts = Counter()
        for row in draws[fisher._physical(draws)].tolist():
            p = CanonicalTwoModeParams(*row)
            verdict = ppt_separable(canonical_two_mode_cvm(p))
            if abs(verdict.margin) >= 1e-6:
                verdicts[verdict.separable, in_separable_region(p)] += 1
        assert set(verdicts) == {(True, True)} and verdicts[True, True] > 1000

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e40, 1e60, 1e78, 1e160, 1e300])
    @pytest.mark.parametrize("kind", [float, np.float64], ids=["float", "float64"])
    def test_windows_at_large_entries(self, kind, scale):
        # the p-p radicand is of degree 6 in the entries and overflows past
        # ~1e50, 4ab past ~1e154; there the windows take the spectral verdicts,
        # without a warning. The last shape is no state (ab < c^2)
        for shape in [(1.0, 1.0, 0.1, 0.05), (1.0, 2.0, -0.3, 0.2), (1.0, 1.0, 1.5, 0.0)]:
            p = CanonicalTwoModeParams(*(kind(scale * x) for x in shape))
            try:
                cvm = canonical_two_mode_cvm(p)
            except NumericDomainError:
                physical = separable = False
            else:
                physical = symplectic.rsup_check(cvm).valid
                separable = physical and ppt_separable(cvm).separable
            assert in_quantum_region(p) is physical, shape
            assert in_separable_region(p) is separable, shape
            assert physical == (shape[2] < 1.0)
        # an x sector whose hypotenuse is past the float range, at any scale:
        # no state, so both windows answer False, and the verdict names it
        edge = CanonicalTwoModeParams(kind(1.7e308), kind(1.0), kind(1.7e308), kind(0.0))
        assert in_quantum_region(edge) is False
        assert in_separable_region(edge) is False
        with pytest.raises(NumericDomainError):
            ppt_separable(edge)


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
        # a raw array names no ordering, so it does not locate party B
        pair = bipartite.pair_cvm(bipartite.PairConfig(0.1, 0.1))
        with pytest.raises(ValueError, match="needs a CovarianceMatrix"):
            partial_transpose(pair.matrix)
        with pytest.raises(ValueError, match="needs a CovarianceMatrix"):
            ppt_separable(pair.matrix)
        assert ppt_separable(pair).separable


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
        (4, Ordering.PARTY_BLOCK_XP, (3,)),
        (8, Ordering.PARTY_BLOCK_XP, (6, 7)),
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
        if ordering is Ordering.PARTY_BLOCK_XP:   # the party basis cannot hold the state
            with pytest.raises(ValueError, match="two equal parties"):
                CovarianceMatrix(np.eye(6), ordering=ordering)
            return
        cvm = CovarianceMatrix(np.eye(6), ordering=ordering)
        with pytest.raises(ValueError, match="two equal parties"):
            partial_transpose(cvm)


class TestPptSeparable:
    def test_product_vacuum_on_boundary(self):
        cvm = CovarianceMatrix(0.5 * np.eye(8), ordering=Ordering.MODE_INTERLEAVED)
        res = ppt_separable(cvm)
        assert res.separable
        np.testing.assert_allclose(res.margin, 0.0, atol=1e-12)

    # a separable state, and a two-mode squeezed vacuum (r = 1/2), which is entangled
    @pytest.mark.parametrize("entries, separable", [
        ((1.0, 0.8, 0.2, -0.1), True),
        ((np.cosh(1.0) / 2, np.cosh(1.0) / 2, np.sinh(1.0) / 2, -np.sinh(1.0) / 2), False),
    ], ids=["separable", "entangled"])
    @pytest.mark.parametrize("kind", [float, np.float64], ids=["float", "float64"])
    def test_built_in_field_types(self, entries, separable, kind):
        p = CanonicalTwoModeParams(*map(kind, entries))
        for route in (p, canonical_two_mode_cvm(p)):
            verdict = ppt_separable(route)
            assert type(verdict.separable) is bool and type(verdict.margin) is float
            assert verdict.separable is separable


def _nudged(rng, rows):
    """``rows`` of (a, b, c, d) with each entry moved by +-10^U(-12, -4)."""
    return rows + rng.choice([-1.0, 1.0], rows.shape) * 10.0 ** rng.uniform(-12, -4, rows.shape)


class TestPptCanonicalRoute:
    """The closed-form verdict on canonical parameters against the reflection
    spectrum, the Hermitian route and high-precision references.

    Both routes' margins agree within ``MARGIN_BOUND * eps * max(a, b)``
    (19.5 measured on 467,764 physical draws of the benchmark's volume boxes).
    """

    MARGIN_BOUND = 32.0
    REFERENCE_BOUND = 8.0    # each route against the 40-digit references, same units

    @classmethod
    def _agree(cls, draws) -> Counter:
        """Verdict counts of the physical ``draws``, asserting that all three routes agree."""
        physical, separable = canonical_hermitian_verdicts(draws)
        verdicts = Counter()
        for row, expected in zip(draws[physical].tolist(), separable[physical].tolist()):
            p = CanonicalTwoModeParams(*row)
            closed = ppt_separable(p)
            spectral = ppt_separable(canonical_two_mode_cvm(p))
            assert closed.separable == spectral.separable == expected, row
            assert abs(closed.margin - spectral.margin) <= cls.MARGIN_BOUND * EPS * max(row[:2])
            verdicts[closed.separable] += 1
        return verdicts

    @pytest.mark.parametrize("box", list(GATE_BOXES), ids=list(GATE_BOXES))
    def test_gate_boxes(self, box):
        verdicts = self._agree(gate_draws(GATE_BOXES[box], seed=11)[0])
        assert sum(verdicts.values()) > 0

    def test_nudged_vacua(self):
        # the reflected invariants of a near-vacuum nearly coincide, so the
        # discriminant as written, Delta~^2 - 4 det S, would cancel here
        rows = _nudged(np.random.default_rng(30), np.tile([0.5, 0.5, 0.0, 0.0], (4000, 1)))
        rows[:, :2] = 0.5 + np.abs(rows[:, :2] - 0.5)   # a, b above the vacuum's 1/2
        verdicts = self._agree(rows)
        assert verdicts[True] > 1000 and verdicts[False] > 10

    def test_nudged_squeezed_thermal_states(self):
        # two-mode squeezed thermal states at the PPT edge, thermal factor
        # nu = e^{2r}: a = b = nu cosh(2r)/2, c = -d = nu sinh(2r)/2, nu~_- = 1
        rng = np.random.default_rng(31)
        r = rng.uniform(0.05, 0.6, 4000)
        nu = np.exp(2.0 * r)
        a, c = nu * np.cosh(2.0 * r) / 2.0, nu * np.sinh(2.0 * r) / 2.0
        verdicts = self._agree(_nudged(rng, np.column_stack([a, a, c, -c])))
        assert verdicts[True] > 100 and verdicts[False] > 100

    @pytest.mark.parametrize("params, nu", CANONICAL_PPT_EDGE_REFERENCES,
                             ids=[f"{nu - 1:+.0e}" for _, nu in CANONICAL_PPT_EDGE_REFERENCES])
    def test_high_precision_references(self, params, nu):
        p = CanonicalTwoModeParams(*params)
        bound = self.REFERENCE_BOUND * EPS * max(p.a, p.b)
        for route in (p, canonical_two_mode_cvm(p)):
            verdict = ppt_separable(route)
            assert abs(verdict.margin + 1.0 - nu) <= bound
            if abs(nu - (1.0 - RSUP_SLACK)) > bound:
                assert verdict.separable == (nu >= 1.0 - RSUP_SLACK)

    @pytest.mark.parametrize("params", [(1.0, 1.0, 1.0, 0.0), (1.0, 1.0, 1.5, 0.0),
                                        (2.0, 0.5, 0.0, -1.0), (1.0, 1.0, 0.3, 1.0 - 1e-13),
                                        (1e200, 1e200, 1.5e200, 0.0)])
    def test_indefinite_state_rejected(self, params):
        # ab <= c^2 (or d^2, or within SPD_TOL of it) is no state, at any scale
        with pytest.raises(NumericDomainError, match="not positive definite"):
            ppt_separable(CanonicalTwoModeParams(*params))

    def test_positive_definite_shortcut(self):
        # the verdict skips the sector lows where both determinants exceed
        # 4 SPD_TOL (a + b); near that bound and the edge at SPD_TOL it must
        # raise exactly where the lows' check fails, and give the invariant
        rng = np.random.default_rng(33)
        counts = Counter()
        for _ in range(3000):
            a, b = rng.uniform(0.01, 3.0, 2).tolist()
            det = float(10.0 ** rng.uniform(-13.0, -10.0)) * (a + b)
            c = float(rng.choice([-1.0, 1.0]) * np.sqrt(a * b - det))
            d = float(rng.uniform(-0.9, 0.9) * np.sqrt(a * b))
            c, d = (c, d) if rng.random() < 0.5 else (d, c)
            positive = min(states._sector_eigenvalues(a, b, c)[0],
                           states._sector_eigenvalues(a, b, d)[0]) > SPD_TOL
            shortcut = min(a * b - c * c, a * b - d * d) > 4.0 * SPD_TOL * (a + b)
            assert positive or not shortcut
            if positive:
                verdict = ppt_separable(CanonicalTwoModeParams(a, b, c, d))
                assert verdict.margin == states._min_invariant(a, b, c, -d) - 1.0
            else:
                with pytest.raises(NumericDomainError, match="not positive definite"):
                    ppt_separable(CanonicalTwoModeParams(a, b, c, d))
            counts[positive, shortcut] += 1
        assert min(counts[True, True], counts[True, False], counts[False, False]) > 300

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e78, 1e100, 1e154, 1e160, 1e200, 1e300])
    @pytest.mark.parametrize("kind", [float, np.float64], ids=["float", "float64"])
    def test_large_entries_match_spectral_route(self, kind, scale):
        # det S ~ a^4 overflows past ~1e77, and ab - c^2 = inf - inf is NaN past
        # ~1e154: the closed form then takes the verdict on the entries scaled
        # by a power of two, without a warning
        p = CanonicalTwoModeParams(*(kind(scale * x) for x in (1.0, 1.0, 0.1, 0.05)))
        closed, spectral = ppt_separable(p), ppt_separable(canonical_two_mode_cvm(p))
        assert type(closed.separable) is bool and type(closed.margin) is float
        assert closed.separable is spectral.separable is True
        assert abs(closed.margin - spectral.margin) <= self.MARGIN_BOUND * EPS * scale

    @pytest.mark.parametrize("box", list(GATE_BOXES), ids=list(GATE_BOXES))
    def test_scalar_copy_of_the_invariant(self, box):
        # ppt_separable writes _min_invariant(a, b, c, -d) out in scalar
        # arithmetic; on the physical draws it gives the array route's verdict,
        # with a margin within an ulp of its nu - 1
        draws, _ = gate_draws(GATE_BOXES[box], seed=11)
        rows = draws[fisher._physical(draws)]
        a, b, c, d = rows.T
        nus = states._min_invariant(a, b, c, -d)
        for row, nu in zip(rows.tolist(), nus.tolist()):
            verdict = ppt_separable(CanonicalTwoModeParams(*row))
            assert verdict.separable == (nu >= 1.0 - RSUP_SLACK), row
            assert abs(verdict.margin + 1.0 - nu) <= np.spacing(nu), row


class TestPptEigensolverOnly:
    """A verdict on a validated state under a standard form runs one solve, one eigensolve
    and nothing else."""

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
        for _ in range(50):
            m = canonical_two_mode_matrix(random_valid_canonical(rng))
            cvm = CovarianceMatrix(symplectic.permute_ordering(m, Ordering.MODE_INTERLEAVED,
                                                               ordering), ordering=ordering)
            linalg_calls.clear()
            res = ppt_separable(cvm)
            assert linalg_calls == {"solve": 1, "eigvals": 1}
            raw = symplectic_spectrum(partial_transpose(cvm), form.matrix)[0]   # the same route
            assert (raw >= 1.0 - RSUP_SLACK) == res.separable
            assert res.margin == raw - 1.0


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
