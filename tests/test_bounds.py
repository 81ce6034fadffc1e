import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from grasspack.bounds import (
    bound_report,
    eitff_bound,
    gerzon_limit,
    governing_bound,
    orthoplex_bound,
    rankin_orthoplex_bound,
    rankin_simplex_bound,
    simplex_bound_chordal,
    simplex_bound_gram,
    traceless_space_dim,
    welch_bound,
)
from grasspack.construct import orthoplex, random_frame, regular_simplex
from grasspack.linalg import FieldTag
from grasspack.metrics import cross_gramian, min_chordal_packing
from grasspack.optimize import Criterion, worst_overlap

R = FieldTag.REAL
C = FieldTag.COMPLEX


@st.composite
def ndc(draw):
    d = draw(st.integers(min_value=1, max_value=40))
    c = draw(st.integers(min_value=1, max_value=d))
    n = draw(st.integers(min_value=2, max_value=60))
    return n, d, c


class TestWelch:
    def test_values(self):
        assert welch_bound(3, 2) == pytest.approx(0.25)
        assert welch_bound(5, 5) == 0.0
        assert welch_bound(7, 3) == pytest.approx(2.0 / 9.0)

    def test_requires_n_at_least_d(self):
        with pytest.raises(ValueError, match="n >= d"):
            welch_bound(2, 3)


class TestRankin:
    def test_simplex_values(self):
        assert rankin_simplex_bound(2) == -1.0
        assert rankin_simplex_bound(4) == pytest.approx(-1.0 / 3.0)
        assert rankin_simplex_bound(3) == pytest.approx(-0.5)

    def test_simplex_distance_companion(self):
        # An equilateral triangle on the circle has chord length sqrt(3):
        # min ||phi_i - phi_j||^2 = 2 (1 - max <phi_i, phi_j>) = 3.
        assert 2.0 * (1.0 - rankin_simplex_bound(3)) == pytest.approx(3.0)

    def test_simplex_needs_two(self):
        with pytest.raises(ValueError):
            rankin_simplex_bound(1)

    def test_orthoplex_gate(self):
        assert rankin_orthoplex_bound(5, 3) == 0.0
        assert rankin_orthoplex_bound(4, 3) is None

    def test_orthoplex_attained_by_orthoplex(self):
        f = orthoplex(3)
        max_signed = max(
            float(cross_gramian(f.bases[j], f.bases[jj]).array[0, 0].real)
            for j, jj in f.pairs()
        )
        assert max_signed == pytest.approx(0.0, abs=1e-15)
        assert rankin_orthoplex_bound(f.n, f.d) == 0.0


class TestSimplexBounds:
    def test_chordal_values(self):
        assert simplex_bound_chordal(3, 4, 2) == pytest.approx(1.5)
        assert simplex_bound_chordal(3, 2, 2) == 0.0  # c = d
        assert simplex_bound_chordal(3, 2, 1) == pytest.approx(0.75)

    def test_chordal_matches_simplex_packing(self):
        assert min_chordal_packing(regular_simplex(3)) == pytest.approx(
            simplex_bound_chordal(3, 2, 1), abs=1e-12
        )

    def test_certified_ectff_attains_chordal_bound(self):
        # Any certified ECTFF sits exactly at the chordal simplex bound.
        from grasspack.certify import certify
        from grasspack.construct import tensor_eitff

        f = tensor_eitff(regular_simplex(3), 2)
        assert certify(f).is_ectff
        assert abs(min_chordal_packing(f) - simplex_bound_chordal(3, 4, 2)) <= 1e-9

    def test_gram_values(self):
        assert simplex_bound_gram(3, 4, 2) == pytest.approx(0.5)
        assert simplex_bound_gram(7, 3, 1) == pytest.approx(welch_bound(7, 3))
        # nc < d: negative, returned as-is (the bound is vacuous).
        assert simplex_bound_gram(2, 5, 2) == pytest.approx(-0.4)

    def test_rejects_c_above_d(self):
        with pytest.raises(ValueError):
            simplex_bound_chordal(3, 2, 3)
        with pytest.raises(ValueError):
            simplex_bound_gram(3, 2, 3)

    @given(ndc())
    def test_gram_form_identity_exact(self, params):
        # c^2/d - (1/(n-1)) c(d-c)/d == c(nc-d)/(d(n-1)) as rationals.
        n, d, c = params
        direct = Fraction(c * (n * c - d), d * (n - 1))
        rearranged = Fraction(c * c, d) - Fraction(1, n - 1) * Fraction(c * (d - c), d)
        assert direct == rearranged

    @given(ndc())
    def test_chordal_gram_consistency(self, params):
        # The per-pair chordal value at the Gram bound is the chordal
        # bound divided by... checked as: c - gram bound value equals
        # the chordal bound's per-pair distance.
        n, d, c = params
        gram = Fraction(c * (n * c - d), d * (n - 1))
        chordal = Fraction(c * (d - c), d) * Fraction(n, n - 1)
        assert Fraction(c) - gram == chordal


class TestEitffBound:
    def test_values(self):
        assert eitff_bound(3, 4, 2) == pytest.approx(0.25)
        assert eitff_bound(7, 3, 1) == pytest.approx(welch_bound(7, 3))
        assert eitff_bound(3, 2, 1) == pytest.approx(0.25)

    @given(ndc())
    def test_times_c_is_gram_bound_exact(self, params):
        n, d, c = params
        assert Fraction(n * c - d, d * (n - 1)) * c == Fraction(c * (n * c - d), d * (n - 1))
        assert eitff_bound(n, d, c) * c == pytest.approx(simplex_bound_gram(n, d, c), rel=1e-14, abs=1e-300)


class TestGerzonAndTraceless:
    def test_gerzon(self):
        assert gerzon_limit(3, R) == 6
        assert gerzon_limit(3, C) == 9
        assert gerzon_limit(2, R) == 3

    def test_traceless_dim(self):
        assert traceless_space_dim(3, R) == 5
        assert traceless_space_dim(3, C) == 8
        assert traceless_space_dim(2, R) == 2


class TestOrthoplexBound:
    def test_complex_gram_form(self):
        ob = orthoplex_bound(10, 3, 1, C)
        assert ob is not None
        assert ob.gram == pytest.approx(1.0 / 3.0)

    def test_not_applicable_below_gerzon(self):
        assert orthoplex_bound(4, 3, 1, R) is None

    def test_real_chordal_form(self):
        ob = orthoplex_bound(7, 3, 1, R)
        assert ob is not None
        assert ob.chordal == pytest.approx(2.0 / 3.0)

    def test_gate_is_strict(self):
        # n equal to the Gerzon limit does not trigger the bound.
        assert orthoplex_bound(6, 3, 1, R) is None
        assert orthoplex_bound(7, 3, 1, R) is not None


class TestGoverningBound:
    @pytest.mark.parametrize(
        "n, d, c, field, spectral, value, name",
        [
            (3, 2, 1, R, False, 0.25, "simplex"),
            (3, 4, 2, R, False, 0.5, "simplex"),
            (3, 4, 2, R, True, 0.25, "eitff"),
            (16, 4, 1, C, False, 0.2, "simplex"),  # n at the Gerzon limit
            (4, 2, 1, R, False, 0.5, "orthoplex"),
            (4, 2, 1, R, True, 0.5, "orthoplex"),
            (5, 2, 1, C, False, 0.5, "orthoplex"),
            (7, 3, 1, R, False, 1.0 / 3.0, "orthoplex"),
            (40, 8, 3, R, False, 1.125, "orthoplex"),
            (40, 8, 3, R, True, 0.375, "orthoplex"),
            (2, 6, 2, R, False, 0.0, "trivial"),
            (2, 6, 2, R, True, 0.0, "trivial"),
            (2, 4, 2, R, False, 0.0, "simplex"),  # nc = d: a tie at 0
            (4, 2, 2, R, False, 2.0, "simplex"),  # c = d: a tie with the orthoplex bound
        ],
    )
    def test_regimes(self, n, d, c, field, spectral, value, name):
        assert governing_bound(n, d, c, field, spectral) == (pytest.approx(value), name)

    @given(ndc(), st.sampled_from([R, C]), st.booleans())
    def test_is_the_largest_applicable_bound(self, params, field, spectral):
        n, d, c = params
        value, name = governing_bound(n, d, c, field, spectral)
        scale = c if spectral else 1
        candidates = {"eitff" if spectral else "simplex": simplex_bound_gram(n, d, c) / scale, "trivial": 0.0}
        ortho = orthoplex_bound(n, d, c, field)
        if ortho is not None:
            candidates["orthoplex"] = ortho.gram / scale
        assert value >= max(candidates.values()) - 1e-15
        assert value == pytest.approx(candidates[name], abs=1e-15)

    def test_holds_on_random_frames_past_the_gerzon_limit(self):
        for field, d, c in ((R, 2, 1), (C, 2, 1), (R, 3, 2), (C, 2, 2)):
            for n in range(gerzon_limit(d, field) + 1, gerzon_limit(d, field) + 4):
                for seed in range(5):
                    f = random_frame(field, d, c, n, seed)
                    for crit in Criterion:
                        bound, _ = governing_bound(n, d, c, field, crit is Criterion.SPECTRAL_OVERLAP)
                        assert worst_overlap(f, crit) >= bound - 1e-12

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            governing_bound(1, 2, 1, R)
        with pytest.raises(ValueError):
            governing_bound(3, 2, 3, R)

    @pytest.mark.parametrize("value", ["no", 1, None])
    def test_spectral_must_be_a_bool(self, value):
        with pytest.raises(ValueError, match=f"^spectral must be a bool, got {re.escape(repr(value))}$"):
            governing_bound(3, 4, 2, R, value)


class TestBoundReport:
    def test_c_one_report(self):
        rep = bound_report(10, 3, 1, C)
        assert rep.welch == pytest.approx(welch_bound(10, 3))
        assert rep.orthoplex_gram == pytest.approx(1.0 / 3.0)
        assert rep.gerzon == 9
        assert "orthoplex" not in rep.notes

    def test_vector_report_below_d_marks_welch_na(self):
        rep = bound_report(2, 3, 1, R)
        assert rep.welch is None
        assert rep.notes["welch"] == "requires n >= d (n = 2 < d = 3)"

    def test_subspace_report_marks_welch_na(self):
        rep = bound_report(3, 4, 2, R)
        assert rep.welch is None
        assert "c = 1" in rep.notes["welch"]
        assert rep.orthoplex_chordal is None
        assert "orthoplex" in rep.notes
        assert rep.simplex_chordal == pytest.approx(1.5)
        assert rep.simplex_gram == pytest.approx(0.5)
        assert rep.eitff_spectral == pytest.approx(0.25)

    def test_as_dict_round_trip_keys(self):
        rep = bound_report(3, 2, 1, R)
        d = rep.as_dict()
        assert d["field"] == "R"
        assert set(d) == {
            "n", "d", "c", "field", "welch", "simplex_chordal", "simplex_gram",
            "eitff_spectral", "orthoplex_chordal", "orthoplex_gram", "gerzon",
            "traceless_dim", "notes",
        }


class TestUniversality:
    def test_gram_bound_holds_on_random_frames(self, rng):
        # Smaller companion of the acceptance sweep.
        for trial in range(50):
            d = int(rng.integers(2, 7))
            c = int(rng.integers(1, d + 1))
            n = int(rng.integers(2, 8))
            field = R if trial % 2 == 0 else C
            f = random_frame(field, d, c, n, 9000 + trial)
            max_frob = max(
                float(np.linalg.norm(cross_gramian(f.bases[j], f.bases[jj]).array) ** 2)
                for j, jj in f.pairs()
            )
            assert max_frob >= simplex_bound_gram(n, d, c) - 1e-10

    def test_real_unit_vectors_respect_rankin_second_bound(self, rng):
        # n >= d + 2 real unit vectors cannot all have negative inner
        # products.
        for trial in range(40):
            d = int(rng.integers(1, 6))
            n = d + 2 + int(rng.integers(0, 4))
            vecs = rng.standard_normal((d, n))
            vecs /= np.linalg.norm(vecs, axis=0, keepdims=True)
            gram = vecs.T @ vecs
            off = gram[~np.eye(n, dtype=bool)]
            assert off.max() >= -1e-10
