import numpy as np
import pytest

from grasspack.bounds import rankin_simplex_bound, welch_bound
from grasspack.certify import certify, is_equiangular, is_etf, is_tight_fusion_frame
from grasspack.construct import (
    DifferenceSet,
    harmonic_etf,
    orthoplex,
    random_frame,
    regular_simplex,
    tensor_eitff,
)
from grasspack.linalg import FieldTag, Mat, orthonormalize
from grasspack.metrics import coherence, cross_gramian, fusion_frame_operator, fusion_gram

R = FieldTag.REAL
C = FieldTag.COMPLEX


class TestRegularSimplex:
    def test_antipodal_pair(self):
        f = regular_simplex(2)
        assert f.d == 1 and f.n == 2
        vals = sorted(float(b.array[0, 0].real) for b in f.bases)
        assert vals == pytest.approx([-1.0, 1.0], abs=1e-15)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_gram_off_diagonals(self, n):
        f = regular_simplex(n)
        assert f.d == n - 1
        g = fusion_gram(f).array
        off = g[~np.eye(n, dtype=bool)]
        assert np.max(np.abs(off - (-1.0 / (n - 1)))) < 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_vectors_sum_to_zero(self, n):
        f = regular_simplex(n)
        total = sum(b.array for b in f.bases)
        assert np.max(np.abs(total)) < 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_is_etf_and_attains_rankin(self, n):
        f = regular_simplex(n)
        assert is_etf(f)
        max_signed = max(
            float(cross_gramian(f.bases[j], f.bases[jj]).array[0, 0].real)
            for j, jj in f.pairs()
        )
        assert max_signed == pytest.approx(rankin_simplex_bound(n), abs=1e-12)

    def test_deterministic_coordinates(self):
        a = regular_simplex(5)
        b = regular_simplex(5)
        for x, y in zip(a.bases, b.bases):
            assert x.array.tobytes() == y.array.tobytes()

    def test_needs_two(self):
        with pytest.raises(ValueError):
            regular_simplex(1)


class TestOrthoplex:
    def test_d1(self):
        f = orthoplex(1)
        vals = [float(b.array[0, 0].real) for b in f.bases]
        assert vals == [1.0, -1.0]

    def test_max_signed_inner_product_zero(self):
        f = orthoplex(3)
        assert f.n == 6
        max_signed = max(
            float(cross_gramian(f.bases[j], f.bases[jj]).array[0, 0].real)
            for j, jj in f.pairs()
        )
        assert max_signed == 0.0

    def test_antipodes_give_coherence_one(self):
        f = orthoplex(2)
        assert coherence(f) == pytest.approx(1.0)

    @pytest.mark.parametrize("d", [1, 2])
    def test_never_beats_orthoplex_bound_past_gerzon(self, d):
        # For d = 1, 2 the vector count 2d exceeds the Gerzon limit, so
        # the orthoplex bound applies; the antipodal pairs sit at overlap
        # 1 >= 1/d, with equality at d = 1.
        f = orthoplex(d)
        cert = certify(f)
        assert cert.orthoplex_gap is not None
        assert cert.orthoplex_gap >= -1e-12
        if d == 1:
            assert cert.orthoplex_gap == pytest.approx(0.0, abs=1e-12)


class TestHarmonicEtf:
    def test_singer_set_hits_welch(self):
        f = harmonic_etf(DifferenceSet(7, [1, 2, 4]))
        assert (f.n, f.d, f.c, f.field) == (7, 3, 1, C)
        assert coherence(f) ** 2 == pytest.approx(welch_bound(7, 3), abs=1e-12)
        assert is_etf(f)

    def test_unit_norms(self):
        f = harmonic_etf(DifferenceSet(11, [1, 3, 4, 5, 9]))
        for b in f.bases:
            assert np.linalg.norm(b.array) == pytest.approx(1.0, abs=1e-12)

    def test_singleton_set_gives_coherence_one(self):
        f = harmonic_etf(DifferenceSet(4, [0]))
        assert coherence(f) == pytest.approx(1.0, abs=1e-12)

    def test_tight_for_any_index_set(self):
        # {0, 1, 2} mod 5 is not a difference set, but the rows of the
        # character table still give a tight frame with constant n/d.
        f = harmonic_etf(DifferenceSet(5, [0, 1, 2]))
        res = is_tight_fusion_frame(f, 1e-10)
        assert res.flag
        assert res.alpha == pytest.approx(5.0 / 3.0)
        assert not is_equiangular(f).flag
        assert not is_etf(f)

    def test_empty_and_full_sets_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            harmonic_etf(DifferenceSet(5, []))
        with pytest.raises(ValueError, match="proper subset"):
            harmonic_etf(DifferenceSet(3, [0, 1, 2]))

    def test_difference_set_validation(self):
        with pytest.raises(ValueError, match="^modulus must be positive, got 0$"):
            DifferenceSet(0, [])
        with pytest.raises(ValueError, match="distinct"):
            DifferenceSet(7, [1, 1, 2])
        with pytest.raises(ValueError, match="residues"):
            DifferenceSet(7, [1, 9])
        assert DifferenceSet(7, [4, 1, 2]).elements == (1, 2, 4)


class TestTensorEitff:
    def test_c1_is_identity_up_to_representation(self):
        etf = regular_simplex(3)
        out = tensor_eitff(etf, 1)
        for a, b in zip(etf.bases, out.bases):
            assert np.array_equal(a.array, b.array)

    def test_simplex_tensor_is_eitff(self):
        f = tensor_eitff(regular_simplex(3), 2)
        assert (f.n, f.d, f.c, f.field) == (3, 4, 2, R)
        cert = certify(f)
        assert cert.is_eitff
        assert cert.sigma_sq == pytest.approx(0.25, abs=1e-12)

    def test_harmonic_tensor_matches_input_coherence(self):
        etf = harmonic_etf(DifferenceSet(7, [1, 2, 4]))
        f = tensor_eitff(etf, 2)
        assert (f.n, f.d, f.c, f.field) == (7, 6, 2, C)
        cert = certify(f)
        assert cert.is_eitff
        assert cert.sigma_sq == pytest.approx((7 * 2 - 6) / (6 * 6), abs=1e-12)
        assert cert.sigma_sq == pytest.approx(coherence(etf) ** 2, abs=1e-12)

    def test_fusion_frame_operator_scaled_identity(self):
        f = tensor_eitff(regular_simplex(3), 2)
        s = fusion_frame_operator(f).array
        assert np.max(np.abs(s - 1.5 * np.eye(4))) < 1e-10

    def test_rejects_subspace_input(self):
        f = random_frame(R, 4, 2, 3, 0)
        with pytest.raises(ValueError, match="c = 1"):
            tensor_eitff(f, 2)


class TestRandomFrame:
    def test_deterministic(self):
        a = random_frame(R, 2, 1, 3, 7)
        b = random_frame(R, 2, 1, 3, 7)
        for x, y in zip(a.bases, b.bases):
            assert x.array.tobytes() == y.array.tobytes()

    def test_different_seeds_differ(self):
        a = random_frame(R, 2, 1, 3, 7)
        b = random_frame(R, 2, 1, 3, 8)
        assert any(not np.array_equal(x.array, y.array) for x, y in zip(a.bases, b.bases))

    @pytest.mark.parametrize("field", [R, C])
    def test_orthonormal_columns(self, field):
        f = random_frame(field, 6, 3, 4, 19)
        for b in f.bases:
            defect = np.linalg.norm(b.array.conj().T @ b.array - np.eye(3))
            assert defect < 1e-12

    def test_generic_frame_certifies_nothing(self):
        cert = certify(random_frame(R, 4, 2, 3, 1))
        assert not (cert.is_tight or cert.is_equichordal or cert.is_equiisoclinic)

    @pytest.mark.parametrize("field", [R, C])
    @pytest.mark.parametrize("d, c, n", [(2, 1, 1), (4, 2, 3), (6, 3, 9), (5, 5, 4), (20, 2, 40)])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_per_basis_loop(self, field, d, c, n, seed):
        # Reference: one Gaussian draw (real part, then imaginary part) and
        # one orthonormalization per basis.
        rng = np.random.default_rng(seed)
        bases = []
        for _ in range(n):
            a = rng.standard_normal((d, c))
            if field is C:
                a = a + 1j * rng.standard_normal((d, c))
            bases.append(orthonormalize(Mat(a, field)).array)
        f = random_frame(field, d, c, n, seed)
        assert f.array.dtype == bases[0].dtype
        assert f.array.tobytes() == np.stack(bases).tobytes()

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            random_frame(R, 2, 3, 2, 0)
        with pytest.raises(ValueError, match="^need n >= 1, got n = 0$"):
            random_frame(R, 2, 1, 0, 0)
