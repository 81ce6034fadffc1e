import importlib
import math
import tracemalloc

import numpy as np
import pytest

from grasspack.bounds import welch_bound
from grasspack.certify import (
    certify,
    is_equiangular,
    is_equichordal,
    is_equiisoclinic,
    is_etf,
    is_regular_simplex,
    is_tight_fusion_frame,
    is_unit_norm_tight_frame,
)
from grasspack.construct import harmonic_etf, orthoplex, random_frame, regular_simplex, tensor_eitff, DifferenceSet
from grasspack.linalg import FieldTag, Mat, NumericalError
from grasspack import metrics
from grasspack.metrics import FusionFrame, SubspaceBasis, _pair_blocks, _pair_products, coherence, cross_gramian

from conftest import random_unitary

# The module, not the certify function that grasspack re-exports under its name.
certify_module = importlib.import_module("grasspack.certify")

R = FieldTag.REAL
C = FieldTag.COMPLEX

SQ2 = math.sqrt(2)


def vec_frame(columns, field=R):
    return FusionFrame.from_arrays([np.asarray(col).reshape(-1, 1) for col in columns], field)


@pytest.fixture
def e_pair():
    return vec_frame([[1.0, 0.0], [0.0, 1.0]])


@pytest.fixture
def skewed_triple():
    # {e1, e2, (e1+e2)/sqrt(2)}: inner products 0, 1/sqrt(2), 1/sqrt(2).
    return vec_frame([[1.0, 0.0], [0.0, 1.0], [1 / SQ2, 1 / SQ2]])


class TestTightness:
    def test_orthonormal_basis_tight(self, e_pair):
        res = is_tight_fusion_frame(e_pair)
        assert res.flag and res.alpha == 1.0 and res.residual < 1e-14

    def test_simplex_tight(self):
        res = is_tight_fusion_frame(regular_simplex(3))
        assert res.flag
        assert res.alpha == pytest.approx(1.5)

    def test_repeated_vector_not_tight(self):
        f = vec_frame([[1.0, 0.0], [1.0, 0.0]])
        res = is_tight_fusion_frame(f)
        assert not res.flag
        assert res.residual > 0.1


class TestEquichordal:
    def test_orthogonal_subspaces(self):
        f = FusionFrame.from_arrays([np.eye(4)[:, :2], np.eye(4)[:, 2:]])
        res = is_equichordal(f)
        assert res.flag and res.beta == pytest.approx(0.0, abs=1e-14)

    def test_skewed_triple_not_equichordal(self, skewed_triple):
        # Pairwise squared overlaps are 0, 1/2, 1/2.
        res = is_equichordal(skewed_triple)
        assert not res.flag
        assert res.deviation == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_two_subspaces_vacuous(self):
        f = random_frame(C, 4, 2, 2, 77)
        assert is_equichordal(f).flag

    def test_needs_two(self):
        f = random_frame(R, 3, 1, 1, 0)
        with pytest.raises(ValueError):
            is_equichordal(f)


class TestEquiisoclinic:
    def test_orthogonal_subspaces(self):
        f = FusionFrame.from_arrays([np.eye(4)[:, :2], np.eye(4)[:, 2:]])
        res = is_equiisoclinic(f)
        assert res.flag and res.sigma_sq == pytest.approx(0.0, abs=1e-14)

    def test_equiangular_lines_are_equiisoclinic(self):
        f = regular_simplex(4)
        res = is_equiisoclinic(f)
        assert res.flag
        assert res.sigma_sq == pytest.approx(coherence(f) ** 2, abs=1e-12)

    def test_tensor_frame_sigma_by_svd_oracle(self):
        f = tensor_eitff(regular_simplex(3), 2)
        # Oracle: every cross-Gramian has both singular values equal to 1/2.
        for j, jj in f.pairs():
            s = np.linalg.svd(cross_gramian(f.bases[j], f.bases[jj]).array, compute_uv=False)
            assert np.allclose(s, 0.5, atol=1e-12)
        res = is_equiisoclinic(f)
        assert res.flag
        assert res.sigma_sq == pytest.approx(0.25, abs=1e-12)

    def test_generic_frame_fails(self):
        res = is_equiisoclinic(random_frame(R, 4, 2, 3, 1))
        assert not res.flag

    @pytest.mark.parametrize("field", [R, C], ids=["R", "C"])
    def test_takes_no_svd(self, field, monkeypatch):
        f = random_frame(field, 6, 2, 12, 0)
        expected = is_equiisoclinic(f)

        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        assert is_equiisoclinic(f) == expected
        with pytest.raises(NumericalError):
            certify(f)

    @pytest.mark.parametrize("field", [R, C], ids=["R", "C"])
    def test_deviation_over_several_chunks(self, field, monkeypatch):
        # 66 pairs in chunks of 7: the last chunk is partial. Each pair's
        # norms are the ones one chunk gives and the ones a stacked
        # matmul M = G* G gives, and a NaN in any block reaches the
        # deviation.
        blocks = _pair_blocks(random_frame(field, 6, 2, 12, 0).array)
        whole = _pair_products(blocks, metrics._frobenius_sq(blocks))
        monkeypatch.setattr(metrics, "_PRODUCT_CHUNK", 7)
        chunked = _pair_products(blocks, metrics._frobenius_sq(blocks))
        assert all(np.array_equal(a, b) for a, b in zip(chunked, whole))
        fourth, dev_sq, sigma_sq = chunked
        m = blocks.conj().swapaxes(-2, -1) @ blocks
        assert np.allclose(fourth, np.linalg.norm(m, axis=(1, 2)) ** 2, rtol=0.0, atol=1e-13)
        assert np.allclose(dev_sq, np.linalg.norm(m - sigma_sq * np.eye(2), axis=(1, 2)) ** 2, rtol=0.0, atol=1e-13)
        blocks = blocks.copy()
        blocks[60, 1, 0] = math.nan
        _, dev_sq, sigma_sq = _pair_products(blocks, metrics._frobenius_sq(blocks))
        res = certify_module._equiisoclinic(dev_sq, sigma_sq, 2, 1e-8)
        assert math.isnan(res.deviation) and not res.flag


def test_pair_products_keep_no_stack_of_products():
    # The 79,800 pairs of a (C,20,2,400) frame: their blocks take 5.1 MB,
    # and only per-pair norms and one chunk's temporaries may outlive a
    # step of the loop.
    blocks = _pair_blocks(random_frame(C, 20, 2, 400, 0).array)
    tracemalloc.start()
    try:
        _pair_products(blocks, metrics._frobenius_sq(blocks))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < blocks.nbytes


class TestCertify:
    def test_orthonormal_pair_is_eitff(self, e_pair):
        cert = certify(e_pair)
        assert cert.is_ectff and cert.is_eitff
        assert cert.beta == pytest.approx(0.0, abs=1e-14)
        assert cert.sigma_sq == pytest.approx(0.0, abs=1e-14)
        assert cert.simplex_gap == pytest.approx(0.0, abs=1e-14)
        assert cert.eitff_gap == pytest.approx(0.0, abs=1e-14)

    def test_simplex_certifies_at_welch(self):
        cert = certify(regular_simplex(3))
        assert cert.is_ectff and cert.is_eitff
        assert cert.sigma_sq == pytest.approx(welch_bound(3, 2), abs=1e-12)
        assert cert.alpha == pytest.approx(1.5)

    def test_generic_frame_has_no_flags(self):
        cert = certify(random_frame(R, 4, 2, 3, 1))
        assert not cert.is_tight
        assert not cert.is_equichordal
        assert not cert.is_equiisoclinic
        assert not cert.is_ectff
        assert not cert.is_eitff
        assert cert.simplex_gap > 0

    def test_orthoplex_gap_only_past_gerzon(self):
        assert certify(regular_simplex(3)).orthoplex_gap is None
        big = orthoplex(2)  # n = 4 > 3 = gerzon(2, R)
        cert = certify(big)
        assert cert.orthoplex_gap == pytest.approx(1.0 - 0.5, abs=1e-12)

    def test_needs_two(self):
        with pytest.raises(ValueError):
            certify(random_frame(R, 3, 1, 1, 0))


class TestVectorPredicates:
    def test_unit_norm_tight(self, e_pair):
        res = is_unit_norm_tight_frame(e_pair)
        assert res.flag and res.alpha == 1.0

        res = is_unit_norm_tight_frame(regular_simplex(3))
        assert res.flag and res.alpha == pytest.approx(1.5)

        res = is_unit_norm_tight_frame(vec_frame([[1.0, 0.0], [1.0, 0.0]]))
        assert not res.flag

    def test_unit_norm_tight_requires_vectors(self):
        with pytest.raises(ValueError, match="c = 1"):
            is_unit_norm_tight_frame(random_frame(R, 4, 2, 2, 0))

    def test_equiangular(self, e_pair, skewed_triple):
        assert is_equiangular(e_pair).flag
        res = is_equiangular(regular_simplex(5))
        assert res.flag
        assert res.beta == pytest.approx(1.0 / 16.0, abs=1e-12)
        assert not is_equiangular(skewed_triple).flag

    def test_etf(self, skewed_triple):
        assert is_etf(regular_simplex(4))
        assert is_etf(vec_frame([[1.0, 0.0], [0.0, 1.0]]))  # orthonormal basis, beta = 0
        assert not is_etf(orthoplex(2))  # |<.,.>| takes values 0 and 1
        assert not is_etf(skewed_triple)

    @pytest.mark.parametrize("f", [regular_simplex(4), harmonic_etf(DifferenceSet(7, [1, 2, 4]))], ids=["R", "C"])
    def test_c1_verdicts_take_no_svd(self, f, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        assert is_etf(f)
        cert = certify(f)
        assert cert.is_ectff and cert.is_eitff

    def test_regular_simplex_predicate(self):
        for n in range(2, 9):
            assert is_regular_simplex(regular_simplex(n))
        assert not is_regular_simplex(vec_frame([[1.0, 0.0], [0.0, 1.0]]))
        # Negating one vector flips its Gram entries to +1/(n-1).
        f = regular_simplex(3)
        flipped = FusionFrame(
            [f.bases[0], f.bases[1], SubspaceBasis(Mat(-f.bases[2].array, R))]
        )
        assert not is_regular_simplex(flipped)


class TestCertifyInvariants:
    def test_eitff_implies_ectff(self):
        frames = [
            regular_simplex(3),
            tensor_eitff(regular_simplex(3), 2),
            random_frame(C, 4, 2, 3, 8),
            harmonic_etf(DifferenceSet(7, [1, 2, 4])),
        ]
        for f in frames:
            cert = certify(f)
            assert not cert.is_eitff or cert.is_ectff

    def test_c1_ectff_equals_eitff(self):
        frames = [
            regular_simplex(4),
            orthoplex(2),
            harmonic_etf(DifferenceSet(7, [1, 2, 4])),
            random_frame(R, 3, 1, 5, 4),
            random_frame(C, 3, 1, 4, 9),
        ]
        for f in frames:
            cert = certify(f)
            assert cert.is_ectff == cert.is_eitff

    def test_sigma_sq_is_beta_over_c_when_eitff(self):
        for f in (tensor_eitff(regular_simplex(3), 2), tensor_eitff(harmonic_etf(DifferenceSet(7, [1, 2, 4])), 3)):
            cert = certify(f)
            assert cert.is_eitff
            assert cert.sigma_sq == pytest.approx(cert.beta / f.c, abs=1e-9)

    def test_certificate_basis_invariance(self, rng):
        f = tensor_eitff(regular_simplex(3), 2)
        rotated = FusionFrame(
            SubspaceBasis(Mat(b.array @ random_unitary(f.c, f.field, rng), f.field))
            for b in f.bases
        )
        a, b = certify(f), certify(rotated)
        assert (a.is_tight, a.is_equichordal, a.is_equiisoclinic, a.is_ectff, a.is_eitff) == (
            b.is_tight, b.is_equichordal, b.is_equiisoclinic, b.is_ectff, b.is_eitff,
        )
        assert a.beta == pytest.approx(b.beta, abs=1e-10)
        assert a.sigma_sq == pytest.approx(b.sigma_sq, abs=1e-10)
        assert a.alpha == b.alpha

    def test_polarization_identity_on_tight_frames(self, rng):
        # Tight frames satisfy sum_j ||basis_j* x||^2 = alpha ||x||^2.
        f = tensor_eitff(regular_simplex(3), 2)
        cert = certify(f)
        assert cert.is_tight
        for _ in range(50):
            x = rng.standard_normal(f.d)
            x /= np.linalg.norm(x)
            total = sum(float(np.linalg.norm(b.array.conj().T @ x) ** 2) for b in f.bases)
            assert total == pytest.approx(cert.alpha, abs=1e-9)
