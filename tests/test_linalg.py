import ast
from pathlib import Path

import numpy as np
import pytest

import grasspack
from grasspack.linalg import FieldTag, Mat, NumericalError, _eigh, _qr_columns, _svd, orthonormalize, singular_values

from conftest import gaussian_matrix

R = FieldTag.REAL
C = FieldTag.COMPLEX


class TestMat:
    def test_field_inference(self):
        assert Mat([[1.0, 2.0]]).field is R
        assert Mat([[1.0 + 0j, 2.0]]).field is C

    def test_real_tag_rejects_imaginary_parts(self):
        with pytest.raises(ValueError, match="imaginary"):
            Mat([[1j]], R)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Mat([[np.inf, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            Mat([[np.nan]])

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            Mat([1.0, 2.0])
        with pytest.raises(ValueError):
            Mat(np.zeros((2, 0)))

    @pytest.mark.parametrize("data, field, dtype", [
        ([[1.0, 2.0]], R, np.float64),
        ([[1 + 0j, 2.0]], R, np.float64),
        ([[1, 2]], R, np.float64),
        ([[1.0, 2.0]], C, np.complex128),
        ([[1j, 2.0]], None, np.complex128),
    ])
    def test_stores_the_field_dtype(self, data, field, dtype):
        m = Mat(data, field)
        assert m.array.dtype == dtype
        assert m.array.tolist() == np.asarray(data).tolist()

    def test_array_is_frozen(self):
        m = Mat([[1.0, 2.0]])
        with pytest.raises(ValueError):
            m.array[0, 0] = 3.0

    def test_equality(self):
        assert Mat([[1.0]]) == Mat([[1.0]])
        assert Mat([[1.0]]) != Mat([[2.0]])
        assert Mat([[1.0]], R) != Mat([[1.0]], C)

    @pytest.mark.parametrize("field, zero", [(R, -0.0), (C, complex(-0.0, -0.0))])
    def test_hash_agrees_with_equality_on_signed_zeros(self, field, zero):
        a = Mat([[0.0], [1.0]], field)
        b = Mat([[zero], [1.0]], field)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


class TestSingularValues:
    def test_diagonal(self):
        s = singular_values(Mat(np.diag([3.0, 1.0])))
        assert np.allclose(s, [3.0, 1.0], atol=1e-14)

    def test_isometry_gives_ones(self, rng):
        q = orthonormalize(Mat(gaussian_matrix(5, 3, R, rng)))
        assert np.allclose(singular_values(q), 1.0, atol=1e-12)

    def test_rank_one_ones_matrix(self):
        # a^T a = [[2,2],[2,2]] has eigenvalues 4 and 0, so the singular
        # values are 2 and 0.
        s = singular_values(Mat([[1.0, 1.0], [1.0, 1.0]]))
        assert np.allclose(s, [2.0, 0.0], atol=1e-14)

    def test_length_and_order(self, rng):
        s = singular_values(Mat(gaussian_matrix(3, 7, C, rng), C))
        assert len(s) == 3
        assert np.all(np.diff(s) <= 0)
        assert np.all(s >= 0)

    def test_parseval(self, rng):
        for field in (R, C):
            for _ in range(20):
                m = int(rng.integers(1, 17))
                n = int(rng.integers(1, 17))
                a = Mat(gaussian_matrix(m, n, field, rng), field)
                total = float(np.sum(singular_values(a) ** 2))
                assert total == pytest.approx(np.linalg.norm(a.array) ** 2, rel=1e-10)

    def test_norm_sandwich(self, rng):
        for _ in range(20):
            a = Mat(gaussian_matrix(6, 4, C, rng), C)
            spec = float(singular_values(a)[0])
            frob = float(np.linalg.norm(a.array))
            assert spec <= frob + 1e-12
            assert frob <= 2.0 * spec + 1e-12  # sqrt(min dim) = 2


class TestFactorizations:
    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    def test_svd_of_a_stack_reconstructs(self, rng, field):
        a = np.stack([gaussian_matrix(3, 3, field, rng) for _ in range(4)])
        u, s, vh = _svd(a)
        assert np.abs((u * s[..., None, :]) @ vh - a).max() <= 1e-12

    def test_eigh_of_a_self_adjoint_matrix(self, rng):
        a = gaussian_matrix(5, 5, FieldTag.COMPLEX, rng)
        h = a + a.conj().T
        w, v = _eigh(h)
        assert np.all(np.diff(w) >= 0.0)
        assert np.abs((v * w) @ v.conj().T - h).max() <= 1e-12

    @pytest.mark.parametrize("name, call", [("svd", lambda: _svd(np.eye(2))), ("eigh", lambda: _eigh(np.eye(2)))])
    def test_non_convergence_is_a_numerical_error(self, monkeypatch, name, call):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, name, no_convergence)
        with pytest.raises(NumericalError, match="failed to converge: did not converge$"):
            call()

    def test_factorizations_are_called_only_in_linalg(self):
        # Every SVD, eigendecomposition and QR goes through linalg, so that
        # each failure is a NumericalError and certify's pruned SVD gives
        # what an SVD of every pair would. A reference to an attribute or
        # an imported name svd, eigh or qr anywhere else breaks the rule.
        names = {"svd", "eigh", "qr"}
        found = []
        for path in sorted(Path(grasspack.__file__).parent.glob("*.py")):
            if path.name == "linalg.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Attribute) and node.attr in names:
                    found.append(f"{path.name}:{node.lineno} .{node.attr}")
                elif isinstance(node, ast.ImportFrom):
                    found += [f"{path.name}:{node.lineno} import {a.name}" for a in node.names if a.name in names]
        assert found == []


class TestOrthonormalize:
    def test_scaling(self):
        q = orthonormalize(Mat([[2.0], [0.0]]))
        assert np.allclose(q.array, [[1.0], [0.0]], atol=1e-15)

    def test_orthonormal_input_is_fixed_point(self, rng):
        for field in (R, C):
            q = orthonormalize(Mat(gaussian_matrix(6, 3, field, rng), field))
            again = orthonormalize(q)
            assert np.max(np.abs(again.array - q.array)) < 1e-12

    def test_gram_schmidt_oracle(self):
        # By hand: first column normalizes to e1, the second loses its
        # e1 component and normalizes to e2.
        q = orthonormalize(Mat([[1.0, 1.0], [0.0, 1.0]]))
        assert np.allclose(q.array, np.eye(2), atol=1e-15)

    def test_preserves_span_and_isometry(self, rng):
        a = Mat(gaussian_matrix(7, 3, C, rng), C)
        q = orthonormalize(a)
        assert np.allclose(q.array.conj().T @ q.array, np.eye(3), atol=1e-13)
        # Same span: projections agree.
        pa, _ = np.linalg.qr(a.array)
        assert np.allclose(pa @ pa.conj().T, q.array @ q.array.conj().T, atol=1e-12)

    def test_rank_deficient_raises(self):
        with pytest.raises(ValueError, match="rank"):
            orthonormalize(Mat([[1.0, 2.0], [2.0, 4.0]]))

    def test_wide_matrix_raises(self):
        with pytest.raises(ValueError, match="columns"):
            orthonormalize(Mat([[1.0, 0.0]]))

    def test_deterministic(self, rng):
        a = gaussian_matrix(5, 2, C, rng)
        q1 = orthonormalize(Mat(a, C))
        q2 = orthonormalize(Mat(a, C))
        assert q1.array.tobytes() == q2.array.tobytes()



class TestStackedRetraction:
    @pytest.mark.parametrize("shape", [(3, 2, 1), (7, 4, 2), (16, 6, 2), (40, 8, 3), (5, 5, 5)])
    def test_stack_is_bit_identical_to_loop(self, rng, shape):
        n, d, c = shape
        for field in (R, C):
            x = np.stack([gaussian_matrix(d, c, field, rng) for _ in range(n)])
            stacked = _qr_columns(x)
            looped = np.stack([_qr_columns(a) for a in x])
            assert stacked.dtype == looped.dtype
            assert stacked.tobytes() == looped.tobytes()
