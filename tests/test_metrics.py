import math

import numpy as np
import pytest

from grasspack.construct import random_frame, regular_simplex, tensor_eitff
from grasspack.linalg import FieldTag, Mat
from grasspack.metrics import (
    FusionFrame,
    PrincipalAngles,
    SubspaceBasis,
    _block_matrix,
    chordal_distance_sq,
    coherence,
    cross_gramian,
    fusion_frame_operator,
    fusion_gram,
    geodesic_distance,
    min_chordal_packing,
    principal_angles,
    projection,
    spectral_distance_sq,
    traceless_embed,
)

from conftest import gaussian_matrix, random_unitary

R = FieldTag.REAL
C = FieldTag.COMPLEX


def basis(cols, field=R):
    return SubspaceBasis(Mat(np.asarray(cols, dtype=complex if field is C else float), field))


def span_e(d, idxs, field=R):
    eye = np.eye(d)
    return basis(eye[:, list(idxs)], field)


def rotation_line(t):
    return basis([[math.cos(t)], [math.sin(t)]])


class TestTypes:
    def test_subspace_basis_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            basis([[1.0], [1.0]])

    def test_subspace_basis_rejects_wide(self):
        with pytest.raises(ValueError, match="tall"):
            basis([[1.0, 0.0]])

    def test_frame_rejects_mixed_shapes(self):
        with pytest.raises(ValueError, match="basis 2"):
            FusionFrame([span_e(2, [0]), span_e(3, [0])])

    def test_frame_needs_a_subspace(self):
        with pytest.raises(ValueError, match="^frame needs at least one subspace$"):
            FusionFrame([])

    def test_frame_rejects_mixed_fields(self):
        with pytest.raises(ValueError, match="basis 2"):
            FusionFrame([span_e(2, [0], R), span_e(2, [0], C)])

    def test_frame_properties(self):
        f = FusionFrame([span_e(3, [0, 1]), span_e(3, [1, 2])])
        assert (f.n, f.d, f.c, f.field) == (2, 3, 2, R)


class TestFrameArray:
    @pytest.mark.parametrize("field, dtype", [(R, np.float64), (C, np.complex128)])
    def test_one_read_only_stack(self, field, dtype):
        f = random_frame(field, 4, 2, 5, 3)
        assert f.array.shape == (5, 4, 2) and f.array.dtype == dtype
        assert f.array.flags.c_contiguous
        with pytest.raises(ValueError):
            f.array[0, 0, 0] = 1.0
        for a, b in zip(f.array, f.bases):
            assert np.array_equal(a, b.array)

    @pytest.mark.parametrize("field", [R, C])
    def test_bases_are_read_only_views(self, field):
        f = random_frame(field, 4, 2, 5, 3)
        for j, b in enumerate(f.bases):
            assert np.shares_memory(b.array, f.array[j])
            assert b.array.dtype == f.array.dtype and b.field is field
            assert not b.array.flags.writeable
            assert np.array_equal(b.array, f.array[j])

    @pytest.mark.parametrize("field", [R, C])
    def test_subspace_basis_stores_the_field_dtype(self, field):
        b = span_e(3, [0, 2], field)
        assert b.array.dtype == (np.float64 if field is R else np.complex128)
        assert not b.array.flags.writeable

    def test_from_arrays_copies_its_input(self):
        data = np.eye(4)[:, :2][None].repeat(2, axis=0)
        data[1] = np.eye(4)[:, 2:]
        f = FusionFrame.from_arrays(data)
        data[0, 0, 0] = 5.0
        assert f.array[0, 0, 0] == 1.0

    @pytest.mark.parametrize("field", [R, C])
    def test_both_constructors_agree(self, field):
        f = random_frame(field, 3, 2, 4, 8)
        g = FusionFrame(f.bases)
        h = FusionFrame.from_arrays([b.array for b in f.bases], field)
        assert f == g == h
        assert f.array.tobytes() == g.array.tobytes() == h.array.tobytes()

    def test_field_inferred_from_entries(self):
        assert FusionFrame.from_arrays([[[1.0]], [[-1.0]]]).field is R
        assert FusionFrame.from_arrays([[[1.0]], [[1j]]]).field is C

    @pytest.mark.parametrize("field, zero", [(R, -0.0), (C, complex(-0.0, -0.0))])
    def test_hash_agrees_with_equality_on_signed_zeros(self, field, zero):
        a = FusionFrame.from_arrays([[[0.0], [1.0]], [[1.0], [0.0]]], field)
        b = FusionFrame.from_arrays([[[zero], [1.0]], [[1.0], [zero]]], field)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([[np.nan], [0.0]], "finite"),
            ([[np.inf], [0.0]], "finite"),
            ([[1.0], [1.0]], "orthonormal"),
        ],
    )
    def test_names_failing_basis(self, bad, message):
        arrays = [[[1.0], [0.0]], [[0.0], [1.0]], bad]
        with pytest.raises(ValueError, match=f"basis 3: .*{message}"):
            FusionFrame.from_arrays(arrays)

    def test_names_first_failing_basis(self):
        arrays = [[[1.0], [0.0]], [[2.0], [0.0]], [[np.nan], [0.0]]]
        with pytest.raises(ValueError, match="basis 2: columns not orthonormal"):
            FusionFrame.from_arrays(arrays)

    def test_tolerance_applies_per_basis(self):
        arrays = [[[1.0], [0.0]], [[1.0 + 1e-6], [0.0]]]
        with pytest.raises(ValueError, match="basis 2"):
            FusionFrame.from_arrays(arrays)
        assert FusionFrame.from_arrays(arrays, tol=1e-5).n == 2

    def test_real_tag_rejects_imaginary_parts(self):
        with pytest.raises(ValueError, match="basis 2: .*imaginary"):
            FusionFrame.from_arrays([[[1.0]], [[1j]]], R)

    @pytest.mark.parametrize(
        "arrays, message",
        [
            ([], "at least one"),
            ([[[1.0]], [[1.0], [0.0]]], "same shape"),
            ([[1.0, 0.0]], "2-d"),
            ([np.zeros((2, 0))], "non-empty"),
            ([[[1.0, 0.0]]], "tall"),
        ],
    )
    def test_rejects_bad_shapes(self, arrays, message):
        with pytest.raises(ValueError, match=message):
            FusionFrame.from_arrays(arrays)


class TestProjection:
    def test_coordinate_line(self):
        p = projection(span_e(2, [0]))
        assert np.allclose(p.array, np.diag([1.0, 0.0]), atol=1e-15)

    def test_coordinate_plane(self):
        p = projection(span_e(3, [0, 1]))
        assert np.allclose(p.array, np.diag([1.0, 1.0, 0.0]), atol=1e-15)

    def test_diagonal_line_by_hand(self):
        b = basis(np.array([[1.0], [1.0]]) / math.sqrt(2))
        assert np.allclose(projection(b).array, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_projection_properties(self, rng):
        b = SubspaceBasis(Mat(np.linalg.qr(gaussian_matrix(5, 2, C, rng))[0], C))
        p = projection(b).array
        assert np.allclose(p, p.conj().T, atol=1e-14)
        assert np.allclose(p @ p, p, atol=1e-13)
        assert np.trace(p).real == pytest.approx(2.0, abs=1e-12)


class TestCrossGramian:
    def test_same_subspace(self):
        b = span_e(3, [0, 1])
        assert np.allclose(cross_gramian(b, b).array, np.eye(2), atol=1e-15)

    def test_orthogonal(self):
        g = cross_gramian(span_e(4, [0, 1]), span_e(4, [2, 3]))
        assert np.allclose(g.array, 0.0, atol=1e-15)

    def test_planar_rotation(self):
        t = 0.3
        g = cross_gramian(span_e(2, [0]), rotation_line(t))
        assert g.array[0, 0] == pytest.approx(math.cos(t), abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="not comparable"):
            cross_gramian(span_e(2, [0]), span_e(3, [0]))

    def test_singular_values_bounded(self, rng):
        f = random_frame(C, 5, 2, 2, 11)
        s = np.linalg.svd(cross_gramian(f.bases[0], f.bases[1]).array, compute_uv=False)
        assert np.all(s <= 1.0 + 1e-12)


class TestFusionGram:
    def test_orthogonal_subspaces(self):
        f = FusionFrame([span_e(4, [0, 1]), span_e(4, [2, 3])])
        assert np.allclose(fusion_gram(f).array, np.eye(4), atol=1e-15)

    def test_simplex_off_diagonals(self):
        g = fusion_gram(regular_simplex(3)).array
        expected = np.full((3, 3), -0.5) + 1.5 * np.eye(3)
        assert np.allclose(g.real, expected, atol=1e-14)
        assert np.allclose(g.imag, 0.0, atol=1e-15)

    def test_tensor_frame_block_structure(self):
        etf = regular_simplex(3)
        f = tensor_eitff(etf, 2)
        lhs = fusion_gram(f).array
        rhs = np.kron(fusion_gram(etf).array, np.eye(2))
        assert np.allclose(lhs, rhs, atol=1e-14)

    def test_self_adjoint_by_construction(self, rng):
        f = random_frame(C, 4, 2, 3, 3)
        g = fusion_gram(f).array
        assert np.array_equal(g, g.conj().T)

    @pytest.mark.parametrize("field", [R, C], ids=["R", "C"])
    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_single_subspace_is_the_identity(self, field, c):
        g = fusion_gram(random_frame(field, 4, c, 1, 0))
        assert g.field is field
        assert np.array_equal(g.array, np.eye(c))


@pytest.mark.parametrize("field", [R, C], ids=["R", "C"])
@pytest.mark.parametrize("c", [1, 2, 3])
@pytest.mark.parametrize("identity", [True, False])
@pytest.mark.parametrize("n", [2, 4, 9])
def test_block_matrix_matches_a_pair_loop(rng, n, field, c, identity):
    pairs = np.stack([gaussian_matrix(c, c, field, rng) for _ in range(n * (n - 1) // 2)])
    ref = np.zeros((n * c, n * c), dtype=pairs.dtype)
    pair_list = [(j, jj) for j in range(n) for jj in range(j + 1, n)]
    for (j, jj), g in zip(pair_list, pairs):
        ref[j * c : (j + 1) * c, jj * c : (jj + 1) * c] = g
        ref[jj * c : (jj + 1) * c, j * c : (j + 1) * c] = g.conj().T
    if identity:
        ref += np.eye(n * c)
    out = _block_matrix(pairs, n, identity)
    assert out.dtype == pairs.dtype
    assert np.array_equal(out, ref)


class TestFusionFrameOperator:
    def test_orthonormal_decomposition(self):
        f = FusionFrame([span_e(2, [0]), span_e(2, [1])])
        assert np.allclose(fusion_frame_operator(f).array, np.eye(2), atol=1e-15)

    def test_simplex_by_hand(self):
        # Three rank-1 projections at 120 degrees sum to (3/2) I.
        s = fusion_frame_operator(regular_simplex(3)).array
        assert np.allclose(s, 1.5 * np.eye(2), atol=1e-14)

    def test_single_subspace(self):
        b = span_e(3, [0, 2])
        f = FusionFrame([b])
        assert np.allclose(fusion_frame_operator(f).array, projection(b).array, atol=1e-15)

    def test_trace_is_nc(self, rng):
        f = random_frame(C, 6, 2, 4, 5)
        assert np.trace(fusion_frame_operator(f).array).real == pytest.approx(8.0, abs=1e-10)


class TestPrincipalAngles:
    @pytest.mark.parametrize(
        "thetas, message",
        [
            pytest.param([], "form a non-empty 1-d", id="empty"),
            pytest.param([[0.1]], "form a non-empty 1-d", id="2-d"),
            pytest.param([-0.1], r"lie in \[0, pi/2\]", id="negative"),
            pytest.param([1.6], r"lie in \[0, pi/2\]", id="above-pi/2"),
            pytest.param([0.5, 0.1], "be nondecreasing", id="decreasing"),
        ],
    )
    def test_rejects_invalid_angles(self, thetas, message):
        with pytest.raises(ValueError, match=f"^principal angles must {message}"):
            PrincipalAngles(thetas)

    def test_identical_subspaces(self):
        b = span_e(3, [0, 1])
        assert np.allclose(principal_angles(b, b).thetas, 0.0, atol=1e-7)

    def test_shared_line_plus_orthogonal(self):
        pa = principal_angles(span_e(3, [0, 1]), span_e(3, [0, 2]))
        assert np.allclose(pa.thetas, [0.0, math.pi / 2], atol=1e-7)

    @pytest.mark.parametrize("t", [0.0, 0.2, 1.0, math.pi / 2])
    def test_planar_rotation(self, t):
        pa = principal_angles(span_e(2, [0]), rotation_line(t))
        assert pa.thetas[0] == pytest.approx(t, abs=1e-7)

    def test_nondecreasing(self, rng):
        f = random_frame(C, 6, 3, 2, 9)
        th = principal_angles(f.bases[0], f.bases[1]).thetas
        assert np.all(np.diff(th) >= -1e-12)
        assert len(th) == 3


class TestDistances:
    def test_chordal_zero_one_c(self):
        a, b = span_e(3, [0, 1]), span_e(3, [0, 2])
        assert chordal_distance_sq(a, a) == pytest.approx(0.0, abs=1e-14)
        assert chordal_distance_sq(a, b) == pytest.approx(1.0, abs=1e-14)
        assert chordal_distance_sq(span_e(4, [0, 1]), span_e(4, [2, 3])) == pytest.approx(2.0, abs=1e-14)

    def test_spectral(self):
        a, b = span_e(3, [0, 1]), span_e(3, [0, 2])
        assert spectral_distance_sq(a, a) == pytest.approx(0.0, abs=1e-14)
        assert spectral_distance_sq(a, b) == pytest.approx(0.0, abs=1e-14)  # shared line
        assert spectral_distance_sq(span_e(2, [0]), span_e(2, [1])) == pytest.approx(1.0, abs=1e-14)

    def test_geodesic(self):
        a = span_e(4, [0, 1])
        assert geodesic_distance(a, a) == pytest.approx(0.0, abs=1e-7)
        b = span_e(4, [2, 3])
        assert geodesic_distance(a, b) == pytest.approx(math.pi / math.sqrt(2), abs=1e-12)
        t = 0.7
        assert geodesic_distance(span_e(2, [0]), rotation_line(t)) == pytest.approx(t, abs=1e-12)

    def test_full_spaces_distance_zero(self, rng):
        # c = d is allowed for every metric; full spaces coincide.
        f = random_frame(C, 3, 3, 2, 13)
        assert chordal_distance_sq(f.bases[0], f.bases[1]) == pytest.approx(0.0, abs=1e-12)


class TestFrameMetrics:
    def test_min_packing_identical(self):
        b = span_e(2, [0])
        assert min_chordal_packing(FusionFrame([b, b])) == pytest.approx(0.0, abs=1e-14)

    def test_min_packing_coordinate_lines(self):
        f = FusionFrame([span_e(3, [0]), span_e(3, [1]), span_e(3, [2])])
        assert min_chordal_packing(f) == pytest.approx(1.0, abs=1e-14)

    def test_min_packing_simplex(self):
        # 1 - coherence^2 with coherence 1/2.
        assert min_chordal_packing(regular_simplex(3)) == pytest.approx(0.75, abs=1e-12)

    def test_min_packing_needs_two(self):
        with pytest.raises(ValueError, match=r"^need n >= 2, got n = 1$"):
            min_chordal_packing(FusionFrame([span_e(2, [0])]))

    def test_coherence_orthonormal(self):
        f = FusionFrame([span_e(3, [0]), span_e(3, [1]), span_e(3, [2])])
        assert coherence(f) == pytest.approx(0.0, abs=1e-14)

    def test_coherence_antipodal(self):
        f = FusionFrame.from_arrays([[[1.0]], [[-1.0]]])
        assert coherence(f) == pytest.approx(1.0, abs=1e-14)

    def test_coherence_simplex(self):
        assert coherence(regular_simplex(3)) == pytest.approx(0.5, abs=1e-12)

    def test_coherence_needs_vectors(self):
        f = random_frame(R, 4, 2, 3, 1)
        with pytest.raises(ValueError, match="c = 1"):
            coherence(f)


class TestTracelessEmbed:
    def test_line_in_plane(self):
        q = traceless_embed(span_e(2, [0]))
        assert np.allclose(q.array, np.diag([1.0, -1.0]) / math.sqrt(2), atol=1e-15)

    def test_unit_norm_and_traceless(self, rng):
        for field in (R, C):
            f = random_frame(field, 5, 2, 1, 23)
            q = traceless_embed(f.bases[0]).array
            assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-12)
            assert abs(np.trace(q)) < 1e-12
            assert np.allclose(q, q.conj().T, atol=1e-14)

    def test_orthogonal_lines_inner_product(self):
        q1 = traceless_embed(span_e(2, [0])).array
        q2 = traceless_embed(span_e(2, [1])).array
        assert np.vdot(q1, q2).real == pytest.approx(-1.0, abs=1e-14)

    def test_inner_product_identity(self, rng):
        # <Q1, Q2> = (d/(c(d-c))) (<P1, P2> - c^2/d) for random pairs.
        d, c = 6, 2
        f = random_frame(C, d, c, 2, 37)
        p1 = projection(f.bases[0]).array
        p2 = projection(f.bases[1]).array
        lhs = np.vdot(traceless_embed(f.bases[0]).array, traceless_embed(f.bases[1]).array).real
        rhs = d / (c * (d - c)) * (np.vdot(p1, p2).real - c * c / d)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_full_space_rejected(self):
        f = random_frame(R, 3, 3, 1, 2)
        with pytest.raises(ValueError, match="c < d"):
            traceless_embed(f.bases[0])


class TestInvariants:
    def test_basis_invariance(self, rng):
        for field in (R, C):
            f = random_frame(field, 5, 2, 2, 101)
            b1, b2 = f.bases
            u1 = random_unitary(2, field, rng)
            u2 = random_unitary(2, field, rng)
            r1 = SubspaceBasis(Mat(b1.array @ u1, field))
            r2 = SubspaceBasis(Mat(b2.array @ u2, field))
            assert chordal_distance_sq(r1, r2) == pytest.approx(chordal_distance_sq(b1, b2), abs=1e-10)
            assert spectral_distance_sq(r1, r2) == pytest.approx(spectral_distance_sq(b1, b2), abs=1e-10)
            assert geodesic_distance(r1, r2) == pytest.approx(geodesic_distance(b1, b2), abs=1e-10)
            assert np.allclose(
                principal_angles(r1, r2).thetas, principal_angles(b1, b2).thetas, atol=1e-10
            )
            # Operator-valued descriptors are basis-invariant outright.
            assert np.allclose(projection(r1).array, projection(b1).array, atol=1e-10)
            assert np.allclose(traceless_embed(r1).array, traceless_embed(b1).array, atol=1e-10)
            rotated_frame = FusionFrame([r1, r2])
            assert np.allclose(
                fusion_frame_operator(rotated_frame).array,
                fusion_frame_operator(f).array,
                atol=1e-10,
            )

    def test_distance_oracle_equivalence(self, rng):
        # Three independent routes to the squared chordal distance.
        for field in (R, C):
            for _ in range(10):
                d, c = 6, 3
                a1 = np.linalg.qr(gaussian_matrix(d, c, field, rng))[0]
                a2 = np.linalg.qr(gaussian_matrix(d, c, field, rng))[0]
                proj_route = 0.5 * np.linalg.norm(a1 @ a1.conj().T - a2 @ a2.conj().T) ** 2
                gram = a1.conj().T @ a2
                gram_route = c - np.linalg.norm(gram) ** 2
                s = np.clip(np.linalg.svd(gram, compute_uv=False), 0.0, 1.0)
                angle_route = float(np.sum(np.sin(np.arccos(s)) ** 2))
                via_lib = chordal_distance_sq(
                    SubspaceBasis(Mat(a1, field)), SubspaceBasis(Mat(a2, field))
                )
                for x in (proj_route, gram_route, angle_route):
                    assert via_lib == pytest.approx(x, abs=1e-9)

    def test_symmetry(self, rng):
        f = random_frame(C, 5, 2, 2, 55)
        b1, b2 = f.bases
        assert abs(chordal_distance_sq(b1, b2) - chordal_distance_sq(b2, b1)) < 1e-12
        assert abs(spectral_distance_sq(b1, b2) - spectral_distance_sq(b2, b1)) < 1e-12
        assert abs(geodesic_distance(b1, b2) - geodesic_distance(b2, b1)) < 1e-12

    def test_frobenius_bounded_by_c_times_spectral(self, rng):
        for field in (R, C):
            for seed in range(5):
                f = random_frame(field, 6, 3, 2, 300 + seed)
                g = cross_gramian(f.bases[0], f.bases[1]).array
                frob_sq = np.linalg.norm(g) ** 2
                spec_sq = np.linalg.svd(g, compute_uv=False)[0] ** 2
                assert frob_sq <= 3 * spec_sq + 1e-12
