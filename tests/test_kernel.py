"""The all-pairs Gramian kernel against per-pair reference loops.

Each reference below evaluates one pair (or one basis) at a time, the
way the library did before it computed all cross-Gramians as one fusion
Gram product. The kernel must agree with them to round-off.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from grasspack.bounds import eitff_bound, simplex_bound_gram
from grasspack.certify import certify, is_equichordal, is_equiisoclinic
from grasspack import metrics
from grasspack.construct import DifferenceSet, harmonic_etf, random_frame, regular_simplex, tensor_eitff
from grasspack.linalg import FieldTag, _qr_columns, _svals
from grasspack.metrics import (
    FusionFrame,
    _pair_blocks,
    coherence,
    cross_gramian,
    fusion_frame_operator,
    fusion_gram,
    min_chordal_packing,
)
from grasspack.optimize import (
    SPECTRAL_SMOOTHING_POWER,
    Criterion,
    _soft_max,
    smoothed_objective,
    smoothed_objective_and_gradient,
    worst_overlap,
)

from conftest import gaussian_matrix

R = FieldTag.REAL
C = FieldTag.COMPLEX
SIZES = (2, 3, 7, 16, 40)
CS = (1, 2, 3)
REL = 1e-13


def close(value, reference) -> bool:
    """Within REL of the reference, relative to max(|reference|, 1)."""
    return abs(value - reference) <= REL * max(abs(reference), 1.0)


def pairs(n):
    return [(j, jj) for j in range(n) for jj in range(j + 1, n)]


def ref_pair_value(g, criterion, power=SPECTRAL_SMOOTHING_POWER):
    if criterion is Criterion.CHORDAL_OVERLAP:
        return float(np.vdot(g, g).real)
    t = float(np.trace(np.linalg.matrix_power(g.conj().T @ g, power)).real)
    return t ** (1.0 / power) if t > 0.0 else 0.0


def ref_objective_and_gradient(mats, criterion, smoothing, power=SPECTRAL_SMOOTHING_POWER):
    ps = pairs(len(mats))
    grams = [mats[j].conj().T @ mats[jj] for j, jj in ps]
    vals = np.array([ref_pair_value(g, criterion, power) for g in grams])
    vmax = vals.max()
    weights = np.exp(smoothing * (vals - vmax))
    total = weights.sum()
    objective = float(vmax + math.log(total) / smoothing)
    weights /= total
    grads = [np.zeros_like(m) for m in mats]
    for (j, jj), w, g in zip(ps, weights, grams):
        if criterion is Criterion.CHORDAL_OVERLAP:
            grads[j] += (2.0 * w) * (mats[jj] @ g.conj().T)
            grads[jj] += (2.0 * w) * (mats[j] @ g)
        else:
            m = g.conj().T @ g
            t = float(np.trace(np.linalg.matrix_power(m, power)).real)
            if t <= 0.0:
                continue
            m_pm1 = np.linalg.matrix_power(m, power - 1)
            coef = 2.0 * w * t ** (1.0 / power - 1.0)
            grads[j] += coef * (mats[jj] @ m_pm1 @ g.conj().T)
            grads[jj] += coef * (mats[j] @ g @ m_pm1)
    return objective, grads


def ref_grams(f):
    return [cross_gramian(f.bases[j], f.bases[jj]).array for j, jj in f.pairs()]


def ref_worst_overlap(f, criterion):
    worst = 0.0
    for g in ref_grams(f):
        if criterion is Criterion.CHORDAL_OVERLAP:
            worst = max(worst, float(np.vdot(g, g).real))
        else:
            worst = max(worst, float(np.linalg.svd(g, compute_uv=False)[0]) ** 2)
    return worst


def ref_certify_pairs(f):
    """beta, its deviation, sigma_sq, its deviation, and the worst
    Frobenius and spectral overlaps, from one loop over the pairs."""
    grams = ref_grams(f)
    frob = [float(np.vdot(g, g).real) for g in grams]
    beta = float(np.mean(frob))
    sigma_sq = float(np.mean([v / f.c for v in frob]))
    eye = np.eye(f.c)
    return {
        "beta": beta,
        "beta_deviation": max(abs(v - beta) for v in frob),
        "sigma_sq": sigma_sq,
        "sigma_deviation": max(float(np.linalg.norm(g.conj().T @ g - sigma_sq * eye)) for g in grams),
        "max_frob": max(frob),
        "max_spec": max(float(np.linalg.svd(g, compute_uv=False)[0]) ** 2 for g in grams),
    }


def frame(field, n, c=2, seed=0):
    return random_frame(field, 5, c, n, seed + n)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("field", [R, C], ids=["R", "C"])
@pytest.mark.parametrize("criterion", list(Criterion), ids=lambda c: c.value)
class TestAgainstPairLoops:
    @pytest.mark.parametrize("orthonormal", [True, False], ids=["orthonormal", "general"])
    def test_objective_and_gradient(self, rng, n, field, criterion, orthonormal):
        d, c = 5, 2
        x = np.stack([gaussian_matrix(d, c, field, rng) for _ in range(n)])
        x = _qr_columns(x) if orthonormal else x / math.sqrt(d)
        ref_obj, ref_grads = ref_objective_and_gradient(list(x), criterion, 200.0)
        obj, grads = smoothed_objective_and_gradient(x, criterion, 200.0)
        assert close(obj, ref_obj)
        assert close(smoothed_objective(list(x), criterion, 200.0), ref_obj)
        ref = np.stack(ref_grads)
        assert grads.shape == ref.shape
        assert np.linalg.norm(grads - ref) <= REL * np.linalg.norm(ref)

    @pytest.mark.parametrize("c", CS)
    def test_worst_overlap(self, n, field, criterion, c):
        f = frame(field, n, c)
        assert close(worst_overlap(f, criterion), ref_worst_overlap(f, criterion))


def staged_objective_and_gradient(x, criterion, smoothing):
    """The objective in two stages: every pair value first (with the
    spectral criterion's M^(p-1) and t), then the gradient blocks. The
    same operations in the same order as the library's one pass."""
    n, d, c = x.shape
    p = SPECTRAL_SMOOTHING_POWER
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        blocks = _pair_blocks(x)
        if criterion is Criterion.CHORDAL_OVERLAP:
            vals = metrics._frobenius_sq(blocks)
        else:
            m = blocks.conj().swapaxes(-2, -1) @ blocks
            m_pm1 = np.linalg.matrix_power(m, p - 1)
            t = np.einsum("...kl,...lk->...", m_pm1, m).real
            vals = np.maximum(t, 0.0) ** (1.0 / p)
        objective, weights = _soft_max(vals, smoothing)
        if criterion is Criterion.CHORDAL_OVERLAP:
            h = (2.0 * weights)[:, None, None] * blocks
        else:
            coef = np.where(t > 0.0, 2.0 * weights * t ** (1.0 / p - 1.0), 0.0)
            h = coef[:, None, None] * (blocks @ m_pm1)
        grad = metrics._flat(x) @ metrics._block_matrix(h, n, False)
    return objective, grad.reshape(d, n, c).transpose(1, 0, 2)


@pytest.mark.parametrize("c", CS)
@pytest.mark.parametrize("field", [R, C], ids=["R", "C"])
@pytest.mark.parametrize("criterion", list(Criterion), ids=lambda c: c.value)
def test_objective_and_gradient_bit_for_bit(rng, field, c, criterion):
    d, n = 5, 7
    general = np.stack([gaussian_matrix(d, c, field, rng) for _ in range(n)]) / math.sqrt(d)
    for x in (frame(field, n, c).array, general):
        ref_obj, ref_grad = staged_objective_and_gradient(x, criterion, 200.0)
        obj, grad = smoothed_objective_and_gradient(x, criterion, 200.0)
        assert obj.hex() == ref_obj.hex()
        assert grad.dtype == ref_grad.dtype and grad.shape == ref_grad.shape
        assert grad.tobytes() == ref_grad.tobytes()


@pytest.mark.parametrize("c", CS)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("field", [R, C], ids=["R", "C"])
def test_certify_matches_pair_loop(n, field, c):
    f = frame(field, n, c)
    ref = ref_certify_pairs(f)
    cert = certify(f)
    chordal = is_equichordal(f)
    iso = is_equiisoclinic(f)
    assert close(cert.beta, ref["beta"]) and close(chordal.beta, ref["beta"])
    assert close(cert.beta_deviation, ref["beta_deviation"])
    assert close(chordal.deviation, ref["beta_deviation"])
    assert close(cert.sigma_sq, ref["sigma_sq"]) and close(iso.sigma_sq, ref["sigma_sq"])
    assert close(cert.sigma_deviation, ref["sigma_deviation"])
    assert close(iso.deviation, ref["sigma_deviation"])
    assert close(cert.simplex_gap, ref["max_frob"] - simplex_bound_gram(n, f.d, f.c))
    assert close(cert.eitff_gap, ref["max_spec"] - eitff_bound(n, f.d, f.c))


def test_certify_on_exact_eitff_matches_pair_loop():
    f = tensor_eitff(regular_simplex(4), 3)
    ref = ref_certify_pairs(f)
    cert = certify(f)
    assert cert.is_eitff
    assert close(cert.sigma_sq, ref["sigma_sq"])
    assert close(cert.sigma_deviation, ref["sigma_deviation"])
    assert close(cert.beta_deviation, ref["beta_deviation"])


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("field", [R, C], ids=["R", "C"])
class TestOtherPairLoops:
    def test_fusion_gram(self, n, field):
        f = frame(field, n)
        c = f.c
        g = fusion_gram(f).array
        for j in range(n):
            assert np.array_equal(g[j * c : (j + 1) * c, j * c : (j + 1) * c], np.eye(c))
        assert np.array_equal(g, g.conj().T)
        for (j, jj), ref in zip(f.pairs(), ref_grams(f)):
            block = g[j * c : (j + 1) * c, jj * c : (jj + 1) * c]
            assert np.max(np.abs(block - ref)) <= REL

    def test_fusion_frame_operator(self, n, field):
        f = frame(field, n)
        ref = sum(b.array @ b.array.conj().T for b in f.bases)
        assert np.max(np.abs(fusion_frame_operator(f).array - ref)) <= REL * n

    def test_min_chordal_packing(self, n, field):
        f = frame(field, n)
        ref = min(max(0.0, f.c - float(np.vdot(g, g).real)) for g in ref_grams(f))
        assert close(min_chordal_packing(f), ref)

    def test_coherence(self, n, field):
        f = frame(field, n, c=1)
        ref = max(abs(complex(g[0, 0])) for g in ref_grams(f))
        assert close(coherence(f), ref)


def ref_frobenius_sq(b):
    """Squared Frobenius norms as the conjugate product sums them."""
    return np.einsum("...kl,...kl->...", b.conj(), b).real


@pytest.mark.parametrize("c", (1, 2, 3, 4))
@pytest.mark.parametrize("field", [R, C], ids=["R", "C"])
def test_frobenius_sq_against_the_conjugate_product(rng, field, c):
    # Over R and at c = 1 the two sums are the same. Over C at c >= 2 both
    # add the same 2c^2 squares in different orders; the forward error of
    # each is at most c^2 eps of the sum, so they differ by at most 2c^2
    # eps relative.
    stacks = [
        np.stack([gaussian_matrix(c, c, field, rng) for _ in range(500)]),
        _pair_blocks(random_frame(field, 20, c, 60, c).array),
    ]
    for stack in stacks:
        ref = ref_frobenius_sq(stack)
        got = metrics._frobenius_sq(stack)
        if field is R or c == 1:
            assert np.array_equal(got, ref)
        else:
            assert np.all(np.abs(got - ref) <= 2 * c * c * np.finfo(np.float64).eps * ref)


# (field, d, c, n) of frames too large for one product of at most
# metrics._SERIAL_PRODUCT multiply-adds, so their pair blocks come from
# several products.
SEVERAL = [(R, 20, 2, 60), (C, 20, 2, 40), (R, 20, 3, 40), (C, 10, 1, 100)]


@pytest.mark.parametrize("field, d, c, n", SEVERAL, ids=lambda v: getattr(v, "value", v))
class TestSeveralProducts:
    def frame(self, field, d, c, n):
        f = random_frame(field, d, c, n, 1)
        assert len(metrics._pair_plan(n, c, metrics._depth(f.array))) > 1
        return f

    def test_pair_blocks(self, field, d, c, n):
        # Bit for bit: each pair's block sliced out of the product of its
        # plan step. To round-off: the per-pair cross-Gramians.
        f = self.frame(field, d, c, n)
        flat = metrics._flat(f.array)
        blocks = _pair_blocks(f.array)
        out = iter(blocks)
        for j0, j1, _ in metrics._pair_plan(n, c, metrics._depth(f.array)):
            product = flat[:, j0 * c : j1 * c].conj().T @ flat[:, j0 * c :]
            for j in range(j0, j1):
                for jj in range(j + 1, n):
                    row, col = (j - j0) * c, (jj - j0) * c
                    assert np.array_equal(next(out), product[row : row + c, col : col + c])
        assert next(out, None) is None
        assert np.max(np.abs(blocks - np.stack(ref_grams(f)))) <= REL

    def test_certify(self, field, d, c, n):
        f = self.frame(field, d, c, n)
        ref = ref_certify_pairs(f)
        cert = certify(f)
        assert close(cert.beta, ref["beta"]) and close(cert.beta_deviation, ref["beta_deviation"])
        assert close(cert.sigma_sq, ref["sigma_sq"]) and close(cert.sigma_deviation, ref["sigma_deviation"])
        assert close(cert.simplex_gap, ref["max_frob"] - simplex_bound_gram(n, d, c))
        assert close(cert.eitff_gap, ref["max_spec"] - eitff_bound(n, d, c))

    @pytest.mark.parametrize("criterion", list(Criterion), ids=lambda c: c.value)
    def test_objective_and_gradient(self, field, d, c, n, criterion):
        x = self.frame(field, d, c, n).array
        ref_obj, ref_grads = ref_objective_and_gradient(list(x), criterion, 200.0)
        obj, grads = smoothed_objective_and_gradient(x, criterion, 200.0)
        assert close(obj, ref_obj)
        ref = np.stack(ref_grads)
        assert np.linalg.norm(grads - ref) <= REL * np.linalg.norm(ref)

    def test_fusion_gram(self, field, d, c, n):
        f = self.frame(field, d, c, n)
        g = fusion_gram(f).array
        for (j, jj), ref in zip(f.pairs(), ref_grams(f)):
            assert np.max(np.abs(g[j * c : (j + 1) * c, jj * c : (jj + 1) * c] - ref)) <= REL
            assert np.array_equal(g[jj * c : (jj + 1) * c, j * c : (j + 1) * c], g[j * c : (j + 1) * c, jj * c : (jj + 1) * c].conj().T)


@pytest.mark.parametrize("field", [R, C], ids=["R", "C"])
def test_frame_operator_over_one_and_two_chunks(monkeypatch, field):
    # A frame exactly one chunk wide takes the one product X X*, bit for
    # bit; one column wider, it is summed over two chunks.
    n = 7
    x = random_frame(field, 6, 2, n, 0).array
    flat = metrics._flat(x)
    ref = flat @ flat.conj().T
    per_column = x.shape[1] * metrics._depth(x)
    monkeypatch.setattr(metrics, "_SERIAL_PRODUCT", flat.shape[1] * per_column)
    assert metrics._frame_operator(x).tobytes() == ref.tobytes()
    monkeypatch.setattr(metrics, "_SERIAL_PRODUCT", (flat.shape[1] - 1) * per_column)
    assert np.max(np.abs(metrics._frame_operator(x) - ref)) <= REL * n


@given(st.integers(2, 300), st.integers(1, 4), st.integers(1, 400))
def test_pair_plan_covers_every_pair_once_within_the_product_bound(n, c, depth):
    steps = metrics._pair_plan(n, c, depth)
    found, j_next = [], 0
    for j0, j1, index in steps:
        assert j0 == j_next < j1 <= n
        assert not index.flags.writeable
        width = n - j0
        assert (j1 - j0) * c * width * c * depth <= metrics._SERIAL_PRODUCT or j1 == j0 + 1
        assert np.array_equal(index, index[:, :1] + np.arange(c) * width)
        row, col = np.divmod(index[:, 0], width)
        assert np.all(row % c == 0)
        found += zip((j0 + row // c).tolist(), (j0 + col).tolist())
        j_next = j1
    assert j_next >= n - 1
    assert found == pairs(n)
    if (n * c) ** 2 * depth <= metrics._SERIAL_PRODUCT:
        assert len(steps) == 1 and steps[0][1] == n


@pytest.mark.parametrize("field, n", [(R, 400), (C, 100)], ids=["R", "C"])
def test_fusion_frame_operator_sums_several_products(field, n):
    f = random_frame(field, 20, 2, n, 0)
    flat = metrics._flat(f.array)
    assert flat.size * metrics._depth(f.array) > metrics._SERIAL_PRODUCT
    assert np.max(np.abs(fusion_frame_operator(f).array - flat @ flat.conj().T)) <= REL * n


def planes(columns, d):
    """A real c = 2 frame in R^d; each basis is a pair of orthonormal
    columns, each column an {index: entry} dict."""
    x = np.zeros((len(columns), d, 2))
    for j, pair in enumerate(columns):
        for k, entries in enumerate(pair):
            for i, v in entries.items():
                x[j, i, k] = v
    return FusionFrame.from_arrays(x, R)


def rotated(i, k, angle):
    """The unit vector cos(angle) e_i + sin(angle) e_k."""
    return {i: math.cos(angle), k: math.sin(angle)}


class TestSpectralPruning:
    """The spectral maximum takes an SVD of the candidate pairs only; each
    frame here is checked against an SVD of every pair block and against
    the per-pair loop."""

    @pytest.fixture
    def svd_sizes(self, monkeypatch):
        sizes = []

        def spy(arr):
            sizes.append(len(arr))
            return _svals(arr)

        monkeypatch.setattr(metrics, "_svals", spy)
        return sizes

    def check(self, f):
        full = np.linalg.svd(_pair_blocks(f.array), compute_uv=False)
        full_max = float(full[:, 0].max()) ** 2
        assert worst_overlap(f, Criterion.SPECTRAL_OVERLAP) == full_max
        cert = certify(f)
        assert cert.eitff_gap == full_max - eitff_bound(f.n, f.d, f.c)
        ref = ref_certify_pairs(f)
        assert close(full_max, ref["max_spec"])
        assert close(cert.sigma_deviation, ref["sigma_deviation"])
        return full

    @pytest.mark.parametrize(
        "f",
        [tensor_eitff(regular_simplex(4), 3), tensor_eitff(harmonic_etf(DifferenceSet(7, [1, 2, 4])), 2)],
        ids=["R", "C"],
    )
    def test_exact_eitff_makes_every_pair_a_candidate(self, f, svd_sizes):
        self.check(f)
        assert svd_sizes == [f.n * (f.n - 1) // 2] * 2

    def test_rank_one_pairs_tie_their_bounds(self, svd_sizes):
        # span{v_j, e_(j+2)} with v_j in span{e_0, e_1}: every cross-Gramian
        # is rank 1, so both bounds equal s_max^2, and the closest two
        # angles (0 and 0.3) alone hold the maximum.
        angles = (0.0, 0.3, 0.7, 1.2)
        f = planes([(rotated(0, 1, a), {j + 2: 1.0}) for j, a in enumerate(angles)], 6)
        full = self.check(f)
        assert np.all(full[:, 1] <= 1e-15)
        assert svd_sizes == [1, 1]

    def test_orthogonal_pairs(self, svd_sizes):
        # Pair (0, 1) has G = 0, which has no lower bound to divide out.
        mixed = planes(
            [({0: 1.0}, {1: 1.0}), ({2: 1.0}, {3: 1.0}), (rotated(0, 2, math.pi / 4), rotated(1, 3, math.pi / 4))],
            4,
        )
        full = self.check(mixed)
        assert full[0, 0] == 0.0
        assert svd_sizes == [2, 2]
        orthogonal = planes([({0: 1.0}, {1: 1.0}), ({2: 1.0}, {3: 1.0}), ({4: 1.0}, {5: 1.0})], 6)
        assert worst_overlap(orthogonal, Criterion.SPECTRAL_OVERLAP) == 0.0
        cert = certify(orthogonal)
        assert cert.sigma_deviation == 0.0
        self.check(orthogonal)

    def test_largest_frobenius_pair_is_not_the_spectral_maximum(self, svd_sizes):
        # Pair (0, 1) has s = (0.7, 0.7): ||G||_F^2 = 0.98, s_max^2 = 0.49.
        # Pair (0, 2) has s = (0.8, 0): ||G||_F^2 = s_max^2 = 0.64.
        a, b = math.acos(0.7), math.acos(0.8)
        f = planes(
            [
                ({0: 1.0}, {1: 1.0}),
                (rotated(0, 2, a), rotated(1, 3, a)),
                (rotated(0, 4, b), {5: 1.0}),
            ],
            6,
        )
        full = self.check(f)
        overlaps = (full**2).sum(axis=1)
        assert np.argmax(overlaps) == 0 and np.argmax(full[:, 0]) == 1
        assert worst_overlap(f, Criterion.SPECTRAL_OVERLAP) == pytest.approx(0.64, abs=1e-15)
        assert svd_sizes[0] == 2

    def test_random_frame_prunes_to_few_pairs(self, svd_sizes):
        f = random_frame(C, 10, 2, 100, 0)
        self.check(f)
        assert 1 <= svd_sizes[0] < 50
