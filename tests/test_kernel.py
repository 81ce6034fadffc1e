"""The all-pairs Gramian kernel against per-pair reference loops.

Each reference below evaluates one pair (or one basis) at a time, the
way the library did before it computed all cross-Gramians as one fusion
Gram product. The kernel must agree with them to round-off.
"""

import math

import numpy as np
import pytest

from grasspack.bounds import eitff_bound, simplex_bound_gram
from grasspack.certify import certify, is_equichordal, is_equiisoclinic
from grasspack.construct import random_frame, regular_simplex, tensor_eitff
from grasspack.linalg import FieldTag, _qr_columns
from grasspack.metrics import (
    coherence,
    cross_gramian,
    fusion_frame_operator,
    fusion_gram,
    min_chordal_packing,
)
from grasspack.optimize import (
    SPECTRAL_SMOOTHING_POWER,
    Criterion,
    smoothed_objective,
    smoothed_objective_and_gradient,
    worst_overlap,
)

from conftest import gaussian_matrix

R = FieldTag.REAL
C = FieldTag.COMPLEX
SIZES = (2, 3, 7, 16, 40)
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

    def test_worst_overlap(self, n, field, criterion):
        f = frame(field, n)
        assert close(worst_overlap(f, criterion), ref_worst_overlap(f, criterion))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("field", [R, C], ids=["R", "C"])
def test_certify_matches_pair_loop(n, field):
    f = frame(field, n)
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
