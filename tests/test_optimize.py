import dataclasses
import importlib
import itertools
import math
import re

import numpy as np
import pytest

from grasspack import construct, metrics, optimize
from grasspack.bounds import eitff_bound, governing_bound, simplex_bound_gram
from grasspack.certify import _verdict, certify
from grasspack.construct import DifferenceSet, harmonic_etf, random_frame, regular_simplex, tensor_eitff
from grasspack.linalg import DEFAULT_TOL, FieldTag, NumericalError
from grasspack.metrics import FusionFrame, _flat, _gram_to_frame, _pair_blocks
from grasspack.optimize import (
    _MAX_HALVINGS,
    SMOOTHING,
    SPECTRAL_SMOOTHING_POWER,
    STEP_SIZE,
    Criterion,
    PackConfig,
    _descend,
    POLISH_CUT,
    _polish_stage,
    _qr_columns,
    _restart,
    _structural_projection,
    _worst_overlap,
    pack,
    polish,
    smoothed_objective,
    smoothed_objective_and_gradient,
    worst_overlap,
)

R = FieldTag.REAL
C = FieldTag.COMPLEX

FAST = PackConfig(iterations=200, restarts=2)


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"iterations": 0},
            {"restarts": 0},
            {"iterations": -1},
            {"restarts": -1},
        ],
    )
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ValueError):
            PackConfig(**kwargs)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("iterations", math.inf),
            ("iterations", 2.5),
            ("iterations", True),
            ("restarts", 1.5),
            ("restarts", "3"),
            ("seed", 1.5),
            ("seed", -1),
            ("seed", None),
        ],
    )
    def test_rejects_non_integer_counts(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= "):
            PackConfig(**{name: value})

    @pytest.mark.parametrize("value", ["chordal", None, 1])
    def test_rejects_non_criterion(self, value):
        with pytest.raises(ValueError, match=f"^criterion must be a Criterion, got {re.escape(repr(value))}$"):
            PackConfig(criterion=value)

    @pytest.mark.parametrize("value", ["chordal", None, 1])
    @pytest.mark.parametrize(
        "call",
        [
            lambda f, v: worst_overlap(f, v),
            lambda f, v: smoothed_objective(f.array, v),
            lambda f, v: smoothed_objective_and_gradient(f.array, v),
        ],
        ids=["worst_overlap", "smoothed_objective", "smoothed_objective_and_gradient"],
    )
    def test_objectives_reject_non_criterion(self, call, value):
        f = random_frame(R, 4, 2, 3, 0)
        with pytest.raises(ValueError, match=f"^criterion must be a Criterion, got {re.escape(repr(value))}$"):
            call(f, value)

    def test_tolerance_is_not_a_setting(self):
        assert [f.name for f in dataclasses.fields(PackConfig)] == ["criterion", "iterations", "restarts", "seed"]
        assert PackConfig().tolerance == DEFAULT_TOL
        with pytest.raises(TypeError):
            PackConfig(tolerance=1e-14)

    def test_accepts_numpy_integers(self):
        config = PackConfig(iterations=np.int64(3), restarts=np.int32(2), seed=np.uint64(2**63))
        assert config.seed == 2**63


class TestObjective:
    def test_soft_max_dominates_true_max(self, rng):
        # The soft max sits between the true max and the true max of the
        # surrogate pair values plus the log-sum-exp offset; the spectral
        # surrogate itself overshoots ||G||_2^2 by at most c^(1/p).
        f = random_frame(R, 4, 2, 3, 3)
        mats = [b.array.real.copy() for b in f.bases]
        offset = math.log(3) / 200.0
        for crit, slack in ((Criterion.CHORDAL_OVERLAP, 1.0), (Criterion.SPECTRAL_OVERLAP, 2 ** 0.25)):
            smoothed = smoothed_objective(mats, crit, 200.0)
            true_max = worst_overlap(f, crit)
            assert smoothed >= true_max - 1e-9
            assert smoothed <= slack * true_max + offset + 1e-6

    def test_spectral_surrogate_above_spectral_norm(self, rng):
        # (Tr[(G* G)^p])^(1/p) >= ||G||_2^2, and close for p = 4.
        f = random_frame(C, 5, 2, 2, 4)
        mats = [b.array.copy() for b in f.bases]
        sval = smoothed_objective(mats, Criterion.SPECTRAL_OVERLAP, 1e6)
        true_spec = worst_overlap(f, Criterion.SPECTRAL_OVERLAP)
        assert sval >= true_spec - 1e-12
        assert sval <= 2 ** (1 / 4) * true_spec + 1e-12  # c = 2 singular values

    def test_gradient_matches_finite_differences(self, rng):
        h = 1e-6
        for crit in Criterion:
            f = random_frame(R, 4, 2, 3, 17)
            mats = [b.array.real.copy() for b in f.bases]
            _, grads = smoothed_objective_and_gradient(mats, crit, 200.0)
            fd = [np.zeros_like(m) for m in mats]
            for k, m in enumerate(mats):
                for idx in np.ndindex(m.shape):
                    up = [x.copy() for x in mats]
                    up[k][idx] += h
                    down = [x.copy() for x in mats]
                    down[k][idx] -= h
                    fd[k][idx] = (
                        smoothed_objective(up, crit, 200.0)
                        - smoothed_objective(down, crit, 200.0)
                    ) / (2 * h)
            num = math.sqrt(sum(np.linalg.norm(a - b) ** 2 for a, b in zip(grads, fd)))
            den = math.sqrt(sum(np.linalg.norm(g) ** 2 for g in grads))
            assert num / den < 1e-5

    def test_complex_gradient_matches_wirtinger_convention(self):
        # Real and imaginary parts of the returned gradient match
        # entrywise finite differences over those parts.
        f = random_frame(C, 3, 1, 4, 7)
        mats = [b.array.copy() for b in f.bases]
        _, grads = smoothed_objective_and_gradient(mats, Criterion.CHORDAL_OVERLAP, 50.0)
        h = 1e-6
        k, idx = 1, (2, 0)

        def perturbed(delta):
            out = [x.copy() for x in mats]
            out[k][idx] += delta
            return smoothed_objective(out, Criterion.CHORDAL_OVERLAP, 50.0)

        fd_re = (perturbed(h) - perturbed(-h)) / (2 * h)
        fd_im = (perturbed(1j * h) - perturbed(-1j * h)) / (2 * h)
        assert grads[k][idx].real == pytest.approx(fd_re, rel=1e-4, abs=1e-10)
        assert grads[k][idx].imag == pytest.approx(fd_im, rel=1e-4, abs=1e-10)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("criterion", list(Criterion))
    def test_overflow_is_quiet_and_non_finite(self, criterion):
        huge = np.full((2, 2, 1), 1e200)
        value, _ = smoothed_objective_and_gradient(huge, criterion)
        assert not math.isfinite(value)

    @pytest.mark.filterwarnings("error")
    def test_descend_rejects_non_finite_start(self):
        # The overflow itself must stay quiet: any warning fails the test.
        huge = np.full((2, 2, 1), 1e200)
        with pytest.raises(NumericalError, match="at the starting frame$"):
            _run_descent(huge, Criterion.CHORDAL_OVERLAP, 5)

    @pytest.mark.parametrize("shape", [(2, 0, 1), (2, 2, 0), (2, 2), (2, 2, 1, 1)])
    def test_rejects_stacks_without_a_basis_shape(self, shape):
        # An empty dimension used to divide by zero inside the pair plan.
        message = f"mats must be an (n, d, c) stack with d, c >= 1, got shape {shape!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            smoothed_objective_and_gradient(np.zeros(shape))


def _count_calls(monkeypatch, **names) -> dict:
    """Count optimize's calls to each function it names, keyed by the given labels."""
    counts = dict.fromkeys(names, 0)

    def spy(label, fn):
        def counted(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)

        return counted

    for label, name in names.items():
        monkeypatch.setattr(optimize, name, spy(label, getattr(optimize, name)))
    return counts


def _run_descent(mats, criterion, budget):
    """The descent's last iterate within ``budget`` accepted steps, and the steps taken."""
    iterates = [mats, *(x for x, _ in itertools.islice(_descend(mats, criterion), budget))]
    return iterates[-1], len(iterates) - 1


def _handover(monkeypatch, mats, governing, config):
    """_restart from the stack ``mats`` with a polish stage that keeps whatever
    it is handed: the stack handed over, its true value and the iterations used."""
    handed = []
    monkeypatch.setattr(optimize, "_polish_stage", lambda x, achieved, *_: handed.append(x) or (x, achieved))
    result = _restart(mats, governing, config)
    assert len(handed) == 1
    return result


def _two_evaluation_descend(mats, config, budget, target=None, carry=True):
    """Reference descent: each trial is scored by smoothed_objective, and the
    gradient of the accepted trial is taken again at the next iteration.

    Each line search after the first starts from twice the last accepted
    step, capped at STEP_SIZE; without ``carry``, every one starts from
    STEP_SIZE.
    """
    fval = smoothed_objective(mats, config.criterion)
    if not math.isfinite(fval):
        raise NumericalError(f"non-finite objective {fval!r} at the starting frame")
    if target is not None:
        n, _, c = mats.shape
        surrogate = c ** (1.0 / SPECTRAL_SMOOTHING_POWER) if config.criterion is Criterion.SPECTRAL_OVERLAP else 1.0
        pretest = surrogate * target + math.log(n * (n - 1) // 2) / SMOOTHING
    used = 0
    first = STEP_SIZE
    for _ in range(budget):
        _, grads = smoothed_objective_and_gradient(mats, config.criterion)
        if not grads.any():
            break
        step = first
        accepted = False
        for _ in range(_MAX_HALVINGS + 1):
            trial = _qr_columns(mats - step * grads)
            ftrial = smoothed_objective(trial, config.criterion)
            if math.isfinite(ftrial) and ftrial < fval:
                mats, fval = trial, ftrial
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        if carry:
            first = min(STEP_SIZE, 2.0 * step)
        used += 1
        if target is not None and fval <= pretest:
            if _worst_overlap(mats, config.criterion) <= target:
                return mats, used, True
    return mats, used, False


# The benchmark's search-wide instances: one restart at a fixed budget,
# far from the bound.
SEARCH_WIDE = [(R, 6, 2, 16, 300), (C, 4, 1, 16, 300), (R, 8, 3, 40, 100)]

DESCENT_CASES = [
    (R, 4, 2, 3, Criterion.CHORDAL_OVERLAP),
    (C, 3, 1, 7, Criterion.CHORDAL_OVERLAP),
    (R, 6, 2, 16, Criterion.CHORDAL_OVERLAP),
    (R, 4, 2, 3, Criterion.SPECTRAL_OVERLAP),
]


class TestDescend:
    @pytest.mark.parametrize("field, d, c, n, criterion", DESCENT_CASES)
    def test_one_objective_and_gradient_per_trial(self, monkeypatch, field, d, c, n, criterion):
        # One evaluation at the start and one per trial, each trial after
        # one retraction; the objective-only path is never taken.
        counts = _count_calls(monkeypatch, obj_grad="smoothed_objective_and_gradient", obj="smoothed_objective", qr="_qr_columns")
        _, used = _run_descent(random_frame(field, d, c, n, 0).array, criterion, 60)
        assert used > 0
        assert counts["qr"] >= used
        assert counts["obj"] == 0
        assert counts["obj_grad"] == counts["qr"] + 1

    @pytest.mark.parametrize("field, d, c, n, criterion", DESCENT_CASES)
    @pytest.mark.parametrize("with_target", [False, True])
    def test_matches_the_two_evaluation_descent(self, monkeypatch, field, d, c, n, criterion, with_target):
        budget = 200
        config = PackConfig(criterion=criterion, iterations=budget)
        start = random_frame(field, d, c, n, 0).array
        target = None
        if with_target:
            # The worst overlap halfway through: the pre-test passes and
            # the true value is computed before the descent stops there.
            target = _worst_overlap(_two_evaluation_descend(start, config, budget // 2)[0], criterion)
        expected, expected_used, expected_reached = _two_evaluation_descend(start, config, budget, target)
        if with_target:
            # A cut of 0 makes _restart's handover target exactly ``target``.
            monkeypatch.setattr(optimize, "POLISH_CUT", 0.0)
            mats, _, used = _handover(monkeypatch, start, (target, "simplex"), config)
        else:
            mats, used = _run_descent(start, criterion, budget)
        assert mats.tobytes() == expected.tobytes()
        assert used == expected_used
        assert expected_reached is with_target

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("field, d, c, n, iterations", SEARCH_WIDE)
    def test_far_from_the_bound_the_carried_step_is_the_fixed_step(self, field, d, c, n, iterations, seed):
        # Twice the last accepted step, capped at STEP_SIZE, is STEP_SIZE
        # again unless that step took two halvings; here none does, so
        # pack gives what a descent from STEP_SIZE at every step gives.
        config = PackConfig(iterations=iterations, restarts=1, seed=seed)
        (start,) = np.random.SeedSequence(seed).generate_state(1, dtype=np.uint64)
        expected, used, _ = _two_evaluation_descend(random_frame(field, d, c, n, int(start)).array, config, iterations, carry=False)
        result = pack(field, d, c, n, config)
        assert result.frame.array.tobytes() == expected.tobytes()
        assert result.iterations_used == used


class TestPack:
    def test_orthogonal_solution_found(self):
        # Two planes in R^4 can be made exactly orthogonal.
        result = pack(R, 4, 2, 2, FAST)
        assert result.bound == 0.0
        assert result.achieved <= 1e-6

    def test_three_vectors_in_plane_reach_welch(self):
        result = pack(R, 2, 1, 3, PackConfig(iterations=500, restarts=3))
        assert result.achieved <= 0.25 + 1e-4

    def test_gap_never_negative_beyond_tolerance(self):
        for iters in (1, 5, 40):
            result = pack(R, 4, 2, 3, PackConfig(iterations=iters, restarts=1))
            assert result.gap >= -1e-10
            assert result.achieved >= simplex_bound_gram(3, 4, 2) - 1e-10

    def test_all_iterates_stay_orthonormal(self):
        for iters in (1, 7, 60):
            result = pack(C, 4, 2, 3, PackConfig(iterations=iters, restarts=1))
            for b in result.frame.bases:
                defect = np.linalg.norm(b.array.conj().T @ b.array - np.eye(2))
                assert defect < 1e-10

    def test_deterministic(self):
        a = pack(R, 3, 1, 4, FAST)
        b = pack(R, 3, 1, 4, FAST)
        assert a.achieved == b.achieved
        assert a.restart_index == b.restart_index
        assert a.iterations_used == b.iterations_used
        for x, y in zip(a.frame.bases, b.frame.bases):
            assert x.array.tobytes() == y.array.tobytes()

    def test_spectral_criterion_bound(self):
        result = pack(R, 4, 2, 3, PackConfig(criterion=Criterion.SPECTRAL_OVERLAP, iterations=300, restarts=2))
        assert result.bound == pytest.approx(eitff_bound(3, 4, 2))
        assert result.gap >= -1e-10

    def test_result_carries_certificate(self):
        result = pack(R, 2, 1, 3, PackConfig(iterations=500, restarts=3))
        assert result.certificate.alpha == pytest.approx(1.5)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            pack(R, 2, 3, 3, FAST)
        with pytest.raises(ValueError):
            pack(R, 2, 1, 1, FAST)

    @pytest.mark.parametrize(
        "d, c, n, message",
        [
            (0, 1, 3, "d must be an integer >= 1, got 0"),
            (2, 3, 3, "need 1 <= c <= d, got c = 3, d = 2"),
            (2, 0, 3, "need 1 <= c <= d, got c = 0, d = 2"),
            (2, 1, 1, "need n >= 2, got n = 1"),
        ],
    )
    def test_rejects_bad_parameters_before_any_work(self, monkeypatch, d, c, n, message):
        starts = _count_restarts(monkeypatch)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pack(R, d, c, n, FAST)
        assert starts == []


def _count_restarts(monkeypatch) -> list:
    """Record every random_frame call pack makes: one per restart run."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return construct.random_frame(*args, **kwargs)

    monkeypatch.setattr("grasspack.optimize.random_frame", counting)
    return calls


def _best_of_all_restarts(field, d, c, n, config):
    """Reference search: every restart runs; the best wins, ties to the lowest index."""
    seeds = np.random.SeedSequence(config.seed).generate_state(config.restarts, dtype=np.uint64)
    best = None
    for r, seed in enumerate(seeds):
        mats, used = _run_descent(random_frame(field, d, c, n, int(seed)).array, config.criterion, config.iterations)
        achieved = worst_overlap(FusionFrame.from_arrays(mats, field), config.criterion)
        if best is None or achieved < best[0]:
            best = (achieved, r, mats, used)
    return best


class TestStopping:
    def test_stops_after_the_restart_that_reaches_the_bound(self, monkeypatch):
        one = pack(R, 2, 1, 3, PackConfig(restarts=1))
        assert one.gap <= 1e-8
        calls = _count_restarts(monkeypatch)
        ten = pack(R, 2, 1, 3, PackConfig(restarts=10))
        assert len(calls) == 1
        assert ten.restart_index == 0
        assert ten.frame.array.tobytes() == one.frame.array.tobytes()
        assert ten.achieved == one.achieved
        assert ten.iterations_used == one.iterations_used

    @pytest.mark.parametrize(
        "field, d, c, n, criterion",
        [
            (R, 4, 2, 3, Criterion.CHORDAL_OVERLAP),
            (R, 2, 1, 4, Criterion.CHORDAL_OVERLAP),
            (C, 2, 1, 5, Criterion.SPECTRAL_OVERLAP),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 3])
    def test_without_reaching_the_bound_every_restart_runs(self, monkeypatch, field, d, c, n, criterion, seed):
        config = PackConfig(criterion=criterion, iterations=5, restarts=4, seed=seed)
        achieved, restart_index, mats, used = _best_of_all_restarts(field, d, c, n, config)
        calls = _count_restarts(monkeypatch)
        result = pack(field, d, c, n, config)
        assert len(calls) == config.restarts
        assert result.gap > DEFAULT_TOL
        assert result.achieved == achieved
        assert result.restart_index == restart_index
        assert result.iterations_used == used
        assert result.frame.array.tobytes() == mats.tobytes()


class TestGoverningBound:
    def test_past_the_gerzon_limit_real(self):
        # Four lines in R^2 reach the orthoplex bound 1/2; the simplex
        # bound 1/3 would report a gap of 1/6.
        result = pack(R, 2, 1, 4, PackConfig(iterations=300, restarts=3))
        assert (result.bound, result.bound_name) == (0.5, "orthoplex")
        assert 0.0 <= result.gap < 1e-3
        assert result.gap == pytest.approx(result.certificate.orthoplex_gap, abs=1e-15)

    def test_past_the_gerzon_limit_complex(self):
        result = pack(C, 2, 1, 5, PackConfig(iterations=300, restarts=3))
        assert (result.bound, result.bound_name) == (0.5, "orthoplex")
        assert 0.0 <= result.gap < 1e-3

    @pytest.mark.parametrize("criterion", list(Criterion))
    def test_mutually_orthogonal_subspaces(self, monkeypatch, criterion):
        # nc < d: two planes in R^6 can be orthogonal, so the bound is 0
        # and the first restart that finds them ends the search.
        calls = _count_restarts(monkeypatch)
        result = pack(R, 6, 2, 2, PackConfig(criterion=criterion, iterations=300, restarts=3))
        assert (result.bound, result.bound_name) == (0.0, "trivial")
        assert result.gap == result.achieved <= 1e-12
        assert result.restart_index == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "field, d, c, n, criterion",
        [
            (R, 4, 3, 3, Criterion.SPECTRAL_OVERLAP),
            (C, 3, 2, 6, Criterion.SPECTRAL_OVERLAP),
            (R, 4, 3, 3, Criterion.CHORDAL_OVERLAP),
            (R, 5, 4, 4, Criterion.CHORDAL_OVERLAP),
        ],
    )
    def test_planes_that_must_meet_stop_at_the_intersection_bound(self, monkeypatch, field, d, c, n, criterion):
        # 2c > d: any two c-planes share 2c - d dimensions, so every start
        # already sits at the bound and the first restart ends the search.
        calls = _count_restarts(monkeypatch)
        result = pack(field, d, c, n, PackConfig(criterion=criterion))
        bound = 1.0 if criterion is Criterion.SPECTRAL_OVERLAP else 2 * c - d
        assert (result.bound, result.bound_name) == (bound, "intersection")
        assert abs(result.gap) <= DEFAULT_TOL
        assert result.restart_index == 0
        assert len(calls) == 1
        if criterion is Criterion.SPECTRAL_OVERLAP:
            # Every spectral overlap is already 1, so the start is not descended.
            assert result.iterations_used == 0

    def test_polish_reports_the_governing_bound(self):
        f = random_frame(R, 2, 1, 4, 1)
        result = polish(f, PackConfig(iterations=20))
        assert (result.bound, result.bound_name) == (0.5, "orthoplex")
        assert result.gap == result.achieved - 0.5


class TestPolish:
    def test_frame_at_bound_is_unchanged(self, monkeypatch):
        f = tensor_eitff(regular_simplex(3), 2)
        before = worst_overlap(f, Criterion.CHORDAL_OVERLAP)
        counts = _count_calls(monkeypatch, obj_grad="smoothed_objective_and_gradient")
        result = polish(f, PackConfig())
        assert abs(result.achieved - before) <= 1e-9
        # The start is at the bound, so no descent runs from it.
        assert result.frame.array.tobytes() == f.array.tobytes()
        assert result.iterations_used == counts["obj_grad"] == 0

    def test_generic_frame_strictly_improves(self):
        f = random_frame(R, 4, 2, 3, 5)
        before = worst_overlap(f, Criterion.CHORDAL_OVERLAP)
        result = polish(f, PackConfig(iterations=300))
        assert result.achieved < before

    def test_orthogonal_frame_stays_at_zero(self):
        f = FusionFrame.from_arrays([np.eye(4)[:, :2], np.eye(4)[:, 2:]])
        result = polish(f, PackConfig(iterations=50))
        assert result.achieved == pytest.approx(0.0, abs=1e-12)

    def test_never_worse_than_input(self, monkeypatch):
        # A descent that ends on a worse frame (all three planes equal,
        # overlap 2) must give back the input untouched. The input is off
        # the bound, so the descent runs.
        f = random_frame(R, 4, 2, 3, 5)
        before = worst_overlap(f, Criterion.CHORDAL_OVERLAP)
        worse = np.stack([f.array[0]] * 3)
        monkeypatch.setattr("grasspack.optimize._descend", lambda mats, criterion: iter([(worse, math.inf)] * 7))
        result = polish(f, PackConfig(iterations=40))
        assert result.frame.array.tobytes() == f.array.tobytes()
        assert result.achieved == before
        assert result.iterations_used == 0


def _record_measurements(monkeypatch) -> list:
    """Record the bytes of every stack optimize measures with _worst_overlap."""
    measured = []
    real = optimize._worst_overlap
    monkeypatch.setattr(optimize, "_worst_overlap", lambda x, criterion: measured.append(x.tobytes()) or real(x, criterion))
    return measured


class TestEachFrameMeasuredOnce:
    def test_polish_measures_its_input_once(self, monkeypatch):
        f = random_frame(R, 4, 2, 3, 5)
        measured = _record_measurements(monkeypatch)
        polish(f, PackConfig(iterations=40))
        assert measured.count(f.array.tobytes()) == 1

    def test_a_handover_measures_its_iterate_once(self, monkeypatch):
        f = random_frame(R, 4, 2, 3, 0)
        measured = _record_measurements(monkeypatch)
        near, _, _ = _handover(monkeypatch, f.array, _governing(f, "simplex"), PackConfig(restarts=1))
        assert measured.count(near.tobytes()) == 1

    def test_a_polish_measures_its_result_once(self, monkeypatch):
        # The polish's last verdict measures the result; neither measure runs again.
        config = PackConfig(restarts=1)
        f = random_frame(R, 4, 2, 3, 0)
        governing = _governing(f, "simplex")
        near, achieved, _ = _handover(monkeypatch, f.array, governing, config)
        counts = _count_calls(monkeypatch, public="worst_overlap", private="_worst_overlap")
        x, value = _polish_stage(near, achieved, governing)
        assert counts == {"public": 0, "private": 0}
        frame = FusionFrame.from_arrays(x, R)
        assert certify(frame).is_ectff
        assert value == worst_overlap(frame, Criterion.CHORDAL_OVERLAP)

    def test_polish_at_the_bound_returns_its_input(self, monkeypatch):
        f = tensor_eitff(regular_simplex(3), 2)
        measured = _record_measurements(monkeypatch)
        result = polish(f, PackConfig())
        assert measured == [f.array.tobytes()]
        assert result.frame is f
        assert result.iterations_used == 0


def _count_validations(monkeypatch) -> list:
    """Record every FusionFrame.from_arrays call."""
    calls, from_arrays = [], FusionFrame.from_arrays
    monkeypatch.setattr(FusionFrame, "from_arrays", staticmethod(lambda *args, **kwargs: calls.append(args) or from_arrays(*args, **kwargs)))
    return calls


class TestOneValidatedFrame:
    def test_polish_validates_only_its_result(self, monkeypatch):
        f = random_frame(R, 4, 2, 3, 0)
        calls = _count_validations(monkeypatch)
        result = polish(f)
        assert result.iterations_used > 0
        assert len(calls) == 1

    def test_pack_validates_each_start_and_its_result(self, monkeypatch):
        starts = _count_restarts(monkeypatch)
        calls = _count_validations(monkeypatch)
        result = pack(C, 3, 1, 9)
        assert result.iterations_used > 0
        assert len(calls) == len(starts) + 1


class TestEveryRestartKeepsABetterStart:
    def test_pack_keeps_a_start_its_descent_made_worse(self, monkeypatch):
        # Every iterate has all three planes equal (overlap 2), worse than any random start.
        calls = _count_restarts(monkeypatch)
        monkeypatch.setattr(optimize, "_descend", lambda mats, criterion: iter([(np.stack([mats[0]] * 3), math.inf)] * 7))
        result = pack(R, 4, 2, 3, PackConfig(iterations=40, restarts=1))
        (args,) = calls
        start = random_frame(*args)
        assert result.frame.array.tobytes() == start.array.tobytes()
        assert result.achieved == worst_overlap(start, Criterion.CHORDAL_OVERLAP)
        assert result.iterations_used == 0

    def test_pack_keeps_a_start_better_than_a_polished_frame(self, monkeypatch):
        # A cut of 10 hands the first iterate over; the stubbed polish
        # "succeeds" with all three planes equal, overlap 2.
        calls = _count_restarts(monkeypatch)
        monkeypatch.setattr(optimize, "POLISH_CUT", 10.0)
        polished = []

        def worse(x, achieved, *_):
            polished.append(np.stack([x[0]] * 3))
            return polished[-1], _worst_overlap(polished[-1], Criterion.CHORDAL_OVERLAP)

        monkeypatch.setattr(optimize, "_polish_stage", worse)
        result = pack(R, 4, 2, 3, PackConfig(iterations=40, restarts=1))
        (args,), (frame,) = calls, polished
        start = random_frame(*args)
        assert _worst_overlap(frame, Criterion.CHORDAL_OVERLAP) > worst_overlap(start, Criterion.CHORDAL_OVERLAP)
        assert result.frame.array.tobytes() == start.array.tobytes()
        assert result.iterations_used == 0


ETF_13 = harmonic_etf(DifferenceSet(13, [0, 1, 3, 9]))
# Tight frames at their bounds: the (C,4,1,13) harmonic ETF, its (C,12,3,13)
# tensor EITFF and the (R,4,1,5) regular simplex.
AT_BOUND = {"etf-13": ETF_13, "eitff-13x3": tensor_eitff(ETF_13, 3), "simplex-5": regular_simplex(5)}


def _governing(f: FusionFrame, name: str) -> tuple[float, str]:
    return governing_bound(f.n, f.d, f.c, f.field, name == "eitff")


class TestGramRoutines:
    @pytest.mark.parametrize("name", ["simplex", "eitff"])
    @pytest.mark.parametrize("key", list(AT_BOUND))
    def test_structural_projection_fixes_frames_at_the_bound(self, key, name):
        f = AT_BOUND[key]
        governing = _governing(f, name)
        assert governing[1] == name
        pairs = _pair_blocks(f.array)
        assert np.abs(_structural_projection(pairs, governing) - pairs).max() <= 1e-12

    @pytest.mark.parametrize("key", list(AT_BOUND))
    def test_gram_to_frame_round_trip(self, key):
        f = AT_BOUND[key]
        mats = _gram_to_frame(_pair_blocks(f.array), f.n, f.d)
        assert mats.shape == f.array.shape and mats.dtype == f.array.dtype
        gram = lambda x: _flat(x).conj().T @ _flat(x)
        assert np.abs(gram(mats) - gram(f.array)).max() <= 1e-12

    def test_round_trip_covers_both_fields(self):
        assert {f.field for f in AT_BOUND.values()} == {R, C}

    def test_simplex_projection_rescales_off_diagonal_blocks(self):
        f = random_frame(R, 4, 2, 3, 1)
        out = _structural_projection(_pair_blocks(f.array), (0.5, "simplex"))
        assert out.shape == (3, 2, 2)
        for g in out:
            assert np.linalg.norm(g) ** 2 == pytest.approx(0.5, abs=1e-14)

    def test_eitff_projection_gives_scaled_unitaries(self):
        for field in (R, C):
            pairs = _pair_blocks(random_frame(field, 6, 3, 5, 1).array)
            out = _structural_projection(pairs, (0.25, "eitff"))
            assert out.shape == pairs.shape == (10, 3, 3)
            for g in out:
                assert np.abs(g.conj().T @ g - 0.25 * np.eye(3)).max() <= 1e-14


class TestPolishStage:
    def test_certifies_near_the_bound(self, monkeypatch):
        # The (R,4,2,3) descent stopped at gap <= POLISH_CUT.
        config = PackConfig(restarts=1)
        f = random_frame(R, 4, 2, 3, 0)
        governing = _governing(f, "simplex")
        near, achieved, _ = _handover(monkeypatch, f.array, governing, config)
        assert achieved - governing[0] <= POLISH_CUT
        x, value = _polish_stage(near, achieved, governing)
        assert x.shape == near.shape and value <= achieved
        assert value - governing[0] <= 1e-10

    def test_keeps_nothing_worse_than_the_descent(self):
        f = AT_BOUND["simplex-5"]
        # The frame certifies, but its overlap exceeds the descent's claimed value.
        assert _polish_stage(f.array, 0.0, _governing(f, "simplex")) is None

    def test_fails_without_an_ectff(self):
        # No five equiangular lines span R^3, so no sweep can set the flag.
        f = random_frame(R, 3, 1, 5, 0)
        achieved = worst_overlap(f, Criterion.CHORDAL_OVERLAP)
        assert _polish_stage(f.array, achieved, _governing(f, "simplex")) is None

    @pytest.mark.parametrize("source", ["at-bound", "random", "polish-R-4-2-3", "polish-C-3-1-7"])
    def test_its_check_is_the_certificate_flag_and_gap(self, monkeypatch, source):
        # Each sweep's check must be the certificate's own flag and, once it
        # is set, the true worst overlap, which minus the bound is the
        # certificate's gap, bit for bit, under both structures and at both
        # tolerances.
        if source == "at-bound":
            frames = list(AT_BOUND.values())
        elif source == "random":
            shapes = [(R, 4, 2, 3), (C, 3, 1, 7), (C, 6, 3, 5), (R, 6, 2, 16)]
            frames = [random_frame(*shape, seed) for shape in shapes for seed in (0, 1)]
        else:
            # Every stack a default pack's polish checks, one per sweep.
            frames = []
            verdict = optimize._verdict
            field, d, c, n = {"polish-R-4-2-3": (R, 4, 2, 3), "polish-C-3-1-7": (C, 3, 1, 7)}[source]
            monkeypatch.setattr(optimize, "_verdict", lambda x, *args: frames.append(FusionFrame.from_arrays(x, field)) or verdict(x, *args))
            assert pack(field, d, c, n, PackConfig(restarts=1)).certificate.is_ectff
            assert len(frames) > 1
        structures = (
            ("simplex", "is_ectff", "simplex_gap", simplex_bound_gram, Criterion.CHORDAL_OVERLAP),
            ("eitff", "is_eitff", "eitff_gap", eitff_bound, Criterion.SPECTRAL_OVERLAP),
        )
        for f in frames:
            for tol in (optimize.POLISH_MARGIN * DEFAULT_TOL, DEFAULT_TOL):
                cert = certify(f, tol)
                for name, flag, gap, bound, criterion in structures:
                    got_flag, worst = _verdict(f.array, _pair_blocks(f.array), name, tol)
                    assert got_flag == getattr(cert, flag)
                    if got_flag:
                        assert (worst - bound(f.n, f.d, f.c)).hex() == getattr(cert, gap).hex()
                        assert worst.hex() == worst_overlap(f, criterion).hex()
                    else:
                        assert worst == math.inf

    @pytest.mark.parametrize("flagged", [False, True])
    def test_an_eitff_verdict_measures_only_a_flagged_frame(self, monkeypatch, flagged):
        # The worst spectral overlap, and so its SVD, waits for the EITFF
        # flag, and the products M = G* G wait for the ECTFF flag it needs.
        f = AT_BOUND["eitff-13x3"] if flagged else random_frame(R, 4, 2, 3, 0)
        module = importlib.import_module("grasspack.certify")
        spectral_max, pair_products, measured, products = module._spectral_max, module._pair_products, [], []
        monkeypatch.setattr(module, "_spectral_max", lambda *args: measured.append(args) or spectral_max(*args))
        monkeypatch.setattr(module, "_pair_products", lambda *args: products.append(args) or pair_products(*args))
        flag, worst = _verdict(f.array, _pair_blocks(f.array), "eitff", DEFAULT_TOL)
        assert flag == flagged
        assert len(measured) == len(products) == int(flagged)
        assert worst == (worst_overlap(f, Criterion.SPECTRAL_OVERLAP) if flagged else math.inf)

    def test_a_flagged_eitff_verdict_takes_the_overlaps_once(self, monkeypatch):
        # The overlaps ||G||_F^2 that set the ECTFF flag are the ones the
        # products M = G* G and the spectral maximum read.
        f = AT_BOUND["eitff-13x3"]
        blocks, calls = _pair_blocks(f.array), []
        for module in (importlib.import_module("grasspack.certify"), metrics):
            frobenius_sq = module._frobenius_sq
            monkeypatch.setattr(module, "_frobenius_sq", lambda stack, fn=frobenius_sq: calls.append(stack is blocks) or fn(stack))
        assert _verdict(f.array, blocks, "eitff", DEFAULT_TOL)[0]
        assert sum(calls) == 1


    @pytest.mark.parametrize("name", ["simplex", "eitff"])
    def test_a_non_finite_sweep_is_a_numerical_error(self, monkeypatch, name):
        # The first sweep factors to NaN, which sets no flag; the next
        # sweep's eigendecomposition ("simplex") or SVD ("eitff") raises
        # NumericalError (exit 2), not the ValueError of a bad input.
        f = random_frame(R, 4, 2, 3, 0)
        gram_to_frame, sweeps = optimize._gram_to_frame, []

        def nan_once(pairs, n, d):
            sweeps.append(n)
            x = gram_to_frame(pairs, n, d)
            return np.full_like(x, np.nan) if len(sweeps) == 1 else x

        monkeypatch.setattr(optimize, "_gram_to_frame", nan_once)
        with pytest.raises(NumericalError):
            _polish_stage(f.array, math.inf, _governing(f, name))
        assert len(sweeps) == (2 if name == "simplex" else 1)


def _count_polishes(monkeypatch, fail: bool = False) -> list:
    """Record every polish-stage call; with ``fail``, every call fails without polishing."""
    calls = []

    def counting(*args):
        calls.append(args)
        return None if fail else _polish_stage(*args)

    monkeypatch.setattr("grasspack.optimize._polish_stage", counting)
    return calls


# The benchmark's search-known instances, with the flag their optimum sets.
SEARCH_KNOWN = {
    "simplex-R-2-1-3": (R, 2, 1, 3, Criterion.CHORDAL_OVERLAP, "is_ectff"),
    "ectff-R-4-2-3": (R, 4, 2, 3, Criterion.CHORDAL_OVERLAP, "is_ectff"),
    "etf-C-3-1-7": (C, 3, 1, 7, Criterion.CHORDAL_OVERLAP, "is_ectff"),
    "eitff-R-4-2-3": (R, 4, 2, 3, Criterion.SPECTRAL_OVERLAP, "is_eitff"),
}


class TestPackPolish:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("field, d, c, n, criterion, flag", list(SEARCH_KNOWN.values()), ids=list(SEARCH_KNOWN))
    def test_known_optima_certify(self, field, d, c, n, criterion, flag, seed):
        result = pack(field, d, c, n, PackConfig(criterion=criterion, seed=seed))
        assert getattr(result.certificate, flag)
        assert -1e-8 <= result.gap <= 1e-8

    @pytest.mark.parametrize(
        "d, c, n, name",
        [(2, 1, 4, "orthoplex"), (6, 2, 2, "trivial")],
    )
    @pytest.mark.parametrize("criterion", list(Criterion))
    def test_no_polish_without_a_structural_set(self, monkeypatch, d, c, n, name, criterion):
        calls = _count_polishes(monkeypatch)
        result = pack(R, d, c, n, PackConfig(criterion=criterion, iterations=300, restarts=2))
        assert result.bound_name == name
        assert calls == []

    def test_far_from_the_bound_is_the_descent_alone(self, monkeypatch):
        config = PackConfig(iterations=30, restarts=1)
        achieved, restart_index, mats, used = _best_of_all_restarts(R, 6, 2, 16, config)
        calls = _count_polishes(monkeypatch)
        result = pack(R, 6, 2, 16, config)
        assert calls == []
        assert result.achieved == achieved
        assert result.iterations_used == used
        assert result.frame.array.tobytes() == mats.tobytes()

    def test_failed_polish_resumes_the_descent(self, monkeypatch):
        # A polish that never succeeds leaves exactly the descent-only search,
        # with one polish per restart. 600 iterations bring each descent within
        # POLISH_CUT / 100 of the bound, so a second polish at a smaller cut
        # would show here.
        config = PackConfig(iterations=600, restarts=2)
        achieved, restart_index, mats, used = _best_of_all_restarts(R, 4, 2, 3, config)
        calls = _count_polishes(monkeypatch, fail=True)
        result = pack(R, 4, 2, 3, config)
        assert len(calls) == config.restarts
        assert result.achieved == achieved
        assert result.restart_index == restart_index
        assert result.iterations_used == used
        assert result.frame.array.tobytes() == mats.tobytes()

    def test_a_resumed_descent_evaluates_nothing_twice(self, monkeypatch):
        # One evaluation at each restart's start and one per trial, each
        # trial after one retraction: a failed polish adds none.
        counts = _count_calls(monkeypatch, obj_grad="smoothed_objective_and_gradient", qr="_qr_columns")
        starts = _count_restarts(monkeypatch)
        polishes = _count_polishes(monkeypatch, fail=True)
        pack(R, 4, 2, 3, PackConfig(iterations=600, restarts=2))
        assert len(polishes) == len(starts) == 2
        assert counts["obj_grad"] == counts["qr"] + len(starts)

    def test_below_round_off_the_polish_certifies_at_the_tolerance(self, monkeypatch):
        # A margin of 1e-16 is below round-off, so the polish runs all
        # POLISH_SWEEPS sweeps and then needs the flag at DEFAULT_TOL itself.
        margin = 1e-8
        monkeypatch.setattr(optimize, "POLISH_MARGIN", margin)
        checks = []
        real_verdict, real_certify = optimize._verdict, optimize.certify
        monkeypatch.setattr(optimize, "_verdict", lambda *args: checks.append(("verdict", args[-1])) or real_verdict(*args))
        monkeypatch.setattr(optimize, "certify", lambda *args: checks.append(("certify", args[-1])) or real_certify(*args))
        polishes = _count_polishes(monkeypatch)
        result = pack(R, 4, 2, 3)
        assert result.certificate.is_ectff
        assert len(polishes) == 1
        # Sweeps at the margin, the polish's check at the tolerance, then the result's certificate.
        assert checks[:-2] == [("verdict", margin * DEFAULT_TOL)] * optimize.POLISH_SWEEPS
        assert checks[-2:] == [("verdict", DEFAULT_TOL), ("certify", DEFAULT_TOL)]

    def test_a_converging_polish_runs_on_to_its_certificate(self):
        # This polish converges slowly at first and then faster; it certifies
        # only when it is not cut off before POLISH_SWEEPS.
        result = pack(C, 6, 2, 7, PackConfig(criterion=Criterion.SPECTRAL_OVERLAP, restarts=1, seed=0))
        assert result.certificate.is_eitff
        assert result.gap <= 1e-8

    def test_polish_runs_the_stage_after_its_descent(self):
        f = random_frame(R, 4, 2, 3, 2)
        result = polish(f, PackConfig())
        assert result.certificate.is_ectff
        assert result.gap <= 1e-10
