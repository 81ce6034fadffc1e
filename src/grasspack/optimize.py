"""Numerical search for good subspace packings.

The search minimizes the worst pairwise overlap between subspaces,
measured either by the squared Frobenius norm of the cross-Gramian
(chordal criterion, lower-bounded by ``simplex_bound_gram``) or by its
squared spectral norm (spectral criterion, lower-bounded by
``eitff_bound``).

Since the true max is nonsmooth exactly at the ties an optimal packing
must have, the objective is smoothed with a log-sum-exp soft max of
fixed sharpness ``SMOOTHING``; the spectral norm is additionally
smoothed by the differentiable surrogate (Tr[(G* G)^p])^(1/p) with the
fixed small power p = ``SPECTRAL_SMOOTHING_POWER``. Descent is plain
gradient descent in the ambient entries, followed by QR
re-orthonormalization of every basis (a retraction onto the product of
Stiefel manifolds). A descent's first line search starts from the step
``STEP_SIZE``, and each later one from twice the last accepted step,
capped at ``STEP_SIZE``; each halves on objective increase (at most 20
halvings per iteration), with no momentum. Each trial is evaluated
once, objective and gradient together, so the accepted trial's gradient
is the next step's direction. Runs are deterministic: restarts draw
their starting frames from seeds derived from the configured seed.

A descent on a soft max brings the overlaps level quickly but makes the
frame tight only slowly, so it often stops just short of a certificate.
When the governing lower bound (``bounds.governing_bound``) is the
simplex bound (``"simplex"``) or the EITFF bound (``"eitff"``), each
restart's descent therefore stops once its true worst overlap is within
``POLISH_CUT`` of the bound and hands the frame, once, to a polish stage
in the Gram domain: an alternating projection between the fusion Gram
matrices of that bound's optimal structure (ECTFF or EITFF) and those of
tight fusion frames. Each sweep checks only the certificate's flag for
that structure and, once it is set, the worst overlap. The polished
frame is kept only if it sets the ECTFF or EITFF flag and that overlap
is no worse than the descent's; otherwise the same descent runs on.
Past the Gerzon limit (``"orthoplex"``), when 2c > d
(``"intersection"``) and when nc < d (``"trivial"``) there is no
polish. Each restart runs to its own stop: a start already within
``DEFAULT_TOL`` of the governing bound is not descended at all, and a
restart that ends worse than its start keeps the start. ``pack`` and
``polish`` run one search loop, over seeded random starts or over the
one given frame. Restarts run on bare (n, d, c) stacks: only a winner
that is not its own start is validated, as the result's FusionFrame, and
a non-finite polish sweep ends in the NumericalError of the next sweep's
eigendecomposition or SVD. Once a restart ends within ``DEFAULT_TOL``
of the bound, no later restart could beat it by more than that, so the
remaining restarts are skipped. The best restart wins, with ties broken
by the lowest restart index.

No claim of global optimality is ever made; results report their gap to
the governing bound and carry a structure certificate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import ClassVar, Iterable, Iterator, Sequence

import numpy as np

from . import bounds
from ._rules import Criterion, _check_count
from .certify import Certificate, _verdict, certify
from .construct import random_frame
from .linalg import DEFAULT_TOL, FieldTag, NumericalError, _qr_columns, _svd
# cross_gramian is unused here but stays importable: bench/tracing.py
# wraps grasspack.optimize.cross_gramian.
from .metrics import (  # noqa: F401
    FusionFrame,
    _block_matrix,
    _flat,
    _frobenius_sq,
    _gram_to_frame,
    _pair_blocks,
    _pair_products,
    _spectral_max,
    cross_gramian,
)

__all__ = [
    "Criterion",
    "PackConfig",
    "PackResult",
    "pack",
    "polish",
    "smoothed_objective",
    "smoothed_objective_and_gradient",
    "worst_overlap",
]

# Power p of the trace surrogate (Tr[(G* G)^p])^(1/p) for the squared
# spectral norm; larger p is tighter but stiffer.
SPECTRAL_SMOOTHING_POWER = 4

# Sharpness of the log-sum-exp soft max over pairs, and the first step of
# a descent's first backtracking line search, which also caps the first
# step of every later one.
SMOOTHING = 200.0
STEP_SIZE = 0.05

_MAX_HALVINGS = 20

# The polish stage near a "simplex" or "eitff" bound: a descent hands over
# once its true worst overlap is within POLISH_CUT of the bound. The
# polish stops once its certificate holds at POLISH_MARGIN times
# DEFAULT_TOL, or after POLISH_SWEEPS sweeps.
POLISH_CUT = 1e-2
POLISH_SWEEPS = 200
POLISH_MARGIN = 0.01
# The bounds whose optimal structure (ECTFF or EITFF) the polish projects onto.
_STRUCTURES = ("simplex", "eitff")


def _check_criterion(criterion) -> None:
    """A criterion is a Criterion, by exact type: every objective call checks it."""
    if type(criterion) is not Criterion:
        raise ValueError(f"criterion must be a Criterion, got {criterion!r}")


@dataclass(frozen=True)
class PackConfig:
    criterion: Criterion = Criterion.CHORDAL_OVERLAP
    iterations: int = 2000
    restarts: int = 10
    seed: int = 0
    tolerance: ClassVar[float] = DEFAULT_TOL  # not a field; bench/workloads.py reads it

    def __post_init__(self):
        for name, low in (("iterations", 1), ("restarts", 1), ("seed", 0)):
            _check_count(getattr(self, name), name, low)
        _check_criterion(self.criterion)


@dataclass(frozen=True)
class PackResult:
    frame: FusionFrame
    achieved: float  # true (unsmoothed) criterion value of the frame
    bound: float  # the governing lower bound for (n, d, c, field)
    bound_name: str  # "simplex", "eitff", "orthoplex", "intersection" or "trivial"
    gap: float  # achieved - bound; >= -DEFAULT_TOL always
    certificate: Certificate
    iterations_used: int  # descent iterations of the winning restart; polish sweeps are not counted
    restart_index: int


def _soft_max(vals: np.ndarray, smoothing: float) -> tuple[float, np.ndarray]:
    """Log-sum-exp soft max, shifted by the max for overflow safety, and
    the normalized weights that are its derivative in ``vals``."""
    vmax = vals.max()
    weights = np.exp(smoothing * (vals - vmax))
    total = weights.sum()
    return float(vmax + math.log(total) / smoothing), weights / total


def smoothed_objective(
    mats: Sequence[np.ndarray],
    criterion: Criterion = Criterion.CHORDAL_OVERLAP,
    smoothing: float = SMOOTHING,
) -> float:
    """Soft max of the pairwise overlaps of arbitrary d x c matrices.

    ``mats`` is a sequence of n d x c arrays or one (n, d, c) array.
    Orthonormal columns are not required, which makes this directly
    usable in finite-difference checks. The log-sum-exp is shifted by
    the running max for overflow safety. This is the value
    :func:`smoothed_objective_and_gradient` returns.
    """
    return smoothed_objective_and_gradient(mats, criterion, smoothing)[0]


def smoothed_objective_and_gradient(
    mats: Sequence[np.ndarray],
    criterion: Criterion = Criterion.CHORDAL_OVERLAP,
    smoothing: float = SMOOTHING,
) -> tuple[float, np.ndarray]:
    """Objective value together with its gradient in the matrix entries.

    The gradient is an (n, d, c) array whose j-th entry is the gradient
    in ``mats[j]``. For complex matrices these are conjugate (Wirtinger)
    gradients, so a step along their negative decreases the objective to
    first order and the real and imaginary parts match entrywise finite
    differences.

    For each pair j < j' with cross-Gramian G = X_j* X_j' and soft-max
    weight w, let H_jj' = 2w G (chordal) or 2w t^(1/p-1) G M^(p-1)
    (spectral, M = G* G, t = Tr[M^p]), and H_j'j = H_jj'*. Gradient j' is
    then the sum over j of X_j H_jj': one product of the d x nc matrix of
    all bases with the nc x nc block matrix H.

    Overflow on pathological inputs is deliberate and quiet: the value
    and gradient come back non-finite, without a warning or a raise. A
    stack that is not 3-d, or has d = 0 or c = 0, raises ValueError.
    """
    _check_criterion(criterion)
    x = np.asarray(mats)
    if x.ndim != 3 or 0 in x.shape[1:]:
        raise ValueError(f"mats must be an (n, d, c) stack with d, c >= 1, got shape {x.shape}")
    n, d, c = x.shape
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        blocks = _pair_blocks(x)
        if criterion is Criterion.CHORDAL_OVERLAP:
            objective, weights = _soft_max(_frobenius_sq(blocks), smoothing)
            h = (2.0 * weights)[:, None, None] * blocks
        else:
            m = blocks.conj().swapaxes(-2, -1) @ blocks
            m_pm1 = np.linalg.matrix_power(m, SPECTRAL_SMOOTHING_POWER - 1)
            t = np.einsum("...kl,...lk->...", m_pm1, m).real
            # Round-off can leave t slightly negative; NaN passes through.
            objective, weights = _soft_max(np.maximum(t, 0.0) ** (1.0 / SPECTRAL_SMOOTHING_POWER), smoothing)
            coef = np.where(t > 0.0, 2.0 * weights * t ** (1.0 / SPECTRAL_SMOOTHING_POWER - 1.0), 0.0)
            h = coef[:, None, None] * (blocks @ m_pm1)
        grad = _flat(x) @ _block_matrix(h, n, False)
    return objective, grad.reshape(d, n, c).transpose(1, 0, 2)


def _worst_overlap(x: np.ndarray, criterion: Criterion) -> float:
    """The worst pairwise overlap of an (n, d, c) stack of orthonormal bases.

    The spectral value takes an SVD only of the pairs that can hold it
    (``metrics._spectral_max``), and none at c = 1.
    """
    blocks = _pair_blocks(x)
    overlaps = _frobenius_sq(blocks)
    if criterion is Criterion.CHORDAL_OVERLAP:
        return float(overlaps.max())
    return _spectral_max(blocks, overlaps, _pair_products(blocks, overlaps)[0])


def worst_overlap(f: FusionFrame, criterion: Criterion) -> float:
    """The true (unsmoothed) criterion value: the worst pairwise overlap."""
    _check_criterion(criterion)
    return _worst_overlap(f.array, criterion)


def _descend(mats: np.ndarray, criterion: Criterion) -> Iterator[tuple[np.ndarray, float]]:
    """Backtracking gradient descent with QR retraction after every step.

    ``mats`` is the (n, d, c) stack of the starting bases. Its objective
    is evaluated once, and a non-finite value raises NumericalError.
    Yields the stack and its smoothed objective after each accepted step;
    the caller owns the budget and every other stop. Each line-search
    trial is evaluated once, by :func:`smoothed_objective_and_gradient`,
    and an accepted trial's gradient is the next iteration's direction.
    The first line search starts from STEP_SIZE, and each later one from
    min(STEP_SIZE, 2 x the last accepted step). That step is the
    generator's own state, so a descent the caller pauses and resumes is
    the one it would have run uninterrupted. Returns once the gradient
    vanishes or no step down to 2^-20 times the line search's first
    step decreases the smoothed objective. Only a finite trial value is
    accepted, so the objective stays finite once the start's is.
    """
    fval, grads = smoothed_objective_and_gradient(mats, criterion)
    if not math.isfinite(fval):
        raise NumericalError(f"non-finite objective {fval!r} at the starting frame")
    step = STEP_SIZE
    while grads.any():
        for _ in range(_MAX_HALVINGS + 1):
            trial = _qr_columns(mats - step * grads)
            ftrial, gtrial = smoothed_objective_and_gradient(trial, criterion)
            if math.isfinite(ftrial) and ftrial < fval:
                mats, fval, grads = trial, ftrial, gtrial
                break
            step *= 0.5
        else:
            return
        yield mats, fval
        step = min(STEP_SIZE, 2.0 * step)


def _structural_projection(pairs: np.ndarray, governing: tuple[float, str]) -> np.ndarray:
    """Nearest pair blocks in the structural set of a "simplex" or "eitff" bound.

    Each block G of the (P, c, c) stack ``pairs``, the blocks above a
    fusion Gram matrix's identity diagonal, becomes sqrt(bound) G/||G||_F
    for "simplex" (each squared Frobenius overlap at the bound, as in an
    ECTFF; a zero block stays zero) or sqrt(bound) U V* from G = U S V*
    for "eitff" (sigma times the polar factor, as in an EITFF).
    """
    value, name = governing
    if name == "simplex":
        norms = np.sqrt(_frobenius_sq(pairs))
        scale = np.divide(math.sqrt(value), norms, out=np.zeros_like(norms), where=norms > 0.0)
        return scale[:, None, None] * pairs
    u, _, vh = _svd(pairs)
    return math.sqrt(value) * (u @ vh)


def _polish_stage(x: np.ndarray, achieved: float, governing: tuple[float, str]) -> tuple[np.ndarray, float] | None:
    """Alternating projection in the Gram domain from an (n, d, c) stack near a "simplex" or "eitff" bound.

    Each sweep projects the stack's fusion Gram matrix onto the bound's
    structural set and factors the result back to a stack, which lands
    it near the spectral set of tight fusion frames (nc/d times a rank-d
    projection); Tropp, Dhillon, Heath and Strohmer, IEEE Trans. Inf.
    Theory 2005, and Dhillon, Heath, Strohmer and Tropp, Exp. Math. 2008.
    Each sweep forms the stack's pair blocks once, for both its check and
    its projection. The check is ``certify._verdict``: the certificate's
    flag of the bound's structure (ECTFF or EITFF) and, once it is set,
    the worst overlap the bound governs, which is the true criterion
    value. The polish stops once the flag is set at POLISH_MARGIN *
    DEFAULT_TOL with that overlap at most that much above the bound, so
    the result holds its certificate with margin. Otherwise it stops
    after POLISH_SWEEPS sweeps and then needs the flag at DEFAULT_TOL
    itself. Returns the polished stack and the overlap its last check
    measured when the flag is set and that overlap is at most
    ``achieved``; otherwise None.
    """
    value, name = governing
    strict = POLISH_MARGIN * DEFAULT_TOL
    polished = x
    for _ in range(POLISH_SWEEPS):
        blocks = _pair_blocks(polished)
        flag, worst = _verdict(polished, blocks, name, strict)
        if flag and worst - value <= strict:
            break
        polished = _gram_to_frame(_structural_projection(blocks, governing), *x.shape[:2])
    else:
        flag, worst = _verdict(polished, _pair_blocks(polished), name, DEFAULT_TOL)
    return (polished, worst) if flag and worst <= achieved else None


def _restart(start: np.ndarray, governing: tuple[float, str], config: PackConfig) -> tuple[np.ndarray, float, int]:
    """One restart from the (n, d, c) stack ``start``: its stack, true worst overlap and descent iterations.

    The start is measured once; within DEFAULT_TOL of the bound it is
    returned itself. Otherwise one descent runs for at most
    ``config.iterations`` accepted steps. Near a "simplex" or "eitff"
    bound it hands its iterate and that iterate's true worst overlap,
    once, to the polish stage when the overlap is within POLISH_CUT of
    the bound; if the polish fails, the same descent runs on. The true
    value is computed only once the objective passes a necessary
    pre-test: over P pairs the soft max exceeds the largest smoothed
    overlap by at most log(P)/SMOOTHING, and a smoothed overlap is the
    chordal overlap itself or, for the spectral criterion, at most
    c^(1/p) times the squared spectral norm. The one exit returns the
    start itself, with 0 iterations, when it is better than the
    polished or descended stack the restart ends on.
    """
    value, name = governing
    n, _, c = start.shape
    start_value = _worst_overlap(start, config.criterion)
    if start_value - value <= DEFAULT_TOL:
        return start, start_value, 0
    target, pretest = value + POLISH_CUT, -math.inf
    if name in _STRUCTURES:
        surrogate = c ** (1.0 / SPECTRAL_SMOOTHING_POWER) if config.criterion is Criterion.SPECTRAL_OVERLAP else 1.0
        pretest = surrogate * target + math.log(n * (n - 1) // 2) / SMOOTHING
    mats, used, ended = start, 0, None
    for used, (mats, fval) in enumerate(itertools.islice(_descend(mats, config.criterion), config.iterations), 1):
        if fval <= pretest and (near := _worst_overlap(mats, config.criterion)) <= target:
            ended = _polish_stage(mats, near, governing)
            if ended is not None:
                break
            pretest = -math.inf  # one polish per restart; the descent runs on
    if ended is None:
        ended = mats, _worst_overlap(mats, config.criterion)
    return (start, start_value, 0) if start_value < ended[1] else (*ended, used)


def _search(starts: Iterable[FusionFrame], field: FieldTag, d: int, c: int, n: int, config: PackConfig) -> PackResult:
    """The search loop: a restart from each start in turn, the best kept (ties to the first).

    The governing bound is computed, which checks (n, d, c), before the
    first start is drawn. The loop stops after the first restart within
    DEFAULT_TOL of the bound. Restarts run on bare stacks, and only a
    winner that is not its own start is validated, as a FusionFrame.
    """
    value, name = bounds.governing_bound(n, d, c, field, config.criterion is Criterion.SPECTRAL_OVERLAP)
    best: tuple[float, int, np.ndarray, int, FusionFrame] | None = None
    for r, start in enumerate(starts):
        mats, achieved, used = _restart(start.array, (value, name), config)
        if best is None or achieved < best[0]:
            best = (achieved, r, mats, used, start)
        if achieved - value <= DEFAULT_TOL:
            break
    achieved, restart_index, mats, used, start = best
    frame = start if mats is start.array else FusionFrame.from_arrays(mats, field)
    return PackResult(
        frame=frame, achieved=achieved, bound=value, bound_name=name, gap=achieved - value,
        certificate=certify(frame, DEFAULT_TOL), iterations_used=used, restart_index=restart_index,
    )


def pack(field: FieldTag, d: int, c: int, n: int, config: PackConfig = PackConfig()) -> PackResult:
    """Search for n well-separated c-dimensional subspaces of F^d.

    Runs up to ``config.restarts`` independent restarts from seeded
    random frames and returns the best by achieved criterion value (ties
    to the lowest restart index). Each restart descends to its own stop;
    near a "simplex" or "eitff" bound the descent hands over once to the
    Gram-domain polish stage, which keeps its frame only if that frame
    certifies as an ECTFF or EITFF and is no worse (see
    :func:`_polish_stage`); otherwise the descent runs on. A restart
    that ends worse than its random start keeps the start. The search
    ends early after the first restart whose achieved value is within
    ``DEFAULT_TOL`` of the governing bound, since no later restart can
    beat it by more than that. ``iterations_used`` counts the winning
    restart's descent iterations only, not polish sweeps. Identical
    configs produce bit-identical results. Invalid (n, d, c) raise
    ValueError from ``bounds.governing_bound`` before any search starts.
    """
    seeds = np.random.SeedSequence(config.seed).generate_state(config.restarts, dtype=np.uint64)
    return _search((random_frame(field, d, c, n, int(s)) for s in seeds), field, d, c, n, config)


def polish(f: FusionFrame, config: PackConfig = PackConfig()) -> PackResult:
    """Run the search's one restart (the descent, then near a "simplex"
    or "eitff" bound the polish stage) from an existing frame instead of
    a random start: the search loop over the one start ``f``.

    The result is never worse than the input: a restart that fails to
    improve the true criterion value returns the input frame itself, as
    does an input already within ``DEFAULT_TOL`` of the bound. Invalid
    frames (n = 1) raise ValueError from ``bounds.governing_bound``
    before any descent.
    """
    return _search([f], f.field, f.d, f.c, f.n, config)
