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
Stiefel manifolds). Each line search starts from the fixed step
``STEP_SIZE``, halving on objective increase (at most 20 halvings per
iteration), with no momentum. Each trial is evaluated once, objective
and gradient together, so the accepted trial's gradient is the next
step's direction. Runs are deterministic: restarts draw
their starting frames from seeds derived from the configured seed.

A descent on a soft max brings the overlaps level quickly but makes the
frame tight only slowly, so it often stops just short of a certificate.
When the governing lower bound (``bounds.governing_bound``) is the
simplex bound (``"simplex"``) or the EITFF bound (``"eitff"``), each
restart's descent therefore stops once its true worst overlap is within
``POLISH_CUT`` of the bound and hands the frame, once, to a polish stage
in the Gram domain: an alternating projection between the fusion Gram
matrices of that bound's optimal structure (ECTFF or EITFF) and those of
tight fusion frames. The polished frame is kept only if its certificate
sets the ECTFF or EITFF flag and its true worst overlap is no worse than
the descent's; otherwise the descent resumes, with no target, on the
rest of its iterations. Past the Gerzon limit (``"orthoplex"``),
when 2c > d (``"intersection"``) and when nc < d (``"trivial"``)
there is no polish. Each restart runs to
its own stop. Once one ends within ``DEFAULT_TOL`` of the governing
bound, no later restart could beat it by more than that, so the
remaining restarts are skipped. The best restart run wins, with ties
broken by the lowest restart index.

No claim of global optimality is ever made; results report their gap to
the governing bound and carry a structure certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from . import bounds
from ._rules import Criterion
from .certify import Certificate, certify
from .construct import random_frame
from .linalg import DEFAULT_TOL, FieldTag, NumericalError, _check_count, _qr_columns, _svd
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
# each backtracking line search.
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
# What the polish reads off the certificate under each bound it runs for:
# the flag of the optimal structure and the gap to it.
_STRUCTURES = {
    "simplex": ("is_ectff", "simplex_gap"),
    "eitff": ("is_eitff", "eitff_gap"),
}


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
    and gradient come back non-finite, without a warning or a raise.
    """
    _check_criterion(criterion)
    x = np.asarray(mats)
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
    if criterion is Criterion.CHORDAL_OVERLAP:
        return float(_frobenius_sq(blocks).max())
    overlaps, fourth, _, _ = _pair_products(blocks)
    return _spectral_max(blocks, overlaps, fourth)


def worst_overlap(f: FusionFrame, criterion: Criterion) -> float:
    """The true (unsmoothed) criterion value: the worst pairwise overlap."""
    _check_criterion(criterion)
    return _worst_overlap(f.array, criterion)


def _descend(
    mats: np.ndarray, config: PackConfig, budget: int, target: float | None = None
) -> tuple[np.ndarray, int, bool]:
    """Backtracking gradient descent with QR retraction after every step.

    ``mats`` is the (n, d, c) stack of the starting bases. Runs at most
    ``budget`` iterations. Each line-search trial is evaluated once, by
    :func:`smoothed_objective_and_gradient`, and an accepted trial's
    gradient is the next iteration's direction. Returns the final stack,
    the number of iterations that accepted a step, and whether it
    stopped because an accepted step brought the true worst overlap to
    ``target`` or below. The true value is computed only once
    the objective passes a necessary pre-test: over P pairs the soft max
    exceeds the largest smoothed overlap by at most log(P)/SMOOTHING, and
    a smoothed overlap is the chordal overlap itself or, for the spectral
    criterion, at most c^(1/p) times the squared spectral norm. Also
    stops once no step down to STEP_SIZE/2^20 decreases the smoothed
    objective. Only a finite trial value is accepted, so the objective
    stays finite once the start's is.
    """
    fval, grads = smoothed_objective_and_gradient(mats, config.criterion)
    if not math.isfinite(fval):
        raise NumericalError(f"non-finite objective {fval!r} at the starting frame")
    if target is not None:
        n, _, c = mats.shape
        surrogate = c ** (1.0 / SPECTRAL_SMOOTHING_POWER) if config.criterion is Criterion.SPECTRAL_OVERLAP else 1.0
        pretest = surrogate * target + math.log(n * (n - 1) // 2) / SMOOTHING
    used = 0
    for _ in range(budget):
        if not grads.any():
            break
        step = STEP_SIZE
        accepted = False
        for _ in range(_MAX_HALVINGS + 1):
            trial = _qr_columns(mats - step * grads)
            ftrial, gtrial = smoothed_objective_and_gradient(trial, config.criterion)
            if math.isfinite(ftrial) and ftrial < fval:
                mats, fval, grads = trial, ftrial, gtrial
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        used += 1
        if target is not None and fval <= pretest:
            if _worst_overlap(mats, config.criterion) <= target:
                return mats, used, True
    return mats, used, False


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


def _polish_stage(
    frame: FusionFrame, achieved: float, governing: tuple[float, str], config: PackConfig
) -> tuple[FusionFrame, float] | None:
    """Alternating projection in the Gram domain from a frame near a "simplex" or "eitff" bound.

    Each sweep projects the frame's fusion Gram matrix onto the bound's
    structural set and factors the result back to a frame, which lands
    it near the spectral set of tight fusion frames (nc/d times a rank-d
    projection); Tropp, Dhillon, Heath and Strohmer, IEEE Trans. Inf.
    Theory 2005, and Dhillon, Heath, Strohmer and Tropp, Exp. Math. 2008.
    Stops once the certificate at POLISH_MARGIN * DEFAULT_TOL sets the
    flag of the bound (ECTFF or EITFF) with a gap of at most that much, so
    the result holds its certificate with margin. Otherwise it stops after
    POLISH_SWEEPS sweeps and then needs the flag at DEFAULT_TOL itself.
    Returns the polished frame and its true worst overlap when the flag
    is set and that overlap is at most ``achieved``; otherwise None.
    """
    flag, gap_field = _STRUCTURES[governing[1]]
    strict = POLISH_MARGIN * DEFAULT_TOL
    polished = frame
    for _ in range(POLISH_SWEEPS):
        cert = certify(polished, strict)
        if getattr(cert, flag) and getattr(cert, gap_field) <= strict:
            break
        mats = _gram_to_frame(_structural_projection(_pair_blocks(polished.array), governing), frame.n, frame.d)
        polished = FusionFrame.from_arrays(mats, frame.field)
    else:
        if not getattr(certify(polished, DEFAULT_TOL), flag):
            return None
    value = worst_overlap(polished, config.criterion)
    return (polished, value) if value <= achieved else None


def _restart(
    mats: np.ndarray, field: FieldTag, governing: tuple[float, str], config: PackConfig
) -> tuple[FusionFrame, float, int]:
    """One restart from the (n, d, c) stack ``mats``: its frame, true worst overlap and descent iterations.

    Near a "simplex" or "eitff" bound the descent stops once the true
    worst overlap is within POLISH_CUT of the bound and hands the frame
    to the polish stage. If the polish fails, the descent resumes on the
    rest of its iterations with no target.
    """
    value, name = governing
    target = value + POLISH_CUT if name in _STRUCTURES else None
    mats, used, reached = _descend(mats, config, config.iterations, target)
    if reached:
        frame = FusionFrame.from_arrays(mats, field)
        polished = _polish_stage(frame, worst_overlap(frame, config.criterion), governing, config)
        if polished is not None:
            return (*polished, used)
        mats, steps, _ = _descend(mats, config, config.iterations - used)
        used += steps
    frame = FusionFrame.from_arrays(mats, field)
    return frame, worst_overlap(frame, config.criterion), used


def _result(
    frame: FusionFrame, achieved: float, governing: tuple[float, str], used: int, restart_index: int
) -> PackResult:
    """A PackResult: the frame with its gap to the governing bound (value, name) and its certificate."""
    value, name = governing
    return PackResult(
        frame=frame,
        achieved=achieved,
        bound=value,
        bound_name=name,
        gap=achieved - value,
        certificate=certify(frame, DEFAULT_TOL),
        iterations_used=used,
        restart_index=restart_index,
    )


def pack(field: FieldTag, d: int, c: int, n: int, config: PackConfig = PackConfig()) -> PackResult:
    """Search for n well-separated c-dimensional subspaces of F^d.

    Runs up to ``config.restarts`` independent restarts from seeded
    random frames and returns the best by achieved criterion value (ties
    to the lowest restart index). Each restart descends to its own stop;
    near a "simplex" or "eitff" bound the descent hands over once to the
    Gram-domain polish stage, which keeps its frame only if that frame
    certifies as an ECTFF or EITFF and is no worse (see
    :func:`_polish_stage`); otherwise the descent runs on. The search
    ends early after the first restart whose achieved value is within
    ``DEFAULT_TOL`` of the governing bound, since no later restart can
    beat it by more than that. ``iterations_used`` counts the winning
    restart's descent iterations only, not polish sweeps. Identical
    configs produce bit-identical results. Invalid (n, d, c) raise
    ValueError from ``bounds.governing_bound`` before any search starts.
    """
    governing = bounds.governing_bound(n, d, c, field, config.criterion is Criterion.SPECTRAL_OVERLAP)
    restart_seeds = [int(s) for s in np.random.SeedSequence(config.seed).generate_state(config.restarts, dtype=np.uint64)]
    best: tuple[float, int, FusionFrame, int] | None = None
    for r, seed in enumerate(restart_seeds):
        start = random_frame(field, d, c, n, seed)
        frame, achieved, used = _restart(start.array, field, governing, config)
        if best is None or achieved < best[0]:
            best = (achieved, r, frame, used)
        if achieved - governing[0] <= DEFAULT_TOL:
            break
    achieved, restart_index, frame, used = best
    return _result(frame, achieved, governing, used, restart_index)


def polish(f: FusionFrame, config: PackConfig = PackConfig()) -> PackResult:
    """Run one restart of the search (the descent, then near a "simplex"
    or "eitff" bound the polish stage) from an existing frame instead of
    a random start.

    The result is never worse than the input: if the restart fails to
    improve the true criterion value, the input frame is returned
    unchanged. Invalid frames (n = 1) raise ValueError from
    ``bounds.governing_bound`` before any descent.
    """
    governing = bounds.governing_bound(f.n, f.d, f.c, f.field, config.criterion is Criterion.SPECTRAL_OVERLAP)
    initial_achieved = worst_overlap(f, config.criterion)
    frame, achieved, used = _restart(f.array, f.field, governing, config)
    if achieved > initial_achieved:
        frame, achieved, used = f, initial_achieved, 0
    return _result(frame, achieved, governing, used, 0)
