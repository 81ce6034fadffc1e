"""Numerical search for good subspace packings.

The search minimizes the worst pairwise overlap between subspaces,
measured either by the squared Frobenius norm of the cross-Gramian
(chordal criterion, lower-bounded by ``simplex_bound_gram``) or by its
squared spectral norm (spectral criterion, lower-bounded by
``eitff_bound``).

Since the true max is nonsmooth exactly at the ties an optimal packing
must have, the objective is smoothed with a log-sum-exp soft max of
configurable sharpness; the spectral norm is additionally smoothed by
the differentiable surrogate (Tr[(G* G)^p])^(1/p) with a fixed small
power p. Descent is plain gradient descent in the ambient entries,
followed by QR re-orthonormalization of every basis (a retraction onto
the product of Stiefel manifolds). The step size is fixed, with halving
on objective increase (at most 20 halvings per iteration) and no
momentum. Runs are deterministic: restarts draw their starting frames
from seeds derived from the configured seed. Each restart descends to
its own stop. Once one ends within the tolerance of the governing lower
bound (``bounds.governing_bound``), no later restart could beat it by
more than that tolerance, so the remaining restarts are skipped. The
best restart run wins, with ties broken by the lowest restart index.

No claim of global optimality is ever made; results report their gap to
the governing bound and carry a structure certificate.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import bounds
from .certify import Certificate, certify
from .construct import random_frame
from .linalg import FieldTag, NumericalError, _qr_columns
# cross_gramian is unused here but stays importable: bench/tracing.py
# wraps grasspack.optimize.cross_gramian.
from .metrics import (  # noqa: F401
    FusionFrame,
    _flat,
    _frobenius_sq,
    _pair_blocks,
    _triu,
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

_MAX_HALVINGS = 20


class Criterion(enum.Enum):
    """Which pairwise overlap the search minimizes the maximum of."""

    CHORDAL_OVERLAP = "chordal"  # max ||G||_F^2 over pairs
    SPECTRAL_OVERLAP = "spectral"  # max ||G||_2^2 over pairs


@dataclass(frozen=True)
class PackConfig:
    criterion: Criterion = Criterion.CHORDAL_OVERLAP
    iterations: int = 2000
    restarts: int = 10
    step_size: float = 0.05
    smoothing: float = 200.0
    seed: int = 0
    tolerance: float = 1e-8

    def __post_init__(self):
        for name, low in (("iterations", 1), ("restarts", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        for name in ("step_size", "smoothing", "tolerance"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class PackResult:
    frame: FusionFrame
    achieved: float  # true (unsmoothed) criterion value of the frame
    bound: float  # the governing lower bound for (n, d, c, field)
    bound_name: str  # "simplex", "eitff", "orthoplex" or "trivial"
    gap: float  # achieved - bound; >= -tolerance always
    certificate: Certificate
    iterations_used: int
    restart_index: int


def _pair_values(
    blocks: np.ndarray, criterion: Criterion, power: int
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Overlap of each cross-Gramian in a (P, c, c) stack.

    Chordal: ||G||_F^2. Spectral: (Tr[M^p])^(1/p) with M = G* G, returned
    together with M^(p-1) and Tr[M^p], which the gradient reuses.
    """
    if criterion is Criterion.CHORDAL_OVERLAP:
        return _frobenius_sq(blocks), None, None
    m = blocks.conj().swapaxes(-2, -1) @ blocks
    m_pm1 = np.linalg.matrix_power(m, power - 1)
    t = np.einsum("...kl,...lk->...", m_pm1, m).real
    # Round-off can leave t slightly negative; NaN passes through.
    return np.maximum(t, 0.0) ** (1.0 / power), m_pm1, t


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
    smoothing: float = 200.0,
    power: int = SPECTRAL_SMOOTHING_POWER,
) -> float:
    """Soft max of the pairwise overlaps of arbitrary d x c matrices.

    ``mats`` is a sequence of n d x c arrays or one (n, d, c) array.
    Orthonormal columns are not required, which makes this directly
    usable in finite-difference checks. The log-sum-exp is shifted by
    the running max for overflow safety.
    """
    # Overflow to inf on pathological inputs is deliberate; the descent
    # loop detects it and rejects the step (or raises NumericalError).
    with np.errstate(over="ignore", invalid="ignore"):
        vals, _, _ = _pair_values(_pair_blocks(np.asarray(mats)), criterion, power)
        return _soft_max(vals, smoothing)[0]


def smoothed_objective_and_gradient(
    mats: Sequence[np.ndarray],
    criterion: Criterion = Criterion.CHORDAL_OVERLAP,
    smoothing: float = 200.0,
    power: int = SPECTRAL_SMOOTHING_POWER,
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
    """
    x = np.asarray(mats)
    n, d, c = x.shape
    blocks = _pair_blocks(x)
    vals, m_pm1, t = _pair_values(blocks, criterion, power)
    objective, weights = _soft_max(vals, smoothing)
    if criterion is Criterion.CHORDAL_OVERLAP:
        h = (2.0 * weights)[:, None, None] * blocks
    else:
        with np.errstate(divide="ignore"):
            coef = np.where(t > 0.0, 2.0 * weights * t ** (1.0 / power - 1.0), 0.0)
        h = coef[:, None, None] * (blocks @ m_pm1)
    rows, cols = _triu(n)
    full = np.zeros((n, n, c, c), dtype=h.dtype)
    full[rows, cols] = h
    full[cols, rows] = h.conj().swapaxes(-2, -1)
    grad = _flat(x) @ full.transpose(0, 2, 1, 3).reshape(n * c, n * c)
    return objective, grad.reshape(d, n, c).transpose(1, 0, 2)


def worst_overlap(f: FusionFrame, criterion: Criterion) -> float:
    """The true (unsmoothed) criterion value: the worst pairwise overlap."""
    if f.n < 2:
        raise ValueError("overlap needs at least two subspaces")
    blocks = _pair_blocks(f.array)
    if criterion is Criterion.CHORDAL_OVERLAP:
        return float(_frobenius_sq(blocks).max())
    try:
        s = np.linalg.svd(blocks, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed to converge: {exc}") from exc
    return float(s[:, 0].max()) ** 2


def _descend(mats: np.ndarray, config: PackConfig) -> tuple[np.ndarray, int]:
    """Backtracking gradient descent with QR retraction after every step.

    ``mats`` is the (n, d, c) stack of the starting bases. Returns the
    final stack and the number of iterations that accepted a step. Stops
    early once no step down to step_size/2^20 decreases the smoothed
    objective.
    """
    fval = smoothed_objective(mats, config.criterion, config.smoothing)
    if not math.isfinite(fval):
        raise NumericalError(f"non-finite objective {fval!r}; reduce the step size")
    used = 0
    for _ in range(config.iterations):
        _, grads = smoothed_objective_and_gradient(mats, config.criterion, config.smoothing)
        if not grads.any():
            break
        step = config.step_size
        accepted = False
        for _ in range(_MAX_HALVINGS + 1):
            trial = _qr_columns(mats - step * grads)
            ftrial = smoothed_objective(trial, config.criterion, config.smoothing)
            if math.isfinite(ftrial) and ftrial < fval:
                mats, fval = trial, ftrial
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        used += 1
    if not math.isfinite(fval):
        raise NumericalError(f"non-finite objective {fval!r}; reduce the step size")
    return mats, used


def _governing_bound(field: FieldTag, d: int, c: int, n: int, criterion: Criterion) -> tuple[float, str]:
    return bounds.governing_bound(n, d, c, field, spectral=criterion is Criterion.SPECTRAL_OVERLAP)


def _result(frame: FusionFrame, achieved: float, config: PackConfig, used: int, restart_index: int) -> PackResult:
    """A PackResult: the frame with its gap to the governing bound and its certificate."""
    value, name = _governing_bound(frame.field, frame.d, frame.c, frame.n, config.criterion)
    return PackResult(
        frame=frame,
        achieved=achieved,
        bound=value,
        bound_name=name,
        gap=achieved - value,
        certificate=certify(frame, config.tolerance),
        iterations_used=used,
        restart_index=restart_index,
    )


def pack(field: FieldTag, d: int, c: int, n: int, config: PackConfig = PackConfig()) -> PackResult:
    """Search for n well-separated c-dimensional subspaces of F^d.

    Runs up to ``config.restarts`` independent descents from seeded
    random frames and returns the best by achieved criterion value (ties
    to the lowest restart index). Each descent runs to its own stop; the
    search ends early after the first restart whose achieved value is
    within ``config.tolerance`` of the governing bound, since no later
    restart can beat it by more than that. Identical configs produce
    bit-identical results.
    """
    if d < 1 or not 1 <= c <= d:
        raise ValueError(f"need 1 <= c <= d, got c = {c}, d = {d}")
    if n < 2:
        raise ValueError(f"need n >= 2 subspaces, got n = {n}")
    bound, _ = _governing_bound(field, d, c, n, config.criterion)
    restart_seeds = [int(s) for s in np.random.SeedSequence(config.seed).generate_state(config.restarts, dtype=np.uint64)]
    best: tuple[float, int, FusionFrame, int] | None = None
    for r, seed in enumerate(restart_seeds):
        start = random_frame(field, d, c, n, seed)
        mats, used = _descend(start.array, config)
        frame = FusionFrame.from_arrays(mats, field)
        achieved = worst_overlap(frame, config.criterion)
        if best is None or achieved < best[0]:
            best = (achieved, r, frame, used)
        if achieved - bound <= config.tolerance:
            break
    achieved, restart_index, frame, used = best
    return _result(frame, achieved, config, used, restart_index)


def polish(f: FusionFrame, config: PackConfig = PackConfig()) -> PackResult:
    """Run the descent from an existing frame instead of a random start.

    The result is never worse than the input: if the descent on the
    smoothed objective fails to improve the true criterion value, the
    input frame is returned unchanged.
    """
    if f.n < 2:
        raise ValueError(f"need n >= 2 subspaces, got n = {f.n}")
    initial_achieved = worst_overlap(f, config.criterion)
    mats, used = _descend(f.array, config)
    frame = FusionFrame.from_arrays(mats, f.field)
    achieved = worst_overlap(frame, config.criterion)
    if achieved > initial_achieved:
        frame, achieved, used = f, initial_achieved, 0
    return _result(frame, achieved, config, used, 0)
