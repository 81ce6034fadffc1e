"""Machine-checkable structure certificates for frames of subspaces.

Each predicate returns a boolean flag together with the residuals that
justify it, so a near-miss can be diagnosed; a frame is never "almost"
certified. Tightness, equi-chordality and equi-isoclinicity combine
into ECTFF / EITFF verdicts, and :func:`certify` additionally reports the
gap between the frame's worst pairwise overlap and each applicable
packing bound. The unit-vector predicates (ETF, equiangularity, regular
simplex) are their c = 1 cases. Constants are estimated by averaging
over all pairs rather than privileging the first pair.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import bounds
from .linalg import DEFAULT_TOL, _check_tol, _svals
# cross_gramian is unused here but stays importable: bench/tracing.py
# wraps grasspack.certify.cross_gramian.
from .metrics import (  # noqa: F401
    FusionFrame,
    _frobenius_sq,
    _pair_blocks,
    _require_vectors,
    cross_gramian,
    fusion_frame_operator,
)

__all__ = [
    "Certificate",
    "EquichordalResult",
    "EquiisoclinicResult",
    "TightnessResult",
    "certify",
    "is_equiangular",
    "is_equichordal",
    "is_equiisoclinic",
    "is_etf",
    "is_regular_simplex",
    "is_tight_fusion_frame",
    "is_unit_norm_tight_frame",
]


@dataclass(frozen=True)
class TightnessResult:
    flag: bool
    residual: float  # ||sum P_j - alpha I||_F / (alpha sqrt(d)), alpha = nc/d
    alpha: float


@dataclass(frozen=True)
class EquichordalResult:
    flag: bool
    beta: float  # mean pairwise squared Frobenius cross-Gramian norm
    deviation: float  # worst pairwise departure from beta


@dataclass(frozen=True)
class EquiisoclinicResult:
    flag: bool
    sigma_sq: float  # mean of (1/c) ||cross-Gramian||_F^2 over pairs
    deviation: float  # worst ||G* G - sigma_sq I||_F over pairs


@dataclass(frozen=True)
class Certificate:
    """Certified structure of a fusion frame, with residuals and bound gaps."""

    is_tight: bool
    tight_residual: float
    alpha: float
    is_equichordal: bool
    beta: float
    beta_deviation: float
    is_equiisoclinic: bool
    sigma_sq: float
    sigma_deviation: float
    is_ectff: bool
    is_eitff: bool
    simplex_gap: float  # worst Frobenius overlap minus its lower bound
    eitff_gap: float  # worst spectral overlap minus its lower bound
    orthoplex_gap: float | None  # present only past the Gerzon limit
    tolerance: float

    def as_dict(self) -> dict:
        return asdict(self)


def is_tight_fusion_frame(f: FusionFrame, tol: float = DEFAULT_TOL) -> TightnessResult:
    """Check that the projections sum to (nc/d) I.

    The constant is forced by the trace, so only the relative residual
    ||sum P_j - (nc/d) I||_F / ((nc/d) sqrt(d)) is measured.
    """
    _check_tol(tol)
    alpha = f.n * f.c / f.d
    s = fusion_frame_operator(f).array
    residual = float(np.linalg.norm(s - alpha * np.eye(f.d))) / (alpha * math.sqrt(f.d))
    return TightnessResult(flag=residual <= tol, residual=residual, alpha=alpha)


def _equichordal(overlaps: np.ndarray, tol: float) -> EquichordalResult:
    beta = float(np.mean(overlaps))
    deviation = float(np.abs(overlaps - beta).max())
    return EquichordalResult(flag=deviation <= tol * max(1.0, beta), beta=beta, deviation=deviation)


def is_equichordal(f: FusionFrame, tol: float = DEFAULT_TOL) -> EquichordalResult:
    """Check that all pairwise squared Frobenius cross-Gramian norms agree."""
    _check_tol(tol)
    return _equichordal(_frobenius_sq(_pair_blocks(f.array)), tol)


def _equiisoclinic(c: int, overlaps: np.ndarray, svals: np.ndarray, tol: float) -> EquiisoclinicResult:
    # ||G* G - sigma_sq I||_F from the singular values s of G: G* G has
    # eigenvalues s^2, so the deviation is the 2-norm of s^2 - sigma_sq.
    sigma_sq = float(np.mean(overlaps / c))
    deviation = float(np.sqrt(((np.square(svals) - sigma_sq) ** 2).sum(axis=-1).max()))
    flag = deviation <= tol * max(1.0, sigma_sq * math.sqrt(c))
    return EquiisoclinicResult(flag=flag, sigma_sq=sigma_sq, deviation=deviation)


def is_equiisoclinic(f: FusionFrame, tol: float = DEFAULT_TOL) -> EquiisoclinicResult:
    """Check that every cross-Gramian is sigma times a unitary.

    For each pair the product G* G must equal sigma_sq I, with sigma_sq
    estimated as the mean of (1/c)||G||_F^2 over pairs. For orthonormal
    bases this is the projection identity P2 P1 P2 = sigma_sq P2, since
    P2 P1 P2 - sigma_sq P2 = A2 (G* G - sigma_sq I) A2*.
    """
    _check_tol(tol)
    blocks = _pair_blocks(f.array)
    return _equiisoclinic(f.c, _frobenius_sq(blocks), _svals(blocks), tol)


def certify(f: FusionFrame, tol: float = DEFAULT_TOL) -> Certificate:
    """Full structure certificate for a frame of n >= 2 subspaces.

    ECTFF requires tightness, equi-chordality, and beta at its forced
    value c(nc-d)/(d(n-1)); EITFF additionally requires equi-isoclinicity
    with sigma_sq at (nc-d)/(d(n-1)), and implies ECTFF by construction.
    Bound gaps compare the frame's worst pairwise overlaps against the
    corresponding lower bounds; the orthoplex gap is reported only when
    n exceeds the Gerzon limit.
    """
    _check_tol(tol)
    n, d, c = f.n, f.d, f.c

    tight = is_tight_fusion_frame(f, tol)
    # Every pairwise quantity below comes from this one (P, c, c) array
    # and its singular values.
    blocks = _pair_blocks(f.array)
    overlaps = _frobenius_sq(blocks)
    svals = _svals(blocks)
    del blocks
    chordal = _equichordal(overlaps, tol)
    iso = _equiisoclinic(c, overlaps, svals, tol)

    beta_expected = bounds.simplex_bound_gram(n, d, c)
    sigma_expected = bounds.eitff_bound(n, d, c)
    is_ectff = (
        tight.flag
        and chordal.flag
        and abs(chordal.beta - beta_expected) <= tol * max(1.0, abs(beta_expected))
    )
    is_eitff = (
        is_ectff
        and iso.flag
        and abs(iso.sigma_sq - sigma_expected) <= tol * max(1.0, abs(sigma_expected))
    )

    max_frob = float(overlaps.max())
    max_spec = float(svals[:, 0].max()) ** 2

    ortho = bounds.orthoplex_bound(n, d, c, f.field)
    orthoplex_gap = None if ortho is None else max_frob - ortho.gram

    return Certificate(
        is_tight=tight.flag,
        tight_residual=tight.residual,
        alpha=tight.alpha,
        is_equichordal=chordal.flag,
        beta=chordal.beta,
        beta_deviation=chordal.deviation,
        is_equiisoclinic=iso.flag,
        sigma_sq=iso.sigma_sq,
        sigma_deviation=iso.deviation,
        is_ectff=is_ectff,
        is_eitff=is_eitff,
        simplex_gap=max_frob - beta_expected,
        eitff_gap=max_spec - sigma_expected,
        orthoplex_gap=orthoplex_gap,
        tolerance=tol,
    )


def is_unit_norm_tight_frame(f: FusionFrame, tol: float = DEFAULT_TOL) -> TightnessResult:
    """Check that n unit vectors form a tight frame, with constant n/d."""
    _require_vectors(f, "unit-norm tightness")
    return is_tight_fusion_frame(f, tol)


def is_equiangular(f: FusionFrame, tol: float = DEFAULT_TOL) -> EquichordalResult:
    """Check that all pairwise |inner products| of unit vectors agree: at c = 1
    the squared cross-Gramian norm is the squared inner product, so this is :func:`is_equichordal`."""
    _require_vectors(f, "equiangularity")
    return is_equichordal(f, tol)


def is_etf(f: FusionFrame, tol: float = DEFAULT_TOL) -> bool:
    """True when the unit vectors form an equiangular tight frame.

    An ETF is an ECTFF with c = 1, whose forced beta is the Welch bound,
    so this is :func:`certify`'s ECTFF verdict. A single vector is not
    an ETF: n = 1 gives False rather than an error.
    """
    _require_vectors(f, "the ETF property")
    _check_tol(tol)
    return f.n >= 2 and certify(f, tol).is_ectff


def is_regular_simplex(f: FusionFrame, tol: float = DEFAULT_TOL) -> bool:
    """True when every pairwise inner product equals Rankin's simplex bound -1/(n-1) within tol."""
    _require_vectors(f, "the regular-simplex property")
    _check_tol(tol)
    g = _pair_blocks(f.array)[:, 0, 0]
    target = bounds.rankin_simplex_bound(f.n)
    return bool(np.all(np.abs(g.real - target) <= tol) and np.all(np.abs(g.imag) <= tol))
