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
from ._rules import DEFAULT_TOL, _check_tol
# cross_gramian is unused here but stays importable: bench/tracing.py
# wraps grasspack.certify.cross_gramian.
from .metrics import (  # noqa: F401
    FusionFrame,
    _frame_operator,
    _frobenius_sq,
    _pair_blocks,
    _pair_products,
    _require_vectors,
    _spectral_max,
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


def _tight(s: np.ndarray, shape: tuple, tol: float) -> TightnessResult:
    """Tightness of an (n, d, c) stack from its frame operator ``s``."""
    n, d, c = shape
    alpha = n * c / d
    residual = float(np.linalg.norm(s - alpha * np.eye(d))) / (alpha * math.sqrt(d))
    return TightnessResult(flag=residual <= tol, residual=residual, alpha=alpha)


def is_tight_fusion_frame(f: FusionFrame, tol: float = DEFAULT_TOL) -> TightnessResult:
    """Check that the projections sum to (nc/d) I.

    The constant is forced by the trace, so only the relative residual
    ||sum P_j - (nc/d) I||_F / ((nc/d) sqrt(d)) is measured.
    """
    _check_tol(tol)
    return _tight(fusion_frame_operator(f).array, f.array.shape, tol)


def _equichordal(overlaps: np.ndarray, tol: float) -> EquichordalResult:
    beta = float(np.mean(overlaps))
    deviation = float(np.abs(overlaps - beta).max())
    return EquichordalResult(flag=deviation <= tol * max(1.0, beta), beta=beta, deviation=deviation)


def is_equichordal(f: FusionFrame, tol: float = DEFAULT_TOL) -> EquichordalResult:
    """Check that all pairwise squared Frobenius cross-Gramian norms agree."""
    _check_tol(tol)
    return _equichordal(_frobenius_sq(_pair_blocks(f.array)), tol)


def _equiisoclinic(dev_sq: np.ndarray, sigma_sq: float, c: int, tol: float) -> EquiisoclinicResult:
    # The max propagates a NaN from any pair.
    deviation = float(np.sqrt(dev_sq.max()))
    flag = deviation <= tol * max(1.0, sigma_sq * math.sqrt(c))
    return EquiisoclinicResult(flag=flag, sigma_sq=sigma_sq, deviation=deviation)


def is_equiisoclinic(f: FusionFrame, tol: float = DEFAULT_TOL) -> EquiisoclinicResult:
    """Check that every cross-Gramian is sigma times a unitary.

    For each pair the product G* G must equal sigma_sq I, with sigma_sq
    estimated as the mean of (1/c)||G||_F^2 over pairs. For orthonormal
    bases this is the projection identity P2 P1 P2 = sigma_sq P2, since
    P2 P1 P2 - sigma_sq P2 = A2 (G* G - sigma_sq I) A2*. The deviation
    ||G* G - sigma_sq I||_F is formed chunk by chunk
    (``metrics._pair_products``), so no SVD is taken and no stack of the
    products G* G is kept.
    """
    _check_tol(tol)
    blocks = _pair_blocks(f.array)
    _, dev_sq, sigma_sq = _pair_products(blocks, _frobenius_sq(blocks))
    return _equiisoclinic(dev_sq, sigma_sq, f.c, tol)


def _near(value: float, expected: float, tol: float) -> bool:
    """Whether a frame constant sits at its forced value, relative to it once it exceeds 1."""
    return abs(value - expected) <= tol * max(1.0, abs(expected))


def _ectff_verdict(tight: TightnessResult, overlaps: np.ndarray, shape: tuple, tol: float) -> tuple[bool, EquichordalResult]:
    """The ECTFF flag of an (n, d, c) stack and the equi-chordality result it rests on.

    ``overlaps`` are the pair overlaps ||G||_F^2. ECTFF requires
    tightness, equi-chordality, and beta at its forced value
    c(nc-d)/(d(n-1)), the simplex bound.
    """
    chordal = _equichordal(overlaps, tol)
    return tight.flag and chordal.flag and _near(chordal.beta, bounds.simplex_bound_gram(*shape), tol), chordal


def _eitff_verdict(dev_sq: np.ndarray, sigma_sq: float, is_ectff: bool, shape: tuple, tol: float) -> tuple[bool, EquiisoclinicResult]:
    """The EITFF flag of an (n, d, c) stack and the equi-isoclinicity result it rests on.

    ``dev_sq`` and ``sigma_sq`` are from ``metrics._pair_products`` of the
    pair blocks. EITFF requires ECTFF, equi-isoclinicity, and sigma_sq at
    its forced value (nc-d)/(d(n-1)), the EITFF bound.
    """
    iso = _equiisoclinic(dev_sq, sigma_sq, shape[2], tol)
    return is_ectff and iso.flag and _near(iso.sigma_sq, bounds.eitff_bound(*shape), tol), iso


def _verdict(x: np.ndarray, blocks: np.ndarray, name: str, tol: float) -> float:
    """The worst overlap a bound governs, once its structure's flag, as :func:`certify` reports it, is set.

    ``blocks`` is ``metrics._pair_blocks(x)`` of an (n, d, c) stack. Under
    ``name`` "simplex" the flag is ``is_ectff``, read off the overlaps
    alone (no M = G* G and no SVD), and the overlap is the largest
    ||G||_F^2. Under "eitff" the flag is ``is_eitff``, checked only once
    the ECTFF flag it needs is set, and the overlap the largest squared
    spectral norm. The overlap is measured only when the flag is set, and
    is inf otherwise; minus the bound it is the certificate's gap, bit for
    bit. This is the polish stage's check of each sweep.
    """
    overlaps = _frobenius_sq(blocks)
    flag = _ectff_verdict(_tight(_frame_operator(x), x.shape, tol), overlaps, x.shape, tol)[0]
    if name == "simplex" or not flag:
        return float(overlaps.max()) if flag else math.inf
    fourth, dev_sq, sigma_sq = _pair_products(blocks, overlaps)
    flag = _eitff_verdict(dev_sq, sigma_sq, flag, x.shape, tol)[0]
    return _spectral_max(blocks, overlaps, fourth) if flag else math.inf


def certify(f: FusionFrame, tol: float = DEFAULT_TOL) -> Certificate:
    """Full structure certificate for a frame of n >= 2 subspaces.

    ECTFF requires tightness, equi-chordality, and beta at its forced
    value c(nc-d)/(d(n-1)); EITFF additionally requires equi-isoclinicity
    with sigma_sq at (nc-d)/(d(n-1)), and implies ECTFF by construction.
    Bound gaps compare the frame's worst pairwise overlaps against the
    corresponding lower bounds; the orthoplex gap is reported only when
    n exceeds the Gerzon limit.

    Every pairwise number comes from one pass over the pair blocks: the
    overlaps ||G||_F^2, the norms ||M||_F^2 and ||M - sigma_sq I||_F^2 of
    M = G* G, formed chunk by chunk with no stack of the products kept,
    and the worst spectral overlap, for which only the pairs that can
    hold it get an SVD (none at c = 1).
    """
    _check_tol(tol)
    blocks = _pair_blocks(f.array)
    overlaps = _frobenius_sq(blocks)
    fourth, dev_sq, sigma_sq = _pair_products(blocks, overlaps)
    tight = is_tight_fusion_frame(f, tol)
    is_ectff, chordal = _ectff_verdict(tight, overlaps, f.array.shape, tol)
    is_eitff, iso = _eitff_verdict(dev_sq, sigma_sq, is_ectff, f.array.shape, tol)

    max_frob = float(overlaps.max())
    simplex_gap = max_frob - bounds.simplex_bound_gram(f.n, f.d, f.c)
    eitff_gap = _spectral_max(blocks, overlaps, fourth) - bounds.eitff_bound(f.n, f.d, f.c)
    ortho = bounds.orthoplex_bound(f.n, f.d, f.c, f.field)
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
        simplex_gap=simplex_gap,
        eitff_gap=eitff_gap,
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
