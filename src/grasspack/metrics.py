"""Distances, angles, and operator-valued descriptors of subspaces.

A c-dimensional subspace of F^d is represented by a d x c matrix with
orthonormal columns (:class:`SubspaceBasis`); a packing candidate is a
:class:`FusionFrame`, the n bases stacked as one read-only (n, d, c)
array, with the per-subspace bases available as views. The functions
here compute orthogonal projections, cross-Gramians, the fusion Gram
matrix and fusion frame operator, principal angles, and the chordal /
spectral / geodesic distances between subspaces. All pairwise
quantities are invariant under the choice of orthonormal basis within
each subspace.

Frame-wide quantities over all pairs are read off the fusion Gram
matrix X* X of the frame's array, formed in products small enough to run
on the calling thread. The private helpers that build it, lay it out,
factor it and read the all-pairs statistics off its pair blocks are
shared with ``certify`` and ``optimize``.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from .bounds import _check_pair
from .linalg import DEFAULT_TOL, FieldTag, Mat, _eigh, _field_array, _FieldArray, _qr_columns, _svals

__all__ = [
    "FusionFrame",
    "PrincipalAngles",
    "SubspaceBasis",
    "chordal_distance_sq",
    "coherence",
    "cross_gramian",
    "fusion_frame_operator",
    "fusion_gram",
    "geodesic_distance",
    "min_chordal_packing",
    "principal_angles",
    "projection",
    "spectral_distance_sq",
    "traceless_embed",
]


class SubspaceBasis(_FieldArray):
    """A d x c matrix with orthonormal columns spanning one subspace.

    Construction verifies the orthonormality defect ||A* A - I||_F
    against ``tol`` with the same check as :meth:`FusionFrame.from_arrays`;
    1 <= c <= d is required.
    """

    __slots__ = ()

    def __init__(self, mat: Mat, tol: float = DEFAULT_TOL):
        self.array, self.field = _field_array(mat.array, mat.field, tol)

    @property
    def d(self) -> int:
        return self.array.shape[0]

    @property
    def c(self) -> int:
        return self.array.shape[1]

    def __repr__(self) -> str:
        return f"SubspaceBasis(d={self.d}, c={self.c}, {self.field.value})"


class FusionFrame(_FieldArray):
    """n subspaces of F^d, each of dimension c, as one read-only (n, d, c) array.

    ``array[j]`` is the orthonormal basis of subspace j, and ``bases[j]``
    a view of it. A single subspace (n = 1) is allowed; operations with
    pairwise semantics require n >= 2 and say so.
    """

    # No __slots__ of its own: the instance dict holds the cached ``bases``.

    def __init__(self, bases: Iterable[SubspaceBasis]):
        bases = tuple(bases)
        if not bases:
            raise ValueError("frame needs at least one subspace")
        head = bases[0]
        for idx, b in enumerate(bases):
            if (b.field, b.d, b.c) != (head.field, head.d, head.c):
                raise ValueError(
                    f"basis {idx + 1} has (field={b.field.value}, d={b.d}, c={b.c}), "
                    f"expected (field={head.field.value}, d={head.d}, c={head.c})"
                )
        self.array, self.field = _field_array(np.stack([b.array for b in bases]), head.field)

    @classmethod
    def from_arrays(
        cls,
        arrays: Sequence,
        field: FieldTag | None = None,
        tol: float = DEFAULT_TOL,
    ) -> "FusionFrame":
        """Validate d x c arrays (a sequence or an (n, d, c) stack) as one frame.

        Without ``field`` the frame is over C when any entry is complex.
        Every basis must be finite, real when tagged REAL, and have
        orthonormal columns within ``tol``; the error names the first
        failing basis, numbered from 1.
        """
        try:
            raw = np.asarray(arrays)
        except ValueError:
            raise ValueError("bases must all have the same shape") from None
        if raw.ndim > 0 and len(raw) == 0:
            raise ValueError("frame needs at least one subspace")
        if raw.ndim != 3 or 0 in raw.shape:
            raise ValueError(f"matrix must be 2-d and non-empty, got shape {raw.shape[1:]}")
        return cls._of(*_field_array(raw, field, tol))

    @functools.cached_property
    def bases(self) -> tuple[SubspaceBasis, ...]:
        """The subspaces one by one, for the per-pair API: read-only views of ``array``."""
        return tuple(SubspaceBasis._of(a, self.field) for a in self.array)

    @property
    def n(self) -> int:
        return self.array.shape[0]

    @property
    def d(self) -> int:
        return self.array.shape[1]

    @property
    def c(self) -> int:
        return self.array.shape[2]

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Index pairs (j, j') with j < j', in fixed lexicographic order."""
        for j in range(self.n):
            for jj in range(j + 1, self.n):
                yield j, jj

    def __repr__(self) -> str:
        return f"FusionFrame(n={self.n}, d={self.d}, c={self.c}, {self.field.value})"


def _require_vectors(f: FusionFrame, what: str) -> None:
    """The rule of every unit-vector notion (coherence, ETFs, simplices): c = 1."""
    if f.c != 1:
        raise ValueError(f"{what} is defined for unit vectors (c = 1), got c = {f.c}")


class PrincipalAngles:
    """Nondecreasing angles in [0, pi/2] between two equi-dimensional subspaces."""

    __slots__ = ("thetas",)

    thetas: np.ndarray

    def __init__(self, thetas):
        arr = np.asarray(thetas, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("principal angles must form a non-empty 1-d sequence")
        if np.any(arr < 0.0) or np.any(arr > math.pi / 2 + 1e-12):
            raise ValueError("principal angles must lie in [0, pi/2]")
        if np.any(np.diff(arr) < -1e-12):
            raise ValueError("principal angles must be nondecreasing")
        arr.setflags(write=False)
        self.thetas = arr

    def __repr__(self) -> str:
        return f"PrincipalAngles({np.array2string(self.thetas, precision=6)})"


def _require_compatible(b1: SubspaceBasis, b2: SubspaceBasis) -> None:
    if (b1.field, b1.d, b1.c) != (b2.field, b2.d, b2.c):
        raise ValueError(
            f"subspaces not comparable: (field={b1.field.value}, d={b1.d}, c={b1.c}) vs "
            f"(field={b2.field.value}, d={b2.d}, c={b2.c})"
        )


def projection(b: SubspaceBasis) -> Mat:
    """Orthogonal projection onto the subspace: the d x d matrix mat @ mat*."""
    return Mat(b.array @ b.array.conj().T, b.field)


def cross_gramian(b1: SubspaceBasis, b2: SubspaceBasis) -> Mat:
    """The c x c matrix mat1* @ mat2; all its singular values are <= 1."""
    _require_compatible(b1, b2)
    return Mat(b1.array.conj().T @ b2.array, b1.field)


def _flat(x: np.ndarray) -> np.ndarray:
    """The d x nc matrix [X_1 ... X_n] of all basis vectors of an (n, d, c) stack."""
    n, d, c = x.shape
    return x.transpose(1, 0, 2).reshape(d, n * c)


# Largest product that _pair_blocks and _frame_operator hand to
# BLAS, in real multiply-adds (a complex one counts 4). OpenBLAS runs a
# larger product on its worker thread, which then busy-waits for about
# 0.1 s and slows whatever runs next on a small machine. On OpenBLAS
# 0.3.31 (Haswell kernels) complex products of 64,000 multiply-adds
# stayed on the calling thread and of 65,600 and 115,200 woke the worker;
# real products wake it later.
_SERIAL_PRODUCT = 2**18


def _depth(x: np.ndarray) -> int:
    """Real multiply-adds per entry of a product over the d rows of an (n, d, c) stack."""
    return x.shape[1] * (4 if x.dtype.kind == "c" else 1)


@functools.lru_cache(maxsize=32)
def _pair_plan(n: int, c: int, depth: int) -> tuple[tuple[int, int, np.ndarray], ...]:
    """How :func:`_pair_blocks` forms the pairs j < j' of n bases of c columns.

    ``depth`` is the real multiply-adds per product entry (:func:`_depth`).
    Each step (j0, j1, index) is one product of block rows j0 <= j < j1
    with block columns j0 and up, of as many block rows as keep it within
    _SERIAL_PRODUCT, and at least one. ``index`` holds, for each pair of
    the step in FusionFrame.pairs() order, the c rows of the product
    viewed as (rows * width, c) that form its cross-Gramian.
    """
    rows, cols = np.triu_indices(n, 1)
    steps = []
    j0 = start = 0
    while j0 < n - 1:
        width = n - j0
        j1 = min(n, j0 + max(1, _SERIAL_PRODUCT // (c * c * width * depth)))
        stop = int(np.searchsorted(rows, j1))
        index = ((rows[start:stop, None] - j0) * c + np.arange(c)) * width + (cols[start:stop, None] - j0)
        index.setflags(write=False)
        steps.append((j0, j1, index))
        j0, start = j1, stop
    return tuple(steps)


def _pair_blocks(x: np.ndarray) -> np.ndarray:
    """Cross-Gramians of all pairs j < j' of an (n, d, c) stack, as (P, c, c).

    The one all-pairs kernel, so it owns the check that there is a pair.
    It forms each block row of the fusion Gram matrix X* X from its
    diagonal block on, by the products of :func:`_pair_plan`, each small
    enough to run on the calling thread, and gathers each product's pairs
    by one cached index. A frame that fits in one product, as every
    search frame does, takes the whole X* X.
    """
    n, _, c = x.shape
    _check_pair(n)
    flat = _flat(x)
    # Each index is in range by construction, so mode="clip" changes no
    # position; it lets take write straight into ``out``, where the
    # default mode buffers it. Fancy indexing is about 3x slower here.
    steps = _pair_plan(n, c, _depth(x))
    if steps[0][1] == n:
        return np.take((flat.conj().T @ flat).reshape(-1, c), steps[0][2], axis=0, mode="clip")
    out = np.empty((n * (n - 1) // 2, c, c), dtype=flat.dtype)
    start = 0
    for j0, j1, index in steps:
        product = flat[:, j0 * c : j1 * c].conj().T @ flat[:, j0 * c :]
        np.take(product.reshape(-1, c), index, axis=0, out=out[start : start + len(index)], mode="clip")
        start += len(index)
    return out


def _frobenius_sq(stack: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix in a C-contiguous (..., c, c) stack.

    The squares are summed over a real view of the real and imaginary
    parts, so a complex stack is not copied to conjugate it. That view
    needs a contiguous last axis, which C order gives.
    """
    parts = stack.view(stack.real.dtype)
    return np.einsum("...kl,...kl->...", parts, parts)


# Pairs per step of the loop in _pair_products: at c = 2 over C each
# step's temporaries take about 1 MB.
_PRODUCT_CHUNK = 4096


def _pair_products(blocks: np.ndarray, overlaps: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The per-pair statistics of M = G* G over a C-contiguous (P, c, c) stack of cross-Gramians G.

    ``overlaps`` is the stack's ||G||_F^2 (:func:`_frobenius_sq`), which
    the caller has already formed. Returns ||M||_F^2 and
    ||M - sigma_sq I||_F^2 for each pair, and sigma_sq, the mean of
    ||G||_F^2 / c. M is formed _PRODUCT_CHUNK pairs at a time and only its
    two norms outlive the chunk, so no (P, c, c) stack of products is
    allocated. At c = 1, M is the overlap itself.
    """
    c = blocks.shape[-1]
    sigma_sq = float(np.mean(overlaps / c))
    if c == 1:
        return overlaps * overlaps, np.square(overlaps - sigma_sq), sigma_sq
    # M[i, j] = sum_k conj(G[k, i]) G[k, j], one broadcast product per row
    # k of G. Each chunk is copied to a (c, c, pairs) layout first, so
    # that every ufunc loops along the pairs: on the (pairs, c, c) layout
    # its inner loops run over c entries only, about 3x slower at c = 2.
    # A stacked matmul makes one BLAS call per c x c block, slower still.
    # sigma_sq comes off the diagonal before squaring: expanding the
    # square as ||M||_F^2 - 2 sigma_sq ||G||_F^2 + c sigma_sq^2 would
    # cancel near an EITFF to about sqrt(eps), which is the default
    # tolerance.
    shift = sigma_sq * np.eye(c)
    fourth = np.empty(len(blocks))
    dev_sq = np.empty(len(blocks))
    for start in range(0, len(blocks), _PRODUCT_CHUNK):
        g = blocks[start : start + _PRODUCT_CHUNK].transpose(1, 2, 0).copy()
        conj = g.conj()
        m = conj[0, :, None] * g[0, None, :]
        for k in range(1, c):
            m += conj[k, :, None] * g[k, None, :]
        m = np.ascontiguousarray(m.transpose(2, 0, 1))
        fourth[start : start + _PRODUCT_CHUNK] = _frobenius_sq(m)
        m -= shift
        dev_sq[start : start + _PRODUCT_CHUNK] = _frobenius_sq(m)
    return fourth, dev_sq, sigma_sq


def _spectral_max(blocks: np.ndarray, overlaps: np.ndarray, fourth: np.ndarray) -> float:
    """The largest squared spectral norm over a (P, c, c) stack of cross-Gramians.

    ``overlaps`` and ``fourth`` are the stack's ||G||_F^2 and ||M||_F^2
    with M = G* G, from :func:`_pair_products`. At c = 1 the maximum is
    the largest overlap. For c >= 2 each pair's s_max^2 lies between
    sum(s^4)/sum(s^2) = ||M||_F^2/||G||_F^2 and sqrt(sum(s^4)) = ||M||_F,
    so only the pairs whose upper bound reaches the largest lower bound
    can hold the maximum, and only they are passed to the SVD. The SVD
    treats each block on its own, so the maximum is the one an SVD of
    every pair would give.
    """
    c = blocks.shape[-1]
    if c == 1:
        return float(overlaps.max())
    # A pair with ||G||_F = 0 has M = 0, so flooring the divisor at the
    # smallest normal number only turns its 0/0 into a lower bound of 0.
    lower = float((fourth / np.maximum(overlaps, np.finfo(np.float64).tiny)).max())
    # M, its norm and the SVD's s_max each carry round-off of up to about
    # c^2 ulps of s_max^2 (since ||G||_F^2 <= c s_max^2), so a pair whose
    # upper bound falls short of the largest lower bound by less than that
    # could still hold the largest computed s_max. Bounds are compared
    # squared: upper^2 = ||M||_F^2.
    keep = fourth >= (lower * (1.0 - 16 * c * c * np.finfo(np.float64).eps)) ** 2
    return float(_svals(blocks[keep])[:, 0].max()) ** 2


@functools.lru_cache(maxsize=32)
def _block_plan(n: int, c: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions in an nc x nc matrix of the (P, c, c) pair blocks and of their adjoints.

    Entry [p, k, l] of the first is where entry (k, l) of block p goes, at
    (jc + k, j'c + l) for the p-th pair j < j' in FusionFrame.pairs()
    order; of the second, where its conjugate goes, at (j'c + l, jc + k).
    """
    rows, cols = np.triu_indices(n, 1)
    k = np.arange(c)
    row = rows[:, None, None] * c + k[:, None]
    col = cols[:, None, None] * c + k
    upper, lower = row * (n * c) + col, col * (n * c) + row
    upper.setflags(write=False)
    lower.setflags(write=False)
    return upper, lower


def _block_matrix(pairs: np.ndarray, n: int, identity: bool) -> np.ndarray:
    """The self-adjoint nc x nc block matrix of the (P, c, c) stack ``pairs``.

    Block (j, j') is the pair block of j < j' in FusionFrame.pairs()
    order, block (j', j) its adjoint, and each diagonal block I if
    ``identity``, else 0 and never written. Both are scattered straight
    into the result by the cached positions of :func:`_block_plan`.
    """
    size = n * pairs.shape[-1]
    upper, lower = _block_plan(n, pairs.shape[-1])
    out = np.zeros((size, size), dtype=pairs.dtype)
    entries = out.reshape(-1)
    entries[upper] = pairs
    entries[lower] = pairs.conj()
    if identity:
        entries[:: size + 1] = 1
    return out


def _gram_to_frame(pairs: np.ndarray, n: int, d: int) -> np.ndarray:
    """An (n, d, c) stack of orthonormal bases from the pair blocks of a fusion Gram matrix.

    The top d eigenvectors V (nc x d) span the nearest rank-d projection,
    and one stacked QR orthonormalizes the n d x c blocks of V*. A tight
    fusion frame's Gram matrix, (nc/d) times a rank-d projection, gives
    back a frame with that same Gram matrix.
    """
    _, vecs = _eigh(_block_matrix(pairs, n, True))
    return _qr_columns(vecs[:, -d:].conj().T.reshape(d, n, -1).transpose(1, 0, 2))


def fusion_gram(f: FusionFrame) -> Mat:
    """Block Gram matrix of all nc basis vectors, nc x nc.

    Block (j, j') is the cross-Gramian of bases j and j'; diagonal
    blocks are exactly the identity and the lower triangle mirrors the
    upper, so the result is self-adjoint by construction (I_c when n = 1).
    """
    if f.n == 1:
        return Mat(np.eye(f.c, dtype=f.array.dtype), f.field)
    return Mat(_block_matrix(_pair_blocks(f.array), f.n, True), f.field)


def _frame_operator(x: np.ndarray) -> np.ndarray:
    """X X* of the d x nc matrix X of all bases of an (n, d, c) stack.

    X X* is summed over column chunks of at most _SERIAL_PRODUCT
    multiply-adds, so every product runs on the calling thread; a stack
    that fits in one chunk, as every search frame does, takes one product.
    """
    flat = _flat(x)
    width = max(1, _SERIAL_PRODUCT // (x.shape[1] * _depth(x)))
    s = flat[:, :width] @ flat[:, :width].conj().T
    for start in range(width, flat.shape[1], width):
        part = flat[:, start : start + width]
        s += part @ part.conj().T
    return s


def fusion_frame_operator(f: FusionFrame) -> Mat:
    """Sum of the n orthogonal projections, a d x d PSD matrix of trace nc (:func:`_frame_operator`)."""
    return Mat(_frame_operator(f.array), f.field)


def _residual(b1: SubspaceBasis, b2: SubspaceBasis) -> tuple[np.ndarray, np.ndarray]:
    """The cross-Gramian G and A_2 - A_1 G, the part of b2's basis orthogonal to b1's subspace."""
    _require_compatible(b1, b2)
    g = b1.array.conj().T @ b2.array
    return g, b2.array - b1.array @ g


def principal_angles(b1: SubspaceBasis, b2: SubspaceBasis) -> PrincipalAngles:
    """Principal angles between two subspaces.

    The cosines are the singular values of the cross-Gramian G and the
    sines those of A_2 - A_1 G (Bjorck and Golub, Math. Comp. 1973). An
    angle whose sine is below sqrt(1/2) is the arcsine of that sine, and
    any other the arccosine of its cosine, so a small angle keeps its
    relative accuracy. Invariant under the choice of orthonormal bases.
    """
    g, r = _residual(b1, b2)
    sines = np.minimum(_svals(r)[::-1], 1.0)
    return PrincipalAngles(np.where(sines < math.sqrt(0.5), np.arcsin(sines), np.arccos(np.minimum(_svals(g), 1.0))))


def chordal_distance_sq(b1: SubspaceBasis, b2: SubspaceBasis) -> float:
    """Squared chordal distance between two subspaces, in [0, c].

    Equals half the squared Frobenius distance of the projections, the
    sum of squared sines of the principal angles and c - ||G||_F^2; it is
    computed as ||A_2 - A_1 G||_F^2, accurate for nearby subspaces too.
    """
    r = _residual(b1, b2)[1]
    return min(float(np.vdot(r, r).real), float(b1.c))


def spectral_distance_sq(b1: SubspaceBasis, b2: SubspaceBasis) -> float:
    """Squared sine of the smallest principal angle (1 - ||G||_2^2), from A_2 - A_1 G."""
    return min(float(_svals(_residual(b1, b2)[1])[-1]) ** 2, 1.0)


def geodesic_distance(b1: SubspaceBasis, b2: SubspaceBasis) -> float:
    """2-norm of the vector of principal angles."""
    return float(np.linalg.norm(principal_angles(b1, b2).thetas))


def min_chordal_packing(f: FusionFrame) -> float:
    """Smallest pairwise squared chordal distance (the squared packing radius)."""
    dist = f.c - _frobenius_sq(_pair_blocks(f.array))
    return float(np.clip(dist, 0.0, f.c).min())


def coherence(f: FusionFrame) -> float:
    """Largest pairwise |inner product| of a unit-vector frame (c = 1 only)."""
    _require_vectors(f, "coherence")
    return float(np.abs(_pair_blocks(f.array)).max())


def traceless_embed(b: SubspaceBasis) -> Mat:
    """Normalized traceless component of the subspace's projection.

    Returns [d/(c(d-c))]^(1/2) (P - (c/d) I), a self-adjoint d x d
    matrix of trace zero and unit Frobenius norm. Requires c < d.
    """
    d, c = b.d, b.c
    if c >= d:
        raise ValueError(f"traceless embedding needs c < d, got c = {c}, d = {d}")
    p = b.array @ b.array.conj().T
    scale = math.sqrt(d / (c * (d - c)))
    return Mat(scale * (p - (c / d) * np.eye(d)), b.field)
