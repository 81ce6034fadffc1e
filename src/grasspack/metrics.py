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

Frame-wide quantities over all pairs are read off one product: the
fusion Gram matrix X* X of the frame's array. The private helpers that
build it, lay it out and factor it are shared with ``certify`` and ``optimize``.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from .bounds import _check_pair
from .linalg import DEFAULT_TOL, FieldTag, Mat, _eigh, _field_array, _FieldArray, _qr_columns, singular_values

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

    def __len__(self) -> int:
        return self.thetas.size

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


@functools.lru_cache(maxsize=32)
def _triu(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the pairs j < j', in FusionFrame.pairs() order."""
    rows, cols = np.triu_indices(n, 1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _flat(x: np.ndarray) -> np.ndarray:
    """The d x nc matrix [X_1 ... X_n] of all basis vectors of an (n, d, c) stack."""
    n, d, c = x.shape
    return x.transpose(1, 0, 2).reshape(d, n * c)


def _gram_blocks(x: np.ndarray) -> np.ndarray:
    """The fusion Gram matrix X* X of an (n, d, c) stack, as n x n blocks.

    One matrix product over all nc basis vectors; entry [j, j'] of the
    returned (n, n, c, c) view is the cross-Gramian X_j* X_j'.
    """
    n, _, c = x.shape
    flat = _flat(x)
    return (flat.conj().T @ flat).reshape(n, c, n, c).transpose(0, 2, 1, 3)


def _pair_blocks(x: np.ndarray) -> np.ndarray:
    """Cross-Gramians of all pairs j < j' of an (n, d, c) stack, as (P, c, c).

    The one all-pairs kernel, so it owns the check that there is a pair.
    """
    _check_pair(x.shape[0])
    return _gram_blocks(x)[_triu(x.shape[0])]


def _frobenius_sq(blocks: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix in a (..., c, c) stack."""
    return np.einsum("...kl,...kl->...", blocks.conj(), blocks).real


def _block_matrix(pairs: np.ndarray, n: int, identity: bool) -> np.ndarray:
    """The self-adjoint nc x nc block matrix of the (P, c, c) stack ``pairs``.

    Block (j, j') is the pair block of j < j' in FusionFrame.pairs()
    order, block (j', j) its adjoint, and each diagonal block I if
    ``identity``, else 0 and never written.
    """
    c = pairs.shape[-1]
    rows, cols = _triu(n)
    blocks = np.zeros((n, n, c, c), dtype=pairs.dtype)
    blocks[rows, cols] = pairs
    blocks[cols, rows] = pairs.conj().swapaxes(-2, -1)
    if identity:
        blocks.reshape(n * n, c, c)[:: n + 1] = np.eye(c)
    return blocks.transpose(0, 2, 1, 3).reshape(n * c, n * c)


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
    return Mat(_block_matrix(_gram_blocks(f.array)[_triu(f.n)], f.n, True), f.field)


def fusion_frame_operator(f: FusionFrame) -> Mat:
    """Sum of the n orthogonal projections, a d x d PSD matrix of trace nc.

    Computed as the one product X X* of the d x nc matrix of all bases.
    """
    flat = _flat(f.array)
    return Mat(flat @ flat.conj().T, f.field)


def principal_angles(b1: SubspaceBasis, b2: SubspaceBasis) -> PrincipalAngles:
    """Principal angles between two subspaces.

    The cosines are the singular values of the cross-Gramian, clamped to
    [0, 1] before arccos since round-off can push them past 1 by ~1e-16.
    Invariant under the choice of orthonormal bases.
    """
    s = singular_values(cross_gramian(b1, b2))
    return PrincipalAngles(np.arccos(np.clip(s, 0.0, 1.0)))


def chordal_distance_sq(b1: SubspaceBasis, b2: SubspaceBasis) -> float:
    """Squared chordal distance between two subspaces, in [0, c].

    Equals half the squared Frobenius distance of the projections,
    c - ||cross-Gramian||_F^2, and the sum of squared sines of the
    principal angles.
    """
    g = cross_gramian(b1, b2)
    val = b1.c - float(np.vdot(g.array, g.array).real)
    return min(max(val, 0.0), float(b1.c))


def spectral_distance_sq(b1: SubspaceBasis, b2: SubspaceBasis) -> float:
    """Squared sine of the smallest principal angle: 1 - ||cross-Gramian||_2^2."""
    s_max = float(singular_values(cross_gramian(b1, b2))[0])
    return max(0.0, 1.0 - min(s_max, 1.0) ** 2)


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
