"""Deterministic constructors for the classical optimal packings.

Regular simplices, orthoplexes, harmonic frames built from character
tables indexed by a difference set, equi-isoclinic fusion frames
obtained by tensoring an ETF with an identity, and seeded random frames
for testing and as optimizer starting points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import bounds
# orthonormalize is unused here but stays importable: bench/tracing.py
# wraps grasspack.construct.orthonormalize.
from .linalg import FieldTag, _check_count, _qr_columns, orthonormalize  # noqa: F401
from .metrics import FusionFrame, _require_vectors

__all__ = [
    "DifferenceSet",
    "harmonic_etf",
    "orthoplex",
    "random_frame",
    "regular_simplex",
    "tensor_eitff",
]


@dataclass(frozen=True)
class DifferenceSet:
    """An index set of residues mod N, used to select character-table rows.

    Only type, distinctness and range are validated; whether the set has the
    actual difference-set property is the caller's responsibility (the
    harmonic construction is well-defined either way, it just is not
    equiangular without it).
    """

    modulus: int
    elements: tuple[int, ...]

    def __init__(self, modulus: int, elements: Iterable[int]):
        _check_count(modulus, "modulus", 1)
        elems = tuple(elements)
        for i, k in enumerate(elems):
            _check_count(k, f"elements[{i}]")
        elems = tuple(sorted(map(int, elems)))
        if len(set(elems)) != len(elems):
            raise ValueError("difference-set elements must be distinct")
        if elems and not (0 <= elems[0] and elems[-1] < modulus):
            raise ValueError(f"elements must be residues in [0, {modulus})")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "elements", elems)


def regular_simplex(n: int) -> FusionFrame:
    """n unit vectors in R^(n-1) with every pairwise inner product -1/(n-1).

    Construction: project the n standard basis vectors of R^n onto the
    orthogonal complement of the all-ones vector, normalize, and express
    them in a deterministic orthonormal basis of that complement (QR of
    the first n-1 projected vectors). The vectors sum to zero and the
    coordinates are reproducible run-to-run.
    """
    bounds._check_n(n)
    proj = np.eye(n) - np.full((n, n), 1.0 / n)
    # Any n-1 of the projected basis vectors span the complement of the
    # all-ones line, so QR of the first n-1 gives a basis of it.
    basis = _qr_columns(proj[:, : n - 1])
    unit = proj / np.linalg.norm(proj, axis=0, keepdims=True)
    coords = basis.T @ unit
    return FusionFrame.from_arrays(coords.T[:, :, None], FieldTag.REAL)


def orthoplex(d: int) -> FusionFrame:
    """The 2d vectors +-e_j in R^d, attaining Rankin's second bound.

    The antipodes are kept as distinct frame members, so as a vector set
    the coherence is 1 while the maximum signed inner product is 0.
    """
    bounds._check_dc(d, 1)
    eye = np.eye(d)
    return FusionFrame.from_arrays(np.concatenate([eye, -eye])[:, :, None], FieldTag.REAL)


def harmonic_etf(ds: DifferenceSet) -> FusionFrame:
    """N unit vectors in C^|D| from the rows of the N-point character table.

    Vector j has entry exp(2 pi i j k / N) / sqrt(|D|) at the coordinate
    of each k in D. The frame is tight with constant N/|D| for any index
    set; it is equiangular (hence an ETF at the Welch bound) exactly
    when D is a genuine difference set. Requires 0 < |D| < N.
    """
    big_n = ds.modulus
    d = len(ds.elements)
    if d == 0:
        raise ValueError("index set is empty")
    if d >= big_n:
        raise ValueError(f"index set must be a proper subset of the residues mod {big_n}")
    ks = np.array(ds.elements, dtype=np.float64).reshape(-1, 1)
    js = np.arange(big_n, dtype=np.float64).reshape(1, -1)
    table = np.exp(2j * np.pi * ks * js / big_n) / math.sqrt(d)
    return FusionFrame.from_arrays(table.T[:, :, None], FieldTag.COMPLEX)


def tensor_eitff(etf: FusionFrame, c: int) -> FusionFrame:
    """Inflate a frame of n unit vectors in F^e to n c-dimensional subspaces of F^(ce).

    Basis j is the Kronecker product of vector j with the c x c
    identity. When the input certifies as an ETF the output is an
    equi-isoclinic tight fusion frame with sigma_sq equal to the input's
    squared coherence; the ETF property itself is the caller's
    responsibility and is not checked here.
    """
    _require_vectors(etf, "the tensor construction")
    _check_count(c, "c", 1)
    # Entry [j, i c + k, l] is entry i of vector j times I[k, l].
    n, e, _ = etf.array.shape
    blocks = etf.array[:, :, :, None] * np.eye(c)
    return FusionFrame.from_arrays(blocks.reshape(n, e * c, c), etf.field)


def random_frame(field: FieldTag, d: int, c: int, n: int, seed: int) -> FusionFrame:
    """n independent uniformly random c-dimensional subspaces of F^d.

    Each basis is the QR orthonormalization of a d x c matrix of
    independent standard Gaussians (independent real and imaginary parts
    over C), which induces the rotation-invariant distribution on
    subspaces. All n matrices are drawn, then factored by one stacked QR
    with no rank check (a Gaussian draw has full rank with probability 1).
    The generator is numpy's default PCG64; an identical seed reproduces
    the frame bit-for-bit.
    """
    bounds._check_dc(d, c)
    _check_count(n, "n", 1)
    _check_count(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    if field is FieldTag.REAL:
        a = rng.standard_normal((n, d, c))
    else:
        # The stream order of a per-basis loop: each basis's real part, then its imaginary part.
        z = rng.standard_normal((n, 2, d, c))
        a = z[:, 0] + 1j * z[:, 1]
    return FusionFrame.from_arrays(_qr_columns(a), field)
