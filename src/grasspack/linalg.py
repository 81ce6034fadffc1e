"""Dense-matrix kernel over the real and complex fields.

Every higher layer (subspace metrics, packing bounds, certification, the
numerical search) runs on the handful of operations defined here: the
field-tagged matrix type, singular values, and QR
orthonormalization with a fixed sign convention. Entries are always
stored as complex128; a ``FieldTag`` records whether a matrix lives over
R or C and gates constructions and dimension formulas, not storage. All
values are immutable and all functions are pure, so everything is safe
to share across threads.
"""

from __future__ import annotations

import enum

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "FieldTag",
    "Mat",
    "NumericalError",
    "orthonormalize",
    "singular_values",
]

# Global default tolerance, calibrated for scale-1 quantities in double
# precision. Every tolerance-taking operation accepts an override.
DEFAULT_TOL = 1e-8


class NumericalError(RuntimeError):
    """A numerical routine failed (SVD non-convergence, non-finite values)."""


class FieldTag(enum.Enum):
    """Scalar field of a matrix: the reals or the complex numbers."""

    REAL = "R"
    COMPLEX = "C"


class Mat:
    """Immutable dense matrix with a field tag.

    The entry array is complex128 regardless of field; REAL-tagged
    matrices carry exactly zero imaginary parts (enforced at
    construction). The array is copied in and frozen, so a Mat can be
    shared freely.
    """

    __slots__ = ("array", "field")

    array: np.ndarray
    field: FieldTag

    def __init__(self, data, field: FieldTag | None = None):
        arr = np.array(data, dtype=np.complex128, order="C")
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise ValueError(f"matrix must be 2-d and non-empty, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        if field is None:
            field = FieldTag.COMPLEX if np.iscomplexobj(np.asarray(data)) else FieldTag.REAL
        if field is FieldTag.REAL and np.any(arr.imag != 0.0):
            raise ValueError("REAL-tagged matrix has nonzero imaginary parts")
        arr.setflags(write=False)
        self.array = arr
        self.field = field

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return self.field is other.field and np.array_equal(self.array, other.array)

    def __hash__(self):
        # Adding 0.0 turns -0.0 into 0.0, which compares equal to it.
        return hash((self.field, self.array.shape, (self.array + 0.0).tobytes()))

    def __repr__(self) -> str:
        return f"Mat({self.rows}x{self.cols}, {self.field.value})"


def singular_values(a: Mat) -> np.ndarray:
    """Singular values, nonincreasing, clamped to be nonnegative.

    Returns min(rows, cols) values; their squares sum to the squared
    Frobenius norm.
    """
    work = a.array.real if a.field is FieldTag.REAL else a.array
    try:
        s = np.linalg.svd(work, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed to converge: {exc}") from exc
    return np.maximum(s, 0.0)


def _qr_columns(arr: np.ndarray) -> np.ndarray:
    """Orthonormalize columns by reduced QR with nonnegative-real diag(R).

    ``arr`` is one d x c matrix or a stack (..., d, c) of them; a stack
    is factored in one call, matrix by matrix, with the same result as a
    loop. The phase correction makes the factorization (and hence this
    function) deterministic: multiplying column k of Q by the phase of
    R[k,k] leaves Q@R unchanged while forcing diag(R) >= 0. No rank
    check is performed here.
    """
    q, r = np.linalg.qr(arr)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    absd = np.abs(d)
    phase = np.divide(d, absd, out=np.ones_like(d), where=absd != 0.0)
    return q * phase[..., None, :]


def orthonormalize(a: Mat, tol: float = DEFAULT_TOL) -> Mat:
    """Orthonormal basis for the column span of ``a``.

    Requires cols <= rows and numerically full column rank (smallest
    singular value above ``tol``). The result q satisfies q* q = I and
    span(q) = span(a); the sign convention of :func:`_qr_columns` makes
    the output deterministic, and matrices that already have orthonormal
    columns are returned unchanged up to round-off.
    """
    if a.cols > a.rows:
        raise ValueError(f"cannot orthonormalize {a.rows}x{a.cols}: more columns than rows")
    s = singular_values(a)
    if s[-1] <= tol:
        raise ValueError(
            f"rank deficient: smallest singular value {s[-1]:.3e} <= tolerance {tol:.1e}"
        )
    work = a.array.real if a.field is FieldTag.REAL else a.array
    return Mat(_qr_columns(work), a.field)

