"""Dense-matrix kernel over the real and complex fields.

Every higher layer (subspace metrics, certification, constructions, the
numerical search) runs on the handful of operations defined here: the
storage rule of every field-tagged array, the field-tagged matrix type,
singular values and the SVD, the self-adjoint eigendecomposition, and QR
orthonormalization with a fixed sign convention. An SVD or
eigendecomposition that fails to converge raises :class:`NumericalError`.
That exception, :class:`FieldTag`, ``DEFAULT_TOL`` and the rules of the
field, count and tolerance arguments are defined in the numpy-free
``_rules``, so that the bounds and the command-line parser run without
numpy; the three public names are re-exported here, and the rules are
imported from ``_rules`` by every module that checks arguments.
One rule holds for every field-tagged array in the package (a ``Mat``, a
subspace basis, a frame's (n, d, c) stack): entries are finite and
stored read-only as float64 over R and complex128 over C, and
:func:`_field_array` is the one routine that validates them. All values
are immutable and all functions are pure, so everything is safe to share
across threads.
"""

from __future__ import annotations

import numpy as np

from ._rules import DEFAULT_TOL, FieldTag, NumericalError, _check_field, _check_tol  # noqa: F401

__all__ = [
    "DEFAULT_TOL",
    "FieldTag",
    "Mat",
    "NumericalError",
    "orthonormalize",
    "singular_values",
]


def _field_array(
    data, field: FieldTag | None = None, tol: float | None = None
) -> tuple[np.ndarray, FieldTag]:
    """``data`` stored under the rule: a new read-only C-contiguous array and its field.

    ``data`` is one matrix or an (n, rows, cols) stack. Without ``field``
    it is over C exactly when ``data`` is complex; a given ``field`` must
    be a FieldTag, and a given ``tol`` a tolerance. Entries must be finite,
    and real when tagged REAL; with ``tol``, every matrix must also be
    tall with orthonormal columns, ||A* A - I||_F <= tol. On a stack the
    error names the first failing matrix as ``basis k``, numbered from 1.
    """
    if tol is not None:
        _check_tol(tol)
    raw = np.asarray(data)
    if field is None:
        field = FieldTag.COMPLEX if np.iscomplexobj(raw) else FieldTag.REAL
    _check_field(field)
    rows, cols = raw.shape[-2:]
    if tol is not None and cols > rows:
        raise ValueError(f"basis must be tall: got {rows}x{cols}")
    is_complex = field is FieldTag.COMPLEX or np.iscomplexobj(raw)
    stack = raw.reshape(-1, rows, cols).astype(np.complex128 if is_complex else np.float64)
    finite = np.isfinite(stack).all(axis=(1, 2))
    imaginary = np.zeros(len(stack), dtype=bool)
    if field is FieldTag.REAL and is_complex:
        imaginary = (stack.imag != 0.0).any(axis=(1, 2))
        stack = np.ascontiguousarray(stack.real)
    bad = ~finite | imaginary
    if tol is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            gram = stack.swapaxes(1, 2).conj() @ stack
            defect = np.linalg.norm(gram - np.eye(cols), axis=(1, 2))
        bad |= ~(defect <= tol)
    if bad.any():
        k = int(np.argmax(bad))
        if not finite[k]:
            why = "matrix entries must be finite"
        elif imaginary[k]:
            why = "REAL-tagged matrix has nonzero imaginary parts"
        else:
            why = f"columns not orthonormal: defect {defect[k]:.3e} exceeds tolerance {tol:.1e}"
        raise ValueError(why if raw.ndim == 2 else f"basis {k + 1}: {why}")
    stack.setflags(write=False)
    return stack.reshape(raw.shape), field


class _FieldArray:
    """An ``array`` stored under the rule plus its ``field``; equality and hashing."""

    __slots__ = ("array", "field")

    array: np.ndarray
    field: FieldTag

    @classmethod
    def _of(cls, array: np.ndarray, field: FieldTag):
        """An instance over an array already stored under the rule: no check, no copy."""
        obj = cls.__new__(cls)
        obj.array, obj.field = array, field
        return obj

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.field is other.field and np.array_equal(self.array, other.array)

    def __hash__(self):
        # Adding 0.0 turns -0.0 into 0.0, which compares equal to it.
        return hash((self.field, self.array.shape, (self.array + 0.0).tobytes()))


class Mat(_FieldArray):
    """Immutable dense matrix with a field tag, stored under the rule.

    The array is copied in and frozen, so a Mat can be shared freely.
    """

    __slots__ = ()

    def __init__(self, data, field: FieldTag | None = None):
        arr = np.asarray(data)
        if arr.ndim != 2 or 0 in arr.shape:
            raise ValueError(f"matrix must be 2-d and non-empty, got shape {arr.shape}")
        self.array, self.field = _field_array(arr, field)

    def __repr__(self) -> str:
        rows, cols = self.array.shape
        return f"Mat({rows}x{cols}, {self.field.value})"


def _svd(arr: np.ndarray, compute_uv: bool = True):
    """Reduced SVD (u, s, vh) of a matrix or of each matrix in a stack, or
    only s when ``compute_uv`` is False. The package's one SVD call."""
    try:
        return np.linalg.svd(arr, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed to converge: {exc}") from exc


def _svals(arr: np.ndarray) -> np.ndarray:
    """Singular values of a matrix or of each matrix in a stack, clamped to be nonnegative."""
    return np.maximum(_svd(arr, compute_uv=False), 0.0)


def _eigh(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a self-adjoint matrix."""
    try:
        return np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed to converge: {exc}") from exc


def singular_values(a: Mat) -> np.ndarray:
    """Singular values, nonincreasing, clamped to be nonnegative.

    Returns min(rows, cols) values; their squares sum to the squared
    Frobenius norm.
    """
    return _svals(a.array)


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
    singular value above ``tol``): the package's one rank gate. The
    result q satisfies q* q = I and span(q) = span(a); the sign
    convention of :func:`_qr_columns` makes the output deterministic, and
    matrices that already have orthonormal columns are returned unchanged
    up to round-off.
    """
    _check_tol(tol)
    rows, cols = a.array.shape
    if cols > rows:
        raise ValueError(f"cannot orthonormalize {rows}x{cols}: more columns than rows")
    smallest = _svals(a.array)[-1]
    if smallest <= tol:
        raise ValueError(f"rank deficient: smallest singular value {smallest:.3e} <= tolerance {tol:.1e}")
    return Mat(_qr_columns(a.array), a.field)
