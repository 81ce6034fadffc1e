"""Closed-form packing bounds with applicability predicates.

All bounds are evaluated in double precision from integer inputs. A
bound that does not apply at the given parameters is reported as None
(never as a sentinel number), with a note saying why.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field as dataclass_field
from typing import NamedTuple

from ._rules import FieldTag, _check_count, _check_field

__all__ = [
    "BoundReport",
    "OrthoplexBound",
    "bound_report",
    "eitff_bound",
    "gerzon_limit",
    "governing_bound",
    "orthoplex_bound",
    "rankin_orthoplex_bound",
    "rankin_simplex_bound",
    "simplex_bound_chordal",
    "simplex_bound_gram",
    "traceless_space_dim",
    "welch_bound",
]


def _check_dc(d: int, c: int) -> None:
    _check_count(d, "d", 1)
    _check_count(c, "c")
    if not 1 <= c <= d:
        raise ValueError(f"need 1 <= c <= d, got c = {c}, d = {d}")


def _check_pair(n: int) -> None:
    """Every pairwise quantity (overlaps, bounds, gaps) needs two subspaces.

    Value only: the all-pairs kernel reads n off an array shape on every
    objective evaluation. An n given by a caller goes through :func:`_check_n`.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got n = {n}")


def _check_n(n: int) -> None:
    """An n given by a caller: an integer, at least 2."""
    _check_count(n, "n")
    _check_pair(n)


def _check_ndc(n: int, d: int, c: int) -> None:
    _check_dc(d, c)
    _check_n(n)


def welch_bound(n: int, d: int) -> float:
    """Lower bound (n-d)/(d(n-1)) on the squared coherence of n unit vectors in F^d.

    Requires n >= d >= 1 and n >= 2; attained exactly by equiangular
    tight frames. It is the c = 1 simplex bound :func:`simplex_bound_gram`.
    """
    _check_ndc(n, d, 1)
    if n < d:
        raise ValueError(f"Welch bound needs n >= d, got n = {n}, d = {d}")
    return simplex_bound_gram(n, d, 1)


def rankin_simplex_bound(n: int) -> float:
    """Rankin's first bound: max pairwise inner product of n real unit vectors is >= -1/(n-1).

    Equality holds exactly for a regular simplex, where the minimum
    squared pairwise distance reaches 2(1 + 1/(n-1)).
    """
    _check_n(n)
    return -1.0 / (n - 1)


def rankin_orthoplex_bound(n: int, d: int) -> float | None:
    """Rankin's second bound: 0 <= max pairwise inner product once n >= d + 2.

    Returns 0.0 in that regime (attained by an orthoplex with n = 2d)
    and None when n <= d + 1, where the simplex bound governs instead.
    """
    _check_ndc(n, d, 1)
    if n >= d + 2:
        return 0.0
    return None


def simplex_bound_chordal(n: int, d: int, c: int) -> float:
    """Upper bound (c(d-c)/d) n/(n-1) on the squared packing radius in chordal distance."""
    _check_ndc(n, d, c)
    return (c * (d - c) / d) * (n / (n - 1))


def simplex_bound_gram(n: int, d: int, c: int) -> float:
    """Lower bound c(nc-d)/(d(n-1)) on the worst squared Frobenius cross-Gramian norm.

    The c = 1 case is the Welch bound. The value may be negative when
    nc < d (the inequality is then vacuous) and is returned as-is.
    """
    _check_ndc(n, d, c)
    return c * (n * c - d) / (d * (n - 1))


def eitff_bound(n: int, d: int, c: int) -> float:
    """Lower bound (nc-d)/(d(n-1)) on the worst squared spectral cross-Gramian norm.

    Equals simplex_bound_gram / c; attained exactly by equi-isoclinic
    tight fusion frames.
    """
    _check_ndc(n, d, c)
    return (n * c - d) / (d * (n - 1))


def gerzon_limit(d: int, field: FieldTag) -> int:
    """Maximum possible number of equiangular lines: d(d+1)/2 over R, d^2 over C."""
    _check_dc(d, 1)
    _check_field(field)
    if field is FieldTag.REAL:
        return d * (d + 1) // 2
    return d * d


def traceless_space_dim(d: int, field: FieldTag) -> int:
    """Dimension of the real space of traceless self-adjoint d x d matrices."""
    return gerzon_limit(d, field) - 1


class OrthoplexBound(NamedTuple):
    """The orthoplex bound in both of its equivalent forms."""

    chordal: float  # upper bound c(d-c)/d on the squared packing radius
    gram: float  # lower bound c^2/d on the worst Frobenius overlap


def orthoplex_bound(n: int, d: int, c: int, field: FieldTag) -> OrthoplexBound | None:
    """Orthoplex bound, applicable only when n exceeds the Gerzon limit.

    When n > d(d+1)/2 (real) or n > d^2 (complex) the squared packing
    radius is at most c(d-c)/d, equivalently the worst Frobenius overlap
    is at least c^2/d. Returns None outside that regime.
    """
    _check_ndc(n, d, c)
    if n <= gerzon_limit(d, field):
        return None
    return OrthoplexBound(chordal=c * (d - c) / d, gram=c * c / d)


def _intersection_gram(d: int, c: int) -> int | None:
    """2c - d when 2c > d, else None: two c-planes of F^d then share 2c - d
    dimensions, so every Frobenius overlap is at least 2c - d and every
    spectral overlap is 1."""
    return 2 * c - d if 2 * c > d else None


def governing_bound(n: int, d: int, c: int, field: FieldTag, spectral: bool = False) -> tuple[float, str]:
    """The largest lower bound on the worst overlap at (n, d, c, field), and its name.

    The worst squared Frobenius cross-Gramian norm (``spectral`` False) is
    at least the simplex bound ``"simplex"``; the worst squared spectral
    norm is at least the EITFF bound ``"eitff"``. Past the Gerzon limit
    the orthoplex bound ``"orthoplex"`` applies: c^2/d, or c/d for the
    spectral norm since ||G||_2^2 >= ||G||_F^2 / c (Conway, Hardin and
    Sloane, Exp. Math. 1996). When 2c > d any two c-planes meet, so the
    intersection bound ``"intersection"`` applies: 2c - d, or 1 for the
    spectral norm. Every overlap is at least 0 (``"trivial"``), which
    governs when nc < d. Ties go to the bound named first here.
    """
    if type(spectral) is not bool:
        raise ValueError(f"spectral must be a bool, got {spectral!r}")
    if spectral:
        bound, name = eitff_bound(n, d, c), "eitff"
    else:
        bound, name = simplex_bound_gram(n, d, c), "simplex"
    ortho = orthoplex_bound(n, d, c, field)
    if ortho is not None:
        value = c / d if spectral else ortho.gram
        if value > bound:
            bound, name = value, "orthoplex"
    meet = _intersection_gram(d, c)
    if meet is not None:
        value = 1.0 if spectral else float(meet)
        if value > bound:
            bound, name = value, "intersection"
    if bound < 0.0:
        bound, name = 0.0, "trivial"
    return bound, name


@dataclass(frozen=True)
class BoundReport:
    """Every bound of the packing problem (n, d, c, field) in one record.

    Inapplicable bounds are None, with the reason recorded in ``notes``
    under the bound's name.
    """

    n: int
    d: int
    c: int
    field: FieldTag
    welch: float | None
    simplex_chordal: float
    simplex_gram: float
    eitff_spectral: float
    orthoplex_chordal: float | None
    orthoplex_gram: float | None
    intersection_gram: int | None
    gerzon: int
    traceless_dim: int
    notes: dict[str, str] = dataclass_field(default_factory=dict)

    def as_dict(self) -> dict:
        return {**asdict(self), "field": self.field.value}


def bound_report(n: int, d: int, c: int, field: FieldTag) -> BoundReport:
    """Evaluate every applicable bound for the parameters (n, d, c, field)."""
    _check_ndc(n, d, c)
    notes: dict[str, str] = {}

    welch: float | None
    if c != 1:
        welch = None
        notes["welch"] = "requires c = 1"
    elif n < d:
        welch = None
        notes["welch"] = f"requires n >= d (n = {n} < d = {d})"
    else:
        welch = welch_bound(n, d)

    limit = gerzon_limit(d, field)
    ortho = orthoplex_bound(n, d, c, field)
    if ortho is None:
        notes["orthoplex"] = f"requires n > {limit} (Gerzon limit for d = {d} over {field.value})"
        ortho_chordal = ortho_gram = None
    else:
        ortho_chordal, ortho_gram = ortho.chordal, ortho.gram

    meet = _intersection_gram(d, c)
    if meet is None:
        notes["intersection"] = "requires 2c > d"

    return BoundReport(
        n=n,
        d=d,
        c=c,
        field=field,
        welch=welch,
        simplex_chordal=simplex_bound_chordal(n, d, c),
        simplex_gram=simplex_bound_gram(n, d, c),
        eitff_spectral=eitff_bound(n, d, c),
        orthoplex_chordal=ortho_chordal,
        orthoplex_gram=ortho_gram,
        intersection_gram=meet,
        gerzon=limit,
        traceless_dim=traceless_space_dim(d, field),
        notes=notes,
    )
