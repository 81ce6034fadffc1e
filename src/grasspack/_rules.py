"""The package's shared scalar rules, in plain Python.

The default tolerance, the numerical-failure exception, the field and
criterion enums, the search's configuration record, and the checks of
the four kinds of scalar argument a caller passes in (a field, a
criterion, a count, a tolerance). Nothing here imports numpy, so the
closed-form bounds and the command-line parser can run without it.
Every module that checks an argument imports its rule from here.
``linalg`` and ``optimize`` re-export the public names, and their
``__all__`` lists are where those are listed.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import ClassVar

# Global default tolerance, calibrated for scale-1 quantities in double
# precision. Every tolerance-taking operation accepts an override.
DEFAULT_TOL = 1e-8


class NumericalError(RuntimeError):
    """A numerical routine failed (SVD non-convergence, non-finite values)."""


class FieldTag(enum.Enum):
    """Scalar field of a matrix: the reals or the complex numbers."""

    REAL = "R"
    COMPLEX = "C"


class Criterion(enum.Enum):
    """Which pairwise overlap the search minimizes the maximum of."""

    CHORDAL_OVERLAP = "chordal"  # max ||G||_F^2 over pairs
    SPECTRAL_OVERLAP = "spectral"  # max ||G||_2^2 over pairs


# Each failure is a ValueError whose message starts with the name of the
# argument. Counts and tolerances are tested for the exact type int or
# float first: isinstance against a numbers ABC costs about ten times as
# much, and certify checks counts on every call.


def _check_field(field) -> None:
    """A field is a FieldTag."""
    if not isinstance(field, FieldTag):
        raise ValueError(f"field must be a FieldTag, got {field!r}")


def _check_criterion(criterion) -> None:
    """A criterion is a Criterion, by exact type: every objective call checks it."""
    if type(criterion) is not Criterion:
        raise ValueError(f"criterion must be a Criterion, got {criterion!r}")


def _check_count(value, name: str, low: int | None = None) -> None:
    """A count is an integer that is not a bool; with ``low``, also at least ``low``."""
    integer = type(value) is int or (not isinstance(value, bool) and isinstance(value, numbers.Integral))
    if not integer or (low is not None and value < low):
        at_least = "" if low is None else f" >= {low}"
        raise ValueError(f"{name} must be an integer{at_least}, got {value!r}")


def _check_tol(tol, name: str = "tol") -> None:
    """A tolerance is a real number that is not a bool, finite and positive."""
    real = type(tol) is float or (not isinstance(tol, bool) and isinstance(tol, numbers.Real))
    if not real or not 0.0 < tol < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {tol!r}")


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
