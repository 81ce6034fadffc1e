"""Shared helpers for the test suite."""

import os
from pathlib import Path

import numpy as np
import pytest

import grasspack
from grasspack.linalg import FieldTag, _qr_columns


def child_env(**extra: str) -> dict:
    """Environment for a child interpreter that imports this checkout's grasspack."""
    src = str(Path(grasspack.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **extra}


def random_unitary(n: int, field: FieldTag, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random orthogonal (over R) or unitary (over C) n x n matrix."""
    a = rng.standard_normal((n, n))
    if field is FieldTag.COMPLEX:
        a = a + 1j * rng.standard_normal((n, n))
    return _qr_columns(a)


def gaussian_matrix(rows: int, cols: int, field: FieldTag, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((rows, cols))
    if field is FieldTag.COMPLEX:
        a = a + 1j * rng.standard_normal((rows, cols))
    return a


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260809)
