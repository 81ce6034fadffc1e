"""The benchmark's tracer wraps grasspack functions by module and name.

A refactor that renames or removes one of them would turn that layer's
metrics null. These tests read ``bench/tracing.py`` by path, without
importing it as a package or writing next to it, and check every wrapped
name against the library.
"""

import importlib
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


tracing = load_tracing()


@pytest.mark.parametrize(
    "modname, attr", [(m, a) for m, a, _ in tracing.BOUNDARIES], ids=[f"{m}.{a}" for m, a, _ in tracing.BOUNDARIES]
)
def test_boundary_resolves_to_a_callable(modname, attr):
    assert callable(getattr(importlib.import_module(modname), attr, None))


def test_tracer_finds_no_missing_boundary():
    tracer = tracing.Tracer()
    tracer.check_boundaries()
    assert tracer.missing == []
