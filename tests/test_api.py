"""The package's public surface and the README's Python quick start."""

import importlib
import re
from pathlib import Path

import pytest

import grasspack

MODULES = ("bounds", "certify", "construct", "linalg", "metrics", "optimize")
README = Path(__file__).resolve().parent.parent / "README.md"


def test_package_all_is_the_union_of_module_lists():
    union = set()
    for name in MODULES:
        union.update(importlib.import_module(f"grasspack.{name}").__all__)
    assert grasspack.__all__ == sorted(union)


def test_every_public_name_is_its_module_object():
    for name in MODULES:
        module = importlib.import_module(f"grasspack.{name}")
        for attr in module.__all__:
            assert getattr(grasspack, attr) is getattr(module, attr), f"{name}.{attr}"
    assert grasspack.certify is importlib.import_module("grasspack.certify").certify
    assert callable(grasspack.certify)


def quick_start() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_quick_start_runs_and_its_comments_hold():
    code = quick_start()
    # The values checked below are the ones the block's comments state.
    for comment in ("# 0.5", "# True", "# 0.25 == gp.eitff_bound(3, 4, 2)", "# 2/9", '# "simplex"'):
        assert comment in code
    ns: dict = {}
    exec(compile(code, str(README), "exec"), ns)
    gp = ns["gp"]
    assert gp.coherence(ns["simplex"]) == pytest.approx(0.5, abs=1e-12)
    assert gp.coherence(ns["simplex"]) ** 2 == pytest.approx(gp.welch_bound(3, 2), abs=1e-12)
    assert gp.is_etf(ns["simplex"])
    assert ns["cert"].is_eitff
    assert ns["cert"].sigma_sq == pytest.approx(0.25, abs=1e-12) == gp.eitff_bound(3, 4, 2)
    assert gp.chordal_distance_sq(ns["b1"], ns["b2"]) == pytest.approx(2 - 0.5, abs=1e-12)
    assert gp.coherence(ns["etf"]) ** 2 == pytest.approx(2 / 9, abs=1e-12) == gp.welch_bound(7, 3)
    assert ns["result"].bound_name == "simplex"
