"""The package's public surface, its shared preconditions, and the README's Python quick start."""

import importlib
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import grasspack as gp
from grasspack.cli import frame_from_json_obj, frame_to_json_obj, save_frame

from conftest import child_env

MODULES = ("bounds", "certify", "construct", "linalg", "metrics", "optimize")
README = Path(__file__).resolve().parent.parent / "README.md"


def test_package_all_is_the_union_of_module_lists():
    union = set()
    for name in MODULES:
        union.update(importlib.import_module(f"grasspack.{name}").__all__)
    assert gp.__all__ == sorted(union)


def test_every_public_name_is_its_module_object():
    for name in MODULES:
        module = importlib.import_module(f"grasspack.{name}")
        for attr in module.__all__:
            assert getattr(gp, attr) is getattr(module, attr), f"{name}.{attr}"
    assert gp.certify is importlib.import_module("grasspack.certify").certify
    assert callable(gp.certify)


# Each runs first in a fresh interpreter: the package's names must not
# depend on which import or call came before. FRAME is a saved simplex.
FRESH = {
    "import-loads-nothing": (
        "import grasspack\n"
        "assert [m for m in sys.modules if m == 'numpy' or m.startswith('grasspack.')] == []"
    ),
    "attribute-access": (
        "import grasspack as gp, types\n"
        "assert isinstance(gp.certify, types.FunctionType)\n"
        "assert gp.certify is sys.modules['grasspack.certify'].certify\n"
        "assert gp.optimize is sys.modules['grasspack.optimize']"
    ),
    "import-submodule-as": (
        "import grasspack.certify as m, types\n"
        "assert isinstance(m, types.FunctionType) and m is sys.modules['grasspack.certify'].certify"
    ),
    "from-import": "from grasspack import certify\nassert certify is sys.modules['grasspack.certify'].certify",
    "after-cli-certify": (
        "import grasspack, grasspack.cli\n"
        "assert grasspack.cli.run(['certify', FRAME, '--format', 'json']) == 0\n"
        "assert grasspack.certify is sys.modules['grasspack.certify'].certify"
    ),
    "from-import-cli": (
        "from grasspack import cli\n"
        "assert 'numpy' not in sys.modules\n"
        "assert cli.run(['bounds', '--n', '3', '--d', '4', '--c', '2', '--format', 'json']) == 0"
    ),
    "dir-first": "import grasspack\nassert set(dir(grasspack)) >= set(grasspack.__all__)",
    "star-import": (
        "ns = {}\n"
        "exec('from grasspack import *', ns)\n"
        "import grasspack\n"
        "assert sorted(set(ns) - {'__builtins__'}) == grasspack.__all__"
    ),
}


@pytest.mark.parametrize("snippet", FRESH.values(), ids=FRESH)
def test_package_names_under_every_import_order(tmp_path, snippet):
    path = str(tmp_path / "simplex.json")
    save_frame(gp.regular_simplex(3), path)
    code = f"import sys\nFRAME = {path!r}\n{snippet}\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr


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
    assert re.search(r"^result\.certificate\.is_ectff +# True$", code, re.M)
    assert ns["result"].certificate.is_ectff


# A name the README cites as gp.NAME or optimize.NAME, dotted paths and a
# trailing NAME_* wildcard included.
CITED = re.compile(r"\b(gp|optimize)\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(\*?)")


def test_every_name_the_readme_cites_resolves():
    owners = {"gp": gp, "optimize": importlib.import_module("grasspack.optimize")}
    cited = CITED.findall(README.read_text(encoding="utf-8"))
    assert {prefix for prefix, _, _ in cited} == set(owners)
    for prefix, path, wildcard in cited:
        *parents, last = path.split(".")
        owner = owners[prefix]
        for parent in parents:
            owner = getattr(owner, parent)
        if wildcard:
            assert any(attr.startswith(last) for attr in dir(owner)), f"{prefix}.{path}*"
        else:
            assert hasattr(owner, last), f"{prefix}.{path}"


R = gp.FieldTag.REAL
SPECTRAL = gp.Criterion.SPECTRAL_OVERLAP
ONE_VECTOR = gp.FusionFrame.from_arrays([[[1.0], [0.0]]])  # n = 1, d = 2, c = 1
PLANES = gp.random_frame(R, 4, 2, 3, 0)  # c = 2


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: gp.min_chordal_packing(ONE_VECTOR), id="min_chordal_packing"),
        pytest.param(lambda: gp.coherence(ONE_VECTOR), id="coherence"),
        pytest.param(lambda: gp.worst_overlap(ONE_VECTOR, gp.Criterion.CHORDAL_OVERLAP), id="worst_overlap"),
        pytest.param(lambda: gp.worst_overlap(ONE_VECTOR, SPECTRAL), id="worst_overlap-spectral"),
        pytest.param(lambda: gp.certify(ONE_VECTOR), id="certify"),
        pytest.param(lambda: gp.is_equichordal(ONE_VECTOR), id="is_equichordal"),
        pytest.param(lambda: gp.is_equiisoclinic(ONE_VECTOR), id="is_equiisoclinic"),
        pytest.param(lambda: gp.is_equiangular(ONE_VECTOR), id="is_equiangular"),
        pytest.param(lambda: gp.is_regular_simplex(ONE_VECTOR), id="is_regular_simplex"),
        pytest.param(lambda: gp.smoothed_objective(ONE_VECTOR.array), id="smoothed_objective"),
        pytest.param(lambda: gp.smoothed_objective(ONE_VECTOR.array, SPECTRAL), id="smoothed_objective-spectral"),
        pytest.param(lambda: gp.smoothed_objective_and_gradient(ONE_VECTOR.array), id="smoothed_objective_and_gradient"),
        pytest.param(lambda: gp.smoothed_objective_and_gradient(ONE_VECTOR.array, SPECTRAL), id="smoothed_objective_and_gradient-spectral"),
        pytest.param(lambda: gp.polish(ONE_VECTOR), id="polish"),
        pytest.param(lambda: gp.polish(ONE_VECTOR, gp.PackConfig(criterion=SPECTRAL)), id="polish-spectral"),
        pytest.param(lambda: gp.pack(R, 2, 1, 1), id="pack"),
        pytest.param(lambda: gp.regular_simplex(1), id="regular_simplex"),
        pytest.param(lambda: gp.rankin_simplex_bound(1), id="rankin_simplex_bound"),
        pytest.param(lambda: gp.welch_bound(1, 1), id="welch_bound"),
        pytest.param(lambda: gp.simplex_bound_chordal(1, 2, 1), id="simplex_bound_chordal"),
        pytest.param(lambda: gp.simplex_bound_gram(1, 2, 1), id="simplex_bound_gram"),
        pytest.param(lambda: gp.eitff_bound(1, 2, 1), id="eitff_bound"),
        pytest.param(lambda: gp.governing_bound(1, 2, 1, R), id="governing_bound"),
        pytest.param(lambda: gp.orthoplex_bound(1, 2, 1, R), id="orthoplex_bound"),
        pytest.param(lambda: gp.rankin_orthoplex_bound(1, 2), id="rankin_orthoplex_bound"),
        pytest.param(lambda: gp.bound_report(1, 2, 1, R), id="bound_report"),
    ],
)
def test_every_pairwise_function_rejects_one_subspace_alike(call):
    with pytest.raises(ValueError, match=r"^need n >= 2, got n = 1$"):
        call()


def test_a_single_vector_is_not_an_etf():
    assert gp.is_etf(ONE_VECTOR) is False


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: gp.coherence(PLANES), id="coherence"),
        pytest.param(lambda: gp.is_unit_norm_tight_frame(PLANES), id="is_unit_norm_tight_frame"),
        pytest.param(lambda: gp.is_equiangular(PLANES), id="is_equiangular"),
        pytest.param(lambda: gp.is_etf(PLANES), id="is_etf"),
        pytest.param(lambda: gp.is_regular_simplex(PLANES), id="is_regular_simplex"),
        pytest.param(lambda: gp.tensor_eitff(PLANES, 2), id="tensor_eitff"),
    ],
)
def test_every_unit_vector_function_rejects_subspaces_alike(call):
    with pytest.raises(ValueError, match=r" is defined for unit vectors \(c = 1\), got c = 2$"):
        call()


SIMPLEX = gp.regular_simplex(3)
SIMPLEX_OBJ = frame_to_json_obj(SIMPLEX)

# Every public function that takes a field, a count or a tolerance, called
# with that one argument replaced: (id, argument name, call).
FIELD_ARGS = [
    ("Mat", "field", lambda v: gp.Mat(np.eye(2), v)),
    ("FusionFrame.from_arrays", "field", lambda v: gp.FusionFrame.from_arrays(SIMPLEX.array, v)),
    ("random_frame", "field", lambda v: gp.random_frame(v, 2, 1, 3, 0)),
    ("gerzon_limit", "field", lambda v: gp.gerzon_limit(2, v)),
    ("traceless_space_dim", "field", lambda v: gp.traceless_space_dim(2, v)),
    ("orthoplex_bound", "field", lambda v: gp.orthoplex_bound(4, 2, 1, v)),
    ("governing_bound", "field", lambda v: gp.governing_bound(4, 2, 1, v)),
    ("bound_report", "field", lambda v: gp.bound_report(3, 2, 1, v)),
    ("pack", "field", lambda v: gp.pack(v, 2, 1, 3)),
]
COUNT_ARGS = [
    ("welch_bound-n", "n", lambda v: gp.welch_bound(v, 2)),
    ("welch_bound-d", "d", lambda v: gp.welch_bound(3, v)),
    ("rankin_simplex_bound", "n", lambda v: gp.rankin_simplex_bound(v)),
    ("rankin_orthoplex_bound-n", "n", lambda v: gp.rankin_orthoplex_bound(v, 2)),
    ("rankin_orthoplex_bound-d", "d", lambda v: gp.rankin_orthoplex_bound(5, v)),
    ("gerzon_limit", "d", lambda v: gp.gerzon_limit(v, R)),
    ("traceless_space_dim", "d", lambda v: gp.traceless_space_dim(v, R)),
    ("regular_simplex", "n", lambda v: gp.regular_simplex(v)),
    ("orthoplex", "d", lambda v: gp.orthoplex(v)),
    ("tensor_eitff", "c", lambda v: gp.tensor_eitff(SIMPLEX, v)),
    ("DifferenceSet-modulus", "modulus", lambda v: gp.DifferenceSet(v, [1, 2, 4])),
    ("DifferenceSet-elements", "elements[0]", lambda v: gp.DifferenceSet(7, [v, 2, 4])),
    ("random_frame-seed", "seed", lambda v: gp.random_frame(R, 2, 1, 3, v)),
]
for _name, _call in [
    ("simplex_bound_chordal", gp.simplex_bound_chordal),
    ("simplex_bound_gram", gp.simplex_bound_gram),
    ("eitff_bound", gp.eitff_bound),
    ("orthoplex_bound", lambda n, d, c: gp.orthoplex_bound(n, d, c, R)),
    ("governing_bound", lambda n, d, c: gp.governing_bound(n, d, c, R)),
    ("bound_report", lambda n, d, c: gp.bound_report(n, d, c, R)),
    ("pack", lambda n, d, c: gp.pack(R, d, c, n)),
    ("random_frame", lambda n, d, c: gp.random_frame(R, d, c, n, 0)),
]:
    COUNT_ARGS += [
        (f"{_name}-n", "n", lambda v, f=_call: f(v, 2, 1)),
        (f"{_name}-d", "d", lambda v, f=_call: f(3, v, 1)),
        (f"{_name}-c", "c", lambda v, f=_call: f(3, 2, v)),
    ]
TOL_ARGS = [
    (name, "tol", lambda v, f=getattr(gp, name): f(SIMPLEX, v))
    for name in (
        "certify",
        "is_tight_fusion_frame",
        "is_equichordal",
        "is_equiisoclinic",
        "is_unit_norm_tight_frame",
        "is_equiangular",
        "is_etf",
        "is_regular_simplex",
    )
] + [
    ("FusionFrame.from_arrays", "tol", lambda v: gp.FusionFrame.from_arrays(SIMPLEX.array, None, v)),
    ("SubspaceBasis", "tol", lambda v: gp.SubspaceBasis(gp.Mat(np.eye(2)), v)),
    ("orthonormalize", "tol", lambda v: gp.orthonormalize(gp.Mat(np.eye(2)), v)),
    ("frame_from_json_obj", "tol", lambda v: frame_from_json_obj(SIMPLEX_OBJ, v)),
]
RULES = {"field": "a FieldTag", "count": r"an integer( >= \d+)?", "tol": "finite and positive"}
BAD = ["R", 2.5, True, math.nan, "1e-8"]


def _bad_argument_cases():
    for kind, args in (("field", FIELD_ARGS), ("count", COUNT_ARGS), ("tol", TOL_ARGS)):
        for ident, name, call in args:
            for value in BAD:
                if kind == "tol" and value == 2.5:
                    continue  # a valid tolerance
                yield pytest.param(call, name, kind, value, id=f"{kind}-{ident}-{value!r}")


@pytest.mark.parametrize("call, name, kind, value", list(_bad_argument_cases()))
def test_every_field_count_and_tolerance_is_checked_alike(call, name, kind, value):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be {RULES[kind]}, got {re.escape(repr(value))}$"):
        call(value)
