"""Packings of c-dimensional subspaces of real or complex d-space.

Compute subspace distances and principal angles, evaluate the classical
packing bounds (Welch, simplex, orthoplex, Gerzon), certify structure
(tight fusion frames, equi-chordal and equi-isoclinic arrangements,
equiangular tight frames), construct the known optimal packings, and
search numerically for new ones. A command-line interface lives in
``grasspack.cli``.

Each module's ``__all__`` is the one list of its public names. The
package's names resolve lazily: ``import grasspack`` loads no module,
and the first public name, ``__all__`` or ``dir()`` imports the six
modules and binds the union of their lists. Every submodule name, ``cli``
included, resolves to that submodule alone, so ``grasspack.bounds``, the
closed-form bounds and ``from grasspack import cli`` run without numpy.
``grasspack.certify`` is the function ``certify``, whichever import
came first.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

_MODULES = ("bounds", "certify", "construct", "linalg", "metrics", "optimize")


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # The import system binds each submodule onto its package once it
        # has loaded. Where the submodule has a public function of its own
        # name (certify), the package keeps the function.
        if (
            isinstance(value, types.ModuleType)
            and value.__name__ == f"{self.__name__}.{name}"
            and name in getattr(value, "__all__", ())
        ):
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package


def _load() -> None:
    names = globals()
    if "__all__" in names:  # loaded: binding again would undo a rebound name
        return
    union: set[str] = set()
    for m in _MODULES:
        module = importlib.import_module(f"{__name__}.{m}")
        names.update({attr: getattr(module, attr) for attr in module.__all__})
        union.update(module.__all__)
    names["__all__"] = sorted(union)


def __getattr__(name: str):
    if name in _MODULES or name == "cli":
        # That module alone, as `from . import bounds` asks for it. Importing
        # it binds the module, or its same-named function, through _Package.
        importlib.import_module(f"{__name__}.{name}")
    elif name == "__all__" or not name.startswith("_"):
        _load()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    _load()
    return sorted(globals())
