"""Packings of c-dimensional subspaces of real or complex d-space.

Compute subspace distances and principal angles, evaluate the classical
packing bounds (Welch, simplex, orthoplex, Gerzon), certify structure
(tight fusion frames, equi-chordal and equi-isoclinic arrangements,
equiangular tight frames), construct the known optimal packings, and
search numerically for new ones. A command-line interface lives in
``grasspack.cli``.

Each module's ``__all__`` is the one list of its public names; the
package re-exports their union.
"""

from .bounds import *  # noqa: F403
from .bounds import __all__ as _bounds_all
from .certify import *  # noqa: F403
from .certify import __all__ as _certify_all
from .construct import *  # noqa: F403
from .construct import __all__ as _construct_all
from .linalg import *  # noqa: F403
from .linalg import __all__ as _linalg_all
from .metrics import *  # noqa: F403
from .metrics import __all__ as _metrics_all
from .optimize import *  # noqa: F403
from .optimize import __all__ as _optimize_all

__version__ = "0.1.0"

__all__ = sorted({*_bounds_all, *_certify_all, *_construct_all, *_linalg_all, *_metrics_all, *_optimize_all})
