"""Numerical toolkit for two starlike function classes tied to vertical strips.

Members f of either class keep Re{z f'(z)/f(z)} inside a strip; their
logarithmic coefficients gamma_n (from log(f/z) = sum 2 gamma_n z^n)
obey sharp per-coefficient and squared-sum bounds whose values reduce to
weight-4 polylogarithms on the unit circle.  The package computes the
maps, coefficients, bounds, and extremal functions, and verifies every
inequality numerically at desk scale.

Each module's ``__all__`` is its public API; the package re-exports them.
"""

__version__ = "0.1.0"

from . import logcoef, maps, polylog, series, verify

__all__ = ["__version__", *series.__all__, *polylog.__all__, *maps.__all__,
           *logcoef.__all__, *verify.__all__]

from .series import *
from .polylog import *  # rebinds the name polylog from the module to the function
from .maps import *
from .logcoef import *
from .verify import *

# after numpy, whose import already loaded ctypes
from . import _heap

_heap.keep_freed_heap()
