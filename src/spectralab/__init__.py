"""Numerical laboratory for sublevel-set geometry, semigroup inequalities,
and compactness diagnostics of discretized Schrodinger operators.

The package re-exports every name in the __all__ of each of its library
modules (cli is the command line and is imported on its own), so each
module's __all__ is the one list of its public names.
"""

__version__ = "0.1.0"

from .inequalities import *
from .kernels import *
from .linalg import *
from .operators import *
from .potentials import *
from .reports import *
from .rng import *
from .sublevel import *
