"""Optimal multi-shell q-space sampling with exact separable transforms.

The package builds acquisition grids whose sample count equals the
degrees of freedom of the band-limited signal model (132 samples at the
recommended 4-shell defaults), and provides the matching forward and
inverse transforms: exact Gauss-Laguerre quadrature radially and exact
FFT-based spherical harmonic transforms on iso-latitude hemisphere
schemes angularly.
"""

from . import angular, multishell, radial, signals, specfun
from .errors import ConditioningError
from .specfun import *
from .radial import *
from .angular import *
from .multishell import *
from .signals import *
from .validate import run_validation

__version__ = "0.1.0"

__all__ = [
    "ConditioningError",
    *(name for mod in (specfun, radial, angular, multishell, signals) for name in mod.__all__),
    "run_validation",
    "__version__",
]
