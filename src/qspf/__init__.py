"""Optimal multi-shell q-space sampling with exact separable transforms.

The package builds acquisition grids whose sample count equals the
degrees of freedom of the band-limited signal model (132 samples at the
recommended 4-shell defaults), and provides the matching forward and
inverse transforms: exact Gauss-Laguerre quadrature radially and exact
FFT-based spherical harmonic transforms on iso-latitude hemisphere
schemes angularly.
"""

from .errors import ConditioningError
from .specfun import (
    laguerre_eval,
    laguerre_deriv,
    laguerre_roots,
    normalized_legendre,
    spherical_harmonic,
)
from .radial import (
    BConvention,
    RadialScheme,
    make_radial_scheme,
    radial_basis_eval,
    quadrature_weights,
    radial_project,
    radial_collocation_solve,
)
from .angular import (
    AngularScheme,
    ShCoefficients,
    make_angular_scheme,
    forward_sht,
    inverse_sht,
    dense_sht_oracle,
    mirror_to_full_sphere,
)
from .multishell import (
    StaircaseIndex,
    staircase_index,
    MultiShellGrid,
    build_grid,
    SpfCoefficients,
    forward_spf,
    inverse_spf,
    synthesize_on_grid,
)
from .signals import (
    TensorComponent,
    two_tensor_crossing,
    multi_tensor_eval,
    random_staircase_signal,
    add_rician_noise,
)
from .validate import run_validation

__version__ = "0.1.0"

__all__ = [
    "ConditioningError",
    "laguerre_eval",
    "laguerre_deriv",
    "laguerre_roots",
    "normalized_legendre",
    "spherical_harmonic",
    "BConvention",
    "RadialScheme",
    "make_radial_scheme",
    "radial_basis_eval",
    "quadrature_weights",
    "radial_project",
    "radial_collocation_solve",
    "AngularScheme",
    "ShCoefficients",
    "make_angular_scheme",
    "forward_sht",
    "inverse_sht",
    "dense_sht_oracle",
    "mirror_to_full_sphere",
    "StaircaseIndex",
    "staircase_index",
    "MultiShellGrid",
    "build_grid",
    "SpfCoefficients",
    "forward_spf",
    "inverse_spf",
    "synthesize_on_grid",
    "TensorComponent",
    "two_tensor_crossing",
    "multi_tensor_eval",
    "random_staircase_signal",
    "add_rician_noise",
    "run_validation",
    "__version__",
]
