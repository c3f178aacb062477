"""Possibilistic single-target filtering and track fusion.

The package implements a Bernoulli filter whose uncertainty is carried by
possibility functions instead of probability densities: spatial states are
max-mixtures of Gaussian-shaped possibilities, presence is a two-cell
possibility assignment, and every recursion step renormalises suprema to
one.  On top of the filter sit two fusion rules for combining posteriors
from different sensors, a Chernoff-style geometric rule that is robust to
unknown correlation and an independent product rule that assumes none.

The package exports every name its modules list in their __all__; the
command line front end, possfuse.cli, is imported on its own.
"""

from . import bernoulli, config, fusion, gaussmax, metrics, runner, simulate
from .bernoulli import *
from .config import *
from .fusion import *
from .gaussmax import *
from .metrics import *
from .runner import *
from .simulate import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *(name for module in (bernoulli, config, fusion, gaussmax, metrics, runner, simulate) for name in module.__all__),
]
