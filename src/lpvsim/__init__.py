"""lpvsim: continuous-time LPV state-space models, bilinear discretization
that keeps the CT matrices, loop-free discrete stepping, and verification
tooling (independent simulation engines, frequency-warping checks,
convergence-order estimation).

Each module's ``__all__`` is the one list of its public names, re-exported here.
"""

from . import analyze, discretize, errors, fixtures, model, simulate
from .analyze import *
from .discretize import *
from .errors import *
from .fixtures import *
from .model import *
from .simulate import *

__all__ = (analyze.__all__ + discretize.__all__ + errors.__all__
           + fixtures.__all__ + model.__all__ + simulate.__all__)

__version__ = "0.1.0"
