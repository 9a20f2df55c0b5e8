"""Bundled example models shipped with the package.

Five small systems used by the documentation, the command-line examples, and
the test suite:

integrator
    A = 0, B = C = 1: pure trapezoidal accumulation, exact on constants.
lag1
    dx/dt = -x + u: the canonical first-order lag.
msd
    Mass-spring-damper with stiffness as the scheduling parameter,
    A(p) = [[0, 1], [-p, -0.5]], p in [0.5, 4].
scalar_p
    dx/dt = p x on p in [0, 40]: loses well-posedness at p = 2/Ts.
scalar_neg_p
    dx/dt = -p x on the same box: well-posed at every sampling time.
"""

from importlib import resources

from .errors import DataError
from .model import LpvStateSpace, parse_model

__all__ = ["FIXTURE_NAMES", "fixture_path", "load_fixture"]

FIXTURE_NAMES = ("integrator", "lag1", "msd", "scalar_p", "scalar_neg_p")


def fixture_path(name: str):
    """Filesystem path of one bundled model file."""
    if name not in FIXTURE_NAMES:
        raise DataError(
            f"no bundled model {name!r}; choose from {', '.join(FIXTURE_NAMES)}"
        )
    return resources.files("lpvsim") / "models" / f"{name}.json"


def load_fixture(name: str) -> LpvStateSpace:
    """Parse one bundled model by name."""
    return parse_model(fixture_path(name).read_text(encoding="utf-8"))
