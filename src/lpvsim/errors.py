"""Exception hierarchy shared by all lpvsim modules.

Every exception carries a short machine-greppable ``code`` (``E_PARSE``,
``E_DIM``, ``E_WELLPOSED``, ``E_NONFINITE``, ``E_DOMAIN``, ``E_IO``) that
the command-line front end prints on its single-line failure path.  No
exception carries ``E_THRESHOLD``: ``compare`` prints it itself when its
metrics exceed the tolerance.
"""

import numpy as np

__all__ = [
    "LpvError",
    "ParseError",
    "DimensionError",
    "DomainError",
    "DataError",
    "ConfigError",
    "WellposednessError",
    "NonFiniteError",
]


class LpvError(Exception):
    """Base class for all lpvsim errors."""

    code = "E_PARSE"


class ParseError(LpvError):
    """Malformed model file, CSV content, or option mini-grammar."""

    code = "E_PARSE"


class DimensionError(LpvError):
    """Matrix, vector, or exponent shapes that do not fit together."""

    code = "E_DIM"


class DomainError(LpvError):
    """Scheduling point outside the box, or an invalid box itself."""

    code = "E_DOMAIN"


class DataError(LpvError):
    """Missing or unreadable input data (files, CSV columns, tables)."""

    code = "E_IO"


class ConfigError(LpvError):
    """Invalid run configuration (sampling times, grids, signal specs)."""

    code = "E_PARSE"


class WellposednessError(LpvError):
    """det(I - A(p)*Ts/2) is zero or numerically zero.

    Carries the offending frozen matrix ``A_p`` and sampling time ``ts``;
    when raised for a step of a run, ``step_index`` and ``p`` identify the
    sample at which the update matrices stopped existing.
    """

    code = "E_WELLPOSED"

    def __init__(self, message, A_p=None, ts=None, step_index=None, p=None):
        super().__init__(message)
        self.A_p = None if A_p is None else np.asarray(A_p, dtype=float)
        self.ts = ts
        self.step_index = step_index
        self.p = None if p is None else np.asarray(p, dtype=float)


class NonFiniteError(LpvError):
    """A run from finite inputs reached a non-finite state or output.

    The model diverges, or grows past the float range, over the run;
    ``step_index`` is the first sample whose x, xi or y is not finite.
    """

    code = "E_NONFINITE"

    def __init__(self, message, step_index=None):
        super().__init__(message)
        self.step_index = step_index
