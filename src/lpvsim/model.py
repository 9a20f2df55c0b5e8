"""Parameter-dependent matrices and the continuous-time LPV state-space model.

A model is four matrix-valued multivariate polynomials A(p), B(p), C(p),
D(p) in a scheduling vector p confined to a closed box, together with the
signal dimensions.  It represents the continuous-time system

    dx/dt = A(p(t)) x(t) + B(p(t)) u(t)
    y(t)  = C(p(t)) x(t) + D(p(t)) u(t)

Matrix dependence on p is a sum of monomial terms ``coeff * prod_i p_i**e_i``
with non-negative integer exponents, which covers the affine case used in
practice and evaluates exactly.  All types are immutable after construction
and safe to share across threads.  Two values of one type are equal when
every dataclass field is, arrays compared by ``np.array_equal``; like numpy
arrays, the types are unhashable.

Model files are JSON; see :func:`parse_model` for the format.
"""

import inspect
import json
import math
import reprlib
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from functools import partial
from itertools import accumulate, chain, repeat
from operator import attrgetter, is_

import numpy as np

from .errors import DimensionError, DomainError, ParseError

__all__ = [
    "SchedulingDomain",
    "PTerm",
    "PMatrixFunction",
    "LpvStateSpace",
    "eval_pmatrix",
    "eval_pmatrix_many",
    "check_in_box",
    "parse_model",
    "serialize_model",
]


def _product_rows(axes):
    """Every combination of one value per axis, one per row, the last axis
    cycling fastest (the order of ``itertools.product``).  The meshgrid views
    are broadcast, so the rows are the only (m, n_p) array allocated; one
    axis is its own column and is not copied."""
    if len(axes) == 1:
        return np.asarray(axes[0], dtype=float)[:, None]
    mesh = np.meshgrid(*axes, indexing="ij", copy=False)
    return np.stack(mesh, axis=-1).reshape(-1, len(axes))


def _frozen_array(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _record(cls=None, *, eq=None):
    """``@dataclass(frozen=True)`` for the record types, built without ``exec``.

    The stdlib compiles each generated method with ``exec``, about 1 ms per
    class in the import of every CLI process (``tools/cold_start.py``).  Here
    ``dataclass`` only registers the fields (``fields``, ``asdict``,
    ``replace``, ``is_dataclass`` and ``__match_args__`` work), and closures
    give ``__init__`` (then ``__post_init__``), the frozen ``__setattr__`` and
    ``__delattr__`` with their messages, ``__repr__`` and the signature that
    ``help`` shows.  ``eq``: None keeps identity; ``"tuple"`` compares and
    hashes the field tuple, as a frozen dataclass does; ``"array"`` compares
    arrays by ``np.array_equal`` and is unhashable, as arrays are.  Unlike the
    stdlib's, ``__dataclass_params__.frozen`` reads False, and a call that
    binds no arguments raises the TypeError of ``inspect.Signature.bind``.
    """
    if cls is None:
        return partial(_record, eq=eq)
    fs = fields(dataclass(init=False, repr=False, eq=False)(cls))
    names, fill = tuple(f.name for f in fs), tuple(f.default for f in fs)
    # a positional call of at least this many arguments takes the rest's defaults
    n_required = max((i + 1 for i, d in enumerate(fill) if d is MISSING), default=0)
    shown = [f.name for f in fs if f.repr]
    post_init = hasattr(cls, "__post_init__")
    setter = object.__setattr__
    key = attrgetter(*names) if len(names) > 1 else lambda self: (getattr(self, names[0]),)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            n = len(args)
            if not kwargs and n_required <= n < len(names):
                args += fill[n:]
            else:
                # each field after the positional ones: by keyword, else its
                # default, else MISSING, which makes the call bind no arguments
                args += tuple(map(kwargs.pop, names[n:], fill[n:]))
                if kwargs or n > len(names) or any(map(is_, args, repeat(MISSING))):
                    given = {k: v for k, v in zip(names[n:], args[n:]) if v is not MISSING}
                    __init__.__signature__.bind(self, *args[:n], **given, **kwargs)  # raises
        for name, value in zip(names, args):
            setter(self, name, value)
        if post_init:
            self.__post_init__()

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    @reprlib.recursive_repr()
    def __repr__(self):
        text = ", ".join(f"{k}={getattr(self, k)!r}" for k in shown)
        return f"{self.__class__.__qualname__}({text})"

    methods = [__init__, __setattr__, __delattr__, __repr__]
    if eq == "tuple":
        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        methods += [__eq__, __hash__]
    elif eq == "array":
        def __eq__(self, other):
            if not isinstance(other, type(self)):
                return NotImplemented
            return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
                       for a, b in zip(key(self), key(other)))

        methods.append(__eq__)
        cls.__hash__ = None
    for method in methods:
        method.__module__ = cls.__module__
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    P = inspect.Parameter
    __init__.__signature__ = inspect.Signature(
        [P("self", P.POSITIONAL_OR_KEYWORD)] + [
            P(f.name, P.POSITIONAL_OR_KEYWORD, annotation=f.type,
              default=P.empty if f.default is MISSING else f.default) for f in fs],
        return_annotation=None)
    return cls


@_record(eq="array")
class SchedulingDomain:
    """Closed box of admissible scheduling vectors.

    Parameters
    ----------
    lower, upper : array_like, shape (n_p,)
        Finite per-dimension bounds with ``lower[i] <= upper[i]`` and a
        finite width ``upper[i] - lower[i]``.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = _frozen_array(self.lower)
        upper = _frozen_array(self.upper)
        if lower.ndim != 1 or upper.shape != lower.shape:
            raise DimensionError("domain bounds must be 1-D vectors of equal length")
        if lower.size < 1:
            raise DimensionError("scheduling dimension must be at least 1")
        # a finite width hi - lo >= 0 passes the three checks below
        if not all(math.isfinite(hi - lo) and lo <= hi
                   for lo, hi in zip(lower.tolist(), upper.tolist())):
            if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
                raise DomainError(f"domain bounds must be finite: {lower}, {upper}")
            if np.any(lower > upper):
                raise DomainError(f"domain has lower > upper: {lower} > {upper}")
            raise DomainError(f"domain width must be finite: {lower}, {upper}")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def n_p(self) -> int:
        return self.lower.size

    def midpoint(self) -> np.ndarray:
        # lower + upper can overflow; __post_init__ refuses a non-finite width
        return self.lower + 0.5 * (self.upper - self.lower)

    def vertices(self) -> np.ndarray:
        """All 2**n_p box corners, last dimension cycling fastest."""
        return _product_rows(list(zip(self.lower, self.upper)))

    def grid(self, points_per_dim: int) -> np.ndarray:
        """Endpoint-inclusive uniform grid, row-major over dimensions."""
        return _product_rows(
            [np.linspace(lo, hi, points_per_dim) for lo, hi in zip(self.lower, self.upper)]
        )


@_record(eq="array")
class PTerm:
    """One monomial term: ``coeff * prod_i p_i**exponents[i]``."""

    exponents: tuple
    coeff: np.ndarray

    def __post_init__(self):
        exps = tuple(map(int, self.exponents))
        if exps and min(exps) < 0:
            raise DimensionError(f"exponents must be non-negative, got {exps}")
        coeff = _frozen_array(self.coeff)
        if coeff.ndim != 2:
            raise DimensionError("term coefficient must be a 2-D matrix")
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "coeff", coeff)


@_record(eq="array")
class PMatrixFunction:
    """Matrix-valued polynomial ``M(p) = sum_terms coeff * prod_i p_i**e_i``.

    Terms are kept in canonical form: sorted by exponent vector, no two terms
    sharing one.  A function with no terms is the zero matrix.  ``0**0 := 1``,
    so constant terms are all-zero exponent vectors.

    Parameters
    ----------
    rows, cols : int
        Shape of every coefficient and of the evaluated matrix.
    terms : sequence of PTerm or (exponents, coeff) pairs
    """

    rows: int
    cols: int
    terms: tuple = ()

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise DimensionError("matrix shape must be positive")
        shape = (self.rows, self.cols)
        terms = [t if isinstance(t, PTerm) else PTerm(t[0], t[1]) for t in self.terms]
        seen = set()
        for t in terms:
            if t.coeff.shape != shape:
                raise DimensionError(
                    f"term coefficient shape {t.coeff.shape} != ({self.rows}, {self.cols})"
                )
            if len(t.exponents) != len(terms[0].exponents):
                raise DimensionError("terms mix exponent vectors of different lengths")
            if t.exponents in seen:
                raise DimensionError(f"duplicate exponent vector {t.exponents}")
            seen.add(t.exponents)
        terms.sort(key=lambda t: t.exponents)
        object.__setattr__(self, "terms", tuple(terms))

    @property
    def exponent_length(self):
        """Scheduling dimension implied by the terms, None when term-free."""
        return len(self.terms[0].exponents) if self.terms else None

    @property
    def is_constant(self) -> bool:
        """True when the value cannot depend on p (only all-zero exponents)."""
        return all(all(e == 0 for e in t.exponents) for t in self.terms)

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols, ())

    @classmethod
    def constant(cls, matrix, n_p):
        """Constant function of a length-``n_p`` scheduling vector."""
        m = np.asarray(matrix, dtype=float)
        return cls(m.shape[0], m.shape[1], ((tuple([0] * n_p), m),))

    @classmethod
    def affine(cls, const, linear):
        """``const + sum_i p_i * linear[i]`` with n_p = len(linear)."""
        const = np.asarray(const, dtype=float)
        units = map(tuple, np.eye(len(linear), dtype=int).tolist())
        terms = ((tuple([0] * len(linear)), const), *zip(units, linear))
        return cls(const.shape[0], const.shape[1], terms)

    def scaled(self, alpha: float) -> "PMatrixFunction":
        """Same polynomial with every coefficient multiplied by ``alpha``."""
        return PMatrixFunction(
            self.rows, self.cols, tuple((t.exponents, alpha * t.coeff) for t in self.terms)
        )

    def __call__(self, p) -> np.ndarray:
        return eval_pmatrix(self, p)


def eval_pmatrix(f: PMatrixFunction, p) -> np.ndarray:
    """Evaluate ``M(p) = sum_terms coeff * prod_i p_i**e_i`` at one point.

    The one-row case of :func:`eval_pmatrix_many`, so per-point and batched
    values agree bit for bit.  Constant terms (all exponents zero) are
    returned exactly regardless of p.

    Parameters
    ----------
    f : PMatrixFunction
    p : array_like, shape (n_p,)

    Returns
    -------
    ndarray, shape (f.rows, f.cols)

    Raises
    ------
    DimensionError
        If p is not a vector or ``len(p)`` does not match the terms'
        exponent length.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise DimensionError(f"scheduling point must be a vector, got shape {p.shape}")
    return eval_pmatrix_many(f, p[None, :])[0]


def eval_pmatrix_many(f: PMatrixFunction, points: np.ndarray) -> np.ndarray:
    """Evaluate a matrix polynomial at every row of a stack of points.

    ``points`` has shape (m, n_p); the result has shape (m, rows, cols).
    Each non-constant term is added as the outer product ``np.dot`` of its
    factor column and its flattened coefficient: a K = 1 product, so every
    entry is one exactly rounded product as in a broadcast multiply, without
    the copies numpy's buffered broadcast makes.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise DimensionError("points must be a 2-D stack of scheduling vectors")
    m = points.shape[0]
    n_p = f.exponent_length
    if n_p is not None and points.shape[1] != n_p:
        raise DimensionError(f"points have width {points.shape[1]}, expected {n_p}")
    out = np.zeros((m, f.rows, f.cols))
    flat = out.reshape(m, f.rows * f.cols)  # not -1: m may be 0
    for term in f.terms:
        factor = None
        for i, ei in enumerate(term.exponents):
            if ei:
                power = points[:, i] if ei == 1 else points[:, i] ** ei
                factor = power if factor is None else factor * power
        if factor is None:  # a constant term
            out += term.coeff
        else:
            flat += np.dot(factor[:, None], term.coeff.reshape(1, -1))
    return out


def _first_false(*oks):
    """The first row holding a False in one of the boolean stacks ``oks``
    (of equal rows), or None: a row scan only once a whole-stack test fails."""
    if all(ok.all() for ok in oks):
        return None
    rows = [ok.reshape(len(ok), -1).all(axis=1) for ok in oks]
    return int(np.argmin(np.logical_and.reduce(rows)))


def check_in_box(domain: SchedulingDomain, points, where=None) -> None:
    """Raise :class:`DomainError` at the first of ``points`` (one point or an
    (m, n_p) stack) outside the closed box or not finite.

    ``where`` maps the offending row index to its location, e.g.
    ``lambda k: f"step {k}"``, shown as ``at step 3`` in the message.
    """
    points = np.asarray(points, dtype=float)
    rows = points[None, :] if points.ndim == 1 else points
    if rows.ndim != 2 or rows.shape[1] != domain.n_p:
        raise DimensionError(f"scheduling points of shape {points.shape}, "
                             f"expected width {domain.n_p}")
    k = _first_false((rows >= domain.lower) & (rows <= domain.upper))
    if k is not None:
        at = f" at {where(k)}" if where else ""
        raise DomainError(f"scheduling point {list(map(float, rows[k]))}{at} "
                          "outside the box")


#: leaves the walk's sums 2**24 of float range, which rounding over n terms,
#: at most a factor (1 + 2**-52)**(2 n), does not use up
_BOUND_MARGIN = 2.0**1000


def _bounds_fit(funcs, reach):
    """True when each matrix's sum_terms reach**e * max|coeff|, weights formed
    as :class:`LpvStateSpace`'s walk forms them, is below ``_BOUND_MARGIN``, so
    the walk would pass; False (nan, inf or an OverflowError) defers to it."""
    terms = [t for f in funcs for t in f.terms]
    if not terms:
        return True
    starts = list(accumulate((t.coeff.size for t in terms[:-1]), initial=0))
    flat = np.abs(np.concatenate([t.coeff.ravel() for t in terms]))
    peaks = iter(np.maximum.reduceat(flat, starts).tolist())
    try:
        return all(sum(math.prod(map(pow, reach, t.exponents)) * next(peaks)
                       for t in f.terms) < _BOUND_MARGIN for f in funcs)
    except OverflowError:
        return False


def _matrix_shapes(n_x, n_u, n_y):
    """Shapes of A, B, C, D, in that order, for the given dimensions."""
    return {"A": (n_x, n_x), "B": (n_x, n_u), "C": (n_y, n_x), "D": (n_y, n_u)}


@_record(eq="array")
class LpvStateSpace:
    """Continuous-time LPV state-space model over a box scheduling domain.

    Attributes
    ----------
    n_x, n_u, n_y, n_p : int
        State, input, output, and scheduling dimensions (all >= 1).
    A, B, C, D : PMatrixFunction
        Shapes n_x*n_x, n_x*n_u, n_y*n_x, n_y*n_u; every coefficient finite,
        and every entry within the float range anywhere on the box: passed at
        once if each matrix's sum_terms max|p|**e * max|coeff| < 2**1000,
        else by a per-entry walk that names the first failing term.
    domain : SchedulingDomain
    """

    n_x: int
    n_u: int
    n_y: int
    n_p: int
    A: PMatrixFunction
    B: PMatrixFunction
    C: PMatrixFunction
    D: PMatrixFunction
    domain: SchedulingDomain

    def __post_init__(self):
        for name, value in (("n_x", self.n_x), ("n_u", self.n_u),
                            ("n_y", self.n_y), ("n_p", self.n_p)):
            if int(value) < 1:
                raise DimensionError(f"{name} must be >= 1, got {value}")
        if self.domain.n_p != self.n_p:
            raise DimensionError(
                f"domain dimension {self.domain.n_p} != n_p {self.n_p}"
            )
        # entry (r, c) on the box is at most sum_terms prod_i max|p_i|**e_i *
        # |coeff[r, c]|, formed as the evaluator forms its terms, powers
        # first; terms that cancel in one entry (1e308 - 1e308 p) are refused.
        # This per-entry walk runs only where _bounds_fit cannot vouch for it
        reach = np.maximum(np.abs(self.domain.lower), np.abs(self.domain.upper))
        fits = _bounds_fit([getattr(self, k) for k in _MATRIX_KEYS], reach.tolist())
        for name, shape in _matrix_shapes(self.n_x, self.n_u, self.n_y).items():
            f = getattr(self, name)
            if (f.rows, f.cols) != shape:
                raise DimensionError(
                    f"{name} has shape ({f.rows}, {f.cols}), expected {shape}"
                )
            if f.exponent_length is not None and f.exponent_length != self.n_p:
                raise DimensionError(
                    f"{name} terms use exponent vectors of length "
                    f"{f.exponent_length}, expected n_p={self.n_p}"
                )
            if fits:
                continue
            bound = np.zeros(shape)
            with np.errstate(over="ignore", invalid="ignore"):
                for t in f.terms:
                    where = f"{name} term with exponents {list(t.exponents)}"
                    size = abs(t.coeff)
                    if not math.isfinite(size.max()):
                        raise ParseError(f"{where} has a non-finite coefficient")
                    bound += math.prod(r**e for r, e in zip(reach, t.exponents)) * size
                    if not np.all(np.isfinite(bound)):
                        raise ParseError(
                            f"{where} overflows the float range on the scheduling box"
                        )

    def matrices_at(self, p):
        """Frozen (A, B, C, D) at one scheduling point; the one frozen-point
        guard, so a p off the box or not finite is a :class:`DomainError`."""
        check_in_box(self.domain, p)
        return tuple(eval_pmatrix(getattr(self, k), p) for k in _MATRIX_KEYS)

    @property
    def is_constant(self) -> bool:
        return all(f.is_constant for f in (self.A, self.B, self.C, self.D))


_MATRIX_KEYS = ("A", "B", "C", "D")
_REQUIRED_KEYS = ("nx", "nu", "ny", "np", "domain")
_ALLOWED_KEYS = set(_REQUIRED_KEYS) | set(_MATRIX_KEYS)


def _json_numbers(value, what):
    """A JSON value as a float array; :class:`ParseError` after ``what`` unless
    every cell is a JSON number (numpy also converts strings, bools and null).
    A 1-D or 2-D value is checked on its lists, a bad cell named in flat order."""
    try:
        out = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{what} not numeric: {exc}") from None
    cells = value if out.ndim == 1 else chain.from_iterable(value) if out.ndim == 2 else ()
    if out.ndim not in (1, 2) or not {int, float}.issuperset(map(type, cells)):
        for cell in np.array(value, dtype=object).flat:
            if type(cell) not in (int, float):
                raise ParseError(f"{what} not numeric: {json.dumps(cell)} is not a JSON number")
    return out


def _parse_terms(raw, name, rows, cols, n_p):
    """Term list -> canonical PTerm tuple; duplicates merge by addition."""
    if not isinstance(raw, list):
        raise ParseError(f'"{name}" must be a list of terms')
    merged = {}
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or set(entry) != {"exponents", "coeff"}:
            raise ParseError(
                f'"{name}" term {i} must be an object with keys "exponents" and "coeff"'
            )
        exps = entry["exponents"]
        if (not isinstance(exps, list) or len(exps) != n_p
                or any(not isinstance(e, int) or isinstance(e, bool) or e < 0 for e in exps)):
            raise ParseError(
                f'"{name}" term {i} needs {n_p} non-negative integer exponents'
            )
        coeff = _json_numbers(entry["coeff"], f'"{name}" term {i} coefficient is')
        if coeff.shape != (rows, cols):
            raise DimensionError(
                f'"{name}" term {i} coefficient has shape {coeff.shape}, '
                f"expected ({rows}, {cols})"
            )
        key = tuple(exps)
        merged[key] = merged[key] + coeff if key in merged else coeff
    return tuple(merged.items())


def parse_model(text: str) -> LpvStateSpace:
    """Parse a JSON model file into a validated :class:`LpvStateSpace`.

    Format (UTF-8 JSON): integer keys ``"nx"``, ``"nu"``, ``"ny"``, ``"np"``;
    ``"domain"``: ``{"lower": [...], "upper": [...]}``; and optional term
    lists ``"A"``, ``"B"``, ``"C"``, ``"D"``, each
    ``[{"exponents": [ints], "coeff": [[row], ...]}, ...]``.  An omitted
    matrix key is the zero matrix of the right shape; duplicate exponent
    vectors merge by coefficient addition.

    Raises
    ------
    ParseError
        Syntax errors (with line/column), missing or unknown keys,
        malformed terms, a string, boolean or null where a number belongs,
        a non-finite coefficient (``NaN``, ``Infinity`` or an overflowing
        literal), or a matrix that can overflow on the box (the two-stage
        bound of :class:`LpvStateSpace`, with its 2**1000 margin).
    DimensionError
        Coefficient shapes inconsistent with the declared dimensions.
    DomainError
        A non-finite bound, or ``lower > upper`` in some scheduling dimension.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise ParseError("model file must contain a JSON object")
    missing = [k for k in _REQUIRED_KEYS if k not in data]
    if missing:
        raise ParseError(f"missing required field(s): {', '.join(missing)}")
    unknown = [k for k in data if k not in _ALLOWED_KEYS]
    if unknown:
        raise ParseError(f"unknown field(s): {', '.join(sorted(unknown))}")
    dims = {}
    for key in ("nx", "nu", "ny", "np"):
        v = data[key]
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ParseError(f'"{key}" must be a positive integer, got {v!r}')
        dims[key] = v
    dom = data["domain"]
    if not isinstance(dom, dict) or set(dom) != {"lower", "upper"}:
        raise ParseError('"domain" must be an object with keys "lower" and "upper"')
    lower = _json_numbers(dom["lower"], '"domain" bounds are')
    upper = _json_numbers(dom["upper"], '"domain" bounds are')
    if lower.ndim != 1 or lower.shape != upper.shape or lower.size != dims["np"]:
        raise DimensionError(
            f'"domain" bounds must be vectors of length np={dims["np"]}'
        )
    domain = SchedulingDomain(lower, upper)

    funcs = {}
    for name, (rows, cols) in _matrix_shapes(dims["nx"], dims["nu"], dims["ny"]).items():
        terms = _parse_terms(data[name], name, rows, cols, dims["np"]) if name in data else ()
        funcs[name] = PMatrixFunction(rows, cols, terms)
    return LpvStateSpace(dims["nx"], dims["nu"], dims["ny"], dims["np"],
                         funcs["A"], funcs["B"], funcs["C"], funcs["D"], domain)


def serialize_model(model: LpvStateSpace) -> str:
    """Canonical JSON text for a model; inverse of :func:`parse_model`.

    Terms are written in canonical (exponent-sorted) order and matrices with
    no terms are omitted, so parse -> serialize -> parse is the identity.
    """
    data = {"nx": model.n_x, "nu": model.n_u, "ny": model.n_y, "np": model.n_p,
            "domain": {"lower": model.domain.lower.tolist(),
                       "upper": model.domain.upper.tolist()}}
    for name in _MATRIX_KEYS:
        f = getattr(model, name)
        if f.terms:
            data[name] = [{"exponents": list(t.exponents), "coeff": t.coeff.tolist()}
                          for t in f.terms]
    return json.dumps(data, indent=1)
