"""Loading a model takes bulk passes with a per-item fallback, and writing a
report lays out its text in one walk with float rows written whole; each
must give the verdict, message and bytes of the per-item rules it stands in
for, which are kept here as reference copies."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpvsim import LpvStateSpace, ParseError, PMatrixFunction, PTerm, SchedulingDomain
from lpvsim.cli import _json_text
from lpvsim.errors import DimensionError, DomainError
from lpvsim.model import _BOUND_MARGIN, _bounds_fit, _json_numbers


# --- reference copies of the per-item rules -----------------------------------


def _walk(funcs, domain):
    """The per-entry overflow walk: None if every term passes, else the
    message of the first one that fails."""
    reach = list(np.maximum(np.abs(domain.lower), np.abs(domain.upper)))
    for name, f in funcs.items():
        bound = np.zeros((f.rows, f.cols))
        with np.errstate(over="ignore", invalid="ignore"):
            for t in f.terms:
                where = f"{name} term with exponents {list(t.exponents)}"
                size = abs(t.coeff)
                if not math.isfinite(size.max()):
                    return f"{where} has a non-finite coefficient"
                bound += math.prod(r**e for r, e in zip(reach, t.exponents)) * size
                if not np.all(np.isfinite(bound)):
                    return f"{where} overflows the float range on the scheduling box"
    return None


def _numbers_by_object_walk(value, what):
    try:
        out = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{what} not numeric: {exc}") from None
    for cell in np.array(value, dtype=object).flat:
        if type(cell) not in (int, float):
            raise ParseError(f"{what} not numeric: {json.dumps(cell)} is not a JSON number")
    return out


def _domain_checks(lower, upper):
    lower = np.array(lower, dtype=float)
    upper = np.array(upper, dtype=float)
    if lower.ndim != 1 or upper.shape != lower.shape:
        raise DimensionError("domain bounds must be 1-D vectors of equal length")
    if lower.size < 1:
        raise DimensionError("scheduling dimension must be at least 1")
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise DomainError(f"domain bounds must be finite: {lower}, {upper}")
    if np.any(lower > upper):
        raise DomainError(f"domain has lower > upper: {lower} > {upper}")
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(upper - lower)):
            raise DomainError(f"domain width must be finite: {lower}, {upper}")


def _jsonable_by_recursion(obj):
    if isinstance(obj, dict):
        return {k: _jsonable_by_recursion(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable_by_recursion(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable_by_recursion(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isfinite(f):
            return f
        if math.isnan(f):
            return "nan"
        return "inf" if f > 0 else "-inf"
    return obj


def _outcome(fn, *args):
    """(exception type name, message), or ("ok", result) when none."""
    try:
        return "ok", fn(*args)
    except (ParseError, DimensionError, DomainError) as exc:
        return type(exc).__name__, str(exc)


# --- the overflow bound -------------------------------------------------------


def _model(funcs, lower, upper):
    return LpvStateSpace(1, 1, 1, len(lower), domain=SchedulingDomain(lower, upper),
                         **funcs)


def _funcs(a_terms, n_p=1, a_shape=(1, 1), **others):
    """A 1-state model's matrices: A from ``a_terms``, B = C = 1 and D = 0
    unless given in ``others``."""
    one = PMatrixFunction.constant([[1.0]], n_p)
    funcs = dict(A=PMatrixFunction(*a_shape, a_terms), B=one, C=one,
                 D=PMatrixFunction.zero(1, 1))
    funcs.update(others)
    return funcs


def _assert_as_walk(funcs, lower, upper):
    expected = _walk(funcs, SchedulingDomain(lower, upper))
    n_x = funcs["A"].rows
    build = lambda: LpvStateSpace(n_x, funcs["B"].cols, funcs["C"].rows, len(lower),
                                  domain=SchedulingDomain(lower, upper), **funcs)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        if expected is None:
            assert build().n_x == n_x
        else:
            with pytest.raises(ParseError) as exc:
                build()
            assert str(exc.value) == expected


def test_the_margin_decides_which_models_skip_the_walk():
    below = math.nextafter(_BOUND_MARGIN, 0.0)
    for c, fits in ((below, True), (_BOUND_MARGIN, False), (-_BOUND_MARGIN, False),
                    (-below, True)):
        funcs = _funcs((((0,), [[c]]),))
        assert _bounds_fit(list(funcs.values()), [1.0]) is fits
        _assert_as_walk(funcs, [0.0], [1.0])  # both sides of the margin load
    # the bound weighs each peak by reach**e and adds the terms up
    quarter = math.nextafter(_BOUND_MARGIN / 4, 0.0)
    funcs = _funcs((((2,), [[quarter]]),))
    assert _bounds_fit(list(funcs.values()), [2.0])
    assert not _bounds_fit(list(funcs.values()), [math.nextafter(2.0, 3.0)])
    funcs = _funcs((((0,), [[_BOUND_MARGIN / 2]]), ((1,), [[-_BOUND_MARGIN / 2]])))
    assert not _bounds_fit(list(funcs.values()), [1.0])
    _assert_as_walk(funcs, [0.0], [1.0])


@pytest.mark.parametrize("exps, reach", [
    ((2, 2), 1e100),   # the weight overflows in its product
    ((400, 0), 1e3),   # ... in a power
])
def test_a_zero_term_with_an_overflowing_weight_is_refused_as_before(exps, reach):
    # inf * 0 is nan, which the walk reports as an overflow
    funcs = _funcs(((exps, [[0.0]]),), n_p=2,
                   B=PMatrixFunction.constant([[1.0]], 2),
                   C=PMatrixFunction.constant([[1.0]], 2))
    assert not _bounds_fit(list(funcs.values()), [reach, reach])
    _assert_as_walk(funcs, [0.0, 0.0], [reach, reach])
    with pytest.raises(ParseError) as exc:
        _model(funcs, [0.0, 0.0], [reach, reach])
    assert str(exc.value) == (
        f"A term with exponents {list(exps)} overflows the float range on the "
        "scheduling box"
    )


@pytest.mark.parametrize("terms, message", [
    # a non-finite coefficient before the term whose sum overflows
    ((((0,), [[math.nan]]), ((1,), [[1e308]]), ((2,), [[1e308]])),
     "A term with exponents [0] has a non-finite coefficient"),
    # ... and after it
    ((((0,), [[1e308]]), ((1,), [[1e308]]), ((2,), [[math.inf]])),
     "A term with exponents [1] overflows the float range on the scheduling box"),
])
def test_the_first_failing_term_is_named(terms, message):
    funcs = _funcs(terms)
    assert not _bounds_fit(list(funcs.values()), [1.0])
    with pytest.raises(ParseError) as exc:
        _model(funcs, [0.0], [1.0])
    assert str(exc.value) == message
    _assert_as_walk(funcs, [0.0], [1.0])


def test_an_earlier_matrix_fault_wins_over_a_later_one():
    funcs = _funcs((((0,), [[1e308]]), ((1,), [[1e308]])),
                   B=PMatrixFunction.constant([[math.nan]], 1))
    with pytest.raises(ParseError, match=r"^A term with exponents \[1\] overflows"):
        _model(funcs, [0.0], [1.0])
    # a shape fault of B is raised only after A has passed
    funcs = _funcs((((0,), [[1e308]]), ((1,), [[1e308]])),
                   B=PMatrixFunction.constant([[1.0, 2.0]], 1))
    with pytest.raises(ParseError, match=r"^A term with exponents \[1\] overflows"):
        _model(funcs, [0.0], [1.0])
    funcs["A"] = PMatrixFunction.constant([[1.0]], 1)
    with pytest.raises(DimensionError, match=r"^B has shape \(1, 2\), expected \(1, 1\)"):
        _model(funcs, [0.0], [1.0])


_SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])


@st.composite
def _coefficient(draw):
    kind = draw(st.integers(0, 29))
    if kind == 0:
        return draw(_SPECIAL)
    if kind < 4:
        return 0.0
    sign = draw(st.sampled_from([1.0, -1.0]))
    if kind < 8:  # sums and weighted peaks about the margin of 2**1000
        return sign * 2.0 ** draw(st.floats(990.0, 1023.0))
    return sign * 10.0 ** draw(st.floats(-320.0, 308.25))


@st.composite
def _bound_case(draw):
    n_x, n_u, n_y = draw(st.integers(1, 4)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    n_p = draw(st.integers(1, 3))
    exponent = st.one_of(st.integers(0, 3), st.integers(0, 1200))
    funcs = {}
    for name, (rows, cols) in (("A", (n_x, n_x)), ("B", (n_x, n_u)),
                               ("C", (n_y, n_x)), ("D", (n_y, n_u))):
        exps = draw(st.lists(st.tuples(*[exponent] * n_p), max_size=3, unique=True))
        terms = tuple(
            (e, np.reshape(draw(st.lists(_coefficient(), min_size=rows * cols,
                                         max_size=rows * cols)), (rows, cols)))
            for e in exps
        )
        funcs[name] = PMatrixFunction(rows, cols, terms)
    reach = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-3, 1e3))
    lower = [-draw(reach) for _ in range(n_p)]
    upper = [draw(reach) for _ in range(n_p)]
    return funcs, lower, upper


@settings(max_examples=300, deadline=None)
@given(case=_bound_case())
@example(case=(_funcs((((0,), [[1e308]]), ((1,), [[-1e308]]))), [0.0], [1.0]))
def test_every_drawn_model_loads_exactly_as_the_per_entry_walk_says(case):
    _assert_as_walk(*case)


def test_a_term_takes_exactly_the_non_negative_exponents():
    assert PTerm((), [[1.0]]).exponents == ()
    assert PTerm((np.int64(0), 2), [[1.0]]).exponents == (0, 2)
    with pytest.raises(DimensionError) as exc:
        PTerm((0, -1), [[1.0]])
    assert str(exc.value) == "exponents must be non-negative, got (0, -1)"


# --- the JSON number rule and the box ------------------------------------------


_LEAF = st.one_of(
    st.integers(-3, 3), st.integers(10**300, 10**400), st.floats(allow_nan=False),
    st.booleans(), st.none(), st.sampled_from(["1.5", " 2 ", "x", ""]),
)
_JSON = st.recursive(_LEAF, lambda inner: st.lists(inner, max_size=3), max_leaves=12)


@settings(max_examples=400, deadline=None)
@given(value=_JSON)
@example(value=[[1.0, 2], [3, True]])
@example(value=[[1.0, 2], [3, 4]])
@example(value=[[[1.0]], [[None]]])
@example(value=["1.5", 2.0])
@example(value=[[1.0], 2.0])
def test_json_numbers_judges_every_value_as_the_object_walk(value):
    new = _outcome(_json_numbers, value, "x is")
    old = _outcome(_numbers_by_object_walk, value, "x is")
    assert new[0] == old[0]
    if new[0] == "ok":
        assert new[1].shape == old[1].shape
        assert np.array_equal(new[1], old[1], equal_nan=True)
    else:
        assert new[1] == old[1]


_BOUND = st.one_of(st.floats(), st.sampled_from([1e308, -1e308, 9e307, -9e307]))


@settings(max_examples=300, deadline=None)
@given(lower=st.lists(_BOUND, max_size=3), upper=st.lists(_BOUND, max_size=3))
@example(lower=[0.0, -1e308], upper=[1.0, 1e308])
@example(lower=[1.0, math.nan], upper=[0.0, 1.0])
@example(lower=[-math.inf], upper=[math.inf])
def test_a_box_is_judged_as_by_the_per_check_rules(lower, upper):
    with np.errstate(over="raise", invalid="raise"):
        new = _outcome(SchedulingDomain, lower, upper)
    old = _outcome(_domain_checks, lower, upper)
    assert new[0] == old[0]
    if new[0] != "ok":
        assert new[1] == old[1]


# --- reports ------------------------------------------------------------------


@pytest.mark.parametrize("payload", [
    {"a": np.array([1.5, math.nan, math.inf, -math.inf, -0.0])},
    {"a": np.array([[0.1, -0.0], [1e308, 5e-324]]), "b": np.array([[math.nan]])},
    {"a": np.float64(-0.0), "b": np.array(2.5), "c": np.array(math.inf)},
    {"a": np.array([1.0, 2.0], dtype=np.float32), "b": np.array([], dtype=float)},
    {"a": np.arange(6).reshape(2, 3), "b": np.array([True, False]),
     "c": np.array([[np.int32(7)]], dtype=np.int32)},
    {"rows": [np.array([1.0, math.nan]), (np.array([3.0]), np.bool_(True))]},
    {"p": [np.float64(-0.0), np.float64(math.nan), np.float64(math.inf)]},
])
def test_json_text_bytes_are_those_of_the_recursion(payload):
    expected = json.dumps(_jsonable_by_recursion(payload), indent=1) + "\n"
    assert _json_text(payload) == expected


def test_json_text_refuses_what_json_dumps_refuses():
    with pytest.raises(TypeError, match="^Object of type object is not JSON serializable$"):
        _json_text({"a": object()})


#: texts that look like the separators, brackets and numbers of the report
_TRICKY_TEXT = st.one_of(
    st.text(),
    st.sampled_from([", ", "[", "]", "],\n [", '"', '\\"', "\0", "\n", "é ∑ 😀",
                     "nan", "inf", "-inf", "1, 2", ": ", "{}", ""]),
)
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(10**30), 10**30),
    st.floats(), _TRICKY_TEXT,
)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(st.lists(st.floats(allow_nan=False), min_size=1, max_size=4), max_size=4),
        st.dictionaries(_TRICKY_TEXT, inner, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(_PAYLOADS)
@example({"a": [], "b": {}, "c": [[]], "d": [{}], "e": [[1.0, 2.0], [3.0, 4.0]]})
@example([[1, "x"], [2.5], [None, True, False]])
@example({"k, [": {"": ["nan", "inf", "-inf", "\0"]}})
def test_json_text_bytes_are_those_of_the_indenting_encoder(payload):
    assert _json_text(payload) == json.dumps(_jsonable_by_recursion(payload), indent=1) + "\n"
