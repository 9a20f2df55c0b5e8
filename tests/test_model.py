import copy
import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import msd_model
from lpvsim import (
    DataError,
    DimensionError,
    DomainError,
    LpvStateSpace,
    ParseError,
    PMatrixFunction,
    PTerm,
    SchedulingDomain,
    eval_pmatrix,
    eval_pmatrix_many,
    load_fixture,
    parse_model,
    serialize_model,
)
from lpvsim.analyze import freqresp_ct
from lpvsim.cli import main
from lpvsim.discretize import DiscretizationConfig, dt_step_matrices, sigma_step, tustin_frozen
from lpvsim.model import check_in_box
from lpvsim.simulate import Scenario, SignalSpec, sigma_initial_state

MINIMAL = json.dumps(
    {
        "nx": 1, "nu": 1, "ny": 1, "np": 1,
        "domain": {"lower": [-1.0], "upper": [1.0]},
        "A": [{"exponents": [1], "coeff": [[-1.0]]}],
    }
)


def test_eval_constant_term_ignores_p():
    f = PMatrixFunction.constant(np.eye(2), n_p=1)
    assert_array_equal(eval_pmatrix(f, [3.7]), np.eye(2))


def test_eval_affine_mass_spring_row():
    f = PMatrixFunction.affine([[0.0, 1.0], [0.0, 0.0]], [[[0.0, 0.0], [-1.0, 0.0]]])
    assert_array_equal(eval_pmatrix(f, [4.0]), [[0.0, 1.0], [-4.0, 0.0]])


def test_eval_monomials_two_params():
    # independent scalar oracle: 2^2 * 2 + (2*3) * 1 = 8 + 6 = 14
    f = PMatrixFunction(1, 1, (((2, 0), [[2.0]]), ((1, 1), [[1.0]])))
    assert_allclose(eval_pmatrix(f, [2.0, 3.0]), [[14.0]], rtol=0, atol=0)


def test_calling_a_matrix_function_is_eval_pmatrix():
    f = PMatrixFunction(2, 2, (((0, 0), [[-0.0, 1.5], [0.3, -0.0]]),
                               ((2, 1), [[0.9, -0.7], [0.1, 1.7]])))
    for p in ([0.3, -1.7], [-0.0, 0.0], np.array([2.5, 1e-3])):
        assert f(p).tobytes() == eval_pmatrix(f, p).tobytes()
    with pytest.raises(DimensionError) as exc:
        f([[0.3, -1.7]])
    assert str(exc.value) == "scheduling point must be a vector, got shape (1, 2)"


def test_eval_zero_function_and_many():
    z = PMatrixFunction.zero(2, 3)
    assert_array_equal(eval_pmatrix(z, [1.0]), np.zeros((2, 3)))
    f = PMatrixFunction.affine([[1.0]], [[[2.0]], [[0.5]]])
    pts = np.array([[0.0, 0.0], [1.0, 2.0], [-1.0, 4.0]])
    stacked = eval_pmatrix_many(f, pts)
    expected = np.array([eval_pmatrix(f, p) for p in pts])
    assert_allclose(stacked, expected, rtol=0, atol=0)
    # cubic and mixed terms: per-point and batched values agree bit for bit
    g = PMatrixFunction(2, 1, (((3, 0), [[0.7], [-1.3]]), ((1, 2), [[2.9], [0.1]])))
    pts = np.random.default_rng(3).uniform(-2.0, 2.0, (50, 2))
    stacked = eval_pmatrix_many(g, pts)
    expected = np.array([eval_pmatrix(g, p) for p in pts])
    assert_allclose(stacked, expected, rtol=0, atol=0)
    # -0.0 coefficients, a constant term and an exponent-1 factor on the
    # second dimension: bit for bit the sum of coeff * prod_i p_i**e_i with
    # each product started from ones, signed zeros included
    h = PMatrixFunction(2, 2, (((0, 0), [[-0.0, 1.5], [0.3, -0.0]]),
                               ((0, 1), [[-0.0, 2.0], [-1.1, 0.4]]),
                               ((2, 1), [[0.9, -0.0], [0.0, 1.7]])))
    pts = np.random.default_rng(4).uniform(-2.0, 2.0, (40, 2))
    pts[:3] = [[-0.0, -0.0], [0.0, -0.0], [-1.0, 0.0]]
    want = np.zeros((40, 2, 2))
    for term in h.terms:
        factor = np.ones(40)
        for i, e in enumerate(term.exponents):
            if e:
                factor = factor * pts[:, i] ** e
        want += factor[:, None, None] * term.coeff
    assert eval_pmatrix_many(h, pts).tobytes() == want.tobytes()
    assert eval_pmatrix(h, pts[0]).tobytes() == want[0].tobytes()


def _broadcast_eval(f, points):
    """The broadcast form of ``eval_pmatrix_many``: the bit-level reference."""
    out = np.zeros((points.shape[0], f.rows, f.cols))
    for term in f.terms:
        factor = None
        for i, ei in enumerate(term.exponents):
            if ei:
                power = points[:, i] if ei == 1 else points[:, i] ** ei
                factor = power if factor is None else factor * power
        if factor is None:
            out += term.coeff
        else:
            out += factor[:, None, None] * term.coeff
    return out


def _signed_zero_terms(rng, n_p, shape):
    """The constant term, each channel at exponents 1..3 and two mixed
    monomials, with random coefficients holding +0.0 and -0.0 entries."""
    exps = {(0,) * n_p}
    exps |= {tuple(e if j == i else 0 for j in range(n_p))
             for i in range(n_p) for e in (1, 2, 3)}
    exps |= {tuple(rng.integers(0, 4, n_p).tolist()) for _ in range(2)}
    terms = []
    for e in sorted(exps):
        coeff = rng.standard_normal(shape)
        coeff.flat[rng.integers(0, coeff.size)] = rng.choice([0.0, -0.0])
        terms.append((e, coeff))
    return tuple(terms)


@pytest.mark.parametrize("n_p", [1, 2, 3])
@pytest.mark.parametrize("shape", [(1, 1), (4, 4), (3, 2), (4, 1)])
def test_eval_many_is_the_broadcast_form_bit_for_bit(n_p, shape):
    rng = np.random.default_rng([n_p, *shape])
    f = PMatrixFunction(*shape, _signed_zero_terms(rng, n_p, shape))
    only_constant = PMatrixFunction.constant(rng.standard_normal(shape), n_p)
    no_terms = PMatrixFunction.zero(*shape)
    for m in (0, 1, 2, 513, 8193):
        pts = rng.uniform(-2.0, 2.0, (m, n_p))
        pts[: m // 4] = rng.choice([0.0, -0.0, 1.5], (m // 4, n_p))
        for g in (f, only_constant, no_terms):
            got = eval_pmatrix_many(g, pts)
            want = _broadcast_eval(g, pts)
            assert got.shape == want.shape == (m, *shape)
            assert got.tobytes() == want.tobytes()


def test_eval_many_allocates_little_beyond_its_result():
    # a 4x4 affine A with two scheduling channels, as over an RK4 window
    rng = np.random.default_rng(5)
    f = PMatrixFunction.affine(rng.standard_normal((4, 4)), rng.standard_normal((2, 4, 4)))
    pts = rng.uniform(-1.0, 1.0, (513, 2))
    eval_pmatrix_many(f, pts)  # first-call allocations are not the call's
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = eval_pmatrix_many(f, pts)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # a buffered broadcast multiply peaks at 4x the result, the outer
    # products at about 2x
    assert peak <= 2.2 * out.nbytes


def test_eval_wrong_p_length():
    f = PMatrixFunction.constant([[1.0]], n_p=2)
    with pytest.raises(DimensionError):
        eval_pmatrix(f, [1.0])


def test_scaling_is_exactly_linear():
    rng = np.random.default_rng(7)
    f = PMatrixFunction(
        2, 2,
        (((0, 0), rng.standard_normal((2, 2))),
         ((1, 0), rng.standard_normal((2, 2))),
         ((0, 2), rng.standard_normal((2, 2)))),
    )
    for alpha in (-3.0, 0.5, 2.0):
        p = rng.uniform(-2, 2, size=2)
        assert_allclose(
            eval_pmatrix(f.scaled(alpha), p),
            alpha * eval_pmatrix(f, p),
            rtol=1e-13, atol=1e-15,
        )


def test_term_order_shuffle_changes_nothing_beyond_roundoff():
    rng = np.random.default_rng(11)
    terms = [((i, j), rng.standard_normal((1, 1))) for i in range(3) for j in range(3)]
    f = PMatrixFunction(1, 1, tuple(terms))
    g = PMatrixFunction(1, 1, tuple(reversed(terms)))
    for _ in range(20):
        p = rng.uniform(-1.5, 1.5, size=2)
        assert abs(eval_pmatrix(f, p)[0, 0] - eval_pmatrix(g, p)[0, 0]) <= 1e-14


def test_duplicate_exponents_rejected_by_constructor():
    with pytest.raises(DimensionError):
        PMatrixFunction(1, 1, (((0,), [[1.0]]), ((0,), [[2.0]])))


def test_parse_minimal_model():
    m = parse_model(MINIMAL)
    assert (m.n_x, m.n_u, m.n_y, m.n_p) == (1, 1, 1, 1)
    assert_array_equal(eval_pmatrix(m.A, [0.25]), [[-0.25]])
    # omitted matrices are zero
    assert_array_equal(eval_pmatrix(m.B, [0.0]), [[0.0]])


def test_parse_rejects_wrong_coeff_shape():
    bad = json.dumps(
        {
            "nx": 2, "nu": 1, "ny": 1, "np": 1,
            "domain": {"lower": [0.0], "upper": [1.0]},
            "B": [{"exponents": [0], "coeff": [[1.0, 0.0], [0.0, 1.0]]}],
        }
    )
    with pytest.raises(DimensionError):
        parse_model(bad)


def test_parse_merges_duplicate_exponents():
    text = json.dumps(
        {
            "nx": 1, "nu": 1, "ny": 1, "np": 1,
            "domain": {"lower": [0.0], "upper": [1.0]},
            "A": [
                {"exponents": [0], "coeff": [[1.0]]},
                {"exponents": [0], "coeff": [[2.0]]},
            ],
        }
    )
    m = parse_model(text)
    assert_array_equal(eval_pmatrix(m.A, [0.5]), [[3.0]])
    assert len(m.A.terms) == 1


def test_parse_error_reports_position():
    with pytest.raises(ParseError, match="line"):
        parse_model('{"nx": 1,,}')


def test_parse_missing_and_unknown_fields():
    with pytest.raises(ParseError, match="missing"):
        parse_model(json.dumps({"nx": 1, "nu": 1, "ny": 1, "np": 1}))
    bad = json.loads(MINIMAL)
    bad["extra"] = 1
    with pytest.raises(ParseError, match="unknown"):
        parse_model(json.dumps(bad))


def test_parse_rejects_inverted_domain():
    bad = json.loads(MINIMAL)
    bad["domain"] = {"lower": [1.0], "upper": [-1.0]}
    with pytest.raises(DomainError):
        parse_model(json.dumps(bad))


@pytest.mark.parametrize("field, value, error", [
    ("A", [{"exponents": [1], "coeff": [[float("nan")]]}], ParseError),
    ("A", [{"exponents": [0], "coeff": [[float("inf")]]}], ParseError),
    ("domain", {"lower": [-1.0], "upper": [float("inf")]}, DomainError),
    ("domain", {"lower": [float("nan")], "upper": [1.0]}, DomainError),
])
def test_parse_rejects_non_finite_numbers(field, value, error):
    data = json.loads(MINIMAL)
    data[field] = value
    with pytest.raises(error, match="finite"):
        parse_model(json.dumps(data))  # json writes NaN / Infinity literals


def test_roundtrip_is_identity_on_canonical_form():
    text = json.dumps(
        {
            "nx": 2, "nu": 1, "ny": 2, "np": 2,
            "domain": {"lower": [0.5, -1.0], "upper": [4.0, 1.0]},
            "A": [
                {"exponents": [1, 0], "coeff": [[0.0, 0.0], [-1.0, 0.0]]},
                {"exponents": [0, 0], "coeff": [[0.0, 1.0], [0.0, -0.5]]},
                {"exponents": [0, 0], "coeff": [[0.0, 0.0], [0.0, -0.25]]},
            ],
            "B": [{"exponents": [0, 0], "coeff": [[0.0], [1.0]]}],
            "C": [{"exponents": [0, 1], "coeff": [[1.0, 0.0], [0.0, 1.0]]}],
        }
    )
    m1 = parse_model(text)
    s1 = serialize_model(m1)
    m2 = parse_model(s1)
    assert m1 == m2
    assert serialize_model(m2) == s1


def test_validate_point_closed_box():
    box = SchedulingDomain([-1.0], [1.0])
    check_in_box(box, [0.0])
    check_in_box(box, [1.0])  # boundary inclusive
    box2 = SchedulingDomain([-1.0, 0.0], [1.0, 2.0])
    with pytest.raises(DomainError):
        check_in_box(box2, [0.0, 2.5])
    with pytest.raises(DimensionError):
        check_in_box(box2, [0.0])


def test_domain_helpers():
    box = SchedulingDomain([0.0, 10.0], [1.0, 20.0])
    assert_array_equal(box.midpoint(), [0.5, 15.0])
    v = box.vertices()
    assert v.shape == (4, 2)
    assert_array_equal(v[0], [0.0, 10.0])
    assert_array_equal(v[-1], [1.0, 20.0])
    g = box.grid(3)
    assert g.shape == (9, 2)
    assert_array_equal(g[1], [0.0, 15.0])  # last dimension cycles fastest


@pytest.mark.parametrize("n_p", [1, 2, 3])
def test_grid_and_vertices_are_the_product_rows_bit_for_bit(n_p):
    rng = np.random.default_rng(n_p)
    lower = rng.uniform(-3.0, 0.0, n_p)
    box = SchedulingDomain(lower, lower + rng.uniform(0.1, 5.0, n_p))
    pairs = list(zip(box.lower, box.upper))
    corners = np.array(list(itertools.product(*pairs)), dtype=float)
    assert box.vertices().shape == corners.shape
    assert box.vertices().tobytes() == corners.tobytes()
    for k in (2, 3, 7):
        axes = [np.linspace(lo, hi, k) for lo, hi in pairs]
        rows = np.array(list(itertools.product(*axes)), dtype=float)
        assert box.grid(k).shape == rows.shape
        assert box.grid(k).tobytes() == rows.tobytes()


def test_grid_allocates_little_beyond_its_rows():
    box = SchedulingDomain([0.0], [1.0])
    box.grid(10)  # first-call allocations are not the grid's
    tracemalloc.start()
    try:
        rows = box.grid(200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (200_000, 1)
    assert peak <= 2 * rows.nbytes


def test_state_space_shape_validation():
    dom = SchedulingDomain([0.0], [1.0])
    A = PMatrixFunction.constant(np.zeros((2, 2)), 1)
    B = PMatrixFunction.constant(np.zeros((2, 1)), 1)
    C = PMatrixFunction.constant(np.zeros((1, 2)), 1)
    D = PMatrixFunction.constant(np.zeros((1, 1)), 1)
    m = LpvStateSpace(2, 1, 1, 1, A, B, C, D, dom)
    assert m.is_constant
    with pytest.raises(DimensionError):
        LpvStateSpace(2, 1, 1, 1, A, B, C, B, dom)  # D has B's shape


_DOMAIN = SchedulingDomain([0.0], [1.0])
_BLOCKS = [PMatrixFunction.constant(np.zeros(shape), 1)
           for shape in ((2, 2), (2, 1), (1, 2), (1, 1))]


# (the call that must raise, its error, its message)
@pytest.mark.parametrize("build, error, message", [
    (lambda: PTerm((0,), [1.0]), DimensionError, "term coefficient must be a 2-D matrix"),
    (lambda: PMatrixFunction(0, 1), DimensionError, "matrix shape must be positive"),
    (lambda: PMatrixFunction(1, 2, (((0,), [[1.0]]),)), DimensionError,
     "term coefficient shape (1, 1) != (1, 2)"),
    (lambda: PMatrixFunction(1, 1, (((0,), [[1.0]]), ((0, 1), [[2.0]]))), DimensionError,
     "terms mix exponent vectors of different lengths"),
    (lambda: eval_pmatrix(_BLOCKS[0], [[0.5]]), DimensionError,
     "scheduling point must be a vector, got shape (1, 1)"),
    (lambda: eval_pmatrix_many(_BLOCKS[0], [0.5]), DimensionError,
     "points must be a 2-D stack of scheduling vectors"),
    (lambda: LpvStateSpace(0, 1, 1, 1, *_BLOCKS, _DOMAIN), DimensionError,
     "n_x must be >= 1, got 0"),
    (lambda: LpvStateSpace(2, 1, 1, 1, *_BLOCKS, SchedulingDomain([0.0, 0.0], [1.0, 1.0])),
     DimensionError, "domain dimension 2 != n_p 1"),
    (lambda: LpvStateSpace(2, 1, 1, 1, PMatrixFunction.constant(np.zeros((2, 2)), 2),
                           *_BLOCKS[1:], _DOMAIN),
     DimensionError, "A terms use exponent vectors of length 2, expected n_p=1"),
    (lambda: load_fixture("nope"), DataError,
     "no bundled model 'nope'; choose from integrator, lag1, msd, scalar_p, scalar_neg_p"),
])
def test_each_model_guard_raises_its_message(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error and str(exc.value) == message


_BAD_TERM = '"A" term 0 needs 1 non-negative integer exponents'


# (key of MINIMAL to replace, or None for the whole file; its value; error; message)
@pytest.mark.parametrize("key, value, error, message", [
    (None, [1, 2], ParseError, "model file must contain a JSON object"),
    ("A", {"exponents": [1], "coeff": [[1.0]]}, ParseError, '"A" must be a list of terms'),
    ("A", [5], ParseError,
     '"A" term 0 must be an object with keys "exponents" and "coeff"'),
    ("A", [{"exponents": [-1], "coeff": [[1.0]]}], ParseError, _BAD_TERM),
    ("A", [{"exponents": [True], "coeff": [[1.0]]}], ParseError, _BAD_TERM),
    ("A", [{"exponents": [0.5], "coeff": [[1.0]]}], ParseError, _BAD_TERM),
    ("A", [{"exponents": [0, 0], "coeff": [[1.0]]}], ParseError, _BAD_TERM),
    ("A", [{"exponents": 0, "coeff": [[1.0]]}], ParseError, _BAD_TERM),
    ("A", [{"exponents": [0], "coeff": [["x"]]}], ParseError,
     "\"A\" term 0 coefficient is not numeric: could not convert string to float: 'x'"),
    ("nx", 1.5, ParseError, '"nx" must be a positive integer, got 1.5'),
    ("nx", "1", ParseError, "\"nx\" must be a positive integer, got '1'"),
    ("domain", [0.0, 1.0], ParseError,
     '"domain" must be an object with keys "lower" and "upper"'),
    ("domain", {"lower": [0.0]}, ParseError,
     '"domain" must be an object with keys "lower" and "upper"'),
    ("domain", {"lower": ["a"], "upper": [1.0]}, ParseError,
     "\"domain\" bounds are not numeric: could not convert string to float: 'a'"),
    ("domain", {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}, DimensionError,
     '"domain" bounds must be vectors of length np=1'),
    ("domain", {"lower": 0.0, "upper": 1.0}, DimensionError,
     '"domain" bounds must be vectors of length np=1'),
])
def test_parse_rejects_malformed_files(capsys, tmp_path, key, value, error, message):
    data = json.loads(MINIMAL)
    if key is None:
        data = value
    else:
        data[key] = value
    text = json.dumps(data)
    with pytest.raises(error) as exc:
        parse_model(text)
    assert type(exc.value) is error and str(exc.value) == message
    path = tmp_path / "model.json"
    path.write_text(text)
    assert main(["check", "--model", str(path), "--ts", "0.1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{error.code}: {message}\n"


# --- equality and read-only arrays --------------------------------------------


def _one_field_changes():
    """(value, {field: another value}) for each model type, one other value
    per dataclass field."""
    m = msd_model()
    term = PTerm((1, 0), [[1.0, 2.0]])
    return [
        (SchedulingDomain([0.0, -1.0], [1.0, 1.0]),
         {"lower": np.array([0.0, -0.5]), "upper": np.array([1.0, 2.0])}),
        (term, {"exponents": (0, 1), "coeff": np.array([[1.0, 3.0]])}),
        (PMatrixFunction(1, 2, (term,)),
         {"rows": 2, "cols": 3, "terms": (PTerm((0, 0), [[1.0, 2.0]]),)}),
        (m, {"n_x": 3, "n_u": 2, "n_y": 2, "n_p": 2, "A": m.A.scaled(2.0),
             "B": m.B.scaled(2.0), "C": m.C.scaled(2.0),
             "D": PMatrixFunction.constant([[1.0]], 1),
             "domain": SchedulingDomain([0.5], [5.0])}),
    ]


@pytest.mark.parametrize("value, changes", _one_field_changes(),
                         ids=[type(v).__name__ for v, _ in _one_field_changes()])
def test_model_types_are_equal_exactly_when_every_field_is(value, changes):
    assert set(changes) == {f.name for f in dataclasses.fields(value)}
    twin = copy.deepcopy(value)
    assert twin is not value and twin == value and not twin != value
    for name, other in changes.items():
        changed = copy.copy(value)
        object.__setattr__(changed, name, other)
        assert changed != value and value != changed, name
    assert value != "a string" and value != 1.0
    assert value.__eq__(object()) is NotImplemented
    with pytest.raises(TypeError):
        hash(value)


def _read_only_builders():
    """name -> (builder of arrays from a writable input array, that input)."""
    m, cfg = msd_model(), DiscretizationConfig(0.1)

    def blocks(build):
        return lambda p: tuple(vars(build(m, p, cfg)).values())

    return {
        "dt_step_matrices": (blocks(dt_step_matrices), np.array([1.5])),
        "tustin_frozen": (blocks(tustin_frozen), np.array([1.5])),
        "sigma_step": (blocks(sigma_step), np.array([1.5])),
        "SchedulingDomain": (lambda b: (SchedulingDomain(b, b + 1.0).lower,), np.zeros(2)),
        "PTerm": (lambda c: (PTerm((1,), c).coeff,), np.ones((2, 2))),
        "Scenario.x0": (lambda x: (Scenario((SignalSpec.constant(1.0),),
                                            (SignalSpec.constant(0.0),), x, 1.0).x0,),
                        np.array([[1.0], [2.0]])),
    }


@pytest.mark.parametrize("name", list(_read_only_builders()))
def test_outputs_are_read_only_and_not_views_of_the_input(name):
    build, given = _read_only_builders()[name]
    arrays = build(given)
    before = [a.copy() for a in arrays]
    given += 0.25
    for a, b in zip(arrays, before):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0.0
        assert a.tobytes() == b.tobytes()


# --- JSON numbers, reachable overflow and the frozen-point guard -------------


# (key of MINIMAL to replace, its value, the ParseError message)
@pytest.mark.parametrize("key, value, message", [
    ("A", [{"exponents": [1], "coeff": [[True]]}],
     '"A" term 0 coefficient is not numeric: true is not a JSON number'),
    ("A", [{"exponents": [1], "coeff": [[" 2.5 "]]}],
     '"A" term 0 coefficient is not numeric: " 2.5 " is not a JSON number'),
    ("A", [{"exponents": [1], "coeff": [[None]]}],
     '"A" term 0 coefficient is not numeric: null is not a JSON number'),
    ("domain", {"lower": ["0"], "upper": [1.0]},
     '"domain" bounds are not numeric: "0" is not a JSON number'),
    ("domain", {"lower": [-1.0], "upper": [False]},
     '"domain" bounds are not numeric: false is not a JSON number'),
    ("A", [{"exponents": [1], "coeff": [[10**400]]}],
     '"A" term 0 coefficient is not numeric: int too large to convert to float'),
    ("domain", {"lower": [-(10**400)], "upper": [1.0]},
     '"domain" bounds are not numeric: int too large to convert to float'),
], ids=["true", "spaced-string", "null", "string-bound", "false-bound", "huge-int",
        "huge-int-bound"])
def test_parse_takes_only_json_numbers_as_numbers(capsys, tmp_path, key, value, message):
    data = json.loads(MINIMAL)
    data[key] = value
    text = json.dumps(data)
    with pytest.raises(ParseError) as exc:
        parse_model(text)
    assert str(exc.value) == message
    path = tmp_path / "model.json"
    path.write_text(text)
    assert main(["check", "--model", str(path), "--ts", "0.1"]) == 1
    assert capsys.readouterr() == ("", f"E_PARSE: {message}\n")


def _power_model(exponent, upper, coeff=-1.0, name="A"):
    """One-state model whose ``name`` matrix is ``coeff * p**exponent`` on
    the box [0, upper]; the other matrices are 1 (D: 0)."""
    one = PMatrixFunction.constant([[1.0]], 1)
    funcs = dict(A=one, B=one, C=one, D=PMatrixFunction.zero(1, 1))
    funcs[name] = PMatrixFunction(1, 1, (((exponent,), [[coeff]]),))
    return LpvStateSpace(1, 1, 1, 1, domain=SchedulingDomain([0.0], [upper]), **funcs)


@pytest.mark.parametrize("name", ["A", "B", "C", "D"])
def test_a_model_that_overflows_on_its_own_box_is_refused(name):
    # 40**192 is about 4e307 and 40**193 overflows
    with np.errstate(all="raise"):  # no numpy warning on the way
        assert _power_model(192, 40.0, name=name).n_x == 1
        assert _power_model(1000, 1.0, name=name).n_x == 1
        for exponent, coeff in ((193, -1.0), (1000, -1.0), (192, 1e10)):
            with pytest.raises(ParseError) as exc:
                _power_model(exponent, 40.0, coeff=coeff, name=name)
            assert str(exc.value) == (
                f"{name} term with exponents [{exponent}] overflows the float "
                "range on the scheduling box"
            )


def test_overflow_bound_adds_the_terms():
    # each term stays below the float range on [0, 1], their sum at p = 1
    # does not
    one = PMatrixFunction.constant([[1.0]], 1)
    with pytest.raises(ParseError, match="^A term with exponents \\[1\\] overflows"):
        LpvStateSpace(1, 1, 1, 1,
                      PMatrixFunction(1, 1, (((0,), [[1e308]]), ((1,), [[1e308]]))),
                      one, one, one, SchedulingDomain([0.0], [1.0]))


def test_overflow_bound_is_per_entry(capsys, tmp_path):
    # A = [[-1e308, 1e308 p], [0, -1]] on [0, 1]: the two large terms sit in
    # different entries, so no entry leaves the float range
    text = json.dumps({
        "nx": 2, "nu": 1, "ny": 1, "np": 1, "domain": {"lower": [0], "upper": [1]},
        "A": [{"exponents": [0], "coeff": [[-1e308, 0], [0, -1]]},
              {"exponents": [1], "coeff": [[0, 1e308], [0, 0]]}],
        "B": [{"exponents": [0], "coeff": [[0], [1]]}],
        "C": [{"exponents": [0], "coeff": [[1, 0]]}],
    })
    model = parse_model(text)
    assert_array_equal(model.matrices_at([1.0])[0], [[-1e308, 1e308], [0.0, -1.0]])
    path = tmp_path / "model.json"
    path.write_text(text)
    assert main(["discretize", "--model", str(path), "--ts", "0.1", "--p", "1"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("lower, upper", [(-1e308, 1e308), (-9e307, 9e307),
                                          (-1.7e308, 1e308)])
def test_a_box_wider_than_the_float_range_is_refused(lower, upper):
    with pytest.raises(DomainError) as exc:
        SchedulingDomain([0.0, lower], [1.0, upper])
    assert str(exc.value) == (
        f"domain width must be finite: {np.array([0.0, lower])}, "
        f"{np.array([1.0, upper])}"
    )
    # as wide as the float range allows, or a point at its edge, is a box
    for lo, hi in ((0.0, 1e308), (-1e308, 0.0), (-8.9e307, 8.9e307), (1e308, 1e308)):
        assert SchedulingDomain([lo], [hi]).n_p == 1


def _frozen_point_results():
    """name -> the public frozen-point function of ``msd`` at p, Ts = 0.1."""
    m, cfg = msd_model(), DiscretizationConfig(0.1)
    return {
        "matrices_at": lambda p: m.matrices_at(p),
        "dt_step_matrices": lambda p: dt_step_matrices(m, p, cfg),
        "tustin_frozen": lambda p: tustin_frozen(m, p, cfg),
        "sigma_step": lambda p: sigma_step(m, p, cfg),
        "freqresp_ct": lambda p: freqresp_ct(m, p, [1.0]),
        "sigma_initial_state": lambda p: sigma_initial_state(m, cfg, p, [0.0], [1.0, 0.0]),
    }


@pytest.mark.parametrize("name", list(_frozen_point_results()))
@pytest.mark.parametrize("p, shown", [([100.0], "[100.0]"), ([np.nan], "[nan]"),
                                      ([0.49], "[0.49]")])
def test_every_frozen_point_result_guards_the_box(name, p, shown):
    result = _frozen_point_results()[name]
    with pytest.raises(DomainError) as exc:
        result(p)
    assert type(exc.value) is DomainError
    assert str(exc.value) == f"scheduling point {shown} outside the box"
    result([4.0])  # the box is closed
    with pytest.raises(DimensionError, match="expected width 1"):
        result([1.0, 2.0])
