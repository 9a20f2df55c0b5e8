import itertools
import json
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from lpvsim import (
    DimensionError,
    DomainError,
    LpvStateSpace,
    ParseError,
    PMatrixFunction,
    SchedulingDomain,
    eval_pmatrix,
    eval_pmatrix_many,
    parse_model,
    serialize_model,
)
from lpvsim.cli import main
from lpvsim.model import check_in_box

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
