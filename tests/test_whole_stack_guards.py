"""The hot-path guards test a whole stack with one reduction and scan rows
only to name a failure; each must give the verdict of the plain per-row rule.

``check_in_box``, ``simulate._check_finite_u`` and ``simulate._result`` are
compared with copies of the row-by-row scans they replaced, error class and
message alike, on stacks of 0 to 2200 rows with bad rows planted first, last
or at random.  ``discretize._judge`` is compared with ``singular_rows``, the
per-row singularity rule, element for element.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import msd_model
from lpvsim import SchedulingDomain, check_in_box
from lpvsim.discretize import SINGULAR_RTOL, DiscretizationConfig, _judge, singular_rows
from lpvsim.errors import DataError, DomainError, NonFiniteError
from lpvsim.model import eval_pmatrix_many
from lpvsim.simulate import Trajectory, _check_finite_u, _result

#: rows of a stack: the small sizes often, the large ones up to a few
#: thousand, past a benchmark job's 320 samples
_ROWS = st.one_of(st.integers(0, 4), st.integers(0, 2200))


def _row_scale(A, ts):
    """Each matrix's ``max(1, max|A| Ts/2)``, the per-row rule's scale."""
    return np.maximum(1.0, np.max(np.abs(A), axis=(-2, -1)) * (ts / 2.0))


def _outcome(check, *args):
    """``(error class, message)`` of what ``check(*args)`` raises, or None."""
    try:
        check(*args)
    except Exception as exc:  # compared whole, so any class is kept
        return type(exc), str(exc)
    return None


def _plant_rows(data, m):
    """Row indices to plant a bad value in: the first, the last, a few at
    random or none, drawn from ``data``."""
    if m == 0:
        return []
    where = data.draw(st.sampled_from(["first", "last", "random", "none"]), label="where")
    if where == "first":
        return [0]
    if where == "last":
        return [m - 1]
    if where == "none":
        return []
    return data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=5), label="rows")


def _planted(data, base, values):
    """``base`` with one drawn value of ``values`` in a drawn column of each
    planted row."""
    out = base.copy()
    for k in _plant_rows(data, len(out)):
        col = data.draw(st.integers(0, out.shape[1] - 1), label="column")
        out[k, col] = data.draw(st.sampled_from(values), label="value")
    return out


def _box_rule(domain, points, where):
    """check_in_box's per-row scan before the whole-stack test."""
    rows = np.asarray(points, dtype=float)
    bad = ~np.all((rows >= domain.lower) & (rows <= domain.upper), axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        raise DomainError(
            f"scheduling point {list(map(float, rows[k]))} at {where(k)} outside the box"
        )


def _finite_u_rule(u, where):
    """_check_finite_u's per-row scan before the whole-stack test."""
    bad = ~np.all(np.isfinite(u), axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        raise DataError(f"input {list(map(float, u[k]))} at {where(k)} is not finite")


def _result_rule(engine, model, cfg, traj, x, xi):
    """_result's finiteness guard before the whole-stack test, on its own
    y = C(p) x + D(p) u."""
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.einsum("kij,kj->ki", eval_pmatrix_many(model.C, traj.p), x)
        y += np.einsum("kij,kj->ki", eval_pmatrix_many(model.D, traj.p), traj.u)
    logs = [a for a in (x, xi, y) if a is not None]
    finite = np.logical_and.reduce([np.isfinite(a).all(axis=1) for a in logs])
    if not finite.all():
        k = int(np.argmin(finite))
        raise NonFiniteError(
            f"{engine}: state or output is not finite at step k={k} "
            f"(t = {k * cfg.ts!r}); the run diverges",
            step_index=k,
        )


def _at_step(k):
    return f"step {k}"


@settings(max_examples=150, deadline=None)
@given(data=st.data(), m=_ROWS, seed=st.integers(0, 2**32 - 1))
def test_box_and_input_guards_name_the_row_the_per_row_rule_names(data, m, seed):
    rng = np.random.default_rng(seed)
    # 0.0 is a bound, so a -0.0 sample lies on it, inside the box
    domain = SchedulingDomain([0.0, -2.0], [1.0, 3.0])
    lo, hi = domain.lower, domain.upper
    points = _planted(data, rng.uniform(lo, hi, (m, 2)), [
        np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, -2.0, 3.0,
        np.nextafter(1.0, 2.0), np.nextafter(0.0, -1.0), np.nextafter(3.0, 4.0), -5.0,
    ])
    got = _outcome(check_in_box, domain, points, _at_step)
    assert got == _outcome(_box_rule, domain, points, _at_step)
    assert got is None or got[0] is DomainError

    u = _planted(data, rng.uniform(-1.0, 1.0, (m, 3)),
                 [np.nan, np.inf, -np.inf, -0.0, 1e308, -1e308, 5e-324])
    got = _outcome(_check_finite_u, u, _at_step)
    assert got == _outcome(_finite_u_rule, u, _at_step)
    assert got is None or got[0] is DataError


@settings(max_examples=150, deadline=None)
@given(data=st.data(), m=_ROWS, seed=st.integers(0, 2**32 - 1))
def test_result_guard_names_the_step_the_per_row_rule_names(data, m, seed):
    rng = np.random.default_rng(seed)
    model, cfg = msd_model(), DiscretizationConfig(0.05)
    bad = [np.nan, np.inf, -np.inf]
    p = rng.uniform(0.5, 4.0, (m, 1))
    # a bad u reaches the guard through y alone
    u = _planted(data, rng.uniform(-1.0, 1.0, (m, 1)), bad + [-0.0])
    x = _planted(data, rng.uniform(-1.0, 1.0, (m, 2)), bad + [-0.0])
    with_xi = data.draw(st.booleans(), label="xi logged")
    xi = _planted(data, rng.uniform(-1.0, 1.0, (m, 2)), bad) if with_xi else None
    traj = Trajectory(cfg.ts, p, u)
    got = _outcome(_result, "simulate_dt", model, cfg, traj, x, xi)
    assert got == _outcome(_result_rule, "simulate_dt", model, cfg, traj, x, xi)
    assert got is None or got[0] is NonFiniteError


@settings(max_examples=150, deadline=None)
@given(data=st.data(), m=_ROWS, seed=st.integers(0, 2**32 - 1))
def test_judge_verdict_is_singular_rows_element_for_element(data, m, seed):
    rng = np.random.default_rng(seed)
    n = data.draw(st.integers(1, 3), label="n")
    ts = data.draw(st.sampled_from([1e-3, 0.1, 0.7, 4.0]), label="ts")
    one = m == 1 and data.draw(st.booleans(), label="one matrix, not a stack")
    A = rng.uniform(-100.0, 100.0, (m, n, n)) * rng.uniform(0.0, 1.0, (m, 1, 1))
    A = _planted(data, A.reshape(m, n * n), [0.0, -0.0, 1e6, -3e8]).reshape(A.shape)
    for k in _plant_rows(data, m):  # M = 0: det 0, singular
        A[k] = (2.0 / ts) * np.eye(n)
    if one:
        A = A[0]

    # the determinants LAPACK gives
    _, det, got = _judge(A, ts)
    want = singular_rows(det, A, ts)
    assert type(got) is type(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    # planted determinants: each row at, just off, or ten times a threshold,
    # its own or the stack's, or zero or NaN; most rows clear the stack's
    own = np.broadcast_to(SINGULAR_RTOL * _row_scale(A, ts), (m,))
    peak = np.max(np.abs(A), initial=0.0)
    stack = SINGULAR_RTOL * max(1.0, peak * (ts / 2.0))
    planted = np.full(m, 10.0 * stack)
    for k in _plant_rows(data, m):
        ref = data.draw(st.sampled_from([own[k], stack]), label="threshold")
        planted[k] = data.draw(st.sampled_from([
            ref, np.nextafter(ref, np.inf), np.nextafter(ref, -np.inf), -ref,
            0.0, -0.0, np.nan, np.inf,
        ]), label="det")
    planted = planted[0] if one else planted
    real_det = np.linalg.det
    np.linalg.det = lambda M: planted
    try:
        got = _judge(A, ts)[2]
    finally:
        np.linalg.det = real_det
    want = singular_rows(planted, A, ts)
    assert type(got) is type(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_judge_clears_an_empty_stack():
    for ts in (0.1, 4.0):
        M, det, got = _judge(np.zeros((0, 3, 3)), ts)
        assert M.shape == (0, 3, 3) and det.shape == (0,)
        assert got.dtype == bool and got.shape == (0,)
        assert got.tobytes() == singular_rows(det, np.zeros((0, 3, 3)), ts).tobytes()
