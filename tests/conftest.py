"""Shared builders for unit and acceptance tests."""

import importlib
import pathlib
import sys

import numpy as np
import pytest

from lpvsim import LpvStateSpace, PMatrixFunction, SchedulingDomain
from lpvsim.discretize import DiscretizationConfig, wellposedness_check
from lpvsim.model import eval_pmatrix_many

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """The benchmark's ``gen``, ``workloads`` and ``tracing`` modules, imported
    read-only: no bytecode is written in ``perfbench/``, and its modules
    leave ``sys.modules`` afterwards."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    try:
        yield tuple(importlib.import_module(m) for m in ("gen", "workloads", "tracing"))
    finally:
        for name in set(sys.modules) - before:
            if getattr(sys.modules[name], "__file__", "").startswith(str(PERFBENCH)):
                del sys.modules[name]


def constant_model(A, B, C, D, box=(-1.0, 1.0)):
    """Wrap constant matrices as a one-parameter LPV model."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    D = np.atleast_2d(np.asarray(D, dtype=float))
    return LpvStateSpace(
        n_x=A.shape[0], n_u=B.shape[1], n_y=C.shape[0], n_p=1,
        A=PMatrixFunction.constant(A, 1),
        B=PMatrixFunction.constant(B, 1),
        C=PMatrixFunction.constant(C, 1),
        D=PMatrixFunction.constant(D, 1),
        domain=SchedulingDomain([box[0]], [box[1]]),
    )


def integrator_model(ts_box=(-1.0, 1.0)):
    return constant_model([[0.0]], [[1.0]], [[1.0]], [[0.0]], box=ts_box)


def lag_model():
    """First-order lag dx/dt = -x + u, y = x."""
    return constant_model([[-1.0]], [[1.0]], [[1.0]], [[0.0]])


def scalar_gain_model(sign=1.0, hi=40.0):
    """Scalar model with A(p) = sign*p on the box [0, hi]; B=C=1, D=0."""
    return LpvStateSpace(
        n_x=1, n_u=1, n_y=1, n_p=1,
        A=PMatrixFunction(1, 1, (((1,), [[float(sign)]]),)),
        B=PMatrixFunction.constant([[1.0]], 1),
        C=PMatrixFunction.constant([[1.0]], 1),
        D=PMatrixFunction.zero(1, 1),
        domain=SchedulingDomain([0.0], [hi]),
    )


def msd_model():
    """Mass-spring-damper with stiffness as the scheduling parameter.

    A(p) = [[0, 1], [-p/m, -c/m]] with m = 1, c = 0.5, p in [0.5, 4];
    force input, position output.
    """
    return LpvStateSpace(
        n_x=2, n_u=1, n_y=1, n_p=1,
        A=PMatrixFunction.affine(
            [[0.0, 1.0], [0.0, -0.5]], [[[0.0, 0.0], [-1.0, 0.0]]]
        ),
        B=PMatrixFunction.constant([[0.0], [1.0]], 1),
        C=PMatrixFunction.constant([[1.0, 0.0]], 1),
        D=PMatrixFunction.zero(1, 1),
        domain=SchedulingDomain([0.5], [4.0]),
    )


def random_constant_model(rng, ts_gate=(0.01, 0.1, 0.5), n_x_max=5, n_io_max=3):
    """Random constant matrices with entries in [-2, 2], rejection-sampled
    to be well-posed at every sampling time in ``ts_gate``."""
    while True:
        n_x = int(rng.integers(1, n_x_max + 1))
        n_u = int(rng.integers(1, n_io_max + 1))
        n_y = int(rng.integers(1, n_io_max + 1))
        A = rng.uniform(-2.0, 2.0, (n_x, n_x))
        ok = all(
            abs(np.linalg.det(np.eye(n_x) - A * (ts / 2.0))) > 1e-6
            for ts in ts_gate
        )
        if not ok:
            continue
        B = rng.uniform(-2.0, 2.0, (n_x, n_u))
        C = rng.uniform(-2.0, 2.0, (n_y, n_x))
        D = rng.uniform(-2.0, 2.0, (n_y, n_u))
        return constant_model(A, B, C, D)


def random_affine_model(rng, n_x_max=4, n_p_max=2, n_io_max=2):
    """Random affine-in-p model on the box [-1, 1]^n_p, stable-ish at the
    box center; nothing checks its well-posedness."""
    n_x = int(rng.integers(1, n_x_max + 1))
    n_u = int(rng.integers(1, n_io_max + 1))
    n_y = int(rng.integers(1, n_io_max + 1))
    n_p = int(rng.integers(1, n_p_max + 1))
    A0 = -np.diag(0.8 + rng.uniform(0.0, 1.0, n_x)) + 0.4 * rng.uniform(-1, 1, (n_x, n_x))
    linear = [0.25 * rng.uniform(-1, 1, (n_x, n_x)) for _ in range(n_p)]
    return LpvStateSpace(
        n_x=n_x, n_u=n_u, n_y=n_y, n_p=n_p,
        A=PMatrixFunction.affine(A0, linear),
        B=PMatrixFunction.constant(rng.uniform(-1, 1, (n_x, n_u)), n_p),
        C=PMatrixFunction.constant(rng.uniform(-1, 1, (n_y, n_x)), n_p),
        D=PMatrixFunction.constant(0.5 * rng.uniform(-1, 1, (n_y, n_u)), n_p),
        domain=SchedulingDomain([-1.0] * n_p, [1.0] * n_p),
    )


def loop_condition(model, points, ts):
    """Largest 2-norm condition number of I - A(p) Ts/2 over rows of points;
    property tests ``assume`` a bound on it to keep to well-posed draws."""
    A = eval_pmatrix_many(model.A, np.atleast_2d(points))
    return float(np.max(np.linalg.cond(np.eye(model.n_x) - A * (ts / 2.0))))


def random_lpv_model(rng, ts, n_x_max=4, n_p_max=2, n_io_max=2):
    """Random affine-in-p model, stable-ish at the box center and
    rejection-sampled to pass a sampled well-posedness sweep at ``ts``."""
    cfg = DiscretizationConfig(ts)
    while True:
        model = random_affine_model(rng, n_x_max, n_p_max, n_io_max)
        report = wellposedness_check(
            model, cfg, grid_per_dim=5, random_samples=16,
            seed=int(rng.integers(0, 2**31)),
        )
        if report.passed and report.min_abs_det > 1e-2:
            return model


def inbox_p_trajectory(rng, model, n_steps, ts):
    """Smooth per-dimension sinusoid that stays strictly inside the box."""
    t = np.arange(n_steps) * ts
    cols = []
    for lo, hi in zip(model.domain.lower, model.domain.upper):
        center = 0.5 * (lo + hi)
        radius = 0.45 * (hi - lo)
        f = rng.uniform(0.02, 0.3)
        ph = rng.uniform(0.0, 2 * np.pi)
        cols.append(center + radius * np.sin(2 * np.pi * f * t + ph))
    return np.column_stack(cols)
