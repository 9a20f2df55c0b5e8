"""Signal generation, the two discrete engines, the RK4 reference, and the
trajectory CSV round trip."""

import csv
import io
import math
import pathlib
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    constant_model,
    inbox_p_trajectory,
    integrator_model,
    lag_model,
    loop_condition,
    msd_model,
    random_affine_model,
    random_lpv_model,
    scalar_gain_model,
)
from lpvsim import LpvStateSpace, PMatrixFunction, SchedulingDomain, discretize, simulate
from lpvsim.analyze import convergence_order, log_frequency_grid
from lpvsim.discretize import (DiscretizationConfig, dt_step_matrices, phi, tustin_frozen,
                               wellposedness_check)
from lpvsim.errors import (
    ConfigError,
    DataError,
    DimensionError,
    DomainError,
    LpvError,
    NonFiniteError,
    WellposednessError,
)
from lpvsim.model import eval_pmatrix_many
from lpvsim.simulate import (
    _RK4_BUDGET,
    _csv_rows,
    _dt_window,
    _render_csv,
    _rk4_window,
    _run_bytes,
    _scan,
    Scenario,
    SignalSpec,
    Trajectory,
    generate_signal,
    read_trajectory_csv,
    sample_scenario,
    sigma_initial_state,
    simulate_ct_reference,
    simulate_dt,
    simulate_dt_loop_oracle,
    write_trajectory_csv,
)


def unit_scenario(x0=(0.0,), t_end=2.0, u_value=1.0):
    return Scenario(
        p=[SignalSpec.constant(0.0)],
        u=[SignalSpec.constant(u_value)],
        x0=list(x0),
        t_end=t_end,
    )


# --- signals ---------------------------------------------------------------


def test_signal_kinds_are_validated():
    with pytest.raises(ConfigError):
        SignalSpec(kind="square")
    with pytest.raises(ConfigError):
        SignalSpec.sine(f=-1.0)
    with pytest.raises(ConfigError):
        SignalSpec.chirp(f0=0.5, f1=0.1, t1=1.0)
    with pytest.raises(ConfigError):
        SignalSpec.chirp(f0=0.0, f1=1.0, t1=0.0)


def test_constant_signal():
    got = generate_signal(SignalSpec.constant(2.5), [0.0, 1.0, 9.0])
    assert np.array_equal(got, [2.5, 2.5, 2.5])


def test_step_is_on_from_onset_inclusive():
    spec = SignalSpec.step(amplitude=2.0, t0=1.0, offset=-1.0)
    got = generate_signal(spec, [0.0, 0.999, 1.0, 3.0])
    assert np.array_equal(got, [-1.0, -1.0, 1.0, 1.0])


def test_sine_signal_known_samples():
    spec = SignalSpec.sine(amplitude=3.0, f=0.25, offset=1.0)
    got = generate_signal(spec, [0.0, 1.0])  # quarter period at t=1
    assert_allclose(got, [1.0, 4.0], rtol=0, atol=1e-12)


def test_chirp_phase_is_quadratic():
    # f0=0, f1=1 over t1=2: phase(t) = 2*pi*t^2/4, so phase(1) = pi/2
    spec = SignalSpec.chirp(amplitude=1.0, f0=0.0, f1=1.0, t1=2.0)
    got = generate_signal(spec, [0.0, 1.0])
    assert_allclose(got, [0.0, 1.0], rtol=0, atol=1e-12)


def test_csv_column_signal_interpolates_and_holds_ends():
    table = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 2.0]])
    spec = SignalSpec.csv_column("mem", 1, table=table)
    got = generate_signal(spec, [-1.0, 0.5, 1.5, 5.0])
    assert_allclose(got, [0.0, 1.0, 2.0, 2.0], rtol=0, atol=0)


def test_csv_column_signal_sorts_an_unsorted_library_table():
    spec = SignalSpec.csv_column("mem", 1, table=[[2, 0.5], [0, 0], [1, 1]])
    got = generate_signal(spec, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert_allclose(got, [0.0, 0.5, 1.0, 0.75, 0.5], rtol=0, atol=0)


def test_csv_column_signal_keeps_the_order_of_rows_sharing_a_time():
    # a jump from 0 to 1 at t = 1, written out of order around it
    table = [[2.0, 1.0], [1.0, 0.0], [0.0, 0.0], [1.0, 1.0]]
    spec = SignalSpec.csv_column("mem", 1, table=table)
    assert spec.table.tolist() == [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [2.0, 1.0]]


def test_csv_column_signal_table_is_read_only():
    # an assignment could unsort the times np.interp needs sorted
    table = np.array([[0.0, 1.0], [1.0, 2.0]])
    spec = SignalSpec.csv_column("u.csv", 1, table=table)
    with pytest.raises(ValueError):
        spec.table[0, 0] = 5.0
    table[0, 0] = 5.0  # the caller's own array stays theirs
    assert generate_signal(spec, [0.5])[0] == 1.5


@pytest.mark.parametrize("time", [np.nan, np.inf, -np.inf])
def test_csv_column_signal_rejects_a_non_finite_time(time):
    with pytest.raises(DataError) as exc:
        SignalSpec.csv_column("mem.csv", 1, table=[[0.0, 0.0], [time, 1.0]])
    assert str(exc.value) == "signal table 'mem.csv' has a non-finite time"


@pytest.mark.parametrize("table", [
    pytest.param([[]], id="no-columns"),
    pytest.param(np.empty((0, 2)), id="no-rows"),
    pytest.param([1.0, 2.0, 3.0], id="1-d"),
    pytest.param([[0.0], [1.0]], id="one-column"),
    pytest.param([[0.0, 1.0], [2.0]], id="ragged"),
    pytest.param([["t", "u"]], id="not-numbers"),
])
def test_csv_column_signal_rejects_a_table_without_time_value_rows(table):
    with pytest.raises(DataError, match="^signal table 'mem.csv'"):
        SignalSpec.csv_column("mem.csv", 1, table=table)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_csv_column_signal_rejects_a_non_finite_value_when_built(value):
    # np.interp used to drop the value at t = 0.02 between the samples at
    # 0 and 0.05, and a run from the spec was finite
    table = [[0.01 * k, 1.0] for k in range(11)]
    table[2][1] = value
    with pytest.raises(DataError) as exc:
        SignalSpec.csv_column("u_nan.csv", 1, table=table)
    assert str(exc.value) == (
        "signal table 'u_nan.csv' has a non-finite value in column 1 at t = 0.02"
    )


def test_csv_column_signal_names_the_earliest_non_finite_value():
    table = [[3.0, np.nan], [0.0, 0.0], [2.0, np.inf], [1.0, 1.0]]
    with pytest.raises(DataError) as exc:
        SignalSpec.csv_column("mem.csv", 4, table=table)
    assert str(exc.value) == (
        "signal table 'mem.csv' has a non-finite value in column 4 at t = 2.0"
    )


def test_csv_column_signal_converts_number_texts_as_float_does():
    texts = SignalSpec.csv_column("mem.csv", 1, table=[(" 1", "2.5 "), ("0", "1_0")])
    assert texts.table.tolist() == [[0.0, 10.0], [1.0, 2.5]]
    with pytest.raises(DataError) as exc:
        SignalSpec.csv_column("mem.csv", 1, table=[("0", "1"), ("1", "abc")])
    assert str(exc.value) == "signal table 'mem.csv': could not convert string to float: 'abc'"


def test_csv_column_signal_requires_table():
    with pytest.raises(DataError):
        SignalSpec.csv_column("missing.csv", 0)


# --- scenarios and sampling ------------------------------------------------


def test_scenario_rejects_nonpositive_horizon():
    with pytest.raises(ConfigError):
        unit_scenario(t_end=0.0)


@pytest.mark.parametrize("t_end", [0.0, -1.0, math.inf, math.nan])
def test_scenario_horizon_has_one_rule_and_one_message(t_end):
    with pytest.raises(ConfigError) as exc:
        unit_scenario(t_end=t_end)
    assert str(exc.value) == f"t_end must be positive and finite, got {t_end}"


@pytest.mark.parametrize("p, u", [((), (1.0,)), ((1.0,), ()), ((), ())])
def test_scenario_needs_a_p_and_a_u_signal(p, u):
    with pytest.raises(ConfigError) as exc:
        Scenario(p=[SignalSpec.constant(v) for v in p],
                 u=[SignalSpec.constant(v) for v in u], x0=[0.0], t_end=1.0)
    assert str(exc.value) == (
        f"a scenario needs p and u signals, got {len(p)} and {len(u)}"
    )


def test_sample_scenario_grid():
    traj = sample_scenario(unit_scenario(t_end=2.0), DiscretizationConfig(0.5))
    assert traj.n_steps == 5
    assert np.array_equal(traj.times(), [0.0, 0.5, 1.0, 1.5, 2.0])
    assert traj.p.shape == (5, 1)
    assert traj.u.shape == (5, 1)


def test_sample_scenario_partial_last_interval_dropped():
    traj = sample_scenario(unit_scenario(t_end=0.99), DiscretizationConfig(0.5))
    assert traj.n_steps == 2


def test_sample_scenario_keeps_end_sample_within_relative_tolerance():
    # Ts divides t_end to 1e-10 relative: the sample at t_end stays
    traj = sample_scenario(unit_scenario(t_end=2.0), DiscretizationConfig(0.1 * (1 + 1e-10)))
    assert traj.n_steps == 21
    assert abs(traj.times()[-1] - 2.0) < 1e-9
    # past the tolerance the partial last interval is dropped as before
    traj = sample_scenario(unit_scenario(t_end=2.0), DiscretizationConfig(0.1 * (1 + 1e-8)))
    assert traj.n_steps == 20
    for ts, n in ((0.2, 11), (0.1, 21), (0.05, 41)):
        assert sample_scenario(unit_scenario(t_end=2.0), DiscretizationConfig(ts)).n_steps == n


def test_the_sample_grid_counts_its_times_p_and_u(monkeypatch):
    # 8 bytes for each of t, p and u per sample: 43 690 samples fit in 1 MiB,
    # though 8 bytes of t alone would let 131 072 pass
    monkeypatch.setattr(discretize, "_STACK_LIMIT", 2**20)
    cfg = DiscretizationConfig(0.5)
    assert sample_scenario(unit_scenario(t_end=21844.5), cfg).n_steps == 43690
    with pytest.raises(ConfigError) as exc:
        sample_scenario(unit_scenario(t_end=21845.0), cfg)
    assert str(exc.value) == (
        "a grid of 43691 samples (t_end = 21845.0 at ts = 0.5) takes more than "
        "1048576 bytes, the most one request may allocate"
    )


def test_trajectory_rejects_mismatched_channel_lengths():
    with pytest.raises(DataError):
        Trajectory(ts=0.1, p=np.zeros((4, 1)), u=np.zeros((3, 1)))


def test_trajectory_rejects_a_channel_that_is_not_2d():
    with pytest.raises(DataError) as exc:
        Trajectory(ts=0.1, p=np.zeros(3), u=np.zeros((3, 1)))
    assert str(exc.value) == "channel p must be 2-D (N, width)"


def test_write_trajectory_csv_needs_the_outputs():
    traj = Trajectory(ts=0.1, p=np.zeros((3, 1)), u=np.zeros((3, 1)))
    with pytest.raises(DataError) as exc:
        write_trajectory_csv(traj)
    assert str(exc.value) == "trajectory has no outputs to write"


def test_trajectory_channel_lookup():
    traj = sample_scenario(unit_scenario(), DiscretizationConfig(0.5))
    assert traj.channel("p").shape == (5, 1)
    with pytest.raises(DataError):
        traj.channel("y")


# --- initial-state mapping -------------------------------------------------


def test_sigma_initial_state_scalar_values():
    cfg = DiscretizationConfig(0.5)
    xi0 = sigma_initial_state(integrator_model(), cfg, [0.0], [2.0], [1.0])
    # (2/0.5)*1 - 0*1 - 1*2 = 2
    assert np.array_equal(xi0, [2.0])
    xi0 = sigma_initial_state(lag_model(), DiscretizationConfig(0.1), [0.0], [2.0], [1.0])
    # 20*1 - (-1)*1 - 2 = 19
    assert np.array_equal(xi0, [19.0])


def test_initial_state_reproduced_exactly_on_integrator():
    cfg = DiscretizationConfig(0.5)
    traj = sample_scenario(unit_scenario(x0=(3.0,)), cfg)
    out = simulate_dt(integrator_model(), cfg, traj, [3.0])
    assert out.x[0, 0] == 3.0


def test_initial_state_reconstruction_general_model():
    rng = np.random.default_rng(17)
    model = random_lpv_model(rng, ts=0.1)
    cfg = DiscretizationConfig(0.1)
    n = 20
    traj = Trajectory(
        ts=0.1,
        p=inbox_p_trajectory(rng, model, n, 0.1),
        u=rng.uniform(-1, 1, (n, model.n_u)),
    )
    x0 = rng.uniform(-1, 1, model.n_x)
    out = simulate_dt(model, cfg, traj, x0)
    assert_allclose(out.x[0], x0, rtol=0, atol=1e-12)


# --- discrete engines ------------------------------------------------------


def test_integrator_trapezoid_oracle():
    # unit ramp: the trapezoidal rule integrates a constant exactly
    cfg = DiscretizationConfig(0.5)
    traj = sample_scenario(unit_scenario(), cfg)
    out = simulate_dt(integrator_model(), cfg, traj, [0.0])
    assert np.array_equal(out.y.ravel(), [0.0, 0.5, 1.0, 1.5, 2.0])
    assert np.array_equal(out.x, out.y)
    # internal state lags by the r-operator offset: xi(0) = -u(0)
    assert np.array_equal(out.xi.ravel(), [-1.0, 1.0, 3.0, 5.0, 7.0])


def test_loop_oracle_matches_on_integrator_exactly():
    cfg = DiscretizationConfig(0.5)
    traj = sample_scenario(unit_scenario(), cfg)
    a = simulate_dt(integrator_model(), cfg, traj, [0.0])
    b = simulate_dt_loop_oracle(integrator_model(), cfg, traj, [0.0])
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.xi, b.xi)


def test_engines_agree_on_random_lpv_runs():
    rng = np.random.default_rng(23)
    for ts in (0.05, 0.2):
        cfg = DiscretizationConfig(ts)
        for _ in range(5):
            model = random_lpv_model(rng, ts=ts)
            n = 60
            traj = Trajectory(
                ts=ts,
                p=inbox_p_trajectory(rng, model, n, ts),
                u=rng.uniform(-1, 1, (n, model.n_u)),
            )
            x0 = rng.uniform(-1, 1, model.n_x)
            a = simulate_dt(model, cfg, traj, x0)
            b = simulate_dt_loop_oracle(model, cfg, traj, x0)
            scale = max(1.0, np.max(np.abs(a.y)))
            assert np.max(np.abs(a.y - b.y)) <= 1e-12 * scale
            assert np.max(np.abs(a.x - b.x)) <= 1e-12 * scale
            assert np.max(np.abs(a.xi - b.xi)) <= 1e-12 * scale * (2.0 / ts)


def test_frozen_p_run_equals_tustin_recursion():
    # with p frozen the update is LTI; stepping the classical bilinear
    # matrices from the mapped start x~(0) = (Ts/2) xi(0) gives the same
    # output sequence
    model = msd_model()
    cfg = DiscretizationConfig(0.1)
    p0 = [2.0]
    scen = Scenario(
        p=[SignalSpec.constant(2.0)],
        u=[SignalSpec.sine(amplitude=1.0, f=0.3)],
        x0=[0.5, -0.25],
        t_end=5.0,
    )
    traj = sample_scenario(scen, cfg)
    out = simulate_dt(model, cfg, traj, scen.x0)

    m = tustin_frozen(model, p0, cfg)
    xi0 = sigma_initial_state(model, cfg, p0, traj.u[0], scen.x0)
    z = (cfg.ts / 2.0) * xi0
    y_ref = np.empty_like(out.y)
    for k in range(traj.n_steps):
        y_ref[k] = m.Cxi @ z + m.Dxi @ traj.u[k]
        z = m.Axi @ z + m.Bxi @ traj.u[k]
    assert_allclose(out.y, y_ref, rtol=0, atol=1e-12)


def test_matrix_cache_does_not_change_results():
    # a piecewise-constant schedule repeats points in the stacked matrices;
    # results must still match the per-step loop solve
    rng = np.random.default_rng(31)
    model = random_lpv_model(rng, ts=0.1)
    cfg = DiscretizationConfig(0.1)
    n = 40
    base = inbox_p_trajectory(rng, model, n, 0.1)
    repeated = np.repeat(base[::4], 4, axis=0)[:n]
    u = rng.uniform(-1, 1, (n, model.n_u))
    x0 = np.zeros(model.n_x)
    a = simulate_dt(model, cfg, Trajectory(ts=0.1, p=repeated, u=u), x0)
    b = simulate_dt_loop_oracle(model, cfg, Trajectory(ts=0.1, p=repeated, u=u), x0)
    assert_allclose(a.y, b.y, rtol=0, atol=1e-12)


def test_engines_reject_out_of_box_schedule():
    cfg = DiscretizationConfig(0.5)
    traj = Trajectory(ts=0.5, p=np.array([[0.0], [2.0]]), u=np.ones((2, 1)))
    for engine in (simulate_dt, simulate_dt_loop_oracle):
        with pytest.raises(DomainError) as exc:
            engine(integrator_model(), cfg, traj, [0.0])
        assert "step 1" in str(exc.value)


def test_engines_reject_width_mismatch():
    cfg = DiscretizationConfig(0.5)
    traj = Trajectory(ts=0.5, p=np.zeros((3, 2)), u=np.ones((3, 1)))
    with pytest.raises(DimensionError):
        simulate_dt(integrator_model(), cfg, traj, [0.0])
    traj = Trajectory(ts=0.5, p=np.zeros((3, 1)), u=np.ones((3, 2)))
    with pytest.raises(DimensionError):
        simulate_dt_loop_oracle(integrator_model(), cfg, traj, [0.0])


def test_every_engine_refuses_a_run_over_the_cap_before_any_work(monkeypatch):
    # msd's run budget is 192 bytes per sample and 152 per step of
    # simulate_dt's window, so 3048 samples fit in 1 MiB and 10 001 do not,
    # though their sample grid takes only 240 kB
    monkeypatch.setattr(discretize, "_STACK_LIMIT", 2**20)
    model, cfg = msd_model(), DiscretizationConfig(0.01)
    assert _run_bytes(model, 3048) == 3048 * (192 + 152) < 2**20 < _run_bytes(model, 3049)
    fits = Trajectory(ts=0.01, p=np.full((3048, 1), 2.0), u=np.ones((3048, 1)))
    for engine in (simulate_dt, simulate_dt_loop_oracle):
        assert engine(model, cfg, fits, [0.0, 0.0]).n_steps == 3048
    message = ("a run of 10001 samples at n_x = 2 takes more than 1048576 bytes, "
               "the most one request may allocate")
    long = Trajectory(ts=0.01, p=np.full((10001, 1), 2.0), u=np.ones((10001, 1)))
    for engine in (simulate_dt, simulate_dt_loop_oracle):
        with pytest.raises(ConfigError) as exc:
            engine(model, cfg, long, [0.0, 0.0])
        assert str(exc.value) == message
    scen = Scenario(p=[SignalSpec.constant(2.0)], u=[SignalSpec.constant(1.0)],
                    x0=[0.0, 0.0], t_end=100.0)
    with pytest.raises(ConfigError) as exc:
        simulate_ct_reference(model, cfg, scen)
    assert str(exc.value) == message


def test_the_rk4_reference_refuses_a_fine_grid_over_the_cap_before_any_window(monkeypatch):
    # 10 samples of 10**12 substeps: the half-step grid's t, p and u take
    # 8 (2e13 + 1) 3 bytes, though the sample grid takes 264
    def spy(*args):
        raise AssertionError("an RK4 window was built")

    monkeypatch.setattr(simulate, "_rk4_affine_maps", spy)
    scen = Scenario(p=[SignalSpec.constant(2.0)], u=[SignalSpec.sine(f=1.0)],
                    x0=[0.0, 0.0], t_end=1.0)
    with pytest.raises(ConfigError) as exc:
        simulate_ct_reference(msd_model(), DiscretizationConfig(0.1), scen, 10**12)
    assert str(exc.value) == (
        "an RK4 grid of 10000000000000 substeps (oversample = 1000000000000) takes "
        "more than 1073741824 bytes, the most one request may allocate")


def _affine_io_model(rng, n_x, n_u, n_y):
    """Affine in one channel in all four matrices, so each evaluation adds
    one term's product, on the box [-1, 1]."""
    def affine(rows, cols, const=0.0, scale=1.0):
        return PMatrixFunction.affine(const + scale * rng.uniform(-1, 1, (rows, cols)),
                                      [scale * rng.uniform(-1, 1, (rows, cols))])
    return LpvStateSpace(
        n_x=n_x, n_u=n_u, n_y=n_y, n_p=1,
        A=affine(n_x, n_x, -np.eye(n_x), 0.2 / n_x),
        B=affine(n_x, n_u), C=affine(n_y, n_x), D=affine(n_y, n_u),
        domain=SchedulingDomain([-1.0], [1.0]),
    )


@pytest.mark.parametrize("n_x", [1, 2, 4, 8, 16, 64])
def test_each_engine_peaks_under_its_run_budget(n_x):
    # n_x = 64 runs one shape at N = 3000, past the old budget of 3 (2 n_x +
    # 1)^2 floats a sample, which refused it from N = 2661, and at N = 128,
    # where the oracle's two windows of 6 n_x^2 floats a step dominate: it
    # peaked at 1.13 times that account while it kept one window's A alive
    # through the next one's evaluation
    rng = np.random.default_rng(n_x)
    cfg = DiscretizationConfig(0.05)
    for n in (3000, 128) if n_x == 64 else (1000,):
        for n_u, n_y in ((1, 1),) if n_x == 64 else ((1, 1), (1, 3), (3, 1), (3, 3)):
            model = _affine_io_model(rng, n_x, n_u, n_y)
            traj = Trajectory(ts=0.05, p=rng.uniform(-1, 1, (n, 1)),
                              u=rng.uniform(-1, 1, (n, n_u)))
            for engine in (simulate_dt, simulate_dt_loop_oracle):
                tracemalloc.start()
                try:
                    engine(model, cfg, traj, np.zeros(n_x))
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= _run_bytes(model, n), (engine.__name__, n, n_u, n_y)


def test_loop_oracle_memory_is_bounded_by_its_window():
    # the loop matrices exist one window at a time, so at n_x = 16 the peak
    # is A(p) and its evaluation, 4096 bytes per sample; a whole-run
    # (N, 32, 32) stack of loop matrices would add 8192 more.  simulate_dt's
    # blocks are windowed too: whole-run (N, 16, 17) stacks would take
    # about 6500 bytes per sample
    rng = np.random.default_rng(16)
    model, cfg, n = _affine_io_model(rng, 16, 1, 1), DiscretizationConfig(0.05), 4000
    traj = Trajectory(ts=0.05, p=rng.uniform(-1, 1, (n, 1)), u=rng.uniform(-1, 1, (n, 1)))
    for engine in (simulate_dt_loop_oracle, simulate_dt):
        engine(model, cfg, traj, np.zeros(16))  # first-call allocations
        tracemalloc.start()
        try:
            engine(model, cfg, traj, np.zeros(16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5000 * n, engine.__name__


def test_wellposedness_failure_reports_step():
    # A(p) = p at Ts = 0.1 loses the update exactly at p = 20
    model = scalar_gain_model(+1.0, hi=40.0)
    cfg = DiscretizationConfig(0.1)
    traj = Trajectory(
        ts=0.1, p=np.array([[0.0], [10.0], [20.0]]), u=np.ones((3, 1))
    )
    for engine in (simulate_dt, simulate_dt_loop_oracle):
        with pytest.raises(WellposednessError) as exc:
            engine(model, cfg, traj, [0.0])
        assert exc.value.step_index == 2
        assert exc.value.code == "E_WELLPOSED"


def test_batched_engine_matches_per_sample_step_matrices():
    # the stacked engine must realize exactly the blocks dt_step_matrices
    # builds point by point, on a p that changes at every sample
    rng = np.random.default_rng(5)
    ts = 0.05
    cfg = DiscretizationConfig(ts)
    for _ in range(5):
        model = random_lpv_model(rng, ts)
        n = 60
        traj = Trajectory(
            ts=ts,
            p=inbox_p_trajectory(rng, model, n, ts),
            u=rng.uniform(-1, 1, (n, model.n_u)),
        )
        x0 = rng.uniform(-1, 1, model.n_x)
        out = simulate_dt(model, cfg, traj, x0)
        xi = sigma_initial_state(model, cfg, traj.p[0], traj.u[0], x0)
        for k in range(n):
            m = dt_step_matrices(model, traj.p[k], cfg)
            u_k = traj.u[k]
            scale = max(1.0, float(np.max(np.abs(xi))))
            assert np.max(np.abs(out.xi[k] - xi)) <= 1e-12 * scale
            assert np.max(np.abs(out.x[k] - (m.Xxi @ xi + m.Xu @ u_k))) <= 1e-12 * scale
            assert np.max(np.abs(out.y[k] - (m.Cxi @ xi + m.Dxi @ u_k))) <= 1e-12 * scale
            xi = m.Axi @ xi + m.Bxi @ u_k


def test_first_of_several_singular_steps_is_reported():
    # A(p) = p at Ts = 0.1 is singular at p = 20, here at steps 1 and 3
    model = scalar_gain_model(+1.0, hi=40.0)
    cfg = DiscretizationConfig(0.1)
    traj = Trajectory(
        ts=0.1, p=np.array([[0.0], [20.0], [5.0], [20.0]]), u=np.ones((4, 1))
    )
    for engine in (simulate_dt, simulate_dt_loop_oracle):
        with pytest.raises(WellposednessError) as exc:
            engine(model, cfg, traj, [0.0])
        assert exc.value.step_index == 1
        assert list(exc.value.p) == [20.0]
    with pytest.raises(WellposednessError) as exc:
        simulate_dt(model, cfg, traj, [0.0])
    assert str(exc.value) == (
        "step k=1, p=[20.0]: |det(I - A(p)*Ts/2)| = 0.000e+00 is numerically "
        "zero (Ts = 0.1)"
    )


def phi_rows(monkeypatch):
    """Record the number of matrices in each stack that reaches ``phi``."""
    rows, original = [], discretize.phi

    def counting_phi(A_p, *args):
        rows.append(A_p.shape[0])
        return original(A_p, *args)

    monkeypatch.setattr(discretize, "phi", counting_phi)
    return rows


def piecewise_p(levels, lengths):
    """Each row of ``levels`` held for the matching count of samples."""
    return np.repeat(np.asarray(levels, dtype=float), lengths, axis=0)


@pytest.mark.parametrize("p, factored", [
    (piecewise_p([[2.0], [7.5], [0.25]], [4, 5, 3]), 3),
    (np.linspace(0.0, 10.0, 12)[:, None], 12),
    # a -0.0 after a 0.0 starts a run: the sign of a zero can reach A(p)
    (np.array([[0.0], [-0.0], [-0.0], [0.0]]), 3),
])
def test_simulate_dt_factors_each_run_of_equal_points_once(monkeypatch, p, factored):
    rows = phi_rows(monkeypatch)
    model = scalar_gain_model(+1.0, hi=40.0)
    traj = Trajectory(ts=0.1, p=p, u=np.ones((len(p), 1)))
    simulate_dt(model, DiscretizationConfig(0.1), traj, [0.5])
    assert rows == [factored]


def captured_blocks(monkeypatch, model, cfg, traj, x0):
    """simulate_dt's step blocks, each as the engine took it from
    ``_step_blocks``, and the (N, n, 1) stack B u it passed in."""
    seen = []

    def keep(A, Bu, *args):
        blocks = discretize._step_blocks(A, Bu, *args)
        seen.append((Bu.copy(), [b.copy() for b in blocks]))
        return blocks

    monkeypatch.setattr(simulate, "_step_blocks", keep)
    simulate_dt(model, cfg, traj, x0)
    (Bu, blocks), = seen
    return Bu, blocks


@pytest.mark.parametrize("n_x", [1, 4])
@pytest.mark.parametrize("lengths", [
    [40, 1, 23, 30, 7],   # levels of one sample and of many
    [1],                  # N = 1
    [64],                 # one run throughout
])
def test_gathered_blocks_equal_the_blocks_of_every_step(monkeypatch, n_x, lengths):
    # the runs' blocks, gathered back to one row per step, are the blocks of
    # the whole per-step stack bit for bit, so the scan sees the same input
    rng = np.random.default_rng(70 + n_x)
    model = random_time_varying_model(rng, n_x, 2)
    levels = rng.uniform(-0.9, 0.9, (len(lengths), 2))
    levels[2::2, 0] = levels[1::2, 0][:len(levels[2::2])]  # one channel holds
    p = piecewise_p(levels, lengths)
    cfg = DiscretizationConfig(0.05)
    traj = Trajectory(ts=0.05, p=p, u=rng.uniform(-1, 1, (len(p), 2)))
    rows = phi_rows(monkeypatch)
    Bu, blocks = captured_blocks(monkeypatch, model, cfg, traj, rng.uniform(-1, 1, n_x))
    assert rows == [len(lengths)]
    for got, want in zip(blocks, discretize._step_blocks(
            eval_pmatrix_many(model.A, p), Bu, cfg)):
        assert got.shape == want.shape == (len(p), n_x, want.shape[2])
        assert np.array_equal(got, want)


def test_a_singular_run_is_reported_at_its_first_step():
    # A(p) = p at Ts = 0.1 is singular at p = 20: the run of steps 2 and 3,
    # which is the second row of the factored stack
    model = scalar_gain_model(+1.0, hi=40.0)
    cfg = DiscretizationConfig(0.1)
    p = np.array([[0.0], [0.0], [20.0], [20.0], [5.0]])
    with pytest.raises(WellposednessError) as exc:
        simulate_dt(model, cfg, Trajectory(ts=0.1, p=p, u=np.ones((5, 1))), [0.0])
    assert str(exc.value) == (
        "step k=2, p=[20.0]: |det(I - A(p)*Ts/2)| = 0.000e+00 is numerically "
        "zero (Ts = 0.1)"
    )
    assert exc.value.step_index == 2
    assert list(exc.value.p) == [20.0]
    assert np.array_equal(exc.value.A_p, [[20.0]])


@pytest.mark.parametrize("window", [1, 3, 11])
@pytest.mark.parametrize("singular", [[4, 6, 9], [9]])
def test_loop_oracle_reports_first_of_several_singular_steps(monkeypatch, singular, window):
    # singular at p = 20: steps 4, 6 and 9 of a longer run, or only its last
    # step.  With windows of 3 steps, step 4 falls in the second window and
    # step 9 alone in the last; a window of 11 holds the whole run.  Both
    # engines take the window, so each names the run's step, not the window's
    monkeypatch.setattr(simulate, "_ORACLE_WINDOW", window)
    monkeypatch.setattr(simulate, "_dt_window", lambda model: window)
    model = scalar_gain_model(+1.0, hi=40.0)
    cfg = DiscretizationConfig(0.1)
    p = np.linspace(1.0, 10.0, 10)[:, None]
    p[singular] = 20.0
    traj = Trajectory(ts=0.1, p=p, u=np.ones((10, 1)))
    found = []
    for engine in (simulate_dt, simulate_dt_loop_oracle):
        with pytest.raises(WellposednessError) as exc:
            engine(model, cfg, traj, [0.0])
        found.append((exc.value.step_index, str(exc.value)))
    assert found[0] == found[1]
    assert found[0][0] == singular[0]
    assert list(exc.value.p) == [20.0]
    assert exc.value.ts == 0.1
    assert np.array_equal(exc.value.A_p, [[20.0]])


def test_loop_oracle_judges_each_step_when_the_whole_run_is_in_doubt():
    # A(p) = p at Ts = 0.1: step 3's |det(I - A Ts/2)| of about 1e-11 clears
    # its own threshold of 1e-12, but not the 5e-8 of step 5's scale at
    # p = 1e6, so the test of the whole run is in doubt and the steps decide
    model = scalar_gain_model(+1.0, hi=2e6)
    cfg = DiscretizationConfig(0.1)
    p = np.ones((8, 1))
    p[3], p[5] = 20.0 - 2e-10, 1e6
    traj = Trajectory(ts=0.1, p=p, u=np.ones((8, 1)))
    for engine in (simulate_dt, simulate_dt_loop_oracle):
        assert np.isfinite(engine(model, cfg, traj, [0.0]).y).all()
    p[3] = 20.0
    with pytest.raises(WellposednessError) as exc:
        simulate_dt_loop_oracle(model, cfg, traj, [0.0])
    assert exc.value.step_index == 3


@pytest.mark.parametrize("window", [3, 64])
def test_loop_oracle_evaluates_each_step_of_A_once(monkeypatch, window):
    # each window's A is evaluated once and judged before it is solved: no
    # second pass over the run, whether it is finite or raises
    monkeypatch.setattr(simulate, "_ORACLE_WINDOW", window)
    rows = []

    def spy(pm, p):
        if pm is model.A:
            rows.append(len(p))
        return eval_pmatrix_many(pm, p)

    monkeypatch.setattr(simulate, "eval_pmatrix_many", spy)
    cfg = DiscretizationConfig(0.1)
    # the last of 10 steps is singular
    model = scalar_gain_model(+1.0, hi=40.0)
    p = np.linspace(1.0, 10.0, 10)[:, None]
    p[9] = 20.0
    with pytest.raises(WellposednessError) as exc:
        simulate_dt_loop_oracle(model, cfg, Trajectory(ts=0.1, p=p, u=np.ones((10, 1))), [0.0])
    assert exc.value.step_index == 9
    assert sum(rows) == 10
    # the case of test_loop_oracle_judges_each_step_when_the_whole_run_is_in_doubt
    model = scalar_gain_model(+1.0, hi=2e6)
    p = np.ones((8, 1))
    p[3], p[5] = 20.0 - 2e-10, 1e6
    traj = Trajectory(ts=0.1, p=p, u=np.ones((8, 1)))
    rows.clear()
    assert np.isfinite(simulate_dt_loop_oracle(model, cfg, traj, [0.0]).y).all()
    assert sum(rows) == 8
    p[3] = 20.0
    rows.clear()
    with pytest.raises(WellposednessError) as exc:
        simulate_dt_loop_oracle(model, cfg, traj, [0.0])
    assert exc.value.step_index == 3
    assert sum(rows) == min(window * 2, 8)


def test_engines_reject_non_finite_inputs():
    model = msd_model()
    cfg = DiscretizationConfig(0.1)
    p = np.full((4, 1), 2.0)
    u = np.ones((4, 1))
    p_nan = p.copy()
    p_nan[2] = np.nan
    u_inf = u.copy()
    u_inf[1] = np.inf
    for engine in (simulate_dt, simulate_dt_loop_oracle):
        with pytest.raises(DomainError) as exc:
            engine(model, cfg, Trajectory(ts=0.1, p=p_nan, u=u), [0.0, 0.0])
        assert exc.value.code == "E_DOMAIN" and "step 2" in str(exc.value)
        with pytest.raises(DataError) as exc:
            engine(model, cfg, Trajectory(ts=0.1, p=p, u=u_inf), [0.0, 0.0])
        assert "step 1" in str(exc.value)
        with pytest.raises(ConfigError):
            engine(model, cfg, Trajectory(ts=0.1, p=p, u=u), [np.nan, 0.0])
    # the start state from p(0), u(0) and x0 is refused by the engines' rules
    for u0, x0, error in (([np.inf], [0.0, 0.0], DataError),
                          ([1.0], [np.nan, 0.0], ConfigError)):
        with pytest.raises(error) as want:
            simulate_dt(model, cfg, Trajectory(ts=0.1, p=p[:1], u=[u0]), x0)
        with pytest.raises(error) as exc:
            sigma_initial_state(model, cfg, [2.0], u0, x0)
        assert str(exc.value) == str(want.value)


@pytest.mark.parametrize("engine", [simulate_dt, simulate_dt_loop_oracle])
def test_engines_refuse_a_trajectory_with_no_samples(engine):
    traj = Trajectory(ts=0.1, p=np.zeros((0, 1)), u=np.zeros((0, 1)))
    with pytest.raises(DataError) as exc:
        engine(msd_model(), DiscretizationConfig(0.1), traj, [0.0, 0.0])
    assert str(exc.value) == "trajectory has no samples"


def test_engines_reject_trajectory_sampled_at_other_ts():
    cfg = DiscretizationConfig(0.5)
    traj = Trajectory(ts=0.25, p=np.zeros((3, 1)), u=np.ones((3, 1)))
    for engine in (simulate_dt, simulate_dt_loop_oracle):
        with pytest.raises(ConfigError):
            engine(integrator_model(), cfg, traj, [0.0])
    same = Trajectory(ts=0.5 + 1e-13, p=np.zeros((3, 1)), u=np.ones((3, 1)))
    assert simulate_dt(integrator_model(), cfg, same, [0.0]).ts == 0.5


#: (model, Ts, samples) of runs that leave the float range: a double pole at
#: s = 10, and a scalar pole at s = 30 whose discrete pole at Ts 0.1 is -5,
#: so the state grows with alternating sign
_DIVERGING = [
    (constant_model([[0.0, 1.0], [-100.0, 20.0]], [[0.0], [1.0]], [[1.0, 0.0]],
                    [[0.0]]), 0.01, 10001),
    (constant_model([[30.0]], [[1.0]], [[1.0]], [[0.0]]), 0.1, 1001),
]


@pytest.mark.parametrize("engine", [simulate_dt, simulate_dt_loop_oracle])
@pytest.mark.parametrize("model, ts, n", _DIVERGING)
def test_a_diverging_run_raises_at_its_first_non_finite_step(engine, model, ts, n):
    cfg = DiscretizationConfig(ts)

    def run(steps):
        traj = Trajectory(ts=ts, p=np.zeros((steps, 1)), u=np.ones((steps, 1)))
        return engine(model, cfg, traj, np.zeros(model.n_x))

    with pytest.raises(NonFiniteError) as exc:
        run(n)
    k = exc.value.step_index
    assert 0 < k < n
    assert exc.value.code == "E_NONFINITE" and f"step k={k} " in str(exc.value)
    # the first k samples make a finite run of their own; one more does not
    out = run(k)
    assert all(np.isfinite(c).all() for c in (out.x, out.xi, out.y))
    with pytest.raises(NonFiniteError) as exc:
        run(k + 1)
    assert exc.value.step_index == k


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    ts=st.floats(min_value=1e-3, max_value=0.5),
)
def test_engines_agree_property(seed, ts):
    rng = np.random.default_rng(seed)
    cfg = DiscretizationConfig(ts)
    model = random_lpv_model(rng, ts)
    n = 40
    traj = Trajectory(
        ts=cfg.ts,
        p=inbox_p_trajectory(rng, model, n, ts),
        u=rng.uniform(-1, 1, (n, model.n_u)),
    )
    x0 = rng.uniform(-1, 1, model.n_x)
    ya = simulate_dt(model, cfg, traj, x0).y
    yb = simulate_dt_loop_oracle(model, cfg, traj, x0).y
    assert np.max(np.abs(ya - yb)) <= 1e-9 * max(1.0, float(np.max(np.abs(ya))))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    ts=st.floats(min_value=1e-3, max_value=0.5),
)
def test_initial_state_recovered_exactly_property(seed, ts):
    rng = np.random.default_rng(seed)
    cfg = DiscretizationConfig(ts)
    model = random_affine_model(rng)
    n = 20
    p = inbox_p_trajectory(rng, model, n, ts)
    assume(loop_condition(model, p, ts) < 1e3)
    traj = Trajectory(ts=cfg.ts, p=p, u=rng.uniform(-5, 5, (n, model.n_u)))
    x0 = rng.uniform(-5, 5, model.n_x)
    out = simulate_dt(model, cfg, traj, x0)
    assert np.max(np.abs(out.x[0] - x0)) <= 1e-10


def xi_loop_reference(model, cfg, traj, x0):
    """xi, x and y of simulate_dt's per-step matrices, with the recurrence
    xi(k+1) = Axi[k] xi(k) + drive[k] stepped one sample at a time."""
    ts = cfg.ts
    A = eval_pmatrix_many(model.A, traj.p)
    Bu = np.einsum("kij,kj->ki", eval_pmatrix_many(model.B, traj.p), traj.u)
    Phi = phi(A, cfg)
    Axi = np.eye(model.n_x) + ts * (Phi @ A)
    drive = 2.0 * np.einsum("kij,kj->ki", Phi, Bu)
    xi = np.empty((traj.n_steps, model.n_x))
    xi[0] = sigma_initial_state(model, cfg, traj.p[0], traj.u[0], x0)
    for k in range(traj.n_steps - 1):
        xi[k + 1] = Axi[k] @ xi[k] + drive[k]
    x = (ts / 2.0) * np.einsum("kij,kj->ki", Phi, xi + Bu)
    y = np.einsum("kij,kj->ki", eval_pmatrix_many(model.C, traj.p), x)
    y += np.einsum("kij,kj->ki", eval_pmatrix_many(model.D, traj.p), traj.u)
    return xi, x, y


def scan_run(rng, n_x, n):
    model = random_time_varying_model(rng, n_x, 2)
    p = 0.9 * np.sin(np.arange(n)[:, None] * rng.uniform(0.01, 0.5, 2))
    return model, Trajectory(ts=0.05, p=p, u=rng.uniform(-1, 1, (n, 2)))


def assert_matches_loop_reference(model, traj, x0):
    cfg = DiscretizationConfig(traj.ts)
    out = simulate_dt(model, cfg, traj, x0)
    for got, want in zip((out.xi, out.x, out.y), xi_loop_reference(model, cfg, traj, x0)):
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("n_x", [1, 2, 3, 4])
def test_scan_matches_step_loop(n_x):
    # run lengths on both sides of the scan's power-of-two level boundaries
    rng = np.random.default_rng(40 + n_x)
    for n in (1, 2, 3, 4, 5, 31, 32, 33, 64, 65, 1000):
        model, traj = scan_run(rng, n_x, n)
        assert_matches_loop_reference(model, traj, rng.uniform(-1, 1, n_x))


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("n_maps", [1, 2, 3, 5, 64, 257])
def test_scan_rows_are_the_sequential_compositions(n_maps, n):
    # the maps x -> x + (D x + s) as homogeneous (n+1, n+1) matrices, and
    # the prefix products multiplied out one map at a time, independently of
    # the scan's composition law; I + D is a contraction, so the products
    # stay bounded over long runs
    rng = np.random.default_rng(10 * n_maps + n)
    G = np.concatenate(
        (rng.uniform(-0.1, 0.1, (n_maps, n, n)) / n - 0.05 * np.eye(n),
         rng.uniform(-1.0, 1.0, (n_maps, n, 1))), axis=2,
    )
    T = np.zeros((n_maps, n + 1, n + 1))
    T[:, :n] = G
    T[:, :n, :n] += np.eye(n)
    T[:, n, n] = 1.0
    got = G.copy()
    _scan(got)
    prefix = np.eye(n + 1)
    for k in range(n_maps):
        prefix = T[k] @ prefix
        want = prefix[:n] - np.eye(n, n + 1)
        assert np.all(np.abs(got[k] - want) <= 1e-13 * max(1.0, np.max(np.abs(want))))


def test_scan_matches_step_loop_over_a_long_run():
    rng = np.random.default_rng(44)
    model, traj = scan_run(rng, 4, 10_000)
    assert_matches_loop_reference(model, traj, rng.uniform(-1, 1, 4))


@pytest.mark.parametrize("window", [1, 7, 64])
def test_a_windowed_run_agrees_with_a_one_window_run(monkeypatch, window):
    # held levels of 1 to 50 samples cross the window edges, so a run of
    # equal points is factored once in each window it reaches; only the
    # scan's rounding may differ from the whole run as one window
    rng = np.random.default_rng(71)
    model = random_time_varying_model(rng, 3, 2)
    lengths = [40, 1, 23, 30, 7, 13, 1, 2, 50]
    p = piecewise_p(rng.uniform(-0.9, 0.9, (len(lengths), 2)), lengths)
    traj = Trajectory(ts=0.05, p=p, u=rng.uniform(-1, 1, (len(p), 2)))
    cfg, x0 = DiscretizationConfig(0.05), rng.uniform(-1, 1, 3)
    monkeypatch.setattr(simulate, "_DT_BUDGET", 2**40)
    assert _dt_window(model) > len(p)
    whole = simulate_dt(model, cfg, traj, x0)
    monkeypatch.setattr(simulate, "_dt_window", lambda model: window)
    got = simulate_dt(model, cfg, traj, x0)
    for name in ("x", "xi", "y"):
        want = whole.channel(name)
        gap = np.max(np.abs(got.channel(name) - want) / np.max(np.abs(want), axis=0))
        assert gap <= 1e-14, (name, gap)


def test_engines_accept_one_sample_and_unrecorded_state():
    rng = np.random.default_rng(45)
    cfg = DiscretizationConfig(0.05)
    for n in (1, 40):
        model, traj = scan_run(rng, 3, n)
        x0 = rng.uniform(-1, 1, 3)
        for engine in (simulate_dt, simulate_dt_loop_oracle):
            out = engine(model, cfg, traj, x0)
            assert out.y.shape == (n, 1) and out.xi.shape == (n, 3)
            assert_allclose(out.x[0], x0, rtol=0, atol=1e-12)
            assert np.array_equal(engine(model, cfg, traj, x0).y, out.y)


def test_loop_oracle_solves_once_per_step(monkeypatch):
    # the oracle checks the closed-form loop elimination by solving the loop
    # itself: one solve of one (2n, 2n) loop matrix at every step
    rng = np.random.default_rng(46)
    model, traj = scan_run(rng, 3, 57)
    shapes = []
    solve = simulate._solve1

    def counting_solve(a, b, **kwargs):
        shapes.append(np.shape(a))
        return solve(a, b, **kwargs)

    monkeypatch.setattr(simulate, "_solve1", counting_solve)
    simulate_dt_loop_oracle(model, DiscretizationConfig(traj.ts), traj, np.zeros(3))
    assert shapes == [(6, 6)] * 57


def oracle_step_loop(model, cfg, traj, x0):
    """x, xi and y of the loop oracle, each step's loop matrix built alone
    and solved by ``np.linalg.solve``."""
    ts, n = cfg.ts, model.n_x
    A = eval_pmatrix_many(model.A, traj.p)
    Bu = np.einsum("kij,kj->ki", eval_pmatrix_many(model.B, traj.p), traj.u)
    eye = np.eye(n)
    x = np.empty((traj.n_steps, n))
    xi = np.empty((traj.n_steps + 1, n))
    xi[0] = (2.0 / ts) * x0 - A[0] @ x0 - Bu[0]
    for k in range(traj.n_steps):
        loop = np.block([[(2.0 / ts) * eye, -0.5 * eye], [-A[k], 0.5 * eye]])
        sol = np.linalg.solve(loop, np.concatenate([xi[k], Bu[k]]))
        x[k] = sol[:n]
        xi[k + 1] = xi[k] + sol[n:]
    y = np.einsum("kij,kj->ki", eval_pmatrix_many(model.C, traj.p), x)
    y += np.einsum("kij,kj->ki", eval_pmatrix_many(model.D, traj.p), traj.u)
    return x, xi[:-1], y


@pytest.mark.parametrize("window", [1, 3, 1000])
@pytest.mark.parametrize("n_x", [1, 2, 3, 4])
def test_loop_oracle_matches_np_linalg_solve_bit_for_bit(monkeypatch, n_x, window):
    # the oracle calls the LAPACK gufunc behind np.linalg.solve directly;
    # a numpy whose public solve computes differently fails here.  Windows
    # of one step, of 3 (the last one partial) and of more than the run
    monkeypatch.setattr(simulate, "_ORACLE_WINDOW", window)
    rng = np.random.default_rng(60 + n_x)
    for n in (1, 2, 57, 320):
        model, traj = scan_run(rng, n_x, n)
        x0 = rng.uniform(-1, 1, n_x)
        cfg = DiscretizationConfig(traj.ts)
        out = simulate_dt_loop_oracle(model, cfg, traj, x0)
        for got, want in zip((out.x, out.xi, out.y), oracle_step_loop(model, cfg, traj, x0)):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("n_x, engine", [
    *(pytest.param(n, simulate_dt_loop_oracle, id=f"{n}") for n in (1, 2, 3, 4)),
    *(pytest.param(n, simulate_dt, id=f"simulate_dt-{n}") for n in (1, 2, 3, 4)),
])
def test_loop_oracle_satisfies_the_trapezoidal_loop(n_x, engine):
    # each engine alone against the relations the oracle solves, with
    # r x = A x + B u: (2/Ts) x(k) - r x(k) = xi(k) and
    # xi(k+1) = xi(k) + 2 r x(k)
    rng = np.random.default_rng(50 + n_x)
    model, traj = scan_run(rng, n_x, 200)
    x0 = rng.uniform(-1, 1, n_x)
    out = engine(model, DiscretizationConfig(traj.ts), traj, x0)
    rx = np.einsum("kij,kj->ki", eval_pmatrix_many(model.A, traj.p), out.x)
    rx += np.einsum("kij,kj->ki", eval_pmatrix_many(model.B, traj.p), traj.u)
    tol = 1e-12 * np.maximum(1.0, np.max(np.abs(out.xi), axis=1, keepdims=True))
    assert np.all(np.abs((2.0 / traj.ts) * out.x - rx - out.xi) <= tol)
    step_tol = np.maximum(tol[1:], tol[:-1])
    assert np.all(np.abs(out.xi[1:] - (out.xi[:-1] + 2.0 * rx[:-1])) <= step_tol)


@pytest.mark.parametrize("n_x, ts", [(3, 0.05), (120, 1e-3)])
def test_engines_name_the_same_first_near_singular_step(n_x, ts):
    # A(p) = diag(p, -1, -2, ...): I - A Ts/2 is singular at p = 2/Ts.  Step
    # 3 sits 1e-11 off it, with |det(I - A Ts/2)| near 2e-13, under the
    # 1e-12 threshold; both engines judge that determinant, not the
    # oracle's (2n, 2n) loop matrix's, which is Ts^-n times larger (8000,
    # and past the float range at n_x = 120); step 6 is singular too
    model = LpvStateSpace(
        n_x=n_x, n_u=1, n_y=1, n_p=1,
        A=PMatrixFunction(n_x, n_x, (((0,), -np.diag(np.arange(n_x, dtype=float))),
                                     ((1,), np.diag([1.0] + [0.0] * (n_x - 1))))),
        B=PMatrixFunction.constant(np.ones((n_x, 1)), 1),
        C=PMatrixFunction.constant(np.ones((1, n_x)), 1),
        D=PMatrixFunction.zero(1, 1),
        domain=SchedulingDomain([0.0], [4.0 / ts]),
    )
    cfg = DiscretizationConfig(ts)
    p = np.linspace(1.0, 1.5 / ts, 10)[:, None]
    p[3], p[6] = 2.0 / ts + 1e-11, 2.0 / ts
    traj = Trajectory(ts=ts, p=p, u=np.ones((10, 1)))
    messages = []
    for engine in (simulate_dt, simulate_dt_loop_oracle):
        with pytest.raises(WellposednessError) as exc:
            engine(model, cfg, traj, np.zeros(n_x))
        assert exc.value.step_index == 3
        assert list(exc.value.p) == [2.0 / ts + 1e-11]
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


# --- continuous-time reference ---------------------------------------------


def rk4_stagewise_oracle(model, cfg, scenario, oversample, dtype=float):
    """Reference x log from the stagewise k1..k4 RK4 loop, one substep at a
    time at the same stage times as :func:`simulate_ct_reference`.  With
    ``dtype=np.longdouble`` the loop runs in extended precision from the
    same float A, B u and x0, so it differs from the reference only in the
    rounding of the recurrence."""
    n_keep = sample_scenario(scenario, cfg).n_steps
    h = cfg.ts / oversample
    # substep i starts at t_2i, has its midpoint at t_2i+1 and ends at
    # t_2i+2 on the half-step grid t_j = j h/2
    grid = np.arange(2 * (n_keep - 1) * oversample + 1) * (0.5 * h)
    t = grid[:-1:2]
    stages = (t, grid[1::2], grid[2::2])
    A0, Ah, A1 = (
        eval_pmatrix_many(model.A, scenario.p_at(s)).astype(dtype) for s in stages
    )
    f0, fh, f1 = (
        np.einsum("kij,kj->ki", eval_pmatrix_many(model.B, scenario.p_at(s)),
                  scenario.u_at(s)).astype(dtype)
        for s in stages
    )
    h = dtype(h)
    x_log = np.empty((n_keep, model.n_x))
    x_log[0] = x = scenario.x0.astype(dtype)
    for i in range(t.size):
        k1 = A0[i] @ x + f0[i]
        k2 = Ah[i] @ (x + 0.5 * h * k1) + fh[i]
        k3 = Ah[i] @ (x + 0.5 * h * k2) + fh[i]
        k4 = A1[i] @ (x + h * k3) + f1[i]
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (i + 1) % oversample == 0:
            x_log[(i + 1) // oversample] = x
    return x_log


def random_time_varying_model(rng, n_x, n_u):
    """Affine model whose A and B both move with a 2-D scheduling vector."""
    A0 = -np.diag(0.5 + rng.uniform(0.0, 1.0, n_x)) + 0.5 * rng.uniform(-1, 1, (n_x, n_x))
    return LpvStateSpace(
        n_x=n_x, n_u=n_u, n_y=1, n_p=2,
        A=PMatrixFunction.affine(A0, [0.5 * rng.uniform(-1, 1, (n_x, n_x)) for _ in range(2)]),
        B=PMatrixFunction.affine(
            rng.uniform(-1, 1, (n_x, n_u)), [rng.uniform(-1, 1, (n_x, n_u)) for _ in range(2)]
        ),
        C=PMatrixFunction.constant(rng.uniform(-1, 1, (1, n_x)), 2),
        D=PMatrixFunction.zero(1, n_u),
        domain=SchedulingDomain([-1.0, -1.0], [1.0, 1.0]),
    )


@pytest.mark.parametrize("n_x", [1, 2, 3, 4])
@pytest.mark.parametrize("n_u", [1, 2])
def test_ct_reference_matches_stagewise_oracle(n_x, n_u):
    rng = np.random.default_rng(10 * n_x + n_u)
    model = random_time_varying_model(rng, n_x, n_u)
    cfg = DiscretizationConfig(0.1)
    window = _rk4_window(model)
    # the largest oversample up to 20 whose samples end on a window edge
    edge = max(d for d in range(1, 21) if window % d == 0)
    for oversample in (1, 3, edge, 20, window + 1):
        # sample counts whose fine substeps end below one window of maps,
        # reach or cross its end (at it when oversample divides the window
        # length), and end inside the next window
        below = (window - 1) // oversample
        for n_samples in (below, below + 1, below + 2):
            scen = Scenario(
                p=[SignalSpec.sine(amplitude=0.9, f=f, phase=ph)
                   for f, ph in rng.uniform(0.1, 2.0, (2, 2))],
                u=[SignalSpec.sine(f=f) for f in rng.uniform(0.1, 2.0, n_u)],
                x0=rng.uniform(-1, 1, n_x),
                t_end=max(n_samples, 0.5) * cfg.ts,
            )
            got = simulate_ct_reference(model, cfg, scen, oversample=oversample).x
            want = rk4_stagewise_oracle(model, cfg, scen, oversample)
            assert got.shape == (n_samples + 1, n_x)
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))




# the window of random_time_varying_model(rng, 3, 2), whatever rng: a window
# depends only on the model's dimensions
_WINDOW_3X2 = _rk4_window(random_time_varying_model(np.random.default_rng(0), 3, 2))


@pytest.mark.parametrize("oversample", [2, 20, 2 * _WINDOW_3X2 + 2])
def test_ct_reference_is_the_same_on_a_twice_coarser_grid(oversample):
    # (0.1, ov) and (0.05, ov/2) share the substep h and the fine grid, so
    # every sample of the first run is every second sample of the second,
    # bit for bit: with fixed windows, a substep's prefix map depends only
    # on its fine-grid index.  The sample counts put the samples below, at
    # and across window boundaries
    rng = np.random.default_rng(oversample)
    model = random_time_varying_model(rng, 3, 2)
    n_fine = 2 * _rk4_window(model) + 3 * oversample
    scen = Scenario(
        p=[SignalSpec.sine(amplitude=0.9, f=f, phase=ph)
           for f, ph in rng.uniform(0.1, 2.0, (2, 2))],
        u=[SignalSpec.sine(f=f) for f in rng.uniform(0.1, 2.0, 2)],
        x0=rng.uniform(-1, 1, 3),
        t_end=0.1 * -(-n_fine // oversample),
    )
    coarse = simulate_ct_reference(model, DiscretizationConfig(0.1), scen, oversample)
    fine = simulate_ct_reference(
        model, DiscretizationConfig(0.05), scen, oversample // 2
    )
    assert (coarse.n_steps - 1) * oversample >= n_fine
    assert fine.n_steps == 2 * coarse.n_steps - 1
    assert coarse.x.tobytes() == fine.x[::2].tobytes()
    assert coarse.y.tobytes() == fine.y[::2].tobytes()


@pytest.mark.parametrize("n_x", [1, 2, 3, 4])
def test_ct_reference_matches_long_double_oracle(n_x):
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("np.longdouble is no wider than float on this platform")
    rng = np.random.default_rng(40 + n_x)
    model = random_time_varying_model(rng, n_x, 2)
    cfg = DiscretizationConfig(0.05)
    scen = Scenario(
        p=[SignalSpec.sine(amplitude=0.9, f=f, phase=ph)
           for f, ph in rng.uniform(0.1, 2.0, (2, 2))],
        u=[SignalSpec.sine(f=f) for f in rng.uniform(0.1, 2.0, 2)],
        x0=rng.uniform(-1, 1, n_x),
        t_end=2.0,
    )
    got = simulate_ct_reference(model, cfg, scen, oversample=20).x
    want = rk4_stagewise_oracle(model, cfg, scen, 20, dtype=np.longdouble)
    assert (got.shape[0] - 1) * 20 >= 800
    assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))


def test_ct_reference_unit_ramp_is_exact():
    out = simulate_ct_reference(
        integrator_model(), DiscretizationConfig(0.5), unit_scenario(), oversample=4
    )
    assert_allclose(out.y.ravel(), [0.0, 0.5, 1.0, 1.5, 2.0], rtol=0, atol=1e-14)


def test_ct_reference_matches_lag_step_response():
    # y(t) = 1 - exp(-t)
    scen = unit_scenario(t_end=4.0)
    cfg = DiscretizationConfig(0.1)
    out = simulate_ct_reference(lag_model(), cfg, scen, oversample=50)
    t = out.times()
    assert_allclose(out.y.ravel(), 1.0 - np.exp(-t), rtol=0, atol=1e-10)


def test_ct_reference_matches_time_varying_closed_form():
    # dx/dt = -p(t) x with p(t) = a + b sin(2 pi f t) has the closed form
    # x(t) = x0 exp(-(a t - b (cos(2 pi f t) - 1) / (2 pi f)))
    a, b, f = 1.0, 0.8, 0.3
    model = scalar_gain_model(-1.0, hi=40.0)
    scen = Scenario(
        p=[SignalSpec.sine(amplitude=b, f=f, offset=a)],
        u=[SignalSpec.constant(0.0)],
        x0=[2.0],
        t_end=5.0,
    )
    cfg = DiscretizationConfig(0.1)
    out = simulate_ct_reference(model, cfg, scen, oversample=50)
    t = out.times()
    integral = a * t - b * (np.cos(2 * np.pi * f * t) - 1.0) / (2 * np.pi * f)
    assert_allclose(out.x.ravel(), 2.0 * np.exp(-integral), rtol=0, atol=1e-9)


def test_ct_reference_fourth_order_in_substep():
    scen = unit_scenario(t_end=2.0)
    cfg = DiscretizationConfig(0.5)
    errs = []
    for oversample in (2, 4, 8):
        out = simulate_ct_reference(lag_model(), cfg, scen, oversample=oversample)
        t = out.times()
        errs.append(np.max(np.abs(out.y.ravel() - (1.0 - np.exp(-t)))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 3.7)


@pytest.mark.parametrize(
    "oversample", [0, -3, 2.9, 7.9, float("nan"), float("inf"), "4"]
)
def test_ct_reference_rejects_an_oversample_that_is_not_a_count(oversample):
    with pytest.raises(ConfigError, match="oversample must be an integer >= 1"):
        simulate_ct_reference(
            integrator_model(), DiscretizationConfig(0.5), unit_scenario(),
            oversample=oversample,
        )


def test_ct_reference_refuses_an_oversample_past_the_float_range():
    # one sample, so no substep is taken and the grid cap passes; Ts / 10**400
    # has no float, and is refused with one ConfigError, while 10**300 runs
    cfg = DiscretizationConfig(0.1)
    scen = Scenario(p=[SignalSpec.constant(2.0)], u=[SignalSpec.constant(1.0)],
                    x0=[0.0, 0.0], t_end=0.05)
    with pytest.raises(ConfigError) as exc:
        simulate_ct_reference(msd_model(), cfg, scen, oversample=10**400)
    assert str(exc.value) == ("oversample must be an integer >= 1 with Ts/oversample "
                              f"> 0, got {10**400} at Ts = 0.1")
    out = simulate_ct_reference(msd_model(), cfg, scen, oversample=10**300)
    assert out.x.tolist() == [[0.0, 0.0]]


@pytest.mark.parametrize("sign", [1, -1])
def test_ct_reference_refuses_an_oversample_too_long_to_write(sign):
    # str() writes no int of more than 4300 digits, so the refusal states
    # the digit count of 10**5000, which has 5001: for a negative one the
    # count guard's, for a positive one that of Ts/oversample > 0
    cfg = DiscretizationConfig(0.1)
    scen = Scenario(p=[SignalSpec.constant(2.0)], u=[SignalSpec.constant(1.0)],
                    x0=[0.0, 0.0], t_end=0.05)
    with pytest.raises(ConfigError) as exc:
        simulate_ct_reference(msd_model(), cfg, scen, oversample=sign * 10**5000)
    assert str(exc.value) == {
        1: "oversample must be an integer >= 1 with Ts/oversample > 0, got an "
           "integer of 5001 digits at Ts = 0.1",
        -1: "oversample must be an integer >= 1, got an integer of 5001 digits"}[sign]
    with pytest.raises(ConfigError, match="got an integer of 5000 digits"):
        simulate_ct_reference(msd_model(), cfg, scen, oversample=sign * (10**5000 - 1))


_HUGE = f"an integer of 5001 digits points takes more than {2**30} bytes"


@pytest.mark.parametrize("counts, message", [
    *[({"grid_per_dim": v}, f"grid_per_dim must be an integer >= 2, got {v}")
      for v in (2.5, math.nan, -1)],
    *[({"random_samples": v}, f"random_samples must be an integer >= 0, got {v}")
      for v in (2.5, math.nan, -1)],
    ({"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
    ({"grid_per_dim": 10**5000}, f"a sweep of {_HUGE}"),
    ({"random_samples": 10**5000}, f"a sweep of {_HUGE}"),
    ({"decades": 1, "points_per_decade": 10**5000}, "a grid of inf frequencies"),
    ({"decades": 10**5000, "points_per_decade": 1}, "a grid of inf frequencies"),
])
def test_a_count_that_is_no_integer_or_too_long_to_write_is_one_config_error(
        counts, message):
    # the sweep's counts go through the RK4 reference's count guard, and a
    # count past the float range or str() meets the cap; a frequency grid
    # rounds a fractional count instead, so only its cap is asked
    cfg = DiscretizationConfig(0.1)
    with pytest.raises(ConfigError) as exc:
        if "decades" in counts:
            log_frequency_grid(cfg, **counts)
        else:
            wellposedness_check(msd_model(), cfg, **{
                "grid_per_dim": 3, "random_samples": 5, "seed": 0, **counts})
    assert str(exc.value).startswith(message)
    assert len(log_frequency_grid(cfg, 2, 2.5)) == 5


def test_simulate_dt_finds_the_runs_once_per_window(monkeypatch):
    # one search per window, and none by the result step, which evaluates C
    # and D at every step
    calls = []

    def spy(p):
        calls.append(len(p))
        return runs(p)

    runs = simulate._runs
    monkeypatch.setattr(simulate, "_runs", spy)
    rng = np.random.default_rng(3)
    model = random_affine_model(rng)
    lengths = [5, 1, 9, 3, 5]
    p = piecewise_p(rng.uniform(-0.9, 0.9, (len(lengths), model.n_p)), lengths)
    traj = Trajectory(ts=0.05, p=p, u=rng.uniform(-1, 1, (len(p), model.n_u)))
    cfg, x0 = DiscretizationConfig(0.05), rng.uniform(-1, 1, model.n_x)
    assert _dt_window(model) > len(p)
    simulate_dt(model, cfg, traj, x0)
    assert calls == [len(p)]
    calls.clear()
    monkeypatch.setattr(simulate, "_dt_window", lambda model: 6)
    simulate_dt(model, cfg, traj, x0)
    assert calls == [6, 6, 6, 5]


@pytest.mark.parametrize("oversample", [2.0, np.int64(2)])
def test_ct_reference_accepts_an_integral_oversample_of_any_type(oversample):
    cfg, scen = DiscretizationConfig(0.5), unit_scenario()
    got = simulate_ct_reference(lag_model(), cfg, scen, oversample=oversample)
    want = simulate_ct_reference(lag_model(), cfg, scen, oversample=2)
    assert got.x.tobytes() == want.x.tobytes()


def test_ct_reference_validates_inputs():
    bad = Scenario(
        p=[SignalSpec.constant(0.0), SignalSpec.constant(0.0)],
        u=[SignalSpec.constant(0.0)],
        x0=[0.0],
        t_end=1.0,
    )
    with pytest.raises(DimensionError):
        simulate_ct_reference(integrator_model(), DiscretizationConfig(0.5), bad)


def test_ct_reference_rejects_schedule_leaving_box():
    scen = Scenario(
        p=[SignalSpec.sine(amplitude=2.0, f=0.25)],  # exceeds [-1, 1]
        u=[SignalSpec.constant(0.0)],
        x0=[0.0],
        t_end=4.0,
    )
    with pytest.raises(DomainError):
        simulate_ct_reference(integrator_model(), DiscretizationConfig(0.5), scen)


def test_ct_reference_rejects_non_finite_u_and_x0():
    cfg = DiscretizationConfig(0.5)
    with pytest.raises(DataError):
        simulate_ct_reference(lag_model(), cfg, unit_scenario(u_value=np.nan))
    with pytest.raises(ConfigError):
        simulate_ct_reference(lag_model(), cfg, unit_scenario(x0=(np.inf,)))


def test_every_engine_reports_a_wrong_width_or_length_alike():
    model, cfg = msd_model(), DiscretizationConfig(0.1)
    one = [SignalSpec.constant(1.0)]
    wide = Scenario(p=one * 2, u=one, x0=[0.0, 0.0], t_end=0.3)
    long_x0 = Scenario(p=one, u=one, x0=[0.0] * 3, t_end=0.3)
    for scen, message in ((wide, "scheduling width 2 != n_p 1"),
                          (long_x0, "x0 has 3 entries, model needs 2")):
        traj = sample_scenario(scen, cfg)
        runs = [lambda: simulate_ct_reference(model, cfg, scen, oversample=2)]
        runs += [lambda e=e: e(model, cfg, traj, scen.x0)
                 for e in (simulate_dt, simulate_dt_loop_oracle)]
        for run in runs:
            with pytest.raises(DimensionError) as exc:
                run()
            assert str(exc.value) == message
    with pytest.raises(DimensionError, match="^u0 has 2 entries, model needs 1$"):
        sigma_initial_state(model, cfg, [1.0], [0.0, 0.0], [0.0, 0.0])


@settings(max_examples=40, deadline=None)
@given(
    n_x0=st.integers(0, 4), n_u0=st.integers(0, 4),
    n_p=st.integers(0, 3), n_u=st.integers(0, 3),
)
# both ended in numpy's ValueError before every run had one input guard: a
# scenario without u channels ("need at least one array to concatenate")
# and an x0 too long for msd ("cannot reshape array of size 3 into shape (2,)")
@example(n_x0=2, n_u0=1, n_p=1, n_u=0)
@example(n_x0=3, n_u0=1, n_p=1, n_u=1)
def test_the_library_boundary_raises_only_lpv_errors(n_x0, n_u0, n_p, n_u):
    model, cfg = msd_model(), DiscretizationConfig(0.1)
    x0, u0 = np.zeros(n_x0), np.zeros(n_u0)
    traj = Trajectory(ts=0.1, p=np.ones((4, n_p)), u=np.ones((4, n_u)))

    def scenario():
        return Scenario(p=[SignalSpec.constant(1.0)] * n_p,
                        u=[SignalSpec.constant(1.0)] * n_u, x0=x0, t_end=0.3)

    calls = [
        lambda: sample_scenario(scenario(), cfg),
        lambda: simulate_dt(model, cfg, traj, x0),
        lambda: simulate_dt_loop_oracle(model, cfg, traj, x0),
        lambda: simulate_ct_reference(model, cfg, scenario(), oversample=2),
        lambda: sigma_initial_state(model, cfg, np.ones(n_p), u0, x0),
        lambda: convergence_order(model, scenario(), [0.1, 0.05, 0.025], oversample=2),
    ]
    for call in calls:
        try:
            call()
        except LpvError:
            pass


def test_ct_reference_raises_on_a_diverging_run():
    model, ts, _ = _DIVERGING[1]
    with pytest.raises(NonFiniteError) as exc:
        simulate_ct_reference(
            model, DiscretizationConfig(ts), unit_scenario(t_end=100.0), oversample=4
        )
    assert 0 < exc.value.step_index < 1001


def test_ct_reference_names_the_earliest_stage_time_outside_the_box():
    # p spikes out of [-1, 1] between the samples at 0.75 and 0.8, inside
    # the second window of fine substeps (h = 0.0025, so substeps 256..511
    # cover [0.64, 1.28)).  The spike is above 1 on (0.7635, 0.7655): it
    # holds the midpoint t_611 = 0.76375 of substep 305 and the start
    # t_612 = 0.765 of substep 306, and the earlier midpoint is named
    cfg, oversample = DiscretizationConfig(0.05), 20
    table = np.array(
        [[0.0, 0.0], [0.763, 0.0], [0.7645, 3.0], [0.766, 0.0], [2.0, 0.0]]
    )
    spike = SignalSpec.csv_column("spike.csv", 1, table=table)
    scen = Scenario(p=[spike], u=[SignalSpec.constant(1.0)], x0=[0.0], t_end=2.0)
    assert np.all(np.abs(sample_scenario(scen, cfg).p) <= 1.0)
    half = 0.5 * (cfg.ts / oversample)
    t = 611 * half
    p = float(generate_signal(spike, [t])[0])
    assert 1.0 < p < generate_signal(spike, [612 * half])[0]
    with pytest.raises(DomainError) as exc:
        simulate_ct_reference(integrator_model(), cfg, scen, oversample)
    assert str(exc.value) == f"scheduling point [{p}] at t = {t} outside the box"


def test_ct_reference_rejects_a_non_finite_u_between_samples():
    # np.interp keeps the samples at t = 0 and 0.05 at 1e308 around the
    # spike row, and the gain overflows only between them, so only the check
    # at the RK4 stage times can see it.  A table with a non-finite value is
    # refused when the spec is built, so the spike is finite
    cfg, oversample = DiscretizationConfig(0.05), 20
    table = np.column_stack([np.arange(11) * 0.01, np.ones(11)])
    table[2, 1] = 10.0
    spec = SignalSpec.csv_column("u_spike.csv", 1, amplitude=1e308, table=table)
    scen = Scenario(p=[SignalSpec.constant(0.0)], u=[spec], x0=[0.0], t_end=0.1)
    assert np.all(np.isfinite(sample_scenario(scen, cfg).u))
    grid = np.arange(2 * 2 * oversample + 1) * (0.5 * cfg.ts / oversample)
    j = int(np.argmax(~np.isfinite(generate_signal(spec, grid))))
    assert 0.01 <= grid[j] < 0.02
    with pytest.raises(DataError) as exc:
        simulate_ct_reference(lag_model(), cfg, scen, oversample)
    assert str(exc.value) == f"input [inf] at t = {float(grid[j])} is not finite"


def test_ct_reference_memory_is_bounded_by_the_window():
    # stage samples and substep maps exist one window at a time, so a run
    # ten times longer costs only its longer output arrays
    model, cfg = msd_model(), DiscretizationConfig(0.05)

    def peak_and_outputs(n_fine):
        scen = Scenario(
            p=[SignalSpec.sine(amplitude=1.5, f=0.3, offset=2.0)],
            u=[SignalSpec.sine(f=0.7)],
            x0=[0.1, 0.0],
            t_end=n_fine / 20 * cfg.ts,
        )
        tracemalloc.start()
        try:
            out = simulate_ct_reference(model, cfg, scen, oversample=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (out.n_steps - 1) * 20 == n_fine
        return peak, sum(a.nbytes for a in (out.p, out.u, out.y, out.x))

    peak_and_outputs(800)  # first-call allocations are not the run's
    short, long_ = peak_and_outputs(8_000), peak_and_outputs(80_000)
    assert long_[0] - short[0] <= long_[1] - short[1] + 64 * 1024


@pytest.mark.parametrize("n_x", [1, 2, 4, 8, 16, 64])
@pytest.mark.parametrize("n_u", [1, 2])
def test_ct_reference_window_peak_is_within_the_budget(n_x, n_u):
    # a run of one window of W substeps and two samples: its peak is the
    # window's, whose stacks _rk4_window counts against the byte budget
    rng = np.random.default_rng(n_x)
    model = random_time_varying_model(rng, n_x, n_u)
    window, cfg = _rk4_window(model), DiscretizationConfig(0.1)
    scen = Scenario(
        p=[SignalSpec.sine(amplitude=0.9, f=f, phase=ph)
           for f, ph in rng.uniform(0.1, 2.0, (2, 2))],
        u=[SignalSpec.sine(f=f) for f in rng.uniform(0.1, 2.0, n_u)],
        x0=rng.uniform(-1, 1, n_x),
        t_end=cfg.ts,
    )
    simulate_ct_reference(model, cfg, scen, oversample=window)  # first-call allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = simulate_ct_reference(model, cfg, scen, oversample=window)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out.n_steps == 2
    assert peak <= 1.05 * _RK4_BUDGET, (window, peak)


def test_ct_reference_steps_one_substep_per_window_at_n_x_64():
    rng = np.random.default_rng(64)
    model = random_time_varying_model(rng, 64, 2)
    assert _rk4_window(model) == 1
    cfg = DiscretizationConfig(0.1)
    scen = Scenario(
        p=[SignalSpec.sine(amplitude=0.9, f=f, phase=ph)
           for f, ph in rng.uniform(0.1, 2.0, (2, 2))],
        u=[SignalSpec.sine(f=f) for f in rng.uniform(0.1, 2.0, 2)],
        x0=rng.uniform(-1, 1, 64),
        t_end=0.4,
    )
    got = simulate_ct_reference(model, cfg, scen, oversample=3).x
    want = rk4_stagewise_oracle(model, cfg, scen, 3)
    assert got.shape == (5, 64)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_ct_reference_window_is_the_same_for_every_ts_and_oversample(monkeypatch):
    # the scan sees every window's maps: each but a run's last has W rows,
    # whatever the grid, so a substep's window depends on its index alone
    rng = np.random.default_rng(7)
    model = random_time_varying_model(rng, 4, 1)
    window = _rk4_window(model)
    lengths = []

    def scan(G):
        lengths.append(len(G))
        _scan(G)

    monkeypatch.setattr(simulate, "_scan", scan)
    for ts, oversample in ((0.1, 1), (0.05, 7), (0.2, 20), (0.1, window + 3)):
        scen = Scenario(
            p=[SignalSpec.sine(amplitude=0.9, f=0.3), SignalSpec.sine(amplitude=0.5, f=0.2)],
            u=[SignalSpec.sine(f=0.7)],
            x0=rng.uniform(-1, 1, 4),
            t_end=ts * -(-(2 * window + 1) // oversample),
        )
        lengths.clear()
        out = simulate_ct_reference(model, DiscretizationConfig(ts), scen, oversample)
        assert lengths[:-1] == [window] * (len(lengths) - 1), (ts, oversample)
        assert 0 < lengths[-1] <= window
        assert sum(lengths) == (out.n_steps - 1) * oversample > 2 * window
    # simulate_dt scans its steps in windows of its own fixed length
    window, n = _dt_window(model), 2 * _dt_window(model) + 5
    lengths.clear()
    simulate_dt(model, DiscretizationConfig(0.1),
                Trajectory(ts=0.1, p=rng.uniform(-0.9, 0.9, (n, 2)), u=np.ones((n, 1))),
                np.zeros(4))
    assert lengths == [window, window, 5]


# --- CSV round trip ---------------------------------------------------------


def test_write_trajectory_csv_layout():
    cfg = DiscretizationConfig(0.5)
    traj = sample_scenario(unit_scenario(), cfg)
    out = simulate_dt(integrator_model(), cfg, traj, [0.0])
    text = write_trajectory_csv(out)
    lines = text.strip().split("\n")
    assert lines[0] == "k,t,y1"
    assert lines[1] == "0,0.0,0.0"
    assert lines[2] == "1,0.5,0.5"
    assert len(lines) == 6


def test_write_trajectory_csv_with_state_columns():
    cfg = DiscretizationConfig(0.5)
    traj = sample_scenario(unit_scenario(), cfg)
    out = simulate_dt(integrator_model(), cfg, traj, [0.0])
    text = write_trajectory_csv(out, include_state=True)
    assert text.startswith("k,t,y1,x1,xi1\n")
    out2 = simulate_ct_reference(integrator_model(), cfg, unit_scenario(), oversample=2)
    with pytest.raises(DataError):
        write_trajectory_csv(out2, include_state=True)


def test_state_columns_name_the_channel_a_trajectory_lacks():
    cfg = DiscretizationConfig(0.5)
    ref = simulate_ct_reference(integrator_model(), cfg, unit_scenario(), oversample=2)
    outputs_only = Trajectory(ts=0.5, p=ref.p, u=ref.u, y=ref.y)
    for traj, name in ((outputs_only, "x"), (ref, "xi")):
        with pytest.raises(DataError) as exc:
            write_trajectory_csv(traj, include_state=True)
        assert str(exc.value) == f"trajectory has no {name!r} channel"


def test_write_trajectory_values_round_trip_through_repr():
    rng = np.random.default_rng(9)
    model = random_lpv_model(rng, ts=0.25)
    cfg = DiscretizationConfig(0.25)
    n = 8
    traj = Trajectory(
        ts=0.25,
        p=inbox_p_trajectory(rng, model, n, 0.25),
        u=rng.uniform(-1, 1, (n, model.n_u)),
    )
    out = simulate_dt(model, cfg, traj, np.zeros(model.n_x))
    lines = write_trajectory_csv(out).strip().split("\n")
    for k, line in enumerate(lines[1:]):
        cells = line.split(",")
        got = np.array([float(c) for c in cells[2:]])
        assert np.array_equal(got, out.y[k])


def test_write_trajectory_csv_is_the_joined_lines_plus_a_newline():
    rng = np.random.default_rng(12)
    model = random_lpv_model(rng, ts=0.25)
    traj = Trajectory(
        ts=0.25,
        p=inbox_p_trajectory(rng, model, 6, 0.25),
        u=rng.uniform(-1, 1, (6, model.n_u)),
    )
    out = simulate_dt(model, DiscretizationConfig(0.25), traj, np.zeros(model.n_x))
    for include_state in (False, True):
        blocks = [out.y, out.x, out.xi] if include_state else [out.y]
        header = ["k", "t"] + [
            f"{name}{i + 1}"
            for name, b in zip(("y", "x", "xi"), blocks)
            for i in range(b.shape[1])
        ]
        lines = [",".join(header)] + [
            ",".join(map(repr, [k, t, *np.concatenate([b[k] for b in blocks]).tolist()]))
            for k, t in enumerate(out.times().tolist())
        ]
        assert write_trajectory_csv(out, include_state) == "\n".join(lines) + "\n"


#: texts whose rows csv.reader reads from io.StringIO in some special way
_CSV_EDGE_TEXTS = [
    "", "\n", "\x0c", " ", "\r\n", "\r",
    "k,t\r\n0,0.0\r\n",              # CRLF
    "k,t\r0,0.0\n",                  # a lone CR: a csv.Error
    "k,t\n0,0.0\r",                  # a lone CR at the end
    'k,"t\n1",u\n0,"a\r\nb"\r\n',    # quoted newlines
    "k,t\n0,0.0",                    # no final newline
    'k,"t\n', 'k,"t',                # an unterminated quote
    "\n\n k \n\n",
    "a,b\n\x0c\nc\u2028d,e\x1c\n",     # not line ends for io.StringIO
    '"x""y",z\r\n',
    "x," + "1" * 140_000 + "\n",      # over the field limit: a csv.Error
    " ,1\n", " , \n", ",,\n",          # one non-blank cell keeps a row
    " ,1\n , \n\n,,\n0,0.0,1.0,2.0\n",
]


@pytest.mark.parametrize("text", _CSV_EDGE_TEXTS, ids=lambda text: repr(text[:12]))
def test_csv_rows_are_the_rows_read_from_a_string_buffer(text):
    try:
        want = [r for r in csv.reader(io.StringIO(text)) if "".join(r).strip()]
    except csv.Error as exc:
        with pytest.raises(DataError) as got:
            _csv_rows(text, "table")
        assert str(got.value) == f"table: {exc}"
    else:
        assert _csv_rows(text, "table") == want


def test_read_trajectory_csv_happy_path():
    text = "k,t,p1,u1\n0,0.0,1.0,0.5\n1,0.25,2.0,-0.5\n"
    traj = read_trajectory_csv(text, ts=0.25)
    assert traj.n_steps == 2
    assert np.array_equal(traj.p, [[1.0], [2.0]])
    assert np.array_equal(traj.u, [[0.5], [-0.5]])


def test_read_trajectory_csv_multichannel_order():
    text = "k,t,p1,p2,u1\n0,0.0,1.0,2.0,3.0\n"
    traj = read_trajectory_csv(text, ts=0.1)
    assert np.array_equal(traj.p, [[1.0, 2.0]])
    assert np.array_equal(traj.u, [[3.0]])


def test_read_trajectory_csv_rejects_malformed_tables():
    with pytest.raises(DataError):
        read_trajectory_csv("", ts=0.1)
    with pytest.raises(DataError):
        read_trajectory_csv("k,t,p1,u1\n", ts=0.1)  # header only
    with pytest.raises(DataError):
        read_trajectory_csv("k,t,u1,p1\n0,0.0,1.0,1.0\n", ts=0.1)  # order
    with pytest.raises(DataError):
        read_trajectory_csv("k,t,p1\n0,0.0,1.0\n", ts=0.1)  # no u
    with pytest.raises(DataError):
        read_trajectory_csv("k,t,p1,u1\n0,0.0,1.0\n", ts=0.1)  # ragged
    with pytest.raises(DataError):
        read_trajectory_csv("k,t,p1,u1\n0,0.0,oops,1.0\n", ts=0.1)  # non-numeric
    with pytest.raises(DataError):
        read_trajectory_csv("k,t,p1,u1\n1,0.1,1.0,1.0\n", ts=0.1)  # k gap
    with pytest.raises(DataError):
        read_trajectory_csv("k,t,p1,u1\n0,0.5,1.0,1.0\n", ts=0.1)  # t off grid


_TABLE_HEAD = "k,t,p1,u1\n0,0.0,1.0,2.0\n"


@pytest.mark.parametrize("rows, message", [
    ("1,0.1,1.0\n", "row 1 has 3 cells, expected 4"),
    ("1,0.1,oops,2.0\n", "row 1: could not convert string to float: 'oops'"),
    ("1.0,0.1,1.0,2.0\n", "row 1: invalid literal for int() with base 10: '1.0'"),
    ("2,0.2,1.0,2.0\n", "row 1 has k = 2, expected 1"),
    ("1,0.15,1.0,2.0\n",
     "row 1 has t = 0.15, expected k*ts = 0.1 (ts = 0.1)"),
])
def test_read_trajectory_csv_fault_messages(rows, message):
    with pytest.raises(DataError) as exc:
        read_trajectory_csv(_TABLE_HEAD + rows, ts=0.1)
    assert str(exc.value) == message


@pytest.mark.parametrize("rows, message", [
    # the earlier row's fault wins, whichever kind is checked first
    ("1,0.15,1.0,2.0\n2,0.2,1.0\n",
     "row 1 has t = 0.15, expected k*ts = 0.1 (ts = 0.1)"),
    ("1,0.1,1.0\n2,0.25,1.0,2.0\n", "row 1 has 3 cells, expected 4"),
    ("3,0.1,1.0,2.0\n2,0.2,x,2.0\n", "row 1 has k = 3, expected 1"),
    ("1,0.1,1.0,y\n5,0.2,1.0,2.0,9\n",
     "row 1: could not convert string to float: 'y'"),
])
def test_read_trajectory_csv_names_the_earliest_fault(rows, message):
    with pytest.raises(DataError) as exc:
        read_trajectory_csv(_TABLE_HEAD + rows, ts=0.1)
    assert str(exc.value) == message


def test_read_trajectory_csv_skips_only_blank_rows():
    text = "k,t,p1,u1\n , \n0,0.0,1.0,2.0\n\t\n\n1,0.1,1.5,2.5\n \t, ,\n"
    traj = read_trajectory_csv(text, ts=0.1)
    assert np.array_equal(traj.p, [[1.0], [1.5]])
    assert np.array_equal(traj.u, [[2.0], [2.5]])
    # one non-blank cell keeps the row, which is then parsed as row 1
    with pytest.raises(DataError) as exc:
        read_trajectory_csv(_TABLE_HEAD + " , ,3, \n", ts=0.1)
    assert str(exc.value) == "row 1: invalid literal for int() with base 10: ' '"


@pytest.mark.parametrize("quote", ["", '"'])
def test_table_rows_keep_a_row_with_one_non_blank_cell(quote):
    # csv.reader reads a blank line as [] and a line of commas as ["", ...]
    text = f"{quote} {quote},1\n , \n\n,,\n"
    assert _csv_rows(text, "table") == [[" ", "1"]]


def test_read_write_pair_is_consistent():
    # a table written by hand at ts = 0.5 feeds the engine and the result
    # serializes with matching k and t columns
    text = "k,t,p1,u1\n0,0.0,0.0,1.0\n1,0.5,0.0,1.0\n2,1.0,0.0,1.0\n"
    traj = read_trajectory_csv(text, ts=0.5)
    out = simulate_dt(integrator_model(), DiscretizationConfig(0.5), traj, [0.0])
    lines = write_trajectory_csv(out).strip().split("\n")
    assert [ln.split(",")[0] for ln in lines[1:]] == ["0", "1", "2"]
    assert [ln.split(",")[1] for ln in lines[1:]] == ["0.0", "0.5", "1.0"]


@pytest.mark.parametrize("t", ["nan", "-nan", "NaN"])
def test_read_trajectory_csv_rejects_a_nan_t(t):
    # |nan - k ts| > 1e-9 is false, so a NaN t once passed the time check
    with pytest.raises(DataError) as exc:
        read_trajectory_csv(_TABLE_HEAD + f"1,{t},1.0,2.0\n", ts=0.1)
    assert str(exc.value) == "row 1 has t = nan, expected k*ts = 0.1 (ts = 0.1)"


def read_trajectory_reference(text, ts):
    """(p, u) of a trajectory table as read by ``csv.reader`` over an
    ``io.StringIO`` of the text and parsed column by column, the way
    read_trajectory_csv read it before its split and flat pass: the same
    blank-row rule, header rule and checks, a NaN t rejected, and a fault
    named by the same row-by-row scan and messages."""
    try:
        rows = [r for r in csv.reader(io.StringIO(text)) if "".join(r).strip()]
    except csv.Error as exc:
        raise DataError(f"trajectory table: {exc}") from None
    if not rows:
        raise DataError("empty trajectory table")
    header = [h.strip() for h in rows[0]]
    n_pc = sum(1 for h in header if h.startswith("p") and h[1:].isdigit())
    n_uc = sum(1 for h in header if h.startswith("u") and h[1:].isdigit())
    expected = (
        ["k", "t"] + [f"p{i + 1}" for i in range(n_pc)] + [f"u{i + 1}" for i in range(n_uc)]
    )
    if n_pc == 0 or n_uc == 0 or header != expected:
        raise DataError(
            "trajectory header must be k,t,p1..pN,u1..uM in order, got " + ",".join(header)
        )
    body = rows[1:]
    if not body:
        raise DataError("trajectory table has a header but no rows")
    width, n = len(header), len(body)
    if set(map(len, body)) == {width}:
        cols = list(zip(*body))
        try:
            if list(map(int, cols[0])) == list(range(n)):
                data = np.array([[float(c) for c in col] for col in cols[1:]])
                if np.all(np.abs(data[0] - np.arange(n) * ts) <= 1e-9):
                    return data[1:1 + n_pc].T, data[1 + n_pc:].T
        except ValueError:
            pass
    for j, row in enumerate(body):
        if len(row) != width:
            raise DataError(f"row {j} has {len(row)} cells, expected {width}")
        try:
            k = int(row[0])
            t = float(row[1])
            for cell in row[2:]:
                float(cell)
        except ValueError as exc:
            raise DataError(f"row {j}: {exc}") from None
        if k != j:
            raise DataError(f"row {j} has k = {k}, expected {j}")
        if not abs(t - j * ts) <= 1e-9:
            raise DataError(f"row {j} has t = {t}, expected k*ts = {j * ts} (ts = {ts})")
    raise AssertionError("the column checks failed on a table without a bad row")


def _read_outcome(read, text, ts):
    """The bits of p and u, or the DataError text."""
    try:
        p, u = read(text, ts)
    except DataError as exc:
        return str(exc)
    return [(a.shape, np.ascontiguousarray(a).view(np.int64).tolist()) for a in (p, u)]


def _read_trajectory(text, ts):
    traj = read_trajectory_csv(text, ts)
    return traj.p, traj.u


#: a cell at the csv module's field limit (131072 characters) and one over it
_LONG_CELLS = ["1" * 131_072, "2" * 131_073]
_ODD_CELLS = [
    "nan", "-nan", "inf", "-inf", "-0.0", "1_0", " 2.5", "2.5 ", "+3", "1e400",
    "1.0", "", " ", "oops", "0x1", "1.0.0", "\t4", "\x0c", " ",
]
_BLANK_LINES = ["", " ", " , ", "\t", ",,", "\x0c", " ,\t, "]


def _one_in(draw, n):
    """True about one time in n; never when n is 0."""
    return n > 0 and draw(st.integers(0, n - 1)) == 0


@st.composite
def trajectory_texts(draw):
    """Trajectory tables near and across every rule of the reader: quoted
    cells, CRLF and lone CR line ends, blank and whitespace rows, ragged
    rows, odd numbers and bad k and t cells, and now and then a cell at or
    over the csv field limit.  Each table draws how often it breaks a rule,
    so that about half of them are valid."""
    ts = draw(st.sampled_from([0.1, 0.25, 0.05]))
    n_p, n_u = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    header = ["k", "t"] + [f"p{i + 1}" for i in range(n_p)] + [f"u{i + 1}" for i in range(n_u)]
    if _one_in(draw, 10):
        header = draw(st.permutations(header))
    odd, ragged, blank, quoted = (draw(st.sampled_from(rates)) for rates in (
        [0, 0, 60, 10], [0, 0, 0, 10], [0, 10, 3], [0, 10, 3],
    ))
    rows = [header]
    for k in range(draw(st.integers(0, 6))):
        row = [repr(k), repr(k * ts)] + [
            repr(draw(st.floats(width=64))) for _ in range(n_p + n_u)
        ]
        for j in range(len(row)):
            if _one_in(draw, odd):
                row[j] = draw(st.sampled_from(_ODD_CELLS))
        if _one_in(draw, 60):
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(_LONG_CELLS))
        if _one_in(draw, ragged):
            row = row[:-1] if draw(st.booleans()) else row + ["0.5"]
        rows.append(row)
    lines = []
    for row in rows:
        if _one_in(draw, blank):
            lines.append(draw(st.sampled_from(_BLANK_LINES)))
        cells = [
            '"' + cell.replace('"', '""') + '"' if _one_in(draw, quoted) else cell
            for cell in row
        ]
        lines.append(",".join(cells))
    ends = draw(st.sampled_from([["\n"], ["\r\n"], ["\n", "\r\n"], ["\n", "\r\n", "\r"]]))
    ends = [draw(st.sampled_from(ends)) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends)), ts


#: block sizes of the reader's split: a line per block, blocks cut inside
#: the header or a row, and the default, one block for these short tables
_READ_BLOCKS = [1, 7, 64, simulate._READ_BLOCK]


def assert_reads_as_the_reference(text, ts, read_block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_READ_BLOCK", read_block)
        try:
            want_rows = [r for r in csv.reader(io.StringIO(text)) if "".join(r).strip()]
        except csv.Error as exc:
            with pytest.raises(DataError) as got:
                _csv_rows(text, "table")
            assert str(got.value) == f"table: {exc}"
        else:
            assert _csv_rows(text, "table") == want_rows
        got = _read_outcome(_read_trajectory, text, ts)
        assert got == _read_outcome(read_trajectory_reference, text, ts)


@pytest.mark.parametrize("read_block", _READ_BLOCKS)
@settings(max_examples=300, deadline=None)
@given(trajectory_texts())
def test_read_trajectory_csv_matches_the_csv_module_reference(read_block, table):
    assert_reads_as_the_reference(*table, read_block)


@pytest.mark.parametrize("read_block", _READ_BLOCKS)
@pytest.mark.parametrize("text", _CSV_EDGE_TEXTS, ids=lambda text: repr(text[:12]))
@pytest.mark.parametrize("head", ["", _TABLE_HEAD])
def test_read_trajectory_csv_matches_the_reference_on_edge_texts(head, text, read_block):
    assert_reads_as_the_reference(head + text, 0.1, read_block)


def test_read_trajectory_csv_memory_is_bounded_by_its_block():
    # only one block's cells exist at a time: the peak is the parsed values
    # and one block, not a str per cell of the table (695 bytes per row)
    rng = np.random.default_rng(20)
    n = 20_000
    rows = ["k,t,p1,p2,u1,u2"] + [
        ",".join(map(repr, [k, k * 0.05, *values]))
        for k, values in enumerate(rng.uniform(-1, 1, (n, 4)).tolist())
    ]
    text = "\n".join(rows) + "\n"
    del rows
    read_trajectory_csv(text, 0.05)  # first-call allocations
    tracemalloc.start()
    try:
        read_trajectory_csv(text, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 250 * n


def _spy_on_the_row_pass(monkeypatch):
    """The ``first`` row of each call of the reader's row-by-row pass, in a
    list that fills as the reader calls it."""
    calls, row_values = [], simulate._row_values

    def spy(rows, width, ts, first):
        calls.append(first)
        return row_values(rows, width, ts, first)

    monkeypatch.setattr(simulate, "_row_values", spy)
    return calls


@pytest.mark.parametrize("workload", ["scheduled", "piecewise"])
def test_benchmark_tables_are_read_by_numpys_c_reader(perfbench, tmp_path, monkeypatch, workload):
    # every seed 1-3 table, and one with empty lines, which numpy skips as
    # the split does: each block is parsed by np.loadtxt alone, with the
    # csv-module reference's bits
    gen = perfbench[0]
    calls = _spy_on_the_row_pass(monkeypatch)
    texts = [
        pathlib.Path(job["traj_path"]).read_text()
        for seed in (1, 2, 3) for job in gen.generate(workload, seed, tmp_path / str(seed)).jobs
    ]
    texts.append(texts[0].replace("\n5,", "\n\n\n5,"))
    for text in texts:
        got = _read_outcome(_read_trajectory, text, gen.SIM_TS)
        assert got == _read_outcome(read_trajectory_reference, text, gen.SIM_TS)
        assert got[0][0][0] == gen.SIM_SAMPLES  # the rows of p
    assert len(texts) == 25 and calls == []


@pytest.mark.parametrize("rows", [
    "1,0.1,1.0,2.0\n , \n2,0.2,1.5,2.5\n",  # a blank row of whitespace cells
    "1,0.1,1_0,2.0\n",  # 10.0 to float, not to numpy
    "1.0,0.1,1.0,2.0\n",  # 1.0 as k
    '1,0.1,"1.5",2.0\n',  # a quoted cell: read by csv.reader
    "1,0.1,1.0,2.0\r\n",  # a CR: read by csv.reader
    "1,0.1,1.0\n",  # ragged
    "1,0.1,\u0661,2.0\n",  # a non-ASCII digit, 1.0 to float
    "\u01fe1,0.1,1.0,2.0\n",  # a letter numpy's int parser reads as digits
    "1,0.1,\x1c1.0,2.0\n",  # a separator numpy skips as whitespace
])
def test_text_the_c_reader_refuses_is_read_row_by_row(monkeypatch, rows):
    calls = _spy_on_the_row_pass(monkeypatch)
    text = _TABLE_HEAD + rows
    got = _read_outcome(_read_trajectory, text, 0.1)
    assert got == _read_outcome(read_trajectory_reference, text, 0.1)
    assert calls == [0]


def test_render_csv_writes_each_value_as_its_repr():
    table = np.array([
        [0.0, -0.0, np.nan, np.inf, -np.inf],
        [2.0**53, 1e-300, 1e22, 0.1 + 0.2, 5e-324],
    ])
    header = ["a", "b", "c", "d", "e"]
    for numbered in (False, True):
        want = [",".join((["k"] if numbered else []) + header)] + [
            ",".join([str(k)] * numbered + list(map(repr, row)))
            for k, row in enumerate(table.tolist())
        ]
        got = _render_csv(
            want[0].split(","), [table[:, 0], table[:, 1:2], table[:, 2:]], numbered
        )
        assert got == "\n".join(want) + "\n"


def test_render_csv_frees_the_stacked_table_before_the_join():
    # the peak is the lines and the joined text; the stacked copy of the
    # columns (2000 x 9 floats, 141 KiB) must be gone by then
    rng = np.random.default_rng(3)
    omegas, parts = np.arange(1.0, 2001.0), rng.standard_normal((2000, 8))
    header = ["w"] + [f"c{i}" for i in range(8)]
    text = _render_csv(header, [omegas, parts])
    lines = text.split("\n")
    held = sum(map(sys.getsizeof, lines)) + sys.getsizeof(lines) + sys.getsizeof(text)
    tracemalloc.start()
    try:
        _render_csv(header, [omegas, parts])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < held + parts.nbytes / 2


def matrix_rows(monkeypatch, model):
    """Record, per matrix of ``model``, the rows of each stack of points at
    which the engines evaluate it."""
    rows, original = [], simulate.eval_pmatrix_many
    names = {id(getattr(model, k)): k for k in "ABCD"}

    def counting(f, points):
        rows.append((names[id(f)], len(points)))
        return original(f, points)

    monkeypatch.setattr(simulate, "eval_pmatrix_many", counting)
    return rows


def moving_io_model(rng):
    """n_x = 2, n_u = 2, n_y = 3 model whose A, B, C and D all move with a
    2-D scheduling vector on [-1, 1]^2."""
    def affine(const, scale=1.0):
        return PMatrixFunction.affine(
            const, [scale * rng.uniform(-1, 1, const.shape) for _ in range(2)])

    return LpvStateSpace(
        n_x=2, n_u=2, n_y=3, n_p=2, A=affine(-1.5 * np.eye(2), 0.4),
        B=affine(rng.uniform(-1, 1, (2, 2))),
        C=affine(rng.uniform(-1, 1, (3, 2))),
        D=affine(rng.uniform(-1, 1, (3, 2))),
        domain=SchedulingDomain([-1.0, -1.0], [1.0, 1.0]),
    )


@pytest.mark.parametrize("p, runs", [
    (piecewise_p([[2.0], [7.5], [0.25]], [4, 5, 3]), 3),
    (np.linspace(0.0, 10.0, 12)[:, None], 12),
    # a -0.0 after a 0.0 starts a run of A
    (np.array([[0.0], [-0.0], [-0.0], [0.0]]), 3),
])
def test_a_is_evaluated_once_per_run_and_b_c_and_d_at_every_step(monkeypatch, p, runs):
    model = scalar_gain_model(-1.0, hi=40.0)
    cfg = DiscretizationConfig(0.1)
    traj = Trajectory(ts=0.1, p=p, u=np.ones((len(p), 1)))
    rows = matrix_rows(monkeypatch, model)
    simulate_dt(model, cfg, traj, [0.5])
    assert sorted(rows) == [("A", runs), ("B", len(p)), ("C", len(p)), ("D", len(p))]
    rows.clear()
    # the oracle evaluates all four at every step
    simulate_dt_loop_oracle(model, cfg, traj, [0.5])
    assert sorted(rows) == [("A", len(p)), ("B", len(p)), ("C", len(p)), ("D", len(p))]


@pytest.mark.parametrize("engine", [simulate_dt, simulate_dt_loop_oracle])
def test_gathered_b_c_and_d_give_the_bits_of_every_step(monkeypatch, engine):
    # y = C(p) x + D(p) u, and simulate_dt's B u, on a piecewise p equal
    # those of the whole per-step stacks
    rng = np.random.default_rng(28)
    model = moving_io_model(rng)
    levels = rng.uniform(-0.9, 0.9, (5, 2))
    levels[2, 0] = levels[1, 0]  # one channel holds
    p = piecewise_p(levels, [40, 1, 23, 30, 7])
    u = rng.uniform(-1, 1, (len(p), 2))
    cfg = DiscretizationConfig(0.05)
    traj = Trajectory(ts=0.05, p=p, u=u)
    if engine is simulate_dt:
        Bu, _ = captured_blocks(monkeypatch, model, cfg, traj, [0.3, -0.2])
        want = np.einsum("kij,kj->ki", eval_pmatrix_many(model.B, p), u)
        assert np.array_equal(Bu[:, :, 0], want)
    out = engine(model, cfg, traj, [0.3, -0.2])
    y = np.einsum("kij,kj->ki", eval_pmatrix_many(model.C, p), out.x)
    y += np.einsum("kij,kj->ki", eval_pmatrix_many(model.D, p), u)
    assert np.array_equal(out.y, y)


def test_the_private_lapack_bindings_keep_their_gufunc_signatures():
    # the oracle calls this gufunc of numpy.linalg._umath_linalg with out=
    # and signature= in place of np.linalg.solve
    assert simulate._solve1.signature == "(m,m),(m)->(m)"
    assert "dd->d" in simulate._solve1.types
    rng = np.random.default_rng(5)
    M = rng.uniform(-1, 1, (6, 3, 3)) + 2.0 * np.eye(3)
    b = rng.uniform(-1, 1, (6, 3))
    x = np.empty_like(b)
    simulate._solve1(M, b, out=x, signature="dd->d")
    assert np.array_equal(x, [np.linalg.solve(M_k, b_k) for M_k, b_k in zip(M, b)])
