"""Frequency-domain identities, comparison metrics, and the Ts sweep."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    constant_model,
    integrator_model,
    lag_model,
    loop_condition,
    msd_model,
    random_affine_model,
)
from lpvsim.analyze import (
    ComparisonMetrics,
    ConvergenceStudy,
    FrequencyResponse,
    _response,
    compare_traj,
    convergence_order,
    freqresp_ct,
    freqresp_dt,
    frequency_response_csv,
    log_frequency_grid,
    render_convergence_report,
    warping_residual,
)
from lpvsim.cli import _json_text
from lpvsim.discretize import (
    DiscretizationConfig,
    StepMatrices,
    dt_step_matrices,
    sigma_step,
    tustin_frozen,
)
from lpvsim.errors import ConfigError, DataError, DimensionError, DomainError
from lpvsim.simulate import (
    Scenario,
    SignalSpec,
    sample_scenario,
    simulate_ct_reference,
    simulate_dt,
)


def euler_step_matrices(model, p, ts):
    """Forward-Euler blocks, the negative control for the warping identity."""
    A, B, C, D = model.matrices_at(p)
    n = A.shape[0]
    return StepMatrices(
        Axi=np.eye(n) + A * ts, Bxi=B * ts, Cxi=C, Dxi=D,
        Xxi=np.eye(n), Xu=np.zeros_like(B),
    )


# --- grids and containers ----------------------------------------------------


def test_frequency_grid_shape_and_ceiling():
    cfg = DiscretizationConfig(0.1)
    grid = log_frequency_grid(cfg)
    assert grid.size == 200
    assert_allclose(grid[-1], 0.9 * np.pi / 0.1, rtol=1e-12)
    assert grid[0] > 0 and np.all(np.diff(grid) > 0)
    with pytest.raises(ConfigError):
        log_frequency_grid(cfg, decades=0)


def test_log_grid_rejects_rounding_to_no_points():
    cfg = DiscretizationConfig(0.1)
    with pytest.raises(ConfigError):
        log_frequency_grid(cfg, decades=0.001, points_per_decade=1)
    assert log_frequency_grid(cfg, decades=0.6, points_per_decade=1).size == 1


def test_one_point_log_grid_is_the_top_frequency():
    cfg = DiscretizationConfig(0.1)
    grid = log_frequency_grid(cfg, decades=0.6, points_per_decade=1)
    assert grid.tolist() == [0.9 * np.pi / 0.1]
    # grids of two or more points still span the band up to the top
    grid = log_frequency_grid(cfg, decades=1.5, points_per_decade=2)
    assert grid.size == 3
    assert np.array_equal(grid, np.logspace(np.log10(0.9 * np.pi / 0.1) - 1.5,
                                            np.log10(0.9 * np.pi / 0.1), 3))


@pytest.mark.parametrize("decades, points_per_decade", [(330, 1), (400, 3), (322.5, 1000)])
def test_log_grid_refuses_a_bottom_past_the_float_range(decades, points_per_decade):
    # the bottom underflows to 0, or neighbouring subnormals merge
    with pytest.raises(ConfigError) as exc:
        log_frequency_grid(DiscretizationConfig(0.1), decades, points_per_decade)
    assert str(exc.value) == (
        f"grid of {decades:g} decades below 28.27 rad/s leaves the float range"
    )
    assert log_frequency_grid(DiscretizationConfig(0.1), 300, 1)[0] > 0.0


def test_frequency_response_container_validation():
    with pytest.raises(ConfigError):
        FrequencyResponse(omegas=[2.0, 1.0], values=np.zeros((2, 1, 1)))
    with pytest.raises(ConfigError):
        FrequencyResponse(omegas=[0.0, 1.0], values=np.zeros((2, 1, 1)))
    with pytest.raises(DimensionError):
        FrequencyResponse(omegas=[1.0], values=np.zeros((2, 1, 1)))


def test_frequency_responses_leave_the_callers_arrays_writeable():
    model, cfg = msd_model(), DiscretizationConfig(0.1)
    grid = log_frequency_grid(cfg)
    responses = [freqresp_ct(model, [1.0], grid),
                 freqresp_dt(dt_step_matrices(model, [1.0], cfg), cfg, grid)]
    omegas, values = np.array([1.0, 2.0]), np.zeros((2, 1, 1), dtype=complex)
    responses.append(FrequencyResponse(omegas, values))
    assert grid.flags.writeable and omegas.flags.writeable and values.flags.writeable
    for fr in responses:
        assert not fr.omegas.flags.writeable and not fr.values.flags.writeable
    assert np.array_equal(responses[0].omegas, grid)


# --- continuous-time responses ----------------------------------------------


def test_ct_response_first_order_lag():
    fr = freqresp_ct(lag_model(), [0.0], [1.0])
    assert_allclose(fr.values[0, 0, 0], 0.5 - 0.5j, rtol=0, atol=1e-14)
    assert_allclose(np.abs(fr.values)[0, 0, 0], 1.0 / np.sqrt(2.0), rtol=1e-10)


def test_ct_response_integrator():
    fr = freqresp_ct(integrator_model(), [0.0], [2.0])
    assert_allclose(fr.values[0, 0, 0], -0.5j, rtol=0, atol=1e-14)
    assert_allclose(np.abs(fr.values)[0, 0, 0], 0.5, rtol=1e-12)


def test_ct_response_feedthrough_only():
    model = constant_model([[-3.0]], [[0.0]], [[1.0]], [[2.5]])
    fr = freqresp_ct(model, [0.0], [0.1, 1.0, 10.0])
    assert_allclose(fr.values, np.full((3, 1, 1), 2.5 + 0.0j), rtol=0, atol=0)


def test_ct_response_reports_pole_frequency():
    # eigenvalues +-j collide with the grid point omega = 1
    model = constant_model(
        [[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]]
    )
    with pytest.raises(DomainError) as exc:
        freqresp_ct(model, [0.0], [1.0])
    assert "1.0" in str(exc.value)


def test_stacked_kernels_equal_per_frequency_solves():
    # the per-frequency loop the stacked kernel replaced, as the reference
    model = constant_model(
        [[-1.0, 2.0, 0.0], [-2.0, -0.5, 1.0], [0.0, -1.0, -3.0]],
        [[1.0, 0.0], [0.5, -1.0], [0.0, 2.0]],
        [[1.0, 0.0, -1.0], [0.0, 2.0, 0.5]],
        [[0.1, 0.0], [0.0, -0.2]],
    )
    cfg = DiscretizationConfig(0.1)
    grid = log_frequency_grid(cfg, decades=3, points_per_decade=7)
    A, B, C, D = model.matrices_at([0.0])
    ct = [C @ np.linalg.solve(1j * w * np.eye(3) - A, B.astype(complex)) + D for w in grid]
    assert_allclose(freqresp_ct(model, [0.0], grid).values, ct, rtol=0, atol=0)
    s = dt_step_matrices(model, [0.0], cfg)
    dt = [
        s.Cxi @ np.linalg.solve(np.exp(1j * w * cfg.ts) * np.eye(3) - s.Axi,
                                s.Bxi.astype(complex)) + s.Dxi
        for w in grid
    ]
    assert_allclose(freqresp_dt(s, cfg, grid).values, dt, rtol=0, atol=0)


def test_ct_response_names_the_singular_frequency_of_a_grid():
    # eigenvalues +-j: only the middle grid point omega = 1 is a pole
    model = constant_model(
        [[0.0, -1.0], [1.0, 0.0]], [[1.0], [0.0]], [[1.0, 0.0]], [[0.0]]
    )
    with pytest.raises(DomainError, match=r"omega = 1\.0 rad/s"):
        freqresp_ct(model, [0.0], [0.5, 1.0, 2.0])


def test_ct_response_rejects_point_outside_box():
    with pytest.raises(DomainError, match="outside the box"):
        freqresp_ct(msd_model(), [5.0], [1.0])
    with pytest.raises(DomainError):
        freqresp_ct(msd_model(), [np.nan], [1.0])


def test_ct_response_conjugate_symmetry():
    # real matrices force G(-jw) = conj(G(jw)); evaluated directly since the
    # public grid is positive-only
    model = msd_model()
    A, B, C, D = model.matrices_at([2.0])
    w = 0.7
    fr = freqresp_ct(model, [2.0], [w])
    direct = C @ np.linalg.solve(-1j * w * np.eye(2) - A, B) + D
    assert_allclose(direct, np.conj(fr.values[0]), rtol=0, atol=1e-14)


# --- discrete-time responses -------------------------------------------------


def test_dt_response_feedthrough_only():
    step = StepMatrices(
        Axi=np.zeros((1, 1)), Bxi=np.zeros((1, 1)), Cxi=np.zeros((1, 1)),
        Dxi=np.array([[3.25]]), Xxi=np.eye(1), Xu=np.zeros((1, 1)),
    )
    fr = freqresp_dt(step, DiscretizationConfig(0.5), [0.1, 1.0])
    assert_allclose(fr.values, np.full((2, 1, 1), 3.25 + 0.0j), rtol=0, atol=0)


def test_dt_response_names_the_singular_frequency_of_a_grid():
    # Axi is the rotation by w Ts built from the kernel's own e^{j w Ts}, so
    # e^{j w Ts} I - Axi = [[j b, b], [-b, j b]] with b = 1.0: exactly singular
    cfg = DiscretizationConfig(1.0)
    grid = np.array([0.5, np.pi / 2.0, 2.5])
    z = np.exp(1j * grid * cfg.ts)[1]
    assert z.imag == 1.0
    step = StepMatrices(
        Axi=np.array([[z.real, -z.imag], [z.imag, z.real]]),
        Bxi=np.array([[1.0], [0.0]]), Cxi=np.array([[1.0, 0.0]]),
        Dxi=np.zeros((1, 1)), Xxi=np.eye(2), Xu=np.zeros((2, 1)),
    )
    with pytest.raises(DomainError, match=f"omega = {np.pi / 2.0!r} rad/s"):
        freqresp_dt(step, cfg, grid)


def test_dt_response_rejects_nyquist_and_above():
    step = dt_step_matrices(lag_model(), [0.0], DiscretizationConfig(0.5))
    with pytest.raises(ConfigError):
        freqresp_dt(step, DiscretizationConfig(0.5), [1.0, 2.0 * np.pi])


def test_dt_response_matches_warped_closed_form():
    # first-order lag: G_d(e^{jwTs}) = 1 / (1 + j (2/Ts) tan(w Ts / 2))
    cfg = DiscretizationConfig(0.1)
    step = dt_step_matrices(lag_model(), [0.0], cfg)
    fr = freqresp_dt(step, cfg, [1.0])
    warped = (2.0 / 0.1) * np.tan(0.05)
    assert_allclose(fr.values[0, 0, 0], 1.0 / (1.0 + 1j * warped), rtol=1e-9)


def test_dt_response_invariant_under_state_scaling():
    # both realizations carry the same transfer function
    cfg = DiscretizationConfig(0.2)
    model = msd_model()
    grid = log_frequency_grid(cfg, decades=2, points_per_decade=10)
    a = freqresp_dt(dt_step_matrices(model, [1.5], cfg), cfg, grid)
    b = freqresp_dt(tustin_frozen(model, [1.5], cfg), cfg, grid)
    assert_allclose(a.values, b.values, rtol=0, atol=1e-12)


def test_dt_response_dc_limit_matches_ct_gain():
    # Hurwitz lag: both responses approach G_ct(0) = 1 at low frequency
    cfg = DiscretizationConfig(0.1)
    step = dt_step_matrices(lag_model(), [0.0], cfg)
    fr = freqresp_dt(step, cfg, [1e-9])
    assert_allclose(fr.values[0, 0, 0], 1.0, rtol=0, atol=1e-8)
    gain = step.Dxi + step.Cxi @ np.linalg.solve(np.eye(1) - step.Axi, step.Bxi)
    assert_allclose(gain, [[1.0]], rtol=1e-10)


# --- warping identity --------------------------------------------------------


def test_warping_residual_is_roundoff_small():
    cfg = DiscretizationConfig(0.1)
    grid = log_frequency_grid(cfg)
    assert warping_residual(lag_model(), [0.0], cfg, grid) <= 1e-9
    assert warping_residual(msd_model(), [2.0], cfg, grid) <= 1e-9


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    ts=st.floats(min_value=1e-3, max_value=0.5),
)
def test_warping_identity_property(seed, ts):
    rng = np.random.default_rng(seed)
    cfg = DiscretizationConfig(ts)
    model = random_affine_model(rng)
    p = rng.uniform(model.domain.lower, model.domain.upper)
    assume(loop_condition(model, p, ts) < 1e3)
    grid = log_frequency_grid(cfg, decades=3, points_per_decade=10)
    peak = float(np.max(np.abs(freqresp_ct(model, p, grid).values)))
    assert warping_residual(model, p, cfg, grid) <= 1e-9 * max(1.0, peak)


def test_sigma_realization_through_the_one_kernel_is_the_warped_resolvent():
    # Sigma is the B = C = I, D = 0 case of the step matrices: from ubar to
    # x, its response is (j Omega I - A(p))^-1 at the warped frequency
    cfg = DiscretizationConfig(0.1)
    grid = log_frequency_grid(cfg)
    warped = (2.0 / cfg.ts) * np.tan(grid * cfg.ts / 2.0)
    rng = np.random.default_rng(7)
    affine = random_affine_model(rng, n_x_max=4)
    for model, p in ((msd_model(), [1.5]), (affine, rng.uniform(-1.0, 1.0, affine.n_p))):
        A = model.matrices_at(p)[0]
        want = np.linalg.inv(1j * warped[:, None, None] * np.eye(model.n_x) - A)
        got = freqresp_dt(sigma_step(model, p, cfg), cfg, grid).values
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-9 * scale


def test_warping_euler_negative_control_fails_loudly():
    cfg = DiscretizationConfig(0.1)
    grid = log_frequency_grid(cfg)
    euler = euler_step_matrices(lag_model(), [0.0], cfg.ts)
    dt = freqresp_dt(euler, cfg, grid)
    warped = (2.0 / cfg.ts) * np.tan(grid * cfg.ts / 2.0)
    ct = freqresp_ct(lag_model(), [0.0], warped)
    gap = np.max(np.abs(dt.values - ct.values), axis=(1, 2))
    top_decade = grid >= grid[-1] / 10.0
    assert np.min(gap[top_decade]) > 1e-3


# --- trajectory comparison ---------------------------------------------------


def run_integrator(ts=0.5, t_end=2.0):
    cfg = DiscretizationConfig(ts)
    scen = Scenario(
        p=[SignalSpec.constant(0.0)], u=[SignalSpec.constant(1.0)],
        x0=[0.0], t_end=t_end,
    )
    traj = sample_scenario(scen, cfg)
    return simulate_dt(integrator_model(), cfg, traj, scen.x0)


def test_compare_identical_trajectories():
    out = run_integrator()
    m = compare_traj(out, out)
    assert m.max_abs_error == 0.0
    assert m.rms_error == 0.0
    assert m.relative_to == 2.0
    assert m.per_channel == (0.0,)


def test_compare_single_perturbed_sample():
    from lpvsim.simulate import Trajectory

    a = Trajectory(ts=0.1, p=np.zeros((4, 1)), u=np.zeros((4, 1)), y=np.zeros((4, 1)))
    y = np.zeros((4, 1))
    y[2, 0] = 1.0
    b = Trajectory(ts=0.1, p=np.zeros((4, 1)), u=np.zeros((4, 1)), y=y)
    m = compare_traj(a, b)
    assert m.max_abs_error == 1.0
    assert m.rms_error == 0.5
    assert m.relative_to == 1.0


def test_compare_rms_of_differences_near_the_float_range_is_finite():
    # squaring 3e300 and 4e300 overflows; the RMS itself, 3.54e300, does not
    from lpvsim.simulate import Trajectory

    y = np.array([[3e300], [-4e300]])
    a = Trajectory(ts=0.1, p=np.zeros((2, 1)), u=np.zeros((2, 1)), y=y)
    b = Trajectory(ts=0.1, p=np.zeros((2, 1)), u=np.zeros((2, 1)), y=np.zeros((2, 1)))
    m = compare_traj(a, b)
    assert m.max_abs_error == 4e300
    assert_allclose(m.rms_error, np.sqrt(12.5) * 1e300, rtol=1e-15)
    assert compare_traj(a, a).rms_error == 0.0


def test_compare_rejects_mismatches():
    a = run_integrator()
    b = run_integrator(ts=0.25, t_end=2.0)
    with pytest.raises(ConfigError):
        compare_traj(a, b)
    c = run_integrator(t_end=3.0)
    with pytest.raises(DimensionError):
        compare_traj(a, c)
    with pytest.raises(DataError):
        compare_traj(a, a, channel="nope")


def test_compare_metrics_json_dict():
    m = ComparisonMetrics(1.0, 0.5, 2.0, (1.0,))
    d = json.loads(_json_text(dataclasses.asdict(m)))  # as the CLI renders it
    assert d == {
        "max_abs_error": 1.0, "rms_error": 0.5,
        "relative_to": 2.0, "per_channel": [1.0],
    }


# --- convergence sweep -------------------------------------------------------


def lag_step_scenario():
    return Scenario(
        p=[SignalSpec.constant(0.0)], u=[SignalSpec.step(amplitude=1.0)],
        x0=[0.0], t_end=4.0,
    )


def test_convergence_validations():
    scen = lag_step_scenario()
    with pytest.raises(ConfigError):
        convergence_order(lag_model(), scen, [0.2, 0.1])
    with pytest.raises(ConfigError):
        convergence_order(lag_model(), scen, [0.2, 0.1, 0.04])
    with pytest.raises(ConfigError):
        convergence_order(lag_model(), scen, [0.3, 0.15, 0.075])  # 0.075 vs 4.0
    for oversample in (0, 2.9, 7.9, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="oversample must be an integer >= 1"):
            convergence_order(lag_model(), scen, [0.2, 0.1, 0.05], oversample=oversample)


def test_convergence_second_order_on_frozen_lag():
    study = convergence_order(
        lag_model(), lag_step_scenario(), [0.2, 0.1, 0.05, 0.025], oversample=40
    )
    assert not study.degenerate
    assert 1.8 <= study.fitted_order <= 2.2
    assert all(1.5 <= o <= 2.5 for o in study.pairwise_orders)
    assert study.max_errors == tuple(sorted(study.max_errors, reverse=True))


def scheduled_msd_scenario(t_end=2.0):
    return Scenario(
        p=[SignalSpec.sine(amplitude=1.0, f=0.4, offset=2.0)],
        u=[SignalSpec.sine(amplitude=1.0, f=0.5)],
        x0=[1.0, -0.5], t_end=t_end,
    )


def test_convergence_reference_equals_per_ts_runs_bit_for_bit():
    ts_list, oversample = [0.2, 0.1, 0.05], 10
    model, scen = msd_model(), scheduled_msd_scenario()
    study = convergence_order(model, scen, ts_list, oversample=oversample)
    per_ts = []
    for ts in ts_list:
        cfg = DiscretizationConfig(ts)
        over = int(round(oversample * ts / ts_list[-1]))
        ct = simulate_ct_reference(model, cfg, scen, oversample=over)
        dt = simulate_dt(model, cfg, sample_scenario(scen, cfg), scen.x0)
        per_ts.append(float(np.max(np.abs(dt.y - ct.y))))
    assert study.max_errors == tuple(per_ts)


@pytest.mark.parametrize(
    "ts_list",
    [
        [0.2, 0.1 * (1 - 1e-10), 0.05],
        [0.2, 0.1 * (1 + 1e-10), 0.05],  # samples one point fewer than 0.1
        [0.2, 0.1, 0.05 * (1 + 1e-10)],
    ],
)
def test_convergence_accepts_halving_within_tolerance(ts_list):
    study = convergence_order(
        msd_model(), scheduled_msd_scenario(), ts_list, oversample=10
    )
    assert not study.degenerate
    assert 1.8 <= study.fitted_order <= 2.2


def test_convergence_degenerate_on_exact_scenario():
    # trapezoid integrates constants exactly, so the sweep sees roundoff only
    scen = Scenario(
        p=[SignalSpec.constant(0.0)], u=[SignalSpec.constant(1.0)],
        x0=[0.0], t_end=2.0,
    )
    study = convergence_order(
        integrator_model(), scen, [0.5, 0.25, 0.125], oversample=4
    )
    assert study.degenerate
    assert np.isnan(study.fitted_order)


def test_convergence_report_rendering():
    study = convergence_order(
        lag_model(), lag_step_scenario(), [0.2, 0.1, 0.05], oversample=20
    )
    text = render_convergence_report(study)
    lines = text.strip().split("\n")
    assert lines[0] == "Ts,max_error,pairwise_order"
    assert lines[1].startswith("0.2,") and lines[1].endswith(",nan")
    assert lines[-1].startswith("fitted_order=")
    fitted = float(lines[-1].split("=", 1)[1])
    assert fitted == pytest.approx(study.fitted_order)


def test_convergence_report_degenerate_flag():
    scen = Scenario(
        p=[SignalSpec.constant(0.0)], u=[SignalSpec.constant(1.0)],
        x0=[0.0], t_end=2.0,
    )
    study = convergence_order(
        integrator_model(), scen, [0.5, 0.25, 0.125], oversample=4
    )
    text = render_convergence_report(study)
    assert "degenerate=true" in text
    assert "fitted_order=nan" in text


def _reference_convergence_report(study):
    """The report as a hand-written loop renders it, kept as the reference."""
    lines = ["Ts,max_error,pairwise_order"]
    for i, (ts, err) in enumerate(zip(study.ts_list, study.max_errors)):
        order = "nan" if i == 0 else repr(float(study.pairwise_orders[i - 1]))
        lines.append(f"{repr(float(ts))},{repr(float(err))},{order}")
    if study.degenerate:
        lines.append("degenerate=true")
    lines.append(f"fitted_order={repr(float(study.fitted_order))}")
    return "\n".join(lines) + "\n"


_REPORT_FLOATS = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(3, 8), degenerate=st.booleans())
def test_convergence_report_matches_the_reference_byte_for_byte(data, n, degenerate):
    def column(size):
        return tuple(data.draw(st.lists(_REPORT_FLOATS, min_size=size, max_size=size)))

    study = ConvergenceStudy(
        ts_list=column(n),
        max_errors=column(n),
        pairwise_orders=column(n - 1),
        fitted_order=data.draw(_REPORT_FLOATS),
        degenerate=degenerate,
    )
    assert render_convergence_report(study) == _reference_convergence_report(study)


# --- CSV rendering -----------------------------------------------------------


def test_frequency_csv_layout_mimo():
    values = np.arange(8, dtype=float).reshape(2, 2, 2) + 1j
    fr = FrequencyResponse(omegas=[1.0, 2.0], values=values)
    text = frequency_response_csv(fr)
    lines = text.strip().split("\n")
    assert lines[0] == (
        "omega_rads,reOut1In1,imOut1In1,reOut1In2,imOut1In2,"
        "reOut2In1,imOut2In1,reOut2In2,imOut2In2"
    )
    first = lines[1].split(",")
    assert first[0] == "1.0"
    assert first[1] == "0.0" and first[2] == "1.0"
    assert first[3] == "1.0" and first[4] == "1.0"


def test_frequency_csv_values_round_trip():
    cfg = DiscretizationConfig(0.1)
    grid = log_frequency_grid(cfg, decades=1, points_per_decade=5)
    fr = freqresp_ct(lag_model(), [0.0], grid)
    lines = frequency_response_csv(fr).strip().split("\n")
    for k, line in enumerate(lines[1:]):
        cells = [float(c) for c in line.split(",")]
        assert cells[0] == fr.omegas[k]
        assert cells[1] == fr.values[k, 0, 0].real
        assert cells[2] == fr.values[k, 0, 0].imag


@pytest.mark.parametrize("m", [0, 1, 7])
def test_frequency_csv_is_the_joined_lines_plus_a_newline(m):
    rng = np.random.default_rng(m)
    values = rng.standard_normal((m, 2, 3)) + 1j * rng.standard_normal((m, 2, 3))
    values.flat[: min(m, 2)] = -0.0
    fr = FrequencyResponse(omegas=np.arange(1, m + 1) / 3.0, values=values)
    header = ["omega_rads"] + [
        f"{part}Out{i}In{j}" for i in (1, 2) for j in (1, 2, 3) for part in ("re", "im")
    ]
    lines = [",".join(header)] + [
        ",".join(map(repr, [w, *np.column_stack([v.real, v.imag]).ravel().tolist()]))
        for w, v in zip(fr.omegas.tolist(), values.reshape(m, 6))
    ]
    assert frequency_response_csv(fr) == "\n".join(lines) + "\n"


def test_response_over_the_stack_cap_is_refused_before_allocating():
    # s is one value seen through a zero stride, so nothing of size m exists
    s = np.broadcast_to(1j, (2**27,))
    with pytest.raises(ConfigError, match="a response at 134217728 frequencies"):
        _response(s, None, -np.eye(2), np.ones((2, 1)), np.ones((1, 2)), np.zeros((1, 1)))
