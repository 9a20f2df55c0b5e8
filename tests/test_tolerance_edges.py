"""Each tolerance just inside and just outside its edge, and each documented
choice of reference or norm, so that widening a tolerance or swapping an
argument fails a test."""

import numpy as np
import pytest

from conftest import constant_model, integrator_model
from lpvsim.analyze import compare_traj
from lpvsim.discretize import DiscretizationConfig, wellposedness_check
from lpvsim.errors import ConfigError, DataError
from lpvsim.simulate import (
    Trajectory,
    read_trajectory_csv,
    simulate_dt,
    simulate_dt_loop_oracle,
)


@pytest.mark.parametrize("engine", [simulate_dt, simulate_dt_loop_oracle])
def test_a_trajectory_ts_within_1e_12_of_the_config_runs_and_beyond_is_refused(engine):
    cfg = DiscretizationConfig(ts=0.1)
    p, u = np.zeros((5, 1)), np.ones((5, 1))
    out = engine(integrator_model(), cfg, Trajectory(ts=0.1 + 5e-13, p=p, u=u), [0.0])
    assert out.y.shape == (5, 1)
    with pytest.raises(ConfigError) as exc:
        engine(integrator_model(), cfg, Trajectory(ts=0.1 + 2e-12, p=p, u=u), [0.0])
    assert str(exc.value) == (
        f"trajectory sampled at ts = {0.1 + 2e-12}, configuration has ts = 0.1"
    )


@pytest.mark.parametrize("engine", [simulate_dt, simulate_dt_loop_oracle])
def test_a_tiny_ts_is_refused_beside_another_not_relabelled(engine):
    # within 1e-12 of each other, yet 1e-13 is ten times 1e-14; a NaN ts
    # is no sampling time at all
    p, u = np.zeros((3, 1)), np.ones((3, 1))
    for ts, cfg_ts in [(1e-13, 1e-14), (float("nan"), 0.1)]:
        with pytest.raises(ConfigError) as exc:
            engine(integrator_model(), DiscretizationConfig(ts=cfg_ts),
                   Trajectory(ts=ts, p=p, u=u), [0.0])
        assert str(exc.value) == (
            f"trajectory sampled at ts = {ts}, configuration has ts = {cfg_ts}")
    for ts_a, ts_b in [(1e-13, 1e-14), (1e-14, 1e-13), (1e-13, 5e-13), (float("nan"), 0.1)]:
        with pytest.raises(ConfigError) as exc:
            compare_traj(Trajectory(ts_a, p, u, y=u), Trajectory(ts_b, p, u, y=u))
        assert str(exc.value) == f"sampling times differ: {ts_a} vs {ts_b}"


def test_a_table_time_within_1e_9_of_k_ts_is_read_and_beyond_is_refused():
    head = "k,t,p1,u1\n0,0.0,1.0,2.0\n"
    traj = read_trajectory_csv(head + "1,0.1000000005,1.0,2.0\n", ts=0.1)
    assert traj.p.shape == (2, 1)
    with pytest.raises(DataError) as exc:
        read_trajectory_csv(head + "1,0.100000002,1.0,2.0\n", ts=0.1)
    assert str(exc.value) == "row 1 has t = 0.100000002, expected k*ts = 0.1 (ts = 0.1)"


@pytest.mark.parametrize("peak_a, peak_b, relative_to", [
    (3.0, 5.0, 3.0), (5.0, 3.0, 5.0), (0.5, 4.0, 1.0),
])
def test_compare_scales_by_the_first_trajectory_peak(peak_a, peak_b, relative_to):
    def traj(peak):
        y = np.zeros((4, 1))
        y[1, 0] = -peak
        return Trajectory(ts=0.1, p=np.zeros((4, 1)), u=np.zeros((4, 1)), y=y)

    assert compare_traj(traj(peak_a), traj(peak_b)).relative_to == relative_to


def test_sweep_condition_number_is_the_2_norm_one():
    # at Ts = 0.5, I - A Ts/2 = [[1, 100], [0, 1]] exactly, everywhere on the box
    model = constant_model([[0.0, -400.0], [0.0, 0.0]], [[0.0], [1.0]],
                           [[1.0, 0.0]], [[0.0]])
    report = wellposedness_check(model, DiscretizationConfig(ts=0.5), 2, 3, 0)
    M = np.array([[1.0, 100.0], [0.0, 1.0]])
    assert report.max_condition_number == pytest.approx(np.linalg.cond(M, 2), rel=1e-12)
    assert report.max_condition_number != pytest.approx(np.linalg.cond(M, 1), rel=1e-3)
