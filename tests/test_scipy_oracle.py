"""The package against external implementations in scipy: frozen Tustin
blocks against ``scipy.signal.cont2discrete(..., method="bilinear")``, both
discrete engines at constant p against those blocks stepped by
``scipy.signal.dlsim``, and the RK4 reference against ``solve_ivp``'s DOP853.
Test-only: the package itself depends on numpy alone."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import inbox_p_trajectory, random_lpv_model
from lpvsim.discretize import DiscretizationConfig, tustin_frozen
from lpvsim.fixtures import FIXTURE_NAMES, load_fixture
from lpvsim.model import eval_pmatrix
from lpvsim.simulate import (
    Scenario,
    SignalSpec,
    Trajectory,
    sigma_initial_state,
    simulate_ct_reference,
    simulate_dt,
    simulate_dt_loop_oracle,
)

signal = pytest.importorskip("scipy.signal")
integrate = pytest.importorskip("scipy.integrate")


def assert_matches_scipy(model, p, ts, atol):
    ad, bd, cd, dd, _ = signal.cont2discrete(model.matrices_at(p), ts, method="bilinear")
    got = tustin_frozen(model, p, DiscretizationConfig(ts))
    for ours, theirs in ((got.Axi, ad), (got.Bxi, bd), (got.Cxi, cd), (got.Dxi, dd)):
        assert_allclose(ours, theirs, rtol=0, atol=atol * max(1.0, np.max(np.abs(theirs))))


def test_msd_blocks_equal_scipy_exactly():
    assert_matches_scipy(load_fixture("msd"), [2.0], 0.1, atol=0.0)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("ts", [0.01, 0.05, 0.25])
def test_fixture_blocks_match_scipy(name, ts):
    model = load_fixture(name)
    assert_matches_scipy(model, model.domain.midpoint(), ts, atol=1e-13)


def test_random_model_blocks_match_scipy():
    rng = np.random.default_rng(11)
    for ts in (0.01, 0.1, 0.5):
        for _ in range(6):
            model = random_lpv_model(rng, ts)
            for p in inbox_p_trajectory(rng, model, 3, 1.0):
                assert_matches_scipy(model, p, ts, atol=1e-12)


# Ts ||A||_2 / 2 from far below 1 to far above it: at the top, Axi is -I to
# 1e-8 and xi alternates in sign from step to step
@pytest.mark.parametrize("engine", [simulate_dt, simulate_dt_loop_oracle])
@pytest.mark.parametrize("half_ts_norm", [1e-3, 0.1, 1e4, 1e6, 1e8])
def test_engines_match_scipy_dlsim_at_every_ts(engine, half_ts_norm):
    model, p = load_fixture("msd"), np.array([2.0])
    A, B, C, D = model.matrices_at(p)
    ts = 2.0 * half_ts_norm / np.linalg.norm(A, 2)
    cfg = DiscretizationConfig(ts)
    rng = np.random.default_rng(5)
    u, x0 = rng.standard_normal((200, 1)), rng.standard_normal(2)
    got = engine(model, cfg, Trajectory(ts=ts, p=np.tile(p, (200, 1)), u=u), x0)
    # the Tustin state is (Ts/2) xi, by the similarity of the two realizations
    xi0 = sigma_initial_state(model, cfg, p, u[0], x0)
    tustin = signal.cont2discrete((A, B, C, D), ts, method="bilinear")
    _, y, _ = signal.dlsim(tustin, u, x0=(ts / 2.0) * xi0)
    assert np.max(np.abs(got.y - y)) <= 1e-12 * np.max(np.abs(y))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_rk4_reference_converges_at_fourth_order_to_dop853(name):
    model = load_fixture(name)
    lo, hi = model.domain.lower, model.domain.upper
    scen = Scenario(
        p=[SignalSpec.sine(0.4 * (h - l), 0.7, 0.3, 0.5 * (l + h)) for l, h in zip(lo, hi)],
        u=[SignalSpec.sine(1.0, 1.3, 0.5)] * model.n_u,
        x0=np.linspace(0.5, -0.5, model.n_x),
        t_end=2.0,
    )
    cfg = DiscretizationConfig(0.05)

    def rhs(t, x):
        p, u = scen.p_at(t)[0], scen.u_at(t)[0]
        return eval_pmatrix(model.A, p) @ x + eval_pmatrix(model.B, p) @ u

    t = np.arange(41) * cfg.ts
    ref = integrate.solve_ivp(rhs, (0.0, scen.t_end), scen.x0, method="DOP853",
                              rtol=1e-12, atol=1e-14, t_eval=t).y.T
    gaps = [
        np.max(np.abs(simulate_ct_reference(model, cfg, scen, oversample=k).x - ref))
        / np.max(np.abs(ref))
        for k in (40, 80)
    ]
    # halving h divides RK4's error by 16; below 1e-11 it is DOP853's own
    assert max(gaps) < 1e-11 or 12.0 <= gaps[0] / gaps[1] <= 20.0, gaps
