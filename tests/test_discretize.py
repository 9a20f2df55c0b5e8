"""Discretization blocks against hand-computed scalar oracles and algebraic
identities that both realizations must satisfy."""

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
    random_affine_model,
    random_constant_model,
    scalar_gain_model,
)
from lpvsim import LpvStateSpace, PMatrixFunction, SchedulingDomain
from lpvsim.cli import _json_text
from lpvsim.discretize import (
    DiscretizationConfig,
    det_scale,
    dt_step_matrices,
    phi,
    sigma_step,
    singular_rows,
    tustin_frozen,
    wellposedness_check,
)
from lpvsim.errors import ConfigError, DomainError, WellposednessError

# Scalar lag A = [[-1]], Ts = 0.1: all blocks are ratios over 1.05.
PHI_LAG = 1.0 / 1.05          # 0.9523809523809523
M11_LAG = 0.95 / 1.05         # 0.9047619047619047
M12_LAG = 2.0 / 1.05          # 1.9047619047619047
M21_LAG = 0.05 / 1.05         # 0.047619047619047616


def test_config_requires_positive_ts():
    with pytest.raises(ConfigError):
        DiscretizationConfig(0.0)
    with pytest.raises(ConfigError):
        DiscretizationConfig(-0.1)
    assert DiscretizationConfig(0.5).ts == 0.5


def test_config_requires_finite_ts():
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ConfigError):
            DiscretizationConfig(bad)


def test_phi_identity_for_zero_A():
    cfg = DiscretizationConfig(0.7)
    assert np.array_equal(phi(np.zeros((2, 2)), cfg), np.eye(2))


def test_phi_scalar_lag():
    cfg = DiscretizationConfig(0.1)
    assert_allclose(phi(np.array([[-1.0]]), cfg), [[PHI_LAG]], rtol=1e-15)


def test_phi_rejects_singular_resolvent():
    # 1 - 20 * 0.1/2 = 0 exactly
    cfg = DiscretizationConfig(0.1)
    with pytest.raises(WellposednessError) as exc:
        phi(np.array([[20.0]]), cfg)
    assert exc.value.code == "E_WELLPOSED"


def test_phi_residual_tiny_on_random_matrices():
    rng = np.random.default_rng(7)
    cfg = DiscretizationConfig(0.05)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        A = rng.uniform(-3.0, 3.0, (n, n))
        P = phi(A, cfg)
        residual = (np.eye(n) - A * (cfg.ts / 2.0)) @ P - np.eye(n)
        assert np.max(np.abs(residual)) <= 1e-10


def test_phi_stack_matches_single_matrices():
    rng = np.random.default_rng(11)
    cfg = DiscretizationConfig(0.1)
    A = rng.uniform(-3.0, 3.0, (6, 3, 3))
    stacked = phi(A, cfg)
    for k in range(6):
        assert_allclose(stacked[k], phi(A[k], cfg), rtol=0, atol=1e-14)


def test_phi_stack_reports_first_singular_index():
    # 1 - 20 * 0.1/2 = 0 at rows 2 and 4
    cfg = DiscretizationConfig(0.1)
    A = np.array([1.0, -1.0, 20.0, 3.0, 20.0]).reshape(5, 1, 1)
    with pytest.raises(WellposednessError) as exc:
        phi(A, cfg)
    assert exc.value.step_index == 2
    assert exc.value.A_p.shape == (1, 1)
    with pytest.raises(WellposednessError) as exc:
        phi(A[2], cfg)
    assert exc.value.step_index is None


def test_singular_rows_threshold_scales_with_A():
    ts = 1.0
    A = np.array([[[0.0]], [[-8.0]], [[2.0]]])
    det = np.array([5e-13, 5e-12, 0.0])
    # thresholds 1e-12, 4e-12, 1e-12
    assert list(singular_rows(det, A, ts)) == [True, False, True]
    assert bool(singular_rows(3e-12, A[1], ts)) is True


def test_det_scale_floor_and_growth():
    assert det_scale(np.zeros((3, 3)), 0.5) == 1.0
    assert det_scale(np.array([[-8.0]]), 1.0) == 4.0


def test_det_scale_is_max_abs_bit_for_bit():
    def want(A, ts):  # the |A| form
        return np.maximum(1.0, np.max(np.abs(A), axis=(-2, -1)) * (ts / 2.0))

    rng = np.random.default_rng(21)
    one = rng.uniform(-60.0, 40.0, (3, 3))
    stack = rng.uniform(-50.0, 50.0, (40, 3, 3)) * rng.uniform(0.0, 1.0, (40, 1, 1))
    stack[:5] = rng.choice([0.0, -0.0], (5, 3, 3))
    stack[5:10].flat[::4] = -0.0
    stack[10] = -stack[10] ** 2  # every entry <= 0
    empty = np.zeros((0, 3, 3))
    for A in (one, stack, empty):
        for ts in (0.01, 0.1, 0.7):
            got = det_scale(A, ts)
            assert np.shape(got) == np.shape(want(A, ts))
            assert np.asarray(got).tobytes() == np.asarray(want(A, ts)).tobytes()


def test_sigma_step_integrator():
    sig = sigma_step(integrator_model(), [0.0], DiscretizationConfig(0.5))
    assert np.array_equal(sig.Axi, [[1.0]])
    assert np.array_equal(sig.Bxi, [[2.0]])
    assert np.array_equal(sig.Xxi, [[0.25]])
    assert np.array_equal(sig.Xxi, sig.Xu)


def test_sigma_step_scalar_lag():
    sig = sigma_step(lag_model(), [0.0], DiscretizationConfig(0.1))
    assert_allclose(sig.Axi, [[M11_LAG]], rtol=1e-12)
    assert_allclose(sig.Bxi, [[M12_LAG]], rtol=1e-15)
    assert_allclose(sig.Xxi, [[M21_LAG]], rtol=1e-15)


def test_sigma_step_rejects_point_outside_box():
    with pytest.raises(DomainError) as exc:
        sigma_step(integrator_model(), [1.5], DiscretizationConfig(0.1))
    assert exc.value.code == "E_DOMAIN"


def test_sigma_m11_equals_phi_times_tustin_numerator():
    # I + Phi A Ts == Phi (I + A Ts/2): same matrix by the resolvent identity
    rng = np.random.default_rng(11)
    cfg = DiscretizationConfig(0.2)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        A = rng.uniform(-2.0, 2.0, (n, n))
        P = phi(A, cfg)
        lhs = np.eye(n) + (P @ A) * cfg.ts
        rhs = P @ (np.eye(n) + A * (cfg.ts / 2.0))
        assert_allclose(lhs, rhs, rtol=0, atol=1e-10)


def test_phi_commutes_with_its_inverse_factor():
    rng = np.random.default_rng(3)
    cfg = DiscretizationConfig(0.3)
    A = rng.uniform(-2.0, 2.0, (4, 4))
    M = np.eye(4) - A * (cfg.ts / 2.0)
    P = phi(A, cfg)
    assert_allclose(P @ M, M @ P, rtol=0, atol=1e-10)


def test_step_matrices_integrator():
    m = dt_step_matrices(integrator_model(), [0.0], DiscretizationConfig(0.5))
    assert np.array_equal(m.Axi, [[1.0]])
    assert np.array_equal(m.Bxi, [[2.0]])
    assert np.array_equal(m.Cxi, [[0.25]])
    assert np.array_equal(m.Dxi, [[0.25]])
    assert np.array_equal(m.Xxi, [[0.25]])
    assert np.array_equal(m.Xu, [[0.25]])


def test_step_matrices_feedthrough_adds_to_Dxi():
    model = constant_model([[0.0]], [[1.0]], [[1.0]], [[3.0]])
    m = dt_step_matrices(model, [0.0], DiscretizationConfig(0.5))
    assert np.array_equal(m.Dxi, [[3.25]])


def test_step_matrices_scalar_lag():
    m = dt_step_matrices(lag_model(), [0.0], DiscretizationConfig(0.1))
    assert_allclose(m.Axi, [[M11_LAG]], rtol=1e-12)
    assert_allclose(m.Bxi, [[M12_LAG]], rtol=1e-15)
    assert_allclose(m.Cxi, [[M21_LAG]], rtol=1e-15)
    assert_allclose(m.Dxi, [[M21_LAG]], rtol=1e-15)


def test_step_matrices_are_read_only():
    m = dt_step_matrices(lag_model(), [0.0], DiscretizationConfig(0.1))
    for block in (m.Axi, m.Bxi, m.Cxi, m.Dxi, m.Xxi, m.Xu):
        with pytest.raises(ValueError):
            block[0, 0] = 99.0


def test_tustin_integrator():
    m = tustin_frozen(integrator_model(), [0.0], DiscretizationConfig(0.5))
    assert np.array_equal(m.Axi, [[1.0]])
    assert np.array_equal(m.Bxi, [[0.5]])
    assert np.array_equal(m.Cxi, [[1.0]])
    assert np.array_equal(m.Dxi, [[0.25]])
    assert np.array_equal(m.Xxi, [[1.0]])
    assert np.array_equal(m.Xu, [[0.0]])


def test_tustin_scalar_lag():
    m = tustin_frozen(lag_model(), [0.0], DiscretizationConfig(0.1))
    assert_allclose(m.Axi, [[M11_LAG]], rtol=1e-15)
    assert_allclose(m.Bxi, [[0.1 / 1.05]], rtol=1e-15)
    assert_allclose(m.Cxi, [[PHI_LAG]], rtol=1e-15)
    assert_allclose(m.Dxi, [[M21_LAG]], rtol=1e-15)


def test_tustin_rejects_point_outside_box():
    with pytest.raises(DomainError):
        tustin_frozen(integrator_model(), [-2.0], DiscretizationConfig(0.1))


def test_realizations_related_by_state_scaling():
    # xi = (2/Ts) x maps one realization onto the other:
    # Axi = Ad, Bxi = (2/Ts) Bd, Cxi = (Ts/2) Cd, Dxi = Dd.
    rng = np.random.default_rng(42)
    for ts in (0.01, 0.1, 0.5):
        cfg = DiscretizationConfig(ts)
        for _ in range(8):
            model = random_constant_model(rng, ts_gate=(ts,))
            a = dt_step_matrices(model, [0.0], cfg)
            b = tustin_frozen(model, [0.0], cfg)
            scale = np.max(np.abs(b.Axi)) + 1.0
            assert_allclose(a.Axi, b.Axi, rtol=0, atol=1e-10 * scale)
            assert_allclose(a.Bxi, (2.0 / ts) * b.Bxi, rtol=1e-10, atol=1e-12)
            assert_allclose(a.Cxi, (ts / 2.0) * b.Cxi, rtol=1e-10, atol=1e-12)
            assert_allclose(a.Dxi, b.Dxi, rtol=1e-10, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    ts=st.floats(min_value=1e-3, max_value=0.5),
)
def test_realizations_related_by_state_scaling_property(seed, ts):
    rng = np.random.default_rng(seed)
    cfg = DiscretizationConfig(ts)
    model = random_affine_model(rng)
    p = rng.uniform(model.domain.lower, model.domain.upper)
    assume(loop_condition(model, p, ts) < 1e3)
    a = dt_step_matrices(model, p, cfg)
    b = tustin_frozen(model, p, cfg)
    gap = max(
        np.max(np.abs(a.Axi - b.Axi)),
        np.max(np.abs(a.Bxi - (2.0 / ts) * b.Bxi)),
        np.max(np.abs(a.Cxi - (ts / 2.0) * b.Cxi)),
        np.max(np.abs(a.Dxi - b.Dxi)),
    )
    scale = max(1.0, *(np.max(np.abs(m)) for m in (a.Axi, a.Bxi, a.Cxi, a.Dxi)))
    assert gap <= 1e-10 * scale


def test_dc_gain_preserved_exactly():
    # Dxi + Cxi (I - Axi)^-1 Bxi must equal the CT gain D - C A^-1 B.
    m = dt_step_matrices(lag_model(), [0.0], DiscretizationConfig(0.1))
    dc = m.Dxi + m.Cxi @ np.linalg.solve(np.eye(1) - m.Axi, m.Bxi)
    assert_allclose(dc, [[1.0]], rtol=1e-12)


def test_small_ts_limit_matches_forward_euler_to_second_order():
    rng = np.random.default_rng(5)
    A = rng.uniform(-2.0, 2.0, (3, 3))
    model = constant_model(A, np.ones((3, 1)), np.ones((1, 3)), [[0.0]])
    for ts in (1e-3, 1e-4):
        m = dt_step_matrices(model, [0.0], DiscretizationConfig(ts))
        gap = np.max(np.abs(m.Axi - np.eye(3) - A * ts))
        assert gap <= 10.0 * np.max(np.abs(A)) ** 2 * ts**2


def test_sigma_blocks_reduce_to_integrator_block_for_zero_A():
    # With A(p) = 0 the loop-free blocks are exactly the trapezoidal
    # integrator block acting on (xi, B u).
    cfg = DiscretizationConfig(0.5)
    model = constant_model(np.zeros((2, 2)), np.eye(2), np.eye(2), np.zeros((2, 2)))
    sig = sigma_step(model, [0.0], cfg)
    eye, half = np.eye(2), (cfg.ts / 2.0) * np.eye(2)
    R = np.block([[eye, 2.0 * eye], [half, half]])
    assert np.array_equal(sig.Axi, R[:2, :2])
    assert np.array_equal(sig.Bxi, R[:2, 2:])
    assert np.array_equal(sig.Xxi, R[2:, :2])
    assert np.array_equal(sig.Xu, R[2:, 2:])


def test_wellposedness_clean_model_passes():
    report = wellposedness_check(
        integrator_model(), DiscretizationConfig(0.5),
        grid_per_dim=5, random_samples=10, seed=1,
    )
    assert report.passed
    assert report.min_abs_det == 1.0
    assert report.max_condition_number == 1.0
    assert report.singular_points == ()
    assert report.refuted_by is None
    # 2 vertices + 5 grid points + 10 draws
    assert report.samples_checked == 17


def test_wellposedness_finds_singular_grid_point():
    # A(p) = p on [0, 40] at Ts = 0.1: det vanishes exactly at p = 20.
    report = wellposedness_check(
        scalar_gain_model(+1.0, hi=40.0), DiscretizationConfig(0.1),
        grid_per_dim=5, random_samples=0, seed=0,
    )
    assert not report.passed
    assert (20.0,) in report.singular_points
    assert report.refuted_by == "sample"
    assert report.argmin_p == (20.0,)
    assert report.min_abs_det == 0.0
    assert report.max_condition_number == np.inf


def test_wellposedness_negative_gain_always_passes():
    # A(p) = -p keeps det = 1 + p Ts/2 >= 1 over the whole box.
    report = wellposedness_check(
        scalar_gain_model(-1.0, hi=40.0), DiscretizationConfig(0.1),
        grid_per_dim=9, random_samples=50, seed=3,
    )
    assert report.passed
    assert report.min_abs_det >= 1.0
    assert report.argmin_p == (0.0,)


@pytest.mark.parametrize("ts", [0.7, 0.6, 0.45, 1.3])
def test_wellposedness_refutes_a_zero_between_samples(ts):
    # A(p) = p on [0, 40]: det = 1 - p Ts/2 is zero at p = 2/Ts, which
    # falls between the grid points at these Ts; the sampled dets take
    # both signs, so bisection must find it
    report = wellposedness_check(
        scalar_gain_model(+1.0, hi=40.0), DiscretizationConfig(ts),
        grid_per_dim=11, random_samples=100, seed=42,
    )
    assert not report.passed
    assert report.min_abs_det > 1e-3  # no sampled point is singular
    (point,) = report.singular_points
    assert abs(point[0] - 2.0 / ts) <= 1e-9
    assert report.refuted_by == "sign_change"


@settings(max_examples=50, deadline=None)
@given(
    ts=st.floats(min_value=1e-3, max_value=2.0),
    gain=st.floats(min_value=0.1, max_value=5.0),
    sign=st.sampled_from([-1.0, 1.0]),
    lo=st.floats(min_value=-10.0, max_value=10.0),
    width=st.floats(min_value=0.1, max_value=50.0),
    frac=st.floats(min_value=0.0, max_value=1.0),
    grid=st.integers(min_value=2, max_value=11),
    samples=st.integers(min_value=0, max_value=50),
)
def test_wellposedness_never_passes_a_zero_inside_the_box(
    ts, gain, sign, lo, width, frac, grid, samples
):
    # A(p) = a0 + c p with 1 - A(p*) Ts/2 = 0 at p* inside [lo, lo + width]
    c = sign * gain
    p_star = lo + frac * width
    model = LpvStateSpace(
        n_x=1, n_u=1, n_y=1, n_p=1,
        A=PMatrixFunction.affine([[2.0 / ts - c * p_star]], [[[c]]]),
        B=PMatrixFunction.constant([[1.0]], 1),
        C=PMatrixFunction.constant([[1.0]], 1),
        D=PMatrixFunction.zero(1, 1),
        domain=SchedulingDomain([lo], [lo + width]),
    )
    report = wellposedness_check(
        model, DiscretizationConfig(ts), grid_per_dim=grid,
        random_samples=samples, seed=0,
    )
    assert not report.passed
    assert all(lo <= q[0] <= lo + width for q in report.singular_points)


def test_wellposedness_report_is_deterministic():
    args = dict(grid_per_dim=4, random_samples=25, seed=99)
    model = scalar_gain_model(-1.0, hi=5.0)
    cfg = DiscretizationConfig(0.2)
    a = wellposedness_check(model, cfg, **args)
    b = wellposedness_check(model, cfg, **args)
    assert a == b


def test_wellposedness_rejects_bad_sampling_plan():
    model = integrator_model()
    cfg = DiscretizationConfig(0.1)
    with pytest.raises(ConfigError):
        wellposedness_check(model, cfg, grid_per_dim=1, random_samples=0, seed=0)
    with pytest.raises(ConfigError):
        wellposedness_check(model, cfg, grid_per_dim=3, random_samples=-1, seed=0)


def test_wellposedness_report_json_dict():
    report = wellposedness_check(
        integrator_model(), DiscretizationConfig(0.5),
        grid_per_dim=2, random_samples=0, seed=0,
    )
    d = json.loads(_json_text(dataclasses.asdict(report)))  # as the CLI renders it
    assert d["passed"] is True
    assert d["ts"] == 0.5
    assert d["samples_checked"] == 4
    assert d["singular_points"] == []
    assert d["refuted_by"] is None
    assert isinstance(d["argmin_p"], list)
