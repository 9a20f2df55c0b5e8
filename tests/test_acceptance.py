"""Acceptance suite: one pass/fail line per criterion (run with -s to see all).

Each test times itself against its stated runtime budget and checks the
numerical claim at the stated tolerance. Nothing here may be loosened; a red
line means the implementation, not the test, needs fixing.
"""

import json
import time

import numpy as np

from conftest import random_constant_model, random_lpv_model, inbox_p_trajectory
from lpvsim import (
    DiscretizationConfig,
    Scenario,
    SignalSpec,
    Trajectory,
    convergence_order,
    dt_step_matrices,
    freqresp_ct,
    load_fixture,
    log_frequency_grid,
    sigma_initial_state,
    simulate_dt,
    simulate_dt_loop_oracle,
    tustin_frozen,
    warping_residual,
)
from lpvsim.cli import main


def _verdict(name, ok, elapsed, budget, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.2f}s / {budget:g}s budget)")
    assert ok, f"{name}: {detail}"


def test_criterion_1_tustin_similarity():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        model = random_constant_model(rng)
        for ts in (0.01, 0.1, 0.5):
            cfg = DiscretizationConfig(ts)
            a = dt_step_matrices(model, [0.0], cfg)
            b = tustin_frozen(model, [0.0], cfg)
            gap = max(
                np.max(np.abs(a.Axi - b.Axi)),
                np.max(np.abs(a.Bxi - (2.0 / ts) * b.Bxi)),
                np.max(np.abs(a.Cxi - (ts / 2.0) * b.Cxi)),
                np.max(np.abs(a.Dxi - b.Dxi)),
            )
            scale = max(
                1.0,
                *(np.max(np.abs(m)) for m in (a.Axi, a.Bxi, a.Cxi, a.Dxi)),
            )
            worst = max(worst, float(gap) / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    _verdict(
        "criterion 1 (similarity to frozen Tustin)", ok, elapsed, 5,
        f"worst relative residual {worst:.3e} over 200 models x 3 Ts",
    )


def test_criterion_2_loop_removal_exactness():
    rng = np.random.default_rng(42)
    ts = 0.05
    cfg = DiscretizationConfig(ts)
    n_steps = 500
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        model = random_lpv_model(rng, ts)
        p = inbox_p_trajectory(rng, model, n_steps, ts)
        u = rng.uniform(-1.0, 1.0, (n_steps, model.n_u))
        x0 = rng.uniform(-1.0, 1.0, model.n_x)
        traj = Trajectory(ts=ts, p=p, u=u)
        ya = simulate_dt(model, cfg, traj, x0).y
        yb = simulate_dt_loop_oracle(model, cfg, traj, x0).y
        gap = np.max(np.abs(ya - yb)) / max(1.0, np.max(np.abs(ya)))
        worst = max(worst, float(gap))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    _verdict(
        "criterion 2 (algebraic-loop removal)", ok, elapsed, 10,
        f"worst relative output gap {worst:.3e} over 100 scenarios x 500 steps",
    )


def test_criterion_3_warping_identity():
    rng = np.random.default_rng(42)
    cfg = DiscretizationConfig(0.1)
    grid = log_frequency_grid(cfg)  # 200 points, top at 0.9*pi/Ts
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        model = random_constant_model(rng)
        residual = warping_residual(model, [0.0], cfg, grid)
        peak = float(np.max(np.abs(freqresp_ct(model, [0.0], grid).values)))
        worst = max(worst, residual / max(1.0, peak))
    # forward-Euler negative control on the first-order lag: the mismatch in
    # the top decade must be large, or the identity test proves nothing
    lag = load_fixture("lag1")
    ct = freqresp_ct(lag, [0.0], (2.0 / cfg.ts) * np.tan(grid * cfg.ts / 2.0))
    z = np.exp(1j * grid * cfg.ts)
    euler = (cfg.ts * 1.0) / (z - (1.0 + cfg.ts * -1.0))  # C(zI-(I+A*Ts))^-1 B*Ts
    top = grid >= grid[-1] / 10.0
    control = float(np.min(np.abs(euler[top] - ct.values[top, 0, 0])))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and control > 1e-3 and elapsed < 5.0
    _verdict(
        "criterion 3 (frequency warping identity)", ok, elapsed, 5,
        f"worst scaled residual {worst:.3e}; Euler control gap {control:.3e}",
    )


def test_criterion_4_second_order_convergence():
    model = load_fixture("msd")
    scenario = Scenario(
        p=(SignalSpec.sine(amplitude=1.0, f=1.0 / (2.0 * np.pi), offset=2.0),),
        u=(SignalSpec.sine(amplitude=1.0, f=0.5),),
        x0=np.zeros(2),
        t_end=10.0,
    )
    start = time.perf_counter()
    study = convergence_order(
        model, scenario, (0.2, 0.1, 0.05, 0.025), oversample=100
    )
    elapsed = time.perf_counter() - start
    ok = (
        not study.degenerate
        and 1.8 <= study.fitted_order <= 2.2
        and elapsed < 10.0
    )
    _verdict(
        "criterion 4 (second-order convergence)", ok, elapsed, 10,
        f"fitted order {study.fitted_order:.4f} on Ts halvings 0.2..0.025",
    )


def test_criterion_5_wellposedness_detection(capsys):
    start = time.perf_counter()
    bad = main(["check", "--model", "scalar_p", "--ts", "0.1"])
    bad_out = capsys.readouterr().out
    good = main(["check", "--model", "scalar_neg_p", "--ts", "0.1"])
    good_out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    min_det = json.loads(good_out)["min_abs_det"]
    ok = (
        bad == 3
        and json.loads(bad_out)["passed"] is False
        and good == 0
        and min_det >= 1.0
        and elapsed < 1.0
    )
    _verdict(
        "criterion 5 (well-posedness detection)", ok, elapsed, 1,
        f"A(p)=p exits {bad}; A(p)=-p passes with min |det| {min_det:.2f}",
    )


def test_criterion_6_initial_condition_exactness():
    rng = np.random.default_rng(42)
    cfg = DiscretizationConfig(0.1)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        model = random_lpv_model(rng, cfg.ts)
        p0 = rng.uniform(model.domain.lower, model.domain.upper)
        x0 = rng.uniform(-5.0, 5.0, model.n_x)
        u0 = rng.uniform(-5.0, 5.0, model.n_u)
        xi0 = sigma_initial_state(model, cfg, p0, u0, x0)
        m = dt_step_matrices(model, p0, cfg)
        x_rec = m.Xxi @ xi0 + m.Xu @ u0
        worst = max(worst, float(np.max(np.abs(x_rec - x0))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    _verdict(
        "criterion 6 (initial-condition mapping)", ok, elapsed, 1,
        f"worst |x(0) - x0| entry {worst:.3e} over 50 triples",
    )


def _run_cli_suite(out_dir):
    """Every subcommand once, bundled fixtures only, all outputs to files."""
    sim = (
        "--model", "msd", "--ts", "0.1",
        "--p", "sine:amp=1,f=0.1,offset=2", "--u", "sine:amp=1,f=0.5",
        "--x0", "1,0", "--steps", "101",
    )
    jobs = (
        ("check", "--model", "msd", "--ts", "0.1", "--seed", "42",
         "--out", f"{out_dir}/check.json"),
        ("discretize", "--model", "integrator", "--ts", "0.5",
         "--out", f"{out_dir}/disc.json"),
        ("simulate", *sim, "--emit-state", "--out", f"{out_dir}/sim.csv"),
        ("loop-simulate", *sim, "--emit-state", "--out", f"{out_dir}/loop.csv"),
        ("freqresp", "--model", "lag1", "--ts", "0.1",
         "--out", f"{out_dir}/fr"),
        ("compare", *sim, "--out", f"{out_dir}/cmp.json"),
        ("converge", "--model", "lag1", "--u", "step:amp=1", "--t-end", "4",
         "--ts-list", "0.2,0.1,0.05", "--oversample", "25",
         "--out", f"{out_dir}/conv.txt"),
    )
    for argv in jobs:
        assert main(list(argv)) == 0, argv[0]


def test_criterion_7_byte_determinism(tmp_path):
    start = time.perf_counter()
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    _run_cli_suite(a)
    _run_cli_suite(b)
    names = sorted(q.name for q in a.iterdir())
    assert names == sorted(q.name for q in b.iterdir())
    diffs = [n for n in names if (a / n).read_bytes() != (b / n).read_bytes()]
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion 7 (byte-identical reruns)", not diffs, elapsed, 30,
        f"{len(names)} output files compared, {len(diffs)} differ",
    )
