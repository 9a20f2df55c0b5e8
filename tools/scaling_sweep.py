"""Time and memory of the three simulation engines across state sizes.

Usage, from the repository root:

    python3 tools/scaling_sweep.py [--sizes 1 2 4 8 16 64] [--steps 1000]
                                   [--substeps 800] [--repeat 3] [--src DIR]

For each state size n_x, builds a random affine model with one scheduling
channel, one input and one output, whose A(p) is a damped diagonal plus
couplings of order 1/sqrt(n_x), and prints one line per engine:

    n_x 4   simulate_ct_reference       800 substeps       1.65 us/substep     225.8 KiB

``simulate_dt`` and ``simulate_dt_loop_oracle`` run ``--steps`` samples at
Ts = 0.05 of a sine p and u; ``simulate_ct_reference`` runs ``--substeps``
RK4 substeps, oversample 20 at Ts = 0.05, of a sine scenario, the shape of
one ``converge`` job's reference at the default.  The time is the best of
``--repeat`` calls after one untimed call, divided by the steps (substeps for
RK4).  The peak is tracemalloc's during one more call, above what was traced
when it began.  One BLAS thread, as in the benchmark runner.

``lpvsim`` is imported from this checkout's ``src/``, or from ``--src DIR``,
so that one copy of this script measures two revisions alike.  The sweep
records and gates nothing; it is kept out of ``perfbench/`` and
``BENCHMARK.json``.
"""

import os

# one BLAS thread, as in the benchmark runner
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
TS, OVERSAMPLE = 0.05, 20


def sweep_model(n_x):
    """Random affine model in one scheduling channel on the box [-1, 1]."""
    from lpvsim import LpvStateSpace, PMatrixFunction, SchedulingDomain

    rng = np.random.default_rng(n_x)
    coupling = 0.5 / np.sqrt(n_x)
    A0 = -np.diag(0.5 + rng.uniform(0.0, 1.0, n_x)) + coupling * rng.uniform(-1, 1, (n_x, n_x))
    return LpvStateSpace(
        n_x=n_x, n_u=1, n_y=1, n_p=1,
        A=PMatrixFunction.affine(A0, [coupling * rng.uniform(-1, 1, (n_x, n_x))]),
        B=PMatrixFunction.affine(rng.uniform(-1, 1, (n_x, 1)), [rng.uniform(-1, 1, (n_x, 1))]),
        C=PMatrixFunction.constant(rng.uniform(-1, 1, (1, n_x)), 1),
        D=PMatrixFunction.zero(1, 1),
        domain=SchedulingDomain([-1.0], [1.0]),
    )


def measure(call, repeat):
    """(best seconds of ``repeat`` calls after a warm-up, tracemalloc peak
    in bytes of one more call)."""
    call()
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return best, peak


def rows(sizes, steps, substeps, repeat):
    """One (n_x, engine, count, unit, us per unit, peak KiB) row per engine
    and size."""
    from lpvsim.discretize import DiscretizationConfig
    from lpvsim.simulate import (Scenario, SignalSpec, Trajectory, simulate_ct_reference,
                                 simulate_dt, simulate_dt_loop_oracle)

    cfg = DiscretizationConfig(TS)
    t = np.arange(steps) * TS
    traj = Trajectory(ts=TS, p=0.9 * np.sin(2 * np.pi * 0.3 * t)[:, None],
                      u=np.sin(2 * np.pi * 0.7 * t)[:, None])
    out = []
    for n_x in sizes:
        model = sweep_model(n_x)
        x0 = np.random.default_rng(n_x).uniform(-1, 1, n_x)
        scen = Scenario(p=[SignalSpec.sine(amplitude=0.9, f=0.3)],
                        u=[SignalSpec.sine(f=0.7)], x0=list(x0),
                        t_end=substeps / OVERSAMPLE * TS)
        for engine in (simulate_dt, simulate_dt_loop_oracle):
            best, peak = measure(lambda: engine(model, cfg, traj, x0), repeat)
            out.append((n_x, engine.__name__, steps, "steps", 1e6 * best / steps, peak / 1024))
        best, peak = measure(
            lambda: simulate_ct_reference(model, cfg, scen, oversample=OVERSAMPLE), repeat)
        out.append((n_x, "simulate_ct_reference", substeps, "substeps",
                    1e6 * best / substeps, peak / 1024))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[1, 2, 4, 8, 16, 64],
                    metavar="N_X", help="state sizes (default 1 2 4 8 16 64)")
    ap.add_argument("--steps", type=int, default=1000,
                    help="samples of the discrete engines (default 1000)")
    ap.add_argument("--substeps", type=int, default=800,
                    help="RK4 substeps, a multiple of 20 (default 800)")
    ap.add_argument("--repeat", type=int, default=3, help="timed calls (default 3)")
    ap.add_argument("--src", type=pathlib.Path, default=ROOT / "src",
                    help="directory to import lpvsim from (default this checkout's src/)")
    args = ap.parse_args(argv)
    if min(args.sizes) < 1 or args.steps < 1 or args.repeat < 1:
        ap.error("--sizes, --steps and --repeat must be at least 1")
    if args.substeps < OVERSAMPLE or args.substeps % OVERSAMPLE:
        ap.error(f"--substeps must be a positive multiple of {OVERSAMPLE}")
    sys.path.insert(0, str(args.src.resolve()))
    for n_x, engine, count, unit, us, kib in rows(args.sizes, args.steps, args.substeps,
                                                   args.repeat):
        print(f"n_x {n_x:<3} {engine:<24} {count:>6} {unit:<8} "
              f"{us:>10.2f} us/{unit[:-1]:<7} {kib:>10.1f} KiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
