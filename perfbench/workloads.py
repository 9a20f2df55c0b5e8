"""Jobs of the four workloads and the checks that judge their outputs.

A job is one fixed unit of user work: one or more ``lpvsim`` subcommands run
in-process through ``lpvsim.cli.main(argv)``.  ``run_job`` makes only the
CLI calls, which is what the runner times; ``check_job`` then reads the files
they wrote and verifies them with numpy alone, so neither discrete engine is
trusted to judge itself.
"""

import contextlib
import io
import json

import numpy as np

import gen

#: relative tolerance of the trapezoidal, output and initial-state identities
SIM_RTOL = 1e-9
#: criterion 4: fitted convergence order band
ORDER_BAND = (1.8, 2.2)
#: criterion 3: warping residual relative to max(1, peak |G|)
WARP_RTOL = 1e-9
#: criterion 1: similarity residual to frozen Tustin
SIMILARITY_TOL = 1e-10


def _cli(main, argv):
    """Run one subcommand; return (exit code, captured stderr text)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def run_job(workload, job, main):
    """Run one job's subcommands; return their (exit code, stderr) results."""
    if workload in ("scheduled", "piecewise"):
        common = ["--model", job["model_path"], "--ts", repr(gen.SIM_TS),
                  "--traj", job["traj_path"], f"--x0={job['x0']}"]
        return [
            _cli(main, ["simulate", *common, "--emit-state", "--out", job["out"]]),
            _cli(main, ["compare", *common, "--out", job["cmp"]]),
        ]
    if workload == "converge":
        argv = ["converge", "--model", job["model_path"]]
        argv += [f"--p={s}" for s in job["p_specs"]]
        argv += [f"--u={s}" for s in job["u_specs"]]
        argv += [f"--x0={job['x0']}", "--t-end", repr(gen.CONV_T_END),
                 "--ts-list", job["ts_list"], "--oversample", str(gen.CONV_OVERSAMPLE),
                 "--out", job["out"]]
        return [_cli(main, argv)]
    ts = repr(gen.FREQ_TS)
    return [
        _cli(main, ["freqresp", "--model", job["model_path"], "--ts", ts,
                    f"--p={job['p']}", "--out", job["prefix"]]),
        _cli(main, ["discretize", "--model", job["model_path"], "--ts", ts,
                    f"--p={job['p']}", "--out", job["disc"]]),
        _cli(main, ["check", "--model", job["check_model_path"], "--ts", ts,
                    "--grid", str(gen.CHECK_GRID), "--samples", str(gen.CHECK_SAMPLES),
                    "--seed", job["check_seed"], "--out", job["check"]]),
    ]


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


def _columns(header, data, prefix):
    idx = [j for j, h in enumerate(header) if h.startswith(prefix) and h[len(prefix):].isdigit()]
    return data[:, idx]


def check_trajectory(job):
    """Problems found in a ``simulate --emit-state`` output, [] if none.

    Checks, against the model JSON's own coefficients and the input table:
    the trapezoidal identity ``x(k+1) - x(k) = (Ts/2)(r(k) + r(k+1))`` with
    ``r = A(p) x + B(p) u``, the output map ``y = C(p) x + D(p) u`` and the
    start state ``x(0) = x0``.
    """
    model, p, u, ts = job["model"], job["p"], job["u"], gen.SIM_TS
    header, data = _read_csv(job["out"])
    x, y = _columns(header, data, "x"), _columns(header, data, "y")
    if data.shape[0] != p.shape[0] or x.shape[1] != model.n_x:
        return [f"output has shape {data.shape}, expected {p.shape[0]} rows"]
    if not np.array_equal(data[:, 0], np.arange(p.shape[0])):
        return ["k column does not count 0, 1, 2, ..."]

    def mv(name, v):  # M(p_k) v_k at every sample k
        return np.einsum("kab,kb->ka", model.at(name, p), v)

    r = mv("A", x) + mv("B", u)
    x_scale = max(1.0, float(np.max(np.abs(x))))
    problems = []
    trap = np.max(np.abs(np.diff(x, axis=0) - (ts / 2.0) * (r[:-1] + r[1:])))
    if not trap <= SIM_RTOL * x_scale:
        problems.append(f"trapezoidal identity off by {trap!r}")
    out = np.max(np.abs(y - mv("C", x) - mv("D", u)))
    if not out <= SIM_RTOL * max(1.0, float(np.max(np.abs(y)))):
        problems.append(f"y = Cx + Du off by {out!r}")
    x0 = np.array([float(v) for v in job["x0"].split(",")])
    start = np.max(np.abs(x[0] - x0))
    if not start <= 1e-10:
        problems.append(f"x(0) off by {start!r}")
    return problems


def _check_sim(job, results):
    (sim_code, _), (cmp_code, _) = results
    if sim_code != 0 or cmp_code != 0:
        return [f"exit codes {sim_code}, {cmp_code}"]
    problems = check_trajectory(job)
    if _read_json(job["cmp"]).get("passed") is not True:
        problems.append("compare did not pass")
    return problems


def _check_converge(job, results):
    (code, _), = results
    if code != 0:
        return [f"exit code {code}"]
    with open(job["out"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if "degenerate=true" in lines:
        return ["degenerate convergence study"]
    order = float(lines[-1].partition("fitted_order=")[2])
    if not ORDER_BAND[0] <= order <= ORDER_BAND[1]:
        return [f"fitted order {order!r} outside {ORDER_BAND}"]
    return []


def _peak_gain(path):
    header, data = _read_csv(path)
    re_idx = [j for j, h in enumerate(header) if h.startswith("re")]
    gain = np.hypot(data[:, re_idx], data[:, [j + 1 for j in re_idx]])
    return data.shape[0], float(np.max(gain))


def _check_freq(job, results):
    codes = [c for c, _ in results]
    expected = [0, 0, 3 if job["expect_singular"] else 0]
    if codes != expected:
        return [f"exit codes {codes}, expected {expected}"]
    problems = []
    fr = _read_json(job["prefix"] + ".json")
    peak = 1.0
    for side in ("ct", "dt"):
        rows, gain = _peak_gain(f"{job['prefix']}_{side}.csv")
        peak = max(peak, gain)
        if rows != fr["n_points"]:
            problems.append(f"{side} CSV has {rows} rows, JSON says {fr['n_points']}")
    if not fr["warping_residual"] <= WARP_RTOL * peak:
        problems.append(f"warping residual {fr['warping_residual']!r}")
    sim = _read_json(job["disc"])["similarity_residual"]
    if not sim <= SIMILARITY_TOL:
        problems.append(f"similarity residual {sim!r}")
    report = _read_json(job["check"])
    if job["expect_singular"]:
        stderr = results[2][1]
        if report["passed"] is not False or not report["singular_points"]:
            problems.append("singular model passed the well-posedness check")
        if not any(line.startswith("E_WELLPOSED:") for line in stderr.splitlines()):
            problems.append("no E_WELLPOSED line on stderr")
    elif report["passed"] is not True:
        problems.append("well-posed model failed the check")
    return problems


_CHECKS = {
    "scheduled": _check_sim,
    "piecewise": _check_sim,
    "converge": _check_converge,
    "freq": _check_freq,
}


def check_job(workload, job, results):
    """Problems found in one job's outputs; an unreadable output is one."""
    try:
        return _CHECKS[workload](job, results)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{type(exc).__name__}: {exc}"]
