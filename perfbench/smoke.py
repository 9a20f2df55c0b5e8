"""Smoke test of the benchmark itself; run from the repository root:

    python3 perfbench/smoke.py

Runs every workload at a tiny load, untraced and traced, and checks that each
metric named in BENCHMARK.json is emitted with its unit and that each layer
runs on the workloads that exercise it.  Then corrupts real outputs (one
perturbed ``x`` entry in a simulate CSV, an out-of-band convergence order, a
missing ``E_WELLPOSED`` line) and checks that each is counted as a failed job.
It lives outside ``tests/`` so the project's test run does not grow.
"""

import json
import math
import sys

import run

#: per-layer metrics that must be non-zero on a workload, and factor ratios
_MUST_RUN = {
    "scheduled": ["model.eval_pmatrix.calls", "discretize.phi.calls",
                  "simulate.simulate_dt_loop_oracle.steps",
                  "simulate.write_trajectory_csv.bytes",
                  "simulate.read_trajectory_csv.rows", "cli.main.calls"],
    "piecewise": ["simulate.simulate_dt.steps", "simulate.simulate_dt_loop_oracle.steps"],
    "converge": ["model.eval_pmatrix_many.rows", "simulate.simulate_ct_reference.substeps",
                 "simulate.sample_scenario.self_ms", "analyze.convergence_order.self_ms"],
    "freq": ["analyze.freqresp_ct.points", "analyze.freqresp_dt.points",
             "analyze.warping_residual.points", "analyze.frequency_response_csv.rows",
             "discretize.wellposedness_check.points", "discretize.tustin_frozen.self_ms",
             "model.parse_model.self_ms"],
}
_FACTOR_RATIO = {"scheduled": (0.99, 1.0), "piecewise": (0.0, 0.01)}


def _expect(ok, message, failures):
    if not ok:
        failures.append(message)


def check_metrics(workload, result, spec, failures):
    got = result["metrics"]
    _expect(result["correct"] and result["failed"] == 0,
            f"{workload}: {result['failed']} failed jobs", failures)
    _expect(list(got) == [m["name"] for m in spec],
            f"{workload}: metric names differ from BENCHMARK.json", failures)
    for m in spec:
        entry = got.get(m["name"], {})
        _expect(entry.get("unit") == m["unit"],
                f"{workload}: {m['name']} unit {entry.get('unit')!r}", failures)
        value = entry.get("value")
        _expect(isinstance(value, (int, float)) and math.isfinite(value),
                f"{workload}: {m['name']} value {value!r}", failures)


def check_corruption(failures):
    """Corrupted outputs of real jobs must each count as a failure."""
    import lpvsim.cli

    main = lpvsim.cli.main
    root = run.WORK / "smoke"
    jobs = {w: run.gen.generate(w, 5, root / w).jobs for w in ("scheduled", "converge", "freq")}

    job = jobs["scheduled"][3]
    results = run.workloads.run_job("scheduled", job, main)
    _expect(not run.workloads.check_job("scheduled", job, results),
            "scheduled: clean output judged wrong", failures)
    with open(job["out"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    cells = lines[len(lines) // 2].split(",")
    col = header.index("x1")
    cells[col] = repr(float(cells[col]) * (1.0 + 1e-6))
    lines[len(lines) // 2] = ",".join(cells)
    with open(job["out"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    _expect(run.workloads.check_job("scheduled", job, results),
            "scheduled: perturbed x entry not counted as a failure", failures)

    job = jobs["converge"][0]
    results = run.workloads.run_job("converge", job, main)
    _expect(not run.workloads.check_job("converge", job, results),
            "converge: clean output judged wrong", failures)
    with open(job["out"], "a", encoding="utf-8") as fh:
        fh.write("fitted_order=1.0\n")
    _expect(run.workloads.check_job("converge", job, results),
            "converge: order 1.0 not counted as a failure", failures)

    job = next(j for j in jobs["freq"] if j["expect_singular"])
    results = run.workloads.run_job("freq", job, main)
    _expect(not run.workloads.check_job("freq", job, results),
            "freq: clean expected-failure job judged wrong", failures)
    silent = results[:2] + [(results[2][0], "")]
    _expect(run.workloads.check_job("freq", job, silent),
            "freq: missing E_WELLPOSED line not counted as a failure", failures)
    run.shutil.rmtree(root, ignore_errors=True)


def main():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    failures = []
    _expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
            "workload names differ from BENCHMARK.json", failures)
    sys.path.insert(0, str(run.SRC))
    for workload in run.WORKLOADS:
        result, _ = run.run_workload(workload, 3, 0.2, 0, min_jobs=3)
        check_metrics(workload, result, bench["end_to_end"], failures)
        result, _ = run.run_workload(workload, 3, 0.2, 1)
        check_metrics(workload, result, bench["per_layer"], failures)
        values = {k: v["value"] for k, v in result["metrics"].items()}
        for name in _MUST_RUN[workload]:
            _expect(values[name] > 0, f"{workload}: {name} is 0 in the traced run", failures)
        lo, hi = _FACTOR_RATIO.get(workload, (0.0, 1.0))
        _expect(lo <= values["discretize.factor_ratio"] <= hi,
                f"{workload}: factor_ratio {values['discretize.factor_ratio']}", failures)
        print(f"{workload}: ok" if not failures else f"{workload}: {failures}")
    check_corruption(failures)
    for f in failures:
        print("FAIL", f)
    print("smoke: " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
