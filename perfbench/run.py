"""lpvsim benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload scheduled --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each workload drives ``lpvsim.cli.main(argv)`` in this process on inputs that
``gen.py`` writes from the seed, checks every job's outputs with
``workloads.py``, and prints one line per metric, one ``info`` JSON line (host,
code and input digests) and, last, the result JSON.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` is a separate run that reports the
per-layer metrics of ``tracing.py``.  See README.md for the metric and
workload rationale.
"""

import os

# one BLAS thread: the benchmark measures a single-process, single-thread CLI
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

import gen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("scheduled", "piecewise", "converge", "freq")

#: the timed loop runs past --seconds until this many jobs, so that at least
#: ten samples lie above job_ms_p90
MIN_JOBS = 100
#: the timed loop never runs longer than this, whatever --seconds and
#: MIN_JOBS ask, so a run ends well within three minutes
MAX_MEASURE_S = 60.0
#: the reference host speed of the timed metrics: ``host_probe`` takes this
#: long there (about its median on a 2-core x86-64 cloud VM)
PROBE_REF_S = 0.005

END_TO_END = (
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("job_alloc_peak_kib", "KiB"),
    ("pass_ratio", "ratio"),
)


class Tally:
    """Attempted and failed jobs, with the first few problems kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, workload, job, main, index, probe=None):
        """Run and check one job; return its CLI wall time in seconds.

        ``probe``, if given, is called once the CLI calls have returned and
        before the checks run.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            results = workloads.run_job(workload, job, main)
        except Exception:  # a raw traceback out of the CLI is a failed job
            elapsed = time.perf_counter() - start
            problems = [traceback.format_exc(limit=3)]
        else:
            elapsed = time.perf_counter() - start
            if probe:
                probe()
            problems = workloads.check_job(workload, job, results)
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"job {index}: " + "; ".join(problems))
        return elapsed


def _purge_lpvsim():
    for name in [n for n in sys.modules if n == "lpvsim" or n.startswith("lpvsim.")]:
        del sys.modules[name]


def set_up(workload, job, tally):
    """Import lpvsim afresh and run one warm-up job; return (cli, seconds).

    Every ``lpvsim`` module is dropped first, so this pays the package import
    plus one warm-up job's CLI calls, as a fresh process would (numpy is
    already loaded by the input generator).  The warm-up job's checks are
    not timed.
    """
    _purge_lpvsim()
    start = time.perf_counter()
    importlib.import_module("lpvsim")
    cli = importlib.import_module("lpvsim.cli")
    elapsed = time.perf_counter() - start
    elapsed += tally.run(workload, job, cli.main, "warm-up")
    if not pathlib.Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"lpvsim was imported from {cli.__file__}, not {SRC}")
    return cli, elapsed


def measure(workload, pool, tally, seconds, min_jobs):
    """Run passes over the pool back to back, each after a fresh set-up.

    A ``host_probe`` runs before every set-up and every job and once after
    the last job.  Returns the jobs' CLI times, their cycle times, the
    set-up times, for each of these the mean of the two probes around it
    (``job_probes``, ``setup_probes``), ``ru_maxrss`` in MiB once ``min_jobs``
    jobs are done and the last set-up's ``lpvsim.cli``.  A job's cycle is its
    CLI calls plus its checks; probes and set-ups are in no cycle.  Job ``k``
    uses pool input ``k % len(pool)``.  Stops once ``seconds`` have passed and
    ``min_jobs`` jobs are done.

    ``ru_maxrss`` grows a little with every set-up on some workloads, so it
    is read after a fixed number of jobs, not at the end of a run whose
    length depends on the host's speed.
    """
    durations, cycles, setups, job_probes, setup_probes = [], [], [], [], []
    rss_mb = None
    start = time.perf_counter()
    probe = host_probe()
    while True:
        i = len(durations)
        if i % len(pool) == 0:
            cli, setup = set_up(workload, pool[0], tally)
            setups.append(setup)
            before, probe = probe, host_probe()
            setup_probes.append((before + probe) / 2.0)
        cycle = time.perf_counter()
        durations.append(tally.run(workload, pool[i % len(pool)], cli.main, i))
        cycles.append(time.perf_counter() - cycle)
        before, probe = probe, host_probe()
        job_probes.append((before + probe) / 2.0)
        if len(durations) == min_jobs:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(durations) >= min_jobs) or elapsed >= MAX_MEASURE_S:
            if rss_mb is None:
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            return durations, cycles, setups, job_probes, setup_probes, rss_mb, cli


def host_probe():
    """Seconds taken by a fixed piece of lpvsim-free work like a job's.

    Small numpy solves, Python arithmetic and number formatting.  The host
    this benchmark was tuned on changes speed by up to 2x over minutes, and the
    probe slows and speeds up with it, while its ratio to a job's time holds
    within a few percent; ``calibrated`` uses that ratio.
    """
    a = np.array([[2.0, 0.1, 0.0], [0.1, 2.0, 0.1], [0.0, 0.1, 2.0]])
    b = np.ones(3)
    start = time.perf_counter()
    text = []
    for i in range(200):
        x = np.linalg.solve(a + i * 1e-6 * np.eye(3), b)
        text.append(f"{float(x @ x)!r}," + ",".join(repr(float(v)) for v in x))
    return time.perf_counter() - start


def calibrated(times, probes):
    """Each time scaled to a host on which ``host_probe`` takes PROBE_REF_S."""
    return [PROBE_REF_S * t / p for t, p in zip(times, probes)]


def alloc_peak_kib(workload, pool, cli, tally):
    """Largest memory one job's CLI calls allocate, over one untimed pass.

    ``tracemalloc`` sees Python objects and numpy arrays alike, so a job that
    builds ``(N, n, n)`` stacks shows here even where ``ru_maxrss``, set by
    the imports long before, does not move.  For each pool input this is the
    peak of traced memory during its CLI calls above what was traced when
    they began.  A collection before each job clears garbage left by
    earlier ones and restarts the collector's counts, so the collector runs
    at the same points of a job on every run.
    """
    peaks = []
    tracemalloc.start()
    try:
        for i, job in enumerate(pool):
            gc.collect()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            tally.run(workload, job, cli.main, f"alloc-{i}",
                      probe=lambda: peaks.append(tracemalloc.get_traced_memory()[1] - base))
    finally:
        tracemalloc.stop()
    return max(peaks, default=0) / 1024.0


def _quantile(values, q):
    return float(np.quantile(np.asarray(values), q))


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "lpvsim").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def host_info():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "lpvsim_commit": _git_commit(),
        "lpvsim_src_sha256": _src_digest(),
    }


def run_workload(workload, seed, seconds, trace, min_jobs=MIN_JOBS):
    """One benchmark run; returns (result dict, info dict)."""
    work = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    try:
        inputs = gen.generate(workload, seed, work)
        pool = inputs.jobs
        tally = Tally()
        info = {"workload": workload, "seed": seed, "trace": trace,
                "inputs_sha256": inputs.digest(), "pool": len(pool)}
        if trace:
            metrics = _traced(workload, pool, tally, seconds, info)
        else:
            durations, cycles, setups, job_probes, setup_probes, rss_mb, cli = measure(
                workload, pool, tally, seconds, max(min_jobs, len(pool)))
            ms = [1e3 * d for d in calibrated(durations, job_probes)]
            values = {
                "job_ms_p50": statistics.median(ms),
                "job_ms_p90": _quantile(ms, 0.9),
                "jobs_per_s": len(cycles) / sum(calibrated(cycles, job_probes)),
                "setup_s": statistics.median(calibrated(setups, setup_probes)),
                "peak_rss_mb": rss_mb,
                "job_alloc_peak_kib": alloc_peak_kib(workload, pool, cli, tally),
                "pass_ratio": 1.0 - tally.failed / tally.attempted,
            }
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END}
            info.update(jobs=len(durations), measured_s=sum(cycles), setups=len(setups),
                        wall_job_ms_p50=1e3 * statistics.median(durations),
                        wall_setup_s=statistics.median(setups),
                        host_probe_ms_median=1e3 * statistics.median(job_probes))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info["problems"] = tally.problems
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    return result, info


def _traced(workload, pool, tally, seconds, info):
    """Untraced jobs for half the time, then whole traced passes over the pool.

    Traced jobs get a ``host_probe`` around each, as untraced ones do, so the
    overhead ratio compares calibrated times.
    """
    plain, _, _, plain_probes, _, _, cli = measure(
        workload, pool, tally, seconds / 2.0, min_jobs=len(pool))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        first = len(plain)
        traced, traced_probes = [], []
        probe = host_probe()
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds / 2.0:
            for _ in range(len(pool)):
                tracer.job = first + len(traced)
                traced.append(tally.run(workload, pool[tracer.job % len(pool)],
                                        cli.main, tracer.job))
                before, probe = probe, host_probe()
                traced_probes.append((before + probe) / 2.0)
    finally:
        tracer.uninstall()
    overhead = (statistics.median(calibrated(traced, traced_probes))
                / statistics.median(calibrated(plain, plain_probes)))
    values = tracer.per_layer(len(traced), overhead)
    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / f"spans-{workload}.csv")
    info.update(untraced_jobs=len(plain), traced_jobs=len(traced), spans=len(tracer.spans))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in tracing.PER_LAYER}


def _print_run(result, info):
    for name, m in result["metrics"].items():
        print(f"{info['workload']:>9} {name:<48} {m['value']:>14.6g} {m['unit']}")
    for problem in info["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "lpvsim" / "__init__.py").is_file():
        print(f"error: lpvsim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    host = host_info()
    runs = []
    for name in names:
        result, info = run_workload(name, args.seed, args.seconds, args.trace)
        _print_run(result, info)
        print(json.dumps({"info": {**info, "host": host}}))
        runs.append((name, result))
    if len(runs) == 1:
        final = runs[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in runs),
            "attempted": sum(r["attempted"] for _, r in runs),
            "failed": sum(r["failed"] for _, r in runs),
            "metrics": {f"{name}.{k}": v for name, r in runs for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
