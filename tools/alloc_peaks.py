"""Where each benchmark job reaches its allocation peak.

Usage, from the repository root:

    python3 tools/alloc_peaks.py --workload converge --seed 1 --seed 2
    python3 tools/alloc_peaks.py --workload all --jobs 1

For each workload and seed, writes the workload's input pool with
``perfbench/gen.py`` into a temporary directory, runs every job once
untraced, and then prints one line per job:

    converge seed 1 job 0: 249.8 KiB in lpvsim.model.eval_pmatrix_many

The figure is measured as ``perfbench/run.py``'s ``job_alloc_peak_kib``
measures it: ``gc.collect()``, ``tracemalloc.reset_peak()``, then the peak of
traced memory during the job's CLI calls above what was traced when they
began.  The function is the innermost ``lpvsim`` module function running
when that peak was reached.  It comes from a second run of the job with every
module function of ``lpvsim`` wrapped, so that the wrappers' own small
allocations stay out of the printed figure; the subcommand functions, which
the CLI reaches through the parser it built in the warm-up, run unwrapped, so
a peak in their own lines shows as ``lpvsim.cli.main``.  The wrappers are
removed before the script exits.  ``perfbench/`` is only read: it is
imported without writing bytecode there.
"""

import os

# one BLAS thread, as in the benchmark runner
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("scheduled", "piecewise", "converge", "freq")

sys.dont_write_bytecode = True  # leave perfbench/ as it is
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402
import workloads  # noqa: E402


class PeakLocator:
    """Wraps lpvsim's module functions to name where a traced peak is hit.

    Every call and return reads tracemalloc's peak.  When the peak has grown
    since the last read, it was reached since then, while the innermost
    function on the wrapper stack at that read was running.
    """

    def __init__(self):
        self.stack = []
        self.peak = 0
        self.where = None
        self._undo = []

    def read(self):
        peak = tracemalloc.get_traced_memory()[1]
        if peak > self.peak:
            self.peak = peak
            self.where = self.stack[-1] if self.stack else None

    def _wrap(self, fn):
        name = f"{fn.__module__}.{fn.__qualname__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.read()
            self.stack.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.read()
                self.stack.pop()

        return wrapper

    def install(self):
        """Rebind each lpvsim module function wherever an lpvsim module holds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "lpvsim" or name.startswith("lpvsim.")]
        wrappers = {value: self._wrap(value)
                    for mod in modules for value in vars(mod).values()
                    if inspect.isfunction(value) and value.__module__ == mod.__name__}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    self._undo.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def start_job(self):
        """Restart the peak at the current traced size."""
        gc.collect()
        tracemalloc.reset_peak()
        self.peak = tracemalloc.get_traced_memory()[1]
        self.where = None


def traced_peak(workload, job, main):
    """Peak traced bytes of one job's CLI calls above their start, as in run.py."""
    gc.collect()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    workloads.run_job(workload, job, main)
    return tracemalloc.get_traced_memory()[1] - base


def peaks(workload, seed, max_jobs=None):
    """[(job index, peak bytes, innermost lpvsim function)] for one pool."""
    cli = importlib.import_module("lpvsim.cli")
    with tempfile.TemporaryDirectory() as work:
        pool = gen.generate(workload, seed, work).jobs[:max_jobs]
        for job in pool:  # warm-up: first-call allocations are no job's
            workloads.run_job(workload, job, cli.main)
        tracemalloc.start()
        try:
            sizes = [traced_peak(workload, job, cli.main) for job in pool]
            locator = PeakLocator()
            locator.install()
            try:
                places = []
                for job in pool:
                    locator.start_job()
                    workloads.run_job(workload, job, cli.main)
                    locator.read()
                    places.append(locator.where or "(outside lpvsim)")
            finally:
                locator.uninstall()
        finally:
            tracemalloc.stop()
    return list(zip(range(len(pool)), sizes, places))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, action="append",
                    help="input seed; repeat for several (default: 1)")
    ap.add_argument("--jobs", type=int, default=None,
                    help="only the first JOBS jobs of each pool (default: all)")
    args = ap.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        for seed in args.seed or [1]:
            for index, size, where in peaks(name, seed, args.jobs):
                print(f"{name} seed {seed} job {index}: {size / 1024.0:.1f} KiB in {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
