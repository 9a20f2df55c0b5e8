"""Start-up cost of one ``lpvsim`` process, measured in fresh interpreters.

Usage, from the repository root:

    python3 tools/cold_start.py [REV ...] [-k K]

Each REV is a git revision, whose ``src/`` is exported with ``git archive``,
or ``.`` for the working tree's ``src/``, the default.  Each tree is copied to a temporary
directory without bytecode.  Then K rounds each run, per tree, one fresh
``python3`` process with bytecode and one without, the trees in alternating
order from round to round:

* with bytecode: ``PYTHONPYCACHEPREFIX`` names a temporary directory that
  one untimed process filled first, so every module is read compiled;
* without: ``PYTHONDONTWRITEBYTECODE=1`` and no bytecode anywhere for
  lpvsim, so it is compiled from source, as in a fresh checkout.

Each process times, with ``time.perf_counter``, ``import numpy``, then
``import lpvsim.cli``, then the first ``lpvsim.cli.build_parser()``; the
whole process, from its start to its exit, is timed around it.  Prints one
row per tree and mode with the median of each over the K processes, in ms.
"""

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from ab_pairs import export

ROOT = pathlib.Path(__file__).resolve().parent.parent

_CHILD = """
import json, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import lpvsim.cli
t2 = time.perf_counter()
lpvsim.cli.build_parser()
t3 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1, t3 - t2]))
"""

COLUMNS = ("process", "numpy", "lpvsim.cli", "build_parser")


def source_tree(rev, dest):
    """Copy ``src/`` of git revision ``rev`` (``.``: the working tree) to
    ``dest``, leaving out any bytecode; returns ``dest``."""
    if rev == ".":
        shutil.copytree(ROOT / "src", dest, ignore=shutil.ignore_patterns("__pycache__"))
        return dest
    shutil.move(export(rev, dest.parent / "export", "src") / "src", dest)
    return dest


def run_child(src, env):
    """Seconds of one fresh process: (process, numpy, lpvsim.cli, build_parser)."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", _CHILD], env=env, cwd=src,
                          capture_output=True, text=True, check=True)
    total = time.perf_counter() - start
    return [total, *json.loads(done.stdout)]


def environments(src, pycache):
    """The two child environments of one tree: with bytecode, without."""
    base = {k: v for k, v in os.environ.items()
            if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    base["PYTHONPATH"] = str(src)
    return {"yes": dict(base, PYTHONPYCACHEPREFIX=str(pycache)),
            "no": dict(base, PYTHONDONTWRITEBYTECODE="1")}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("revs", nargs="*", metavar="REV", default=["."],
                    help="git revisions to measure, . for the working tree (default)")
    ap.add_argument("-k", type=int, default=15, help="fresh processes per tree and mode")
    args = ap.parse_args(argv)
    if args.k < 1:
        ap.error("-k must be at least 1")
    if len(set(args.revs)) < len(args.revs):
        ap.error("name each REV once")
    with tempfile.TemporaryDirectory(prefix="cold_start-") as tmp:
        envs = {}
        for i, rev in enumerate(args.revs):
            where = pathlib.Path(tmp) / str(i)
            where.mkdir()
            src = source_tree(rev, where / "src")
            envs[rev] = environments(src, where / "pycache")
            run_child(src, envs[rev]["yes"])  # fills the bytecode cache
        times = {(rev, mode): [] for rev in args.revs for mode in ("yes", "no")}
        for k in range(args.k):
            for name in args.revs if k % 2 == 0 else args.revs[::-1]:
                for mode, env in envs[name].items():
                    times[name, mode].append(run_child(env["PYTHONPATH"], env))

    print(f"cold_start: median of {args.k} fresh process(es) per row, ms")
    width = max(len(n) for n in args.revs + ["tree"])
    print(f"{'tree':<{width}} {'bytecode':>8}" + "".join(f" {c:>12}" for c in COLUMNS))
    for (name, mode), rows in times.items():
        medians = [1e3 * statistics.median(col) for col in zip(*rows)]
        print(f"{name:<{width}} {mode:>8}" + "".join(f" {m:>12.2f}" for m in medians))
    return 0


if __name__ == "__main__":
    sys.exit(main())
