"""Compare the benchmark's end-to-end metrics of two git revisions, run in
alternating pairs.

Usage, from the repository root:

    python3 tools/ab_pairs.py PARENT CHANGE --workload W --pairs K [--seconds S] [--trace T]

Exports each revision whole with ``git archive`` into a temporary directory.
Draws K seeds at random and, for each, runs
``python3 perfbench/run.py --workload W --seed SEED --seconds S --trace 0``
once in each export, one run at a time: PARENT first in even pairs, CHANGE
first in odd ones.  With ``--trace T``, T more seeds get one traced run
(``--trace 1``) per export each, in the same alternating order.  Each export
runs its own ``perfbench/`` and ``src/``; nothing in this checkout is
written.

Prints the seeds, then one row per end-to-end metric of ``BENCHMARK.json``:
the parent's median and quartiles, the change's median, the change of the
medians, whether it exceeds the parent's interquartile spread, and the pairs
the change won (strictly better in the metric's direction).  With
``--trace``, one row per per-layer metric of ``BENCHMARK.json`` follows: the
two medians over the traced runs, their change, the change of a time metric
against the host's drift (see :func:`against_drift`) and the traced pairs
won.  Exits 1 if a run reports a failed job, or with one line if a revision
cannot be exported, as when the checkout is not a git work tree.
"""

import argparse
import io
import json
import pathlib
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent


def export(rev, dest, *paths):
    """Write ``paths`` of git revision ``rev`` (its whole tree if none) under
    ``dest``; where git cannot, as outside a git work tree, exit with one
    line, named after the running tool, giving its reason."""
    done = subprocess.run(["git", "archive", "--format=tar", rev, *paths], cwd=ROOT,
                          capture_output=True)
    if done.returncode:
        reason = " ".join(done.stderr.decode(errors="replace").split())
        tool = pathlib.Path(sys.argv[0]).stem
        sys.exit(f"{tool}: git archive {rev} in {ROOT}: {reason}")
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as fh:
        fh.extractall(dest)
    return dest


def run_once(checkout, workload, seed, seconds, trace=0):
    """The result line of one benchmark run in ``checkout``, traced if
    ``trace`` is 1."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])


def summary(metrics, parent, change):
    """One row per metric: (name, unit, parent median, q1, q3, change median,
    relative change, beyond the parent's spread, pairs won).

    ``parent`` and ``change`` are lists of run results in pair order;
    ``metrics`` is the ``end_to_end`` or the ``per_layer`` list of
    ``BENCHMARK.json``.
    """
    rows = []
    for m in metrics:
        a = [r["metrics"][m["name"]]["value"] for r in parent]
        b = [r["metrics"][m["name"]]["value"] for r in change]
        sign = 1.0 if m["better"] == "higher" else -1.0
        q1, q3 = np.quantile(a, [0.25, 0.75])
        med_a, med_b = statistics.median(a), statistics.median(b)
        rows.append((m["name"], m["unit"], med_a, float(q1), float(q3), med_b,
                     (med_b - med_a) / med_a if med_a else 0.0,
                     abs(med_b - med_a) > q3 - q1,
                     sum(sign * (y - x) > 0 for x, y in zip(a, b))))
    return rows


def against_drift(rows):
    """Each time row's change against the median change of the traced runs.

    Traced per-layer times are raw wall time, so a host whose load drifts
    between the two sides moves every layer alike.  The drift is the median
    ratio of the change's to the parent's median over every ``*.self_ms``
    row that ran on both sides; a time row (unit ms or us) reads
    ``ratio / drift - 1``, near 0 for a layer the change did not touch.
    ``rows`` are :func:`summary` rows; other rows, and rows that did not run
    on both sides, read None.
    """
    ratios = [med_b / med_a for name, _, med_a, _, _, med_b, *_ in rows
              if name.endswith(".self_ms") and med_a > 0 and med_b > 0]
    drift = statistics.median(ratios) if ratios else None
    return [(med_b / med_a) / drift - 1.0
            if drift and unit in ("ms", "us") and med_a > 0 and med_b > 0 else None
            for _, unit, med_a, _, _, med_b, *_ in rows]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="git revision of the base side")
    ap.add_argument("change", help="git revision of the changed side")
    ap.add_argument("--workload", required=True,
                    choices=("scheduled", "piecewise", "converge", "freq"))
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=8.0, help="length of each run")
    ap.add_argument("--trace", type=int, default=0, metavar="T",
                    help="traced pairs, for the per-layer medians (default 0)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if args.trace < 0:
        ap.error("--trace must be at least 0")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = random.SystemRandom().sample(range(1, 1_000_000), args.pairs + args.trace)
    seeds, traced_seeds = seeds[:args.pairs], seeds[args.pairs:]
    print(f"ab_pairs: {args.workload}, {args.pairs} pair(s) of {args.seconds:g} s runs, "
          f"{args.parent} against {args.change}, seeds {' '.join(map(str, seeds))}"
          + (f", traced seeds {' '.join(map(str, traced_seeds))}" if traced_seeds else ""))
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        dirs = {"parent": export(args.parent, pathlib.Path(tmp) / "parent"),
                "change": export(args.change, pathlib.Path(tmp) / "change")}
        runs = {"parent": [], "change": []}
        traced = {"parent": [], "change": []}
        for trace, logs, pair_seeds in ((0, runs, seeds), (1, traced, traced_seeds)):
            for i, seed in enumerate(pair_seeds):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    logs[side].append(run_once(dirs[side], args.workload, seed,
                                               args.seconds, trace))

    print(f"{'metric':<26} {'parent p50':>12} {'parent q1..q3':>25} {'change p50':>12} "
          f"{'change':>8} {'>IQR':>5} {'won':>6}")
    for name, unit, med_a, q1, q3, med_b, rel, beyond, won in summary(
            bench["end_to_end"], runs["parent"], runs["change"]):
        print(f"{name + ' (' + unit + ')':<26} {med_a:>12.5g} {q1:>12.5g}..{q3:<12.5g} "
              f"{med_b:>12.5g} {rel:>+8.2%} {'yes' if beyond else 'no':>5} "
              f"{won:>3}/{args.pairs}")
    if traced_seeds:
        print(f"{'per-layer metric':<50} {'parent p50':>12} {'change p50':>12} "
              f"{'change':>8} {'vs drift':>8} {'won':>6}")
        rows = summary(bench["per_layer"], traced["parent"], traced["change"])
        for (name, unit, med_a, _, _, med_b, rel, _, won), fair in zip(
                rows, against_drift(rows)):
            print(f"{name + ' (' + unit + ')':<50} {med_a:>12.5g} {med_b:>12.5g} "
                  f"{rel:>+8.2%} {'-' if fair is None else format(fair, '+.2%'):>8} "
                  f"{won:>3}/{args.trace}")
    failed = sum(r["failed"] for logs in (runs, traced) for side in logs.values() for r in side)
    if failed:
        print(f"ab_pairs: {failed} job(s) failed their checks", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
