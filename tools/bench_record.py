"""Record one entry of a BENCH_<n>.json file from the benchmark's own runner.

Usage, from the repository root:

    python3 tools/bench_record.py --out BENCH_13.json --label pr
    python3 tools/bench_record.py --out BENCH_13.json --label parent --checkout DIR

Runs ``python3 perfbench/run.py --workload all --trace 0`` and then the same
with ``--trace 1`` in the checkout (by default, this repository), and stores
under ``entries[LABEL]`` of the output file:

- ``host``: the runner's host and code record (CPU, Python, numpy, BLAS,
  lpvsim commit and source digest);
- ``end_to_end``: the seven end-to-end metrics of each workload;
- ``per_layer``: the traced per-layer figures of each workload.

Other entries of an existing output file are kept, so a parent and a change
can be recorded into one file by two calls.  This script only wraps
``perfbench/run.py``; it gates nothing.
"""

import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_bench(checkout, trace):
    """One ``run.py --workload all`` run: (per-workload metrics, host record)."""
    argv = [sys.executable, "perfbench/run.py", "--workload", "all",
            "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          check=True)
    lines = [line for line in done.stdout.splitlines() if line.startswith("{")]
    metrics = {}
    for key, metric in json.loads(lines[-1])["metrics"].items():
        workload, name = key.split(".", 1)
        metrics.setdefault(workload, {})[name] = metric["value"]
    return metrics, json.loads(lines[0])["info"]["host"]


def record(checkout):
    """The entry for one checkout: both runs, reduced as the docstring says."""
    end_to_end, host = run_bench(checkout, 0)
    per_layer, _ = run_bench(checkout, 1)
    return {"host": host, "end_to_end": end_to_end, "per_layer": per_layer}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="BENCH JSON file to create or extend")
    ap.add_argument("--label", required=True, help="entry name, e.g. parent or pr")
    ap.add_argument("--checkout", default=str(ROOT),
                    help="repository root to benchmark (default: this one)")
    args = ap.parse_args(argv)

    out = pathlib.Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {"entries": {}}
    doc["entries"][args.label] = record(args.checkout)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
