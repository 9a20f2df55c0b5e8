"""``tools/alloc_peaks.py`` runs on one job per workload and names a place,
and no ``scheduled`` benchmark job allocates more than its budget."""

import gc
import pathlib
import re
import subprocess
import sys
import tracemalloc

from lpvsim import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
LINE = re.compile(r"(scheduled|piecewise|converge|freq) seed 1 job 0: "
                  r"(\d+\.\d) KiB in (lpvsim\.\S+)")


def test_alloc_peaks_prints_one_peak_and_place_per_job():
    perfbench = sorted(p.name for p in (ROOT / "perfbench").iterdir())
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "alloc_peaks.py"), "--jobs", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    matches = [LINE.fullmatch(line) for line in lines]
    assert all(matches), lines
    assert [m[1] for m in matches] == ["scheduled", "piecewise", "converge", "freq"]
    assert all(float(m[2]) > 0 for m in matches)
    assert sorted(p.name for p in (ROOT / "perfbench").iterdir()) == perfbench


def test_every_scheduled_job_allocates_at_most_240_kib(perfbench, tmp_path):
    # measured as perfbench/run.py measures job_alloc_peak_kib.  A whole-run
    # (N, 2n, 2n) loop stack in the oracle would set it near 319 KiB, and a
    # whole-table split in the reader near 259 KiB; with both bounded, the
    # peak is the writer's, near 211 KiB
    gen, workloads, _ = perfbench
    pool = gen.generate("scheduled", 1, tmp_path).jobs
    workloads.run_job("scheduled", pool[0], cli.main)  # first-call allocations are no job's
    peaks = []
    tracemalloc.start()
    try:
        for job in pool:
            gc.collect()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            results = workloads.run_job("scheduled", job, cli.main)
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / 1024.0)
            assert [code for code, _ in results] == [0, 0]
    finally:
        tracemalloc.stop()
    assert len(peaks) == 8 and max(peaks) <= 240.0, peaks
