"""``tools/alloc_peaks.py`` runs on one job per workload and names a place,
also inside a generator, and no ``scheduled`` or ``converge`` benchmark job
allocates more than its budget."""

import gc
import importlib.util
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


def test_every_converge_job_allocates_at_most_260_kib(perfbench, tmp_path):
    # measured as perfbench/run.py measures job_alloc_peak_kib.  The n_x = 4
    # jobs set it near 250 KiB with an RK4 window of 256 substeps; a window
    # budget under which a smaller model's longer window outgrows theirs
    # would show here
    gen, workloads, _ = perfbench
    pool = gen.generate("converge", 1, tmp_path).jobs
    workloads.run_job("converge", pool[0], cli.main)  # first-call allocations are no job's
    peaks = []
    tracemalloc.start()
    try:
        for job in pool:
            gc.collect()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            results = workloads.run_job("converge", job, cli.main)
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / 1024.0)
            assert [code for code, _ in results] == [0]
    finally:
        tracemalloc.stop()
    assert len(peaks) == 8 and max(peaks) <= 260.0, peaks


def test_a_peak_reached_inside_a_generator_is_named_after_it(perfbench, monkeypatch):
    # the tool sets one BLAS thread and puts src/ and perfbench/ on the path
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("alloc_peaks", ROOT / "tools" / "alloc_peaks.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    locator = tool.PeakLocator()

    def blocks():
        # the peak: a buffer made and freed while the generator runs, as
        # _line_blocks cuts a block, and not when the generator is made
        for size in (2**20, 16):
            yield len(bytearray(size))

    def read():
        return list(wrapped_blocks())

    wrapped_blocks, wrapped_read = locator._wrap(blocks), locator._wrap(read)
    tracemalloc.start()
    try:
        locator.start_job()
        assert wrapped_read() == [2**20, 16]
        locator.read()
    finally:
        tracemalloc.stop()
    assert locator.where == f"{__name__}.{blocks.__qualname__}"
    assert locator.stack == []
