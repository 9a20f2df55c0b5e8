"""``tools/alloc_peaks.py`` runs on one job per workload and names a place."""

import pathlib
import re
import subprocess
import sys

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
