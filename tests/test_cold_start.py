"""``tools/cold_start.py`` times the start-up of fresh lpvsim processes."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_one_process_per_mode_reports_every_column():
    done = subprocess.run([sys.executable, "tools/cold_start.py", "-k", "1"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "cold_start: median of 1 fresh process(es) per row, ms"
    assert lines[1].split() == ["tree", "bytecode", "process", "numpy", "lpvsim.cli",
                                "build_parser"]
    assert [line.split()[:2] for line in lines[2:]] == [[".", "yes"], [".", "no"]]
    for line in lines[2:]:
        process, *parts = map(float, line.split()[2:])
        assert all(t > 0.0 for t in parts) and process > sum(parts)
