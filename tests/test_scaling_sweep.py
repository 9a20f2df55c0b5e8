"""``tools/scaling_sweep.py`` prints the time and peak of each engine at each
state size."""

import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
LINE = re.compile(r"n_x (\d+) +(\w+) +(\d+) (steps|substeps) +(\d+\.\d\d) us/(step|substep) "
                  r"+(\d+\.\d) KiB")


def test_one_tiny_size_gives_one_line_per_engine():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "scaling_sweep.py"), "--sizes", "2",
         "--steps", "20", "--substeps", "40", "--repeat", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    matches = [LINE.fullmatch(line) for line in done.stdout.splitlines()]
    assert all(matches), done.stdout
    assert [m.group(1, 2, 3, 4) for m in matches] == [
        ("2", "simulate_dt", "20", "steps"),
        ("2", "simulate_dt_loop_oracle", "20", "steps"),
        ("2", "simulate_ct_reference", "40", "substeps"),
    ]
    assert all(float(m[5]) > 0 and float(m[7]) > 0 for m in matches)
