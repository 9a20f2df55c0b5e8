"""``tools/ab_pairs.py`` runs alternating benchmark pairs of two revisions
and summarises every end-to-end metric."""

import importlib.util
import json
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)


def test_summary_counts_pairs_won_in_the_metric_direction():
    metrics = [{"name": "ms", "unit": "ms", "better": "lower"},
               {"name": "rate", "unit": "1/s", "better": "higher"}]
    parent = [{"metrics": {"ms": {"value": a}, "rate": {"value": r}}}
              for a, r in ((10.0, 5.0), (12.0, 5.0), (11.0, 5.0), (13.0, 5.0))]
    change = [{"metrics": {"ms": {"value": a}, "rate": {"value": r}}}
              for a, r in ((9.0, 6.0), (12.0, 4.0), (10.0, 5.0), (12.5, 7.0))]
    ms, rate = ab_pairs.summary(metrics, parent, change)
    # the parent's median 11.5 and quartiles 10.75 .. 12.25; ties are not won
    assert ms[:6] == ("ms", "ms", 11.5, 10.75, 12.25, 11.0)
    assert ms[6] == (11.0 - 11.5) / 11.5
    assert ms[7:] == (False, 3)  # a change of 0.5 inside the spread of 1.5
    assert rate[2] == 5.0 and rate[5] == 5.5
    assert rate[7:] == (True, 2)  # any change is beyond a spread of 0


def test_a_time_row_reads_its_change_against_the_median_self_ms_change():
    # every time is 10% slower on the change side but one layer, 20% faster
    # than that; the median self_ms ratio is the drift, 1.1
    rows = [(name, unit, a, 0.0, 0.0, b, b / a - 1.0 if a else 0.0, False, 0)
            for name, unit, a, b in (
                ("x.self_ms", "ms", 2.0, 2.2),
                ("y.self_ms", "ms", 1.0, 1.1),
                ("z.self_ms", "ms", 4.0, 4.4 * 0.8),
                ("y.us_per_step", "us", 3.0, 3.3),
                ("y.steps", "count", 100.0, 100.0),
                ("w.self_ms", "ms", 0.0, 0.0),  # a layer that did not run
            )]
    fair = ab_pairs.against_drift(rows)
    assert [round(f, 12) if f is not None else None for f in fair] == [
        0.0, 0.0, -0.2, 0.0, None, None]
    # no self_ms row ran on both sides: no drift to measure
    assert ab_pairs.against_drift(rows[3:]) == [None, None, None]


def _copy_tool_tree(dest):
    """The files the tool and its runs read, copied from this checkout."""
    skip = shutil.ignore_patterns("__pycache__", "*.pyc", "*.egg-info")
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    (dest / "tools").mkdir()
    for name in ("BENCHMARK.json", "tools/ab_pairs.py"):
        shutil.copyfile(ROOT / name, dest / name)
    return dest


def _git(repo, *args):
    subprocess.run(["git", "-c", "user.name=ab", "-c", "user.email=ab@localhost",
                    "-c", "commit.gpgsign=false", *args],
                   cwd=repo, check=True, capture_output=True)


def test_one_pair_of_head_against_itself_reports_every_metric(tmp_path):
    # the tool exports git revisions, so it runs in a throwaway repository
    # of one commit; this checkout need not be a git work tree
    repo = _copy_tool_tree(tmp_path / "repo")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "tool tree")
    done = subprocess.run(
        [sys.executable, "tools/ab_pairs.py", "HEAD", "HEAD", "--workload", "converge",
         "--pairs", "1", "--seconds", "0.05", "--trace", "1"],
        cwd=repo, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("ab_pairs: converge, 1 pair(s) of 0.05 s runs, HEAD against HEAD")
    assert ", traced seeds " in lines[0]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"]]
    layers = [m["name"] for m in bench["per_layer"]]
    end_to_end, per_layer = lines[2:2 + len(names)], lines[3 + len(names):]
    assert [line.split()[0] for line in end_to_end] == names
    assert lines[2 + len(names)].split() == [
        "per-layer", "metric", "parent", "p50", "change", "p50", "change", "vs", "drift", "won"]
    assert [line.split()[0] for line in per_layer] == layers
    assert all(line.split()[-1] in ("0/1", "1/1") for line in end_to_end + per_layer)
    # the drift column: a signed percentage on each time row that ran, else -
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for line in per_layer:
        cells = line.split()
        ran = units[cells[0]] in ("ms", "us") and float(cells[-5]) > 0 and float(cells[-4]) > 0
        assert (cells[-2][0] in "+-" and cells[-2].endswith("%")) if ran else cells[-2] == "-"
    assert any(line.split()[-2] != "-" for line in per_layer)


def test_outside_a_git_work_tree_the_tool_ends_in_one_line(tmp_path):
    tree = _copy_tool_tree(tmp_path / "tree")
    done = subprocess.run(
        [sys.executable, "tools/ab_pairs.py", "HEAD", "HEAD", "--workload", "converge",
         "--pairs", "1"],
        cwd=tree, capture_output=True, text=True, timeout=60,
        env={**os.environ, "GIT_CEILING_DIRECTORIES": str(tmp_path), "LC_ALL": "C"},
    )
    assert done.returncode == 1
    [line] = done.stderr.splitlines()
    assert line.startswith(f"ab_pairs: git archive HEAD in {tree.resolve()}: ")
    assert "not a git repository" in line
