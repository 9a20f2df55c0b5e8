"""Compare what the CLI and the demos print and write at a git revision with
what they do in the working tree, byte for byte.

Usage, from the repository root:

    python3 tools/same_outputs.py REV

Exports ``src/`` and ``demos/`` of REV with ``git archive`` into a temporary
directory.  Then, for each side in turn (REV, then the working tree), in one
fixed run directory, so that the paths inside the outputs agree:

* writes the input pool of each of the four benchmark workloads on seeds 1,
  2 and 3 with ``perfbench/gen.py`` and runs every job of it through
  ``workloads.run_job``;
* runs ``--help`` of the CLI and of each of its subcommands;
* runs each of the side's demos, ``demos/[0-9][0-9]_*.py``.

Each side runs in a Python subprocess of its own, which imports ``lpvsim``
from that side's ``src/`` and ``gen`` and ``workloads`` from this checkout's
``perfbench/``, with ``PYTHONDONTWRITEBYTECODE=1`` so that nothing is
written there, one BLAS thread and ``COLUMNS=80``.  A side's result maps a
name to bytes: every file that a pool's jobs leave in the run directory, and
the exit code, stdout and stderr of every CLI call and demo.  The two
results are compared by :func:`compare`; each difference is printed, and the
exit status is 1 if there is any, else 0.  Where two outputs differ only in
their numbers, the line also gives the largest relative move of a number,
and the closing line the largest over all outputs.
"""

import argparse
import contextlib
import io
import math
import os
import pathlib
import pickle
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("scheduled", "piecewise", "converge", "freq")
SEEDS = (1, 2, 3)


_NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def number_move(a, b):
    """The largest relative move |x - y| / max(|x|, |y|) of a number between
    two texts that are equal once every number is masked; None if they are
    not, 0.0 if no number moved."""
    if _NUMBER.sub(b"#", a) != _NUMBER.sub(b"#", b):
        return None
    moves = [abs(x - y) / max(abs(x), abs(y)) if math.isfinite(x - y) else math.inf
             for x, y in zip(map(float, _NUMBER.findall(a)), map(float, _NUMBER.findall(b)))
             if x != y]
    return max(moves, default=0.0)


def compare(base, tree):
    """The differences between two results, one line each; [] if none.

    ``base`` and ``tree`` map a name to bytes.  A name on one side only is a
    difference, and so is a name whose bytes differ; its line shows both
    sides from the first byte that differs, and, where only numbers differ,
    the largest relative move of one (:func:`number_move`).
    """
    lines = []
    for name in sorted(set(base) | set(tree)):
        a, b = base.get(name), tree.get(name)
        if a is None or b is None:
            lines.append(f"{name}: only in {'base' if b is None else 'tree'}")
        elif a != b:
            i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                     min(len(a), len(b)))
            move = number_move(a, b)
            lines.append(f"{name}: differs from byte {i}: base {a[i:i + 60]!r}, "
                         f"tree {b[i:i + 60]!r}"
                         + ("" if move is None else
                            f"; numbers only, largest relative move {move:.3g}"))
    return lines


def _record(result, key, code, out, err):
    result[f"{key}: exit"] = str(code).encode()
    result[f"{key}: stdout"] = out
    result[f"{key}: stderr"] = err


def run_side(demos, run_dir, result_path):
    """Run one side's jobs, help texts and demos; pickle its result.

    Runs in the side's subprocess, where ``lpvsim``, ``gen`` and
    ``workloads`` are importable.
    """
    import gen
    import workloads
    from lpvsim import cli

    result = {}
    run_dir = pathlib.Path(run_dir)

    def call(key, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        _record(result, f"{key} {' '.join(argv)}", code,
                out.getvalue().encode(), err.getvalue().encode())
        return code

    for name in WORKLOADS:
        for seed in SEEDS:
            shutil.rmtree(run_dir, ignore_errors=True)
            pool = gen.generate(name, seed, run_dir)
            for j, job in enumerate(pool.jobs):
                workloads.run_job(name, job, lambda argv: call(
                    f"{name} seed {seed} job {j}:", argv))
            for path in sorted(run_dir.rglob("*")):
                if path.is_file():
                    rel = path.relative_to(run_dir)
                    result[f"{name} seed {seed} file {rel}"] = path.read_bytes()
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    for argv in [["--help"]] + [[c, "--help"] for c in subparsers.choices]:
        call("lpvsim", argv)
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    for demo in sorted(pathlib.Path(demos).glob("[0-9][0-9]_*.py")):
        done = subprocess.run([sys.executable, str(demo)], cwd=run_dir,
                              capture_output=True, timeout=300)
        _record(result, f"demo {demo.name}", done.returncode, done.stdout, done.stderr)
    with open(result_path, "wb") as fh:
        pickle.dump(result, fh)


def side_result(root, work):
    """The result of the checkout at ``root`` (its ``src/`` and ``demos/``),
    run in ``work/run``."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "COLUMNS": "80",
           "PYTHONPATH": os.pathsep.join(
               [str(root / "src"), str(ROOT / "perfbench"), str(ROOT / "tools")])}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    result_path = work / "result.pickle"
    subprocess.run(
        [sys.executable, "-c",
         "import sys, same_outputs; same_outputs.run_side(*sys.argv[1:])",
         str(root / "demos"), str(work / "run"), str(result_path)],
        env=env, check=True,
    )
    with open(result_path, "rb") as fh:
        return pickle.load(fh)


def main(argv=None):
    from ab_pairs import export  # tools/, the script's directory

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="git revision to compare the working tree with")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        work = pathlib.Path(tmp)
        base = side_result(export(args.rev, work / "rev", "src", "demos"), work)
        tree = side_result(ROOT, work)
    lines = compare(base, tree)
    for line in lines:
        print(line)
    moves = [m for name in set(base) & set(tree) if base[name] != tree[name]
             for m in [number_move(base[name], tree[name])] if m is not None]
    print(f"same_outputs: {len(set(base) | set(tree))} outputs of {args.rev} and "
          f"the working tree compared, {len(lines)} differ"
          + (f", {len(moves)} only in numbers, by at most {max(moves):.3g} relative"
             if moves else ""))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
