"""Code, docstring, comment and blank lines per module of ``src/lpvsim``.

Usage, from the repository root:

    python3 tools/src_lines.py
    python3 tools/src_lines.py path/to/module.py ...
    python3 tools/src_lines.py --against REV

Each line of a module falls in exactly one class:

* blank -- whitespace only, wherever it stands (also inside a docstring);
* docstring -- a line of a string-literal expression statement in any body,
  found with ``ast`` (module, class and function docstrings, and any other
  bare string statement);
* comment -- a line whose only token is a comment, found with ``tokenize``;
* code -- every other line.

Prints one line per module and a total:

    model.py: 300 code, 120 docstring, 10 comment, 60 blank, 490 lines

With ``--against REV`` it prints, per module of ``src/lpvsim`` and in total,
each count at the git revision REV (read with ``git show``), the working
tree's count and the change; a module absent on one side counts as empty:

    model.py: code 300 -> 296 (-4), docstring 120 -> 120 (+0), ...
"""

import argparse
import ast
import io
import pathlib
import subprocess
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
KINDS = ("code", "docstring", "comment", "blank")


def classify(source):
    """The class of each line of ``source``, in order, one of ``KINDS``."""
    lines = source.splitlines()
    kinds = ["code"] * len(lines)
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            for i in range(node.lineno - 1, node.end_lineno):
                kinds[i] = "docstring"
    # the rows that hold some token other than a comment or a line end
    coded = set()
    commented = set()
    ignored = (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
               tokenize.ENDMARKER)
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            commented.add(tok.start[0] - 1)
        elif tok.type not in ignored:
            coded.update(range(tok.start[0] - 1, tok.end[0]))
    for i in commented - coded:
        kinds[i] = "comment"
    for i, line in enumerate(lines):
        if not line.strip():
            kinds[i] = "blank"
    return kinds


def count(source):
    """``{kind: number of lines}`` of ``source``, every kind of ``KINDS``."""
    kinds = classify(source)
    return {kind: kinds.count(kind) for kind in KINDS}


def compare(old, new):
    """``{kind: (count in old, count in new)}`` of two module sources, for
    every kind of ``KINDS`` and then ``"lines"``."""
    a, b = count(old), count(new)
    a["lines"], b["lines"] = sum(a.values()), sum(b.values())
    return {kind: (a[kind], b[kind]) for kind in a}


def render_comparison(name, pairs):
    """One output line of ``--against``: ``name``, then each kind's pair of
    counts from :func:`compare` (or their sums) and its change."""
    return f"{name}: " + ", ".join(
        f"{kind} {old} -> {new} ({new - old:+d})" for kind, (old, new) in pairs.items()
    )


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          encoding="utf-8", check=True).stdout


def against(rev):
    """Print the comparison of ``src/lpvsim`` at ``rev`` with the working tree."""
    before = {pathlib.PurePath(p).name: p for p in
              _git("ls-tree", "--name-only", rev, "src/lpvsim/").split("\n")
              if p.endswith(".py")}
    after = {p.name: p for p in (ROOT / "src" / "lpvsim").glob("*.py")}
    total = dict.fromkeys((*KINDS, "lines"), (0, 0))
    for name in sorted(before.keys() | after.keys()):
        old = _git("show", f"{rev}:{before[name]}") if name in before else ""
        new = after[name].read_text(encoding="utf-8") if name in after else ""
        pairs = compare(old, new)
        for kind, (a, b) in pairs.items():
            total[kind] = (total[kind][0] + a, total[kind][1] + b)
        print(render_comparison(name, pairs))
    print(render_comparison("total", total))


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("paths", nargs="*", type=pathlib.Path,
                    help="modules to count (default: every module of src/lpvsim)")
    ap.add_argument("--against", metavar="REV",
                    help="compare src/lpvsim with its state at git revision REV")
    args = ap.parse_args(argv)
    if args.against:
        if args.paths:
            ap.error("--against compares all of src/lpvsim; give no paths")
        try:
            against(args.against)
        except subprocess.CalledProcessError as exc:
            ap.error(exc.stderr.strip())
        return
    paths = args.paths or sorted((ROOT / "src" / "lpvsim").glob("*.py"))
    total = dict.fromkeys(KINDS, 0)
    for path in paths:
        counts = count(path.read_text(encoding="utf-8"))
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{path.name}: " + ", ".join(f"{counts[k]} {k}" for k in KINDS)
              + f", {sum(counts.values())} lines")
    print("total: " + ", ".join(f"{total[k]} {k}" for k in KINDS)
          + f", {sum(total.values())} lines")


if __name__ == "__main__":
    main(sys.argv[1:])
