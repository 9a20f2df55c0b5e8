"""Code, docstring, comment and blank lines per module of ``src/lpvsim``.

Usage, from the repository root:

    python3 tools/src_lines.py
    python3 tools/src_lines.py path/to/module.py ...

Each line of a module falls in exactly one class:

* blank -- whitespace only, wherever it stands (also inside a docstring);
* docstring -- a line of a string-literal expression statement in any body,
  found with ``ast`` (module, class and function docstrings, and any other
  bare string statement);
* comment -- a line whose only token is a comment, found with ``tokenize``;
* code -- every other line.

Prints one line per module and a total:

    model.py: 300 code, 120 docstring, 10 comment, 60 blank, 490 lines
"""

import ast
import io
import pathlib
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


def main(argv):
    paths = [pathlib.Path(a) for a in argv] or sorted((ROOT / "src" / "lpvsim").glob("*.py"))
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
