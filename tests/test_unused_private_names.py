"""Every private module-level name of the library is read in the library.

A private name (one leading underscore, not a dunder) that a module binds at
its top level, by ``def``, ``class`` or assignment, must be read somewhere in
``src/lpvsim`` outside its own definition: in its own module, or in a module
that imports it from there.  Otherwise it is a helper left behind.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lpvsim"


def _private_names(stmt):
    """The private names one top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _reads(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Load)}


def _unread_private_names(trees):
    """Sorted (module, name) of each private top-level name of ``trees``
    (module name -> parsed source) that no statement but its own reads."""
    reads = {m: [_reads(stmt) for stmt in tree.body] for m, tree in trees.items()}
    imports = {  # (source module, name) pairs each module imports unrenamed
        m: {(node.module, a.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for a in node.names if a.asname is None}
        for m, tree in trees.items()
    }
    unread = []
    for module, tree in trees.items():
        for i, stmt in enumerate(tree.body):
            for name in _private_names(stmt):
                here = any(name in r for j, r in enumerate(reads[module]) if j != i)
                elsewhere = any(
                    (module, name) in imports[other] and any(name in r for r in reads[other])
                    for other in trees if other != module
                )
                if not (here or elsewhere):
                    unread.append((module, name))
    return sorted(unread)


def test_unread_name_finder_sees_a_helper_left_behind():
    a = ("def _used():\n    pass\n\n"
         "def _recursive(n):\n    return _recursive(n - 1)\n\n"
         "def _shared():\n    pass\n\n"
         "class _Dead:\n    pass\n\n"
         "_CONST, _OTHER = 1, 2\n"
         "x = _used() + _CONST\n")
    b = ("from .a import _shared\n"
         "_Dead = 3\n"  # b's own name: reading it here does not read a's
         "y = _shared() + _Dead\n"
         "_LEFT: int = 4\n")
    trees = {"a": ast.parse(a), "b": ast.parse(b)}
    assert _unread_private_names(trees) == [
        ("a", "_Dead"), ("a", "_OTHER"), ("a", "_recursive"), ("b", "_LEFT")]


def test_no_private_module_level_name_is_left_unread():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert len(trees) >= 9
    assert _unread_private_names(trees) == []
