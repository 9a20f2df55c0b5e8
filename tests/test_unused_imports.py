"""Every name a library module imports is used in that module.

``__init__.py`` is skipped: its imports are the package's re-exports.  A
name counts as used if the module reads it anywhere (``np`` in
``np.zeros`` too) or lists it in ``__all__``.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lpvsim"


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a; "from m import a as b" binds b
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_finder_sees_an_unused_name():
    tree = ast.parse("import os\nimport numpy as np\nfrom x import a, b\nnp.zeros(a)\n")
    assert _unused_imports(tree) == [(1, "os"), (3, "b")]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 8
    unused = [
        f"{path.stem}.{name} (line {line})"
        for path in modules
        for line, name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert unused == []
