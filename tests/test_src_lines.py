"""``tools/src_lines.py`` puts each line of a module in exactly one class."""

import importlib.util
import pathlib
import textwrap

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)


def test_the_four_counts_of_each_module_sum_to_its_lines():
    paths = sorted((ROOT / "src" / "lpvsim").glob("*.py"))
    assert paths
    for path in paths:
        text = path.read_text(encoding="utf-8")
        counts = src_lines.count(text)
        assert set(counts) == {"code", "docstring", "comment", "blank"}
        assert sum(counts.values()) == len(text.splitlines()), path.name


def test_a_small_module_is_classified_line_by_line():
    source = textwrap.dedent('''\
        """Module docstring,

        over three lines."""
        import math  # a trailing comment is code

        # a comment line
        def f(x):
            """One line."""
            s = """not a docstring:
        # no comment either
        """
            "a bare string statement"
            return math.sqrt(x) + len(s)
    ''')
    assert src_lines.classify(source) == [
        "docstring", "blank", "docstring", "code", "blank", "comment", "code",
        "docstring", "code", "code", "code", "docstring", "code",
    ]
    assert src_lines.count(source) == {
        "code": 6, "docstring": 4, "comment": 1, "blank": 2,
    }


def test_compare_pairs_the_counts_of_two_sources():
    old = "import math\n\n# two\nx = 1\n"
    new = '"""Doc."""\nimport math\nx = 1\ny = 2\n'
    assert src_lines.compare(old, new) == {
        "code": (2, 3), "docstring": (0, 1), "comment": (1, 0), "blank": (1, 0),
        "lines": (4, 4),
    }
    # a module present on one side only is compared with the empty source
    assert src_lines.compare("", new)["lines"] == (0, 4)
    assert src_lines.compare(old, "")["code"] == (2, 0)


def test_a_comparison_renders_each_pair_and_its_change():
    pairs = {"code": (462, 451), "docstring": (39, 37), "comment": (9, 9),
             "blank": (74, 74), "lines": (584, 571)}
    assert src_lines.render_comparison("cli.py", pairs) == (
        "cli.py: code 462 -> 451 (-11), docstring 39 -> 37 (-2), comment 9 -> 9 (+0), "
        "blank 74 -> 74 (+0), lines 584 -> 571 (-13)"
    )
