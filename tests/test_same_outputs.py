"""``tools/same_outputs.py`` reports every output that differs, and only those."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def test_equal_results_have_no_difference():
    result = {"a.csv": b"k,t\n0,0.0\n", "job 0: exit": b"0", "job 0: stderr": b""}
    assert same_outputs.compare(result, dict(result)) == []
    assert same_outputs.compare({}, {}) == []


def test_each_differing_or_missing_output_is_one_line_in_name_order():
    base = {"b.csv": b"k,t\n0,0.0\n", "a: exit": b"0", "gone": b"x"}
    tree = {"b.csv": b"k,t\n0,0.5\n", "a: exit": b"1", "new": b""}
    assert same_outputs.compare(base, tree) == [
        "a: exit: differs from byte 0: base b'0', tree b'1'",
        "b.csv: differs from byte 8: base b'0\\n', tree b'5\\n'",
        "gone: only in base",
        "new: only in tree",
    ]


def test_a_prefix_differs_where_the_shorter_side_ends():
    assert same_outputs.compare({"f": b"abc"}, {"f": b"abcd"}) == [
        "f: differs from byte 3: base b'', tree b'd'",
    ]
