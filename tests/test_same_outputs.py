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
        "a: exit: differs from byte 0: base b'0', tree b'1'"
        "; numbers only, largest relative move 1",
        "b.csv: differs from byte 8: base b'0\\n', tree b'5\\n'"
        "; numbers only, largest relative move 1",
        "gone: only in base",
        "new: only in tree",
    ]


def test_a_prefix_differs_where_the_shorter_side_ends():
    assert same_outputs.compare({"f": b"abc"}, {"f": b"abcd"}) == [
        "f: differs from byte 3: base b'', tree b'd'",
    ]


def test_outputs_that_differ_only_in_their_numbers_give_the_largest_move():
    base = {"conv.txt": b"Ts 0.1 max_error 2.5e-06 order 2.0\n",
            "log": b"step 3 of 40\n"}
    tree = {"conv.txt": b"Ts 0.1 max_error 2.5000000000001e-06 order 2.0000000000001\n",
            "log": b"step 3 of 41 (late)\n"}
    conv, log = same_outputs.compare(base, tree)
    # the moves are 4e-14 of 2.5e-06 and 5e-14 of 2.0: the larger counts
    assert conv.startswith("conv.txt: differs from byte 20: ")
    assert conv.endswith("; numbers only, largest relative move 5e-14")
    assert "numbers only" not in log  # the words differ too
    assert same_outputs.number_move(b"x 1.0 y", b"x 1.0 y") == 0.0
    assert same_outputs.number_move(b"-1e-3", b"+1e-3") == 2.0
    assert same_outputs.number_move(b"1.5", b"1.5 2") is None
