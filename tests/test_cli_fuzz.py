"""The CLI's one-line error contract over drawn argument lists.

Each argument list of one of the seven subcommands, however odd its values,
ends in exit 0 with nothing on stderr, or in exit 1, 2 or 3 with exactly one
stderr line ``E_CODE: reason``; no exception escapes ``main``.  Each option
is drawn present or absent, and then mostly good, so that many lists run to
the end, or odd: ``nan``, ``inf``, ``1e300``, empty strings, malformed
signal specs, missing files and bad counts.  Every count and duration is
small, and a huge one is refused before anything is allocated, so no draw
allocates much.  Drawn model files, with bounds and coefficients at the edge
of the float range, go through all seven subcommands under the same contract.
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpvsim.cli import main
from lpvsim.fixtures import FIXTURE_NAMES

_COMMANDS = ("check", "discretize", "simulate", "loop-simulate", "freqresp", "compare",
             "converge")
_LINE = re.compile(r"^E_[A-Z]+: [^\n]*\n\Z")
_NUMBERS = ["nan", "inf", "-inf", "1e300", "-1", "0", "", "x"]
_COUNTS = ["-1", "0", "", "x", "2.5", "1e300"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Input files, a missing path and the output paths, in one directory."""
    root = tmp_path_factory.mktemp("fuzz")
    texts = {
        "table.csv": "t,v\n0,1\n0.5,-1\n1,2\n",
        "bad_table.csv": "t,v\n0,nan\n",
        "traj.csv": "k,t,p1,u1\n0,0,1,1\n1,0.1,1,0\n2,0.2,0.75,-1\n",
        "bad_traj.csv": "k,t,p1,u1\n0,0,nan,1\n",
        "bad_model.json": '{"nx": 1,',
        "empty.json": "",
    }
    for name, text in texts.items():
        (root / name).write_text(text)
    return {name: str(root / name) for name in [*texts, "missing"]} | {
        "dir": str(root), "out": str(root / "out")}


def _options(command, files):
    """(option, percent of draws that give it, good values, odd values) of
    each option ``command`` takes.  A value None is a flag; a tuple, the
    values of an appended option."""
    good_signals = ["1", "const:1", "sine:amp=0.25,f=0.5,offset=1",
                    "step:amp=0.5,t0=0.2,offset=1", "chirp:f0=0,f1=2,t1=1,amp=0.1,offset=1",
                    f"csv:path={files['table.csv']}"]
    odd_signals = ["const:", "sine:amp=nan", "sine:f=inf", "step:t0=nan", "chirp:t1=0",
                   "1e300", "-1e300", "inf", "nan", "", "bogus:x=1", "sine:amp",
                   "sine:amp=1,amp=2", "csv:col=1", f"csv:path={files['table.csv']},col=2",
                   f"csv:path={files['bad_table.csv']}", f"csv:path={files['missing']}"]
    signals = ([(s,) for s in good_signals],
               [(), ("1", "1")] + [(s,) for s in odd_signals])
    ts = ("--ts", 95, ["0.1", "0.05", "0.7"], _NUMBERS + ["1e-300"])
    point = ("--p", 70, ["1", "0.75"], _NUMBERS + ["0.5,0.5"])
    scenario = [("--p", 75, *signals), ("--u", 90, *signals),
                ("--x0", 30, ["0", "0,0"], _NUMBERS + ["0,0,0"]),
                ("--t-end", 80, ["1", "0.35"], _NUMBERS + ["1e-300"])]
    traj = [("--steps", 20, ["2", "3", "40"], _COUNTS + ["1"]),
            ("--traj", 15, [files["traj.csv"]], [files["bad_traj.csv"], files["missing"]])]
    if command == "check":
        return [ts, ("--grid", 50, ["2", "3", "11"], _COUNTS + ["1"]),
                ("--samples", 50, ["0", "20"], _COUNTS),
                ("--seed", 50, ["0", "42"], _COUNTS)]
    if command == "discretize":
        return [ts, point]
    if command in ("simulate", "loop-simulate"):
        return [ts, *scenario, *traj, ("--emit-state", 50, [None], [None])]
    if command == "freqresp":
        return [ts, point, ("--decades", 50, ["1", "2"], _NUMBERS + ["0.01"]),
                ("--points-per-decade", 50, ["3", "10"], _COUNTS)]
    if command == "compare":
        return [ts, *scenario, *traj, ("--tol", 50, ["1e-9", "0"], _NUMBERS)]
    return [*scenario,  # converge
            ("--ts-list", 95, ["0.2,0.1,0.05", "0.2,0.1"],
             _NUMBERS + ["0.1", "0.2,0.1,0", "0.2,0.15", "1e300,5e299", "1e-300,5e-301"]),
            ("--oversample", 50, ["1", "4"], _COUNTS)]


@st.composite
def _argv(draw, files):
    """One argument list; each value present is odd one time in five."""
    def pick(good, odd):
        return draw(st.sampled_from(odd if draw(st.integers(0, 4)) == 0 else good))

    command = draw(st.sampled_from(_COMMANDS))
    model = pick(FIXTURE_NAMES, [files["bad_model.json"], files["empty.json"],
                                 files["missing"], ""])
    argv = [command, f"--model={model}"]
    for option, percent, good, odd in _options(command, files):
        if draw(st.integers(0, 99)) >= percent:
            continue
        value = pick(good, odd)
        if value is None:
            argv.append(option)
        elif isinstance(value, tuple):
            argv += [f"{option}={v}" for v in value]
        else:
            argv.append(f"{option}={value}")
    out = pick([None, files["out"]], [files["dir"]])
    return argv if out is None else [*argv, f"--out={out}"]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_drawn_argument_list_keeps_the_error_contract(files, data):
    argv = data.draw(_argv(files), label="argv")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert _LINE.match(err.getvalue()), err.getvalue()


_BOUNDS = [0.0, 1.0, -1.0, 9e307, -9e307, 1e308, -1e308]
_COEFFS = [0.0, 1.0, -1.0, 1e308, -1e308, 1e-308]


@st.composite
def _model(draw):
    """A model file's JSON object: n_x, n_u, n_y and n_p of 1 or 2, a box from
    ``_BOUNDS`` (one point when both ends are equal) and up to two terms of
    each matrix, exponents 0 to 3 and cells from ``_COEFFS``."""
    sizes = {key: draw(st.integers(1, 2)) for key in ("nx", "nu", "ny", "np")}
    n_p = sizes["np"]
    ends = [sorted(draw(st.lists(st.sampled_from(_BOUNDS), min_size=2, max_size=2)))
            for _ in range(n_p)]
    if draw(st.booleans()):
        ends = [[lo, lo] for lo, _ in ends]
    model = {**sizes, "domain": {"lower": [lo for lo, _ in ends],
                                 "upper": [hi for _, hi in ends]}}
    shapes = {"A": ("nx", "nx"), "B": ("nx", "nu"), "C": ("ny", "nx"), "D": ("ny", "nu")}
    for name, (rows, cols) in shapes.items():
        exponents = draw(st.lists(st.lists(st.integers(0, 3), min_size=n_p, max_size=n_p),
                                  max_size=2, unique_by=tuple))
        model[name] = [
            {"exponents": e, "coeff": draw(st.lists(
                st.lists(st.sampled_from(_COEFFS), min_size=sizes[cols],
                         max_size=sizes[cols]),
                min_size=sizes[rows], max_size=sizes[rows]))}
            for e in exponents
        ]
    return model


_WIDE_BOX = {"nx": 1, "nu": 1, "ny": 1, "np": 1,
             "domain": {"lower": [-1e308], "upper": [1e308]},
             "A": [{"exponents": [1], "coeff": [[-1.0]]}], "B": [], "C": [], "D": []}


@settings(max_examples=100, deadline=None)
@given(model=_model())
@example(model=_WIDE_BOX)
def test_every_drawn_model_file_keeps_the_error_contract(files, model):
    path = f"{files['dir']}/model.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model, fh)
    p = ",".join(map(repr, model["domain"]["upper"]))
    scenario = ["--u=1"] * model["nu"] + [f"--p={v!r}" for v in model["domain"]["upper"]]
    scenario += ["--x0=" + ",".join(["1"] * model["nx"]), "--t-end=0.4"]
    for argv in (["check", "--ts=0.1", "--grid=3", "--samples=5"],
                 ["discretize", "--ts=0.1", f"--p={p}"],
                 ["simulate", "--ts=0.1", *scenario],
                 ["loop-simulate", "--ts=0.1", *scenario],
                 ["freqresp", "--ts=0.1", f"--p={p}", "--decades=1",
                  "--points-per-decade=3"],
                 ["compare", "--ts=0.1", *scenario],
                 ["converge", "--ts-list=0.2,0.1,0.05", "--oversample=2", *scenario]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([argv[0], f"--model={path}", *argv[1:]])
        assert code in (0, 1, 2, 3)
        assert _LINE.match(err.getvalue()) if code else err.getvalue() == "", err.getvalue()
