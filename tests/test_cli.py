"""End-to-end command-line behavior: outputs, exit codes, failure lines."""

import ast
import dataclasses
import errno
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from lpvsim import analyze, cli, discretize
from lpvsim.analyze import log_frequency_grid, warping_residual
from lpvsim.cli import main, parse_signal_text
from lpvsim.discretize import DiscretizationConfig
from lpvsim.errors import ConfigError, DataError
from lpvsim.fixtures import fixture_path
from lpvsim.model import parse_model
from lpvsim.simulate import SignalSpec, generate_signal
from test_acceptance import _run_cli_suite


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_a_command_out_of_memory_ends_in_one_line(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("a stack of 9 GiB")

    monkeypatch.setattr(cli, "wellposedness_check", exhausted)
    code, out, err = run(capsys, "check", "--model", "msd", "--ts", "0.1")
    assert (code, out, err) == (1, "", "E_PARSE: out of memory: a stack of 9 GiB\n")


# --- signal grammar ----------------------------------------------------------


def test_signal_grammar_constants():
    assert generate_signal(parse_signal_text("const:2.5"), [0.0])[0] == 2.5
    assert generate_signal(parse_signal_text("const:value=2.5"), [0.0])[0] == 2.5
    assert generate_signal(parse_signal_text("-1.5"), [0.0])[0] == -1.5


def test_signal_grammar_sine_and_step():
    s = parse_signal_text("sine:amp=3,f=0.25,offset=1")
    assert generate_signal(s, [1.0])[0] == pytest.approx(4.0)
    s = parse_signal_text("step:amp=2,t0=1")
    assert list(generate_signal(s, [0.5, 1.0])) == [0.0, 2.0]


def test_step_onset_may_be_infinite_but_not_nan():
    t = [-1e300, 0.0, 1e300]
    assert list(generate_signal(parse_signal_text("step:t0=inf"), t)) == [0.0] * 3
    assert list(generate_signal(parse_signal_text("step:t0=-inf"), t)) == [1.0] * 3
    with pytest.raises(ConfigError, match="t0"):
        parse_signal_text("step:t0=nan")


def test_signal_grammar_rejects_malformed():
    with pytest.raises(ConfigError):
        parse_signal_text("square:amp=1")
    with pytest.raises(ConfigError):
        parse_signal_text("sine:freq=1")  # wrong key
    with pytest.raises(ConfigError):
        parse_signal_text("sine:f=1,f=2")  # duplicate
    with pytest.raises(ConfigError):
        parse_signal_text("sine:f=fast")  # not a number
    with pytest.raises(ConfigError):
        parse_signal_text("sine:amp")  # no '='
    with pytest.raises(ConfigError):
        parse_signal_text("notanumber")
    with pytest.raises(ConfigError):
        parse_signal_text("csv:col=1")  # path missing


def test_signal_grammar_csv_table(tmp_path):
    table = tmp_path / "u.csv"
    table.write_text("t,val\n0.0,0.0\n1.0,2.0\n2.0,2.0\n")
    spec = parse_signal_text(f"csv:path={table},col=1")
    got = generate_signal(spec, [0.5, 5.0])
    assert list(got) == [1.0, 2.0]
    with pytest.raises(DataError):
        parse_signal_text(f"csv:path={table},col=7")
    with pytest.raises(DataError):
        parse_signal_text("csv:path=/nonexistent.csv")


_SPEC_FIELDS = [f.name for f in dataclasses.fields(SignalSpec) if f.name != "table"]


def _spec_fields(spec):
    return {name: (type(getattr(spec, name)), getattr(spec, name)) for name in _SPEC_FIELDS}


@pytest.mark.parametrize("text, expected", [
    ("-1.5", lambda T: SignalSpec.constant(-1.5)),
    ("const:2.5", lambda T: SignalSpec.constant(2.5)),
    ("const:value=2.5", lambda T: SignalSpec.constant(2.5)),
    ("const:", lambda T: SignalSpec.constant(0.0)),
    ("step:", lambda T: SignalSpec.step()),
    ("sine:", lambda T: SignalSpec.sine()),
    ("chirp:", lambda T: SignalSpec.chirp()),
    ("csv:path={T}", lambda T: SignalSpec.csv_column(T, 1, table=[[0.0, 0.0]])),
    ("step:amp=2,t0=0.5,offset=-1",
     lambda T: SignalSpec.step(amplitude=2.0, t0=0.5, offset=-1.0)),
    ("sine:amp=3,f=0.25,phase=1.5,offset=1",
     lambda T: SignalSpec.sine(amplitude=3.0, f=0.25, phase=1.5, offset=1.0)),
    ("chirp:amp=2,f0=0.1,f1=3,t1=4,offset=-2",
     lambda T: SignalSpec.chirp(amplitude=2.0, f0=0.1, f1=3.0, t1=4.0, offset=-2.0)),
    ("csv:path={T},col=2,offset=0.5,amp=3",
     lambda T: SignalSpec.csv_column(T, 2, offset=0.5, amplitude=3.0,
                                     table=[[0.0, 0.0]])),
])
def test_signal_grammar_matches_the_constructors_field_by_field(tmp_path, text, expected):
    table = tmp_path / "u.csv"
    table.write_text("t,a,b\n0.0,0.0,1.0\n1.0,2.0,3.0\n")
    got = parse_signal_text(text.format(T=table))
    assert _spec_fields(got) == _spec_fields(expected(str(table)))


@pytest.mark.parametrize("text, message", [
    ("square:amp=1",
     "unknown signal kind 'square'; expected one of const, step, sine, chirp, csv"),
    ("sine:freq=1", "signal kind 'sine' does not take 'freq' (takes amp, f, phase, offset)"),
    ("csv:column=1",
     "signal kind 'csv' does not take 'column' (takes path, col, offset, amp)"),
    ("sine:f=1,f=2", "duplicate signal option 'f'"),
    ("sine:amp", "signal option 'amp' is not key=value"),
    ("step:amp=1,,t0=2", "signal option '' is not key=value"),
    ("sine:f=fast", "signal option f='fast' is not a number"),
    ("const:abc", "signal option value='abc' is not a number"),
    ("csv:col=1", "csv signal needs path=FILE"),
    ("notanumber", "signal 'notanumber' has no kind prefix; " + cli._SIGNAL_HELP),
])
def test_signal_grammar_fault_messages(text, message):
    with pytest.raises(ConfigError) as info:
        parse_signal_text(text)
    assert str(info.value) == message


def test_signal_grammar_reports_the_first_of_two_faults(capsys, tmp_path):
    missing = tmp_path / "missing.csv"
    # csv: path=, then col, then the table, then offset and amp
    with pytest.raises(ConfigError, match="csv signal needs path=FILE"):
        parse_signal_text("csv:col=zz")
    with pytest.raises(ConfigError, match="col='zz' is not a number"):
        parse_signal_text(f"csv:path={missing},col=zz")
    with pytest.raises(ConfigError, match="does not take 'bad'"):
        parse_signal_text("sine:f=zz,bad=1")
    code, out, err = run(
        capsys, "simulate", "--model", "lag1", "--ts", "0.1", "--steps", "3",
        "--u", f"csv:path={missing},offset=zz",
    )
    assert code == 1 and out == ""
    assert err.startswith("E_IO: cannot read signal table") and err.count("\n") == 1


@pytest.mark.parametrize("col", ["nan", "inf", "1.7"])
def test_csv_signal_column_must_be_an_integer(capsys, tmp_path, col):
    table = tmp_path / "u.csv"
    table.write_text("t,a,b\n0.0,0.0,1.0\n1.0,2.0,3.0\n")
    code, out, err = run(
        capsys, "simulate", "--model", "lag1", "--ts", "0.1", "--steps", "3",
        "--u", f"csv:path={table},col={col}",
    )
    assert code == 1 and out == ""
    assert err == f"E_PARSE: signal option col={col!r} is not an integer\n"


@pytest.mark.parametrize("time", ["nan", "inf", "-inf"])
def test_signal_table_rejects_a_non_finite_time(capsys, tmp_path, time):
    table = tmp_path / "u.csv"
    table.write_text(f"t,v\n0,0\n{time},1\n2,0.5\n")
    code, out, err = run(
        capsys, "simulate", "--model", "lag1", "--ts", "0.1", "--steps", "3",
        "--u", f"csv:path={table}",
    )
    assert code == 1 and out == ""
    assert err.startswith(f"E_IO: signal table {str(table)!r}") and err.count("\n") == 1
    assert "non-finite time" in err


@pytest.mark.parametrize("kind", ["traj", "signal"])
def test_a_cell_over_the_csv_field_limit_is_one_error_line(capsys, tmp_path, kind):
    # the csv module refuses a field over 131072 characters
    table = tmp_path / "big.csv"
    if kind == "traj":
        table.write_text("k,t,p1,u1\n0,0.0,0.5," + "1" * 200_000 + "\n")
        argv = ("--traj", str(table))
        what = "trajectory table"
    else:
        table.write_text("t,v\n0," + "1" * 200_000 + "\n")
        argv = ("--p", "1", "--u", f"csv:path={table}", "--steps", "3")
        what = f"signal table {str(table)!r}"
    code, out, err = run(capsys, "simulate", "--model", "msd", "--ts", "0.05", *argv)
    assert (code, out) == (1, "")
    assert err == f"E_IO: {what}: field larger than field limit (131072)\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv", [
    ("simulate", "--ts", "0.05", "--t-end", "0.2"),
    ("converge", "--t-end", "2", "--ts-list", "0.2,0.1,0.05", "--oversample", "20"),
])
def test_signal_table_rejects_a_non_finite_value(capsys, tmp_path, value, argv):
    # the bad row lies between two samples: simulate used to interpolate
    # around it and converge to print a NaN report, both with exit 0
    table = tmp_path / "u.csv"
    rows = [f"{k / 100!r},{value if k == 2 else '1.0'}" for k in range(201)]
    table.write_text("t,v\n" + "\n".join(rows) + "\n")
    code, out, err = run(
        capsys, argv[0], "--model", "lag1", *argv[1:],
        "--u", f"csv:path={table},col=1",
    )
    assert code == 1 and out == ""
    assert err == (
        f"E_IO: signal table {str(table)!r} has a non-finite value in column 1 "
        "at t = 0.02\n"
    )


def test_signal_table_checks_only_the_selected_column(capsys, tmp_path):
    table = tmp_path / "u.csv"
    table.write_text("t,a,b\n0,0,nan\n1,2,3\n")
    code, out, err = run(
        capsys, "simulate", "--model", "lag1", "--ts", "0.1", "--steps", "3",
        "--u", f"csv:path={table},col=1",
    )
    assert code == 0 and err == ""
    assert out.startswith("k,t,y1\n")


@pytest.mark.parametrize("what, argv", [
    ("model file", ("check", "--model", "{bad}", "--ts", "0.1")),
    ("trajectory table",
     ("simulate", "--model", "lag1", "--ts", "0.1", "--traj", "{bad}")),
    ("signal table",
     ("simulate", "--model", "lag1", "--ts", "0.1", "--steps", "3",
      "--u", "csv:path={bad}")),
])
def test_non_utf8_input_file_is_one_io_line(capsys, tmp_path, what, argv):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, *(a.format(bad=bad) for a in argv))
    assert code == 1 and out == ""
    assert err.startswith(f"E_IO: cannot read {what} {str(bad)!r}: ")
    assert "can't decode byte 0xff" in err and err.count("\n") == 1


_BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("kind", ["model file", "trajectory table", "signal table"])
def test_a_utf8_byte_order_mark_is_ignored(capsys, tmp_path, kind):
    # spreadsheet tools start UTF-8 files with a BOM; each input file kind
    # must read the same with and without it
    files = {
        "model file": ("m.json", fixture_path("msd").read_bytes()),
        "trajectory table": (
            "t.csv", b"k,t,p1,u1\n0,0.0,1.0,0.5\n1,0.1,1.0,0.5\n2,0.2,1.5,0.0\n"),
        "signal table": ("u.csv", b"t,v\n0,0\n0.1,1\n0.3,0.5\n"),
    }
    name, data = files[kind]
    got = []
    for prefix in (b"", _BOM):
        path = tmp_path / f"{len(prefix)}-{name}"
        path.write_bytes(prefix + data)
        argv = {
            "model file": ("--model", str(path), "--p", "1.5", "--u", "sine:f=2",
                           "--steps", "3"),
            "trajectory table": ("--model", "msd", "--traj", str(path)),
            "signal table": ("--model", "msd", "--p", "1.5", "--steps", "3",
                             "--u", f"csv:path={path}"),
        }[kind]
        got.append(run(capsys, "simulate", "--ts", "0.1", "--emit-state", *argv))
    assert got[0][0] == 0 and got[0][2] == ""
    assert got[1] == got[0]


@pytest.mark.parametrize("command, message", [
    # every scenario subcommand reads --x0 before the signals
    ("simulate", "E_PARSE: --x0 must be comma-separated numbers, got 'zz'\n"),
    ("compare", "E_PARSE: --x0 must be comma-separated numbers, got 'zz'\n"),
    ("converge", "E_PARSE: --x0 must be comma-separated numbers, got 'zz'\n"),
])
def test_bad_x0_and_bad_signal_report_the_same_fault_first(capsys, command, message):
    timing = ("--ts-list", "0.2,0.1,0.05") if command == "converge" else ("--ts", "0.1")
    code, out, err = run(
        capsys, command, "--model", "lag1", *timing, "--t-end", "1",
        "--x0", "zz", "--u", "sine:f=zz",
    )
    assert (code, out, err) == (1, "", message)


# each count here is far beyond what numpy can size, so nothing is allocated;
# never add a count that an array could hold
@pytest.mark.parametrize("argv, message", [
    (("simulate", "--ts", "0.1", "--t-end", "1e300"),
     "a grid of 1e+301 samples (t_end = 1e+300 at ts = 0.1)"),
    (("simulate", "--ts", "1e-300", "--t-end", "1"),
     "a grid of 1e+300 samples (t_end = 1.0 at ts = 1e-300)"),
    (("converge", "--ts-list", "0.2,0.1,0.05", "--t-end", "1e300"),
     "a grid of 2e+301 samples (t_end = 1e+300 at ts = 0.05)"),
])
def test_a_run_too_long_for_an_array_is_one_parse_line(capsys, argv, message):
    code, out, err = run(
        capsys, argv[0], "--model", "msd", *argv[1:], "--p", "1", "--u", "1",
    )
    assert (code, out) == (1, "")
    assert err == (f"E_PARSE: {message} takes more than {2**30} bytes, the most "
                   "one request may allocate\n")


@pytest.mark.parametrize("command", ["simulate", "loop-simulate", "compare"])
def test_a_run_over_the_engines_budget_is_one_parse_line(capsys, monkeypatch, command):
    # msd at 10 001 samples: 240 kB of sample grid, 3.0 MB by the run budget
    monkeypatch.setattr(discretize, "_STACK_LIMIT", 2**20)
    code, out, err = run(capsys, command, "--model", "msd", "--ts", "0.01",
                         "--t-end", "100", "--p", "2", "--u", "1")
    assert (code, out) == (1, "")
    assert err == ("E_PARSE: a run of 10001 samples at n_x = 2 takes more than "
                   "1048576 bytes, the most one request may allocate\n")


def _zero_model(path, n_x):
    path.write_text(json.dumps({
        "nx": n_x, "nu": 1, "ny": 1, "np": 1, "domain": {"lower": [0], "upper": [1]},
    }))
    return str(path)


@pytest.mark.parametrize("command", ["discretize", "freqresp"])
def test_a_frozen_matrix_over_the_stack_cap_is_one_parse_line(
    capsys, monkeypatch, tmp_path, command
):
    # one (363, 363) matrix takes 1 054 152 bytes, over a cap of 2**20, and
    # is refused before it is built; both commands built a frozen point's
    # A..D before any check of the cap
    monkeypatch.setattr(discretize, "_STACK_LIMIT", 2**20)
    path = _zero_model(tmp_path / "zero.json", 363)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, command, "--model", path, "--ts", "0.1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err == ("E_PARSE: a frozen 363 x 363 matrix takes more than 1048576 bytes, "
                   "the most one request may allocate\n")
    assert peak < 2**20
    if command == "discretize":  # a (362, 362) matrix, 1 048 352 bytes, fits
        path = _zero_model(tmp_path / "zero.json", 362)
        assert run(capsys, command, "--model", path, "--ts", "0.1")[::2] == (0, "")


_SIM = ("simulate", "--model", "msd", "--ts", "0.1", "--t-end", "0.3", "--p", "2")


# the last simulate asks for 7.11 PiB and the grids for more than one array
# can hold, so each fails before any memory is touched; never add a request
# below 1 PiB
@pytest.mark.parametrize("argv, prefix", [
    ((*_SIM, "--u", "step:t0=nan,amp=1"), "E_PARSE:"),
    ((*_SIM, "--u", "sine:f=inf"), "E_IO:"),
    ((*_SIM, "--u", "chirp:f0=0,f1=inf,t1=1"), "E_IO:"),
    ((*_SIM, "--u", "sine:amp=1e308,offset=1e308"), "E_IO:"),
    (("converge", "--model", "msd", "--ts-list", "0.1,0.05,0.025", "--t-end", "0.3",
      "--p", "sine:f=inf", "--u", "1"), "E_DOMAIN:"),
    (("freqresp", "--model", "lag1", "--ts", "0.1", "--decades", "1e300"), "E_PARSE:"),
    (("freqresp", "--model", "lag1", "--ts", "0.1", "--decades", "1e300",
      "--points-per-decade", "1000000000"), "E_PARSE:"),
    (("simulate", "--model", "msd", "--ts", "1e-3", "--t-end", "1e12", "--p", "2",
      "--u", "1"), "E_PARSE:"),
])
def test_bad_waveforms_and_oversized_requests_are_one_line(capsys, argv, prefix):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(prefix) and err.count("\n") == 1


_STEPS = ("--model", "msd", "--ts", "0.1", "--p", "2", "--u", "1", "--steps")


# each request is over the stack cap by its size alone, so it is rejected
# before anything is allocated; never add one that the cap lets through.
# argparse reads an int of up to 4300 digits: (10**2200)**2, the grid of a
# two-parameter sweep, has 4401, and 10**400 steps overflow (steps - 1) Ts
@pytest.mark.parametrize("argv", [
    ("freqresp", "--model", "lag1", "--ts", "0.1", "--decades", "1",
     "--points-per-decade", "1000000000"),
    ("check", "--model", "msd", "--ts", "0.1", "--grid", "1000000000"),
    ("check", "--model", "msd", "--ts", "0.1", "--samples", "100000000000"),
    ("check", "--model", "{np2}", "--ts", "0.1", "--grid", "1" + "0" * 2200),
    *[(command, *_STEPS, "1" + "0" * digits)
      for command in ("simulate", "loop-simulate", "compare") for digits in (400, 2200)],
])
def test_a_request_over_the_stack_cap_is_one_parse_line(capsys, tmp_path, argv):
    path = tmp_path / "np2.json"
    path.write_text(json.dumps({
        "nx": 1, "nu": 1, "ny": 1, "np": 2, "domain": {"lower": [0, 0], "upper": [1, 1]},
        "A": [{"exponents": [1, 0], "coeff": [[-1.0]]}],
    }))
    code, out, err = run(capsys, *(a.format(np2=path) for a in argv))
    assert (code, out) == (1, "")
    assert err.startswith("E_PARSE: ") and err.count("\n") == 1
    assert err.endswith(" bytes, the most one request may allocate\n")


_RUN = ("--p", "40", "--u", "1", "--t-end", "0.4")


@pytest.mark.parametrize("argv", [
    ("check", "--ts", "0.1"),
    ("discretize", "--ts", "0.1", "--p", "40"),
    ("simulate", "--ts", "0.1", *_RUN),
    ("loop-simulate", "--ts", "0.1", *_RUN),
    ("freqresp", "--ts", "0.1", "--p", "40"),
    ("compare", "--ts", "0.1", *_RUN),
    ("converge", "--ts-list", "0.2,0.1,0.05", "--oversample", "2", *_RUN),
], ids=lambda argv: argv[0])
def test_a_model_that_overflows_on_its_box_is_one_parse_line(capsys, tmp_path, argv):
    # A(p) = -p**1000 on [0, 40]: 40**1000 is far beyond the float range
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "nx": 1, "nu": 1, "ny": 1, "np": 1, "domain": {"lower": [0], "upper": [40]},
        "A": [{"exponents": [1000], "coeff": [[-1.0]]}],
    }))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, argv[0], "--model", str(path), *argv[1:])
    assert [str(w.message) for w in caught] == []
    assert (code, out) == (1, "")
    assert err == (
        "E_PARSE: A term with exponents [1000] overflows the float range on "
        "the scheduling box\n"
    )


@pytest.mark.parametrize("samples", ["100", "0"])
def test_a_box_wider_than_the_float_range_is_one_domain_line(capsys, tmp_path, samples):
    # the random draws over [-1e308, 1e308] raised OverflowError, and the grid
    # alone held NaN points that ended in a LinAlgError
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "nx": 1, "nu": 1, "ny": 1, "np": 1,
        "domain": {"lower": [-1e308], "upper": [1e308]},
        "A": [{"exponents": [1], "coeff": [[-1.0]]}],
    }))
    code, out, err = run(capsys, "check", "--model", str(path), "--ts", "0.1",
                         "--samples", samples)
    assert (code, out) == (1, "")
    assert err == "E_DOMAIN: domain width must be finite: [-1.e+308], [1.e+308]\n"


@pytest.mark.parametrize("argv", [
    ("discretize",), ("freqresp",), ("simulate", "--u", "1", "--steps", "3"),
])
def test_the_default_point_of_a_box_near_the_float_range_is_its_midpoint(
    capsys, tmp_path, argv
):
    # lower + upper overflows on this box, though its midpoint is finite
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "nx": 1, "nu": 1, "ny": 1, "np": 1,
        "domain": {"lower": [9e307], "upper": [9e307]},
        "A": [{"exponents": [0], "coeff": [[-1.0]]}],
    }))
    code, out, err = run(capsys, argv[0], "--model", str(path), "--ts", "0.1",
                         *argv[1:])
    assert (code, err) == (0, "")
    if argv[0] != "simulate":  # the JSON reports the point it used
        assert json.loads(out)["p"] == [9e307]


@pytest.mark.parametrize("argv, fault", [
    (("discretize", "--p", "1"), "overflow encountered in multiply"),
    (("freqresp", "--p", "1"), "invalid value encountered in matmul"),
])
def test_a_result_past_the_float_range_is_one_nonfinite_line(capsys, tmp_path, argv, fault):
    # B = 1e308 loads, but Bxi = 2 Phi B overflows; numpy warned, and the
    # JSON held inf with exit 0
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "nx": 1, "nu": 1, "ny": 1, "np": 1, "domain": {"lower": [0], "upper": [1]},
        "B": [{"exponents": [0], "coeff": [[1e308]]}],
    }))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, argv[0], "--model", str(path), "--ts", "0.1",
                             *argv[1:])
    assert [str(w.message) for w in caught] == []
    assert (code, out) == (2, "")
    assert err == f"E_NONFINITE: a result left the float range: {fault}\n"


def test_a_points_per_decade_beyond_the_float_range_is_one_parse_line(capsys):
    # decades * points_per_decade cannot be converted to a float; the count
    # is over the stack cap, so nothing is allocated
    code, out, err = run(
        capsys, "freqresp", "--model", "lag1", "--ts", "0.1", "--decades", "1",
        "--points-per-decade", "1" + "0" * 400,
    )
    assert (code, out) == (1, "")
    assert err.startswith("E_PARSE: ") and err.count("\n") == 1
    assert err.endswith(" bytes, the most one request may allocate\n")


_HUGE_TS = ("--model", "msd", "--ts", "1e300")
_RUN = ("--p=const:2", "--u=const:1", "--steps=3")


# det(I - A Ts/2) overflows to inf there, which is far from singular: no
# RuntimeWarning may reach stderr, and the two engines must still agree
@pytest.mark.parametrize("argv", [
    ("check", *_HUGE_TS),
    ("discretize", *_HUGE_TS, "--p", "2"),
    ("freqresp", *_HUGE_TS, "--p", "2"),
    ("simulate", *_HUGE_TS, *_RUN),
    ("loop-simulate", *_HUGE_TS, *_RUN),
    ("compare", *_HUGE_TS, *_RUN),
    ("compare", "--model", "msd", "--ts", "1e200", *_RUN),
])
def test_a_huge_sampling_time_runs_clean(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert (code, err) == (0, "")


def test_x0_is_read_without_the_next_xi(capsys):
    # xi(1) overflows, but x(0) = (Ts/2) Phi (xi(0) + B u(0)) needs only xi(0)
    code, out, err = run(
        capsys, "simulate", "--model", "integrator", "--ts", "0.7", "--u=1e308",
        "--t-end=1e-300",
    )
    assert (code, out, err) == (0, "k,t,y1\n0,0.0,0.0\n", "")


def test_signal_table_reads_only_the_time_and_selected_columns(capsys, tmp_path):
    # a cell that is no number outside them is not read, as a non-finite one
    table = tmp_path / "u.csv"
    table.write_text("t,a,b\n0,0,abc\n1,2,\n")
    code, out, err = run(
        capsys, "simulate", "--model", "lag1", "--ts", "0.1", "--steps", "3",
        "--u", f"csv:path={table},col=1",
    )
    assert (code, err) == (0, "")
    assert out.startswith("k,t,y1\n")


def test_a_bad_signal_option_is_reported_before_a_bad_table_cell(capsys, tmp_path):
    # the file is read where col= is parsed; its cells are judged with the spec
    table = tmp_path / "u.csv"
    table.write_text("t,v\n0,abc\n")
    code, out, err = run(
        capsys, "simulate", "--model", "lag1", "--ts", "0.1", "--steps", "3",
        "--u", f"csv:path={table},col=1,offset=zz",
    )
    assert (code, out) == (1, "")
    assert err == "E_PARSE: signal option offset='zz' is not a number\n"


@pytest.mark.parametrize("argv, table, message", [
    (("--p", "1", "--p", "2", "--u", "1", "--steps", "3"), None,
     "E_DIM: 2 --p signals given, model needs 1"),
    (("--p", "1", "--u", "1", "--u", "2", "--steps", "3"), None,
     "E_DIM: 2 --u signals given, model needs 1"),
    (("--p", "1", "--steps", "3"), None,
     "E_PARSE: give --u signals (or --traj with a trajectory table)"),
    (("--p", "1", "--u", "1", "--steps", "3", "--t-end", "1"), None,
     "E_PARSE: give --steps or --t-end, not both"),
    (("--p", "1", "--u", "1"), None,
     "E_PARSE: give --t-end (or --steps) with signal specs"),
    (("--p", "1", "--u", "csv:path={table}", "--steps", "3"), "t,v\n",
     "E_IO: signal table {table!r} has no data rows"),
    (("--p", "1", "--u", "csv:path={table}", "--steps", "3"), "t,v\n0,1\n1,abc\n",
     "E_IO: signal table {table!r}: could not convert string to float: 'abc'"),
])
def test_bad_signal_arguments_are_one_error_line(capsys, tmp_path, argv, table, message):
    path = str(tmp_path / "u.csv")
    if table is not None:
        pathlib.Path(path).write_text(table)
    code, out, err = run(
        capsys, "simulate", "--model", "msd", "--ts", "0.1",
        *(a.format(table=path) for a in argv),
    )
    assert (code, out) == (1, "")
    assert err == message.format(table=path) + "\n"


@pytest.mark.parametrize("table, fault", [
    ("t,v\n0,1\n1\n2,3\n", "row 1 has 1 cells, expected 2"),
    ("0,1,2\n1,1\n", "row 1 has 2 cells, expected 3"),
    ("t,v\n0,1\n1,abc,2\n", "row 1 has 3 cells, expected 2"),
])
def test_a_ragged_signal_table_names_its_first_short_or_long_row(capsys, tmp_path,
                                                                 table, fault):
    # rows are counted among the data rows, from 0, as in a trajectory table
    path = tmp_path / "u.csv"
    path.write_text(table)
    code, out, err = run(capsys, "simulate", "--model", "msd", "--ts", "0.1", "--p", "1",
                         "--u", f"csv:path={path}", "--steps", "3")
    assert (code, out, err) == (1, "", f"E_IO: signal table {str(path)!r}: {fault}\n")


# --- check -------------------------------------------------------------------


def test_check_passing_model(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, _, err = run(
        capsys, "check", "--model", "scalar_neg_p", "--ts", "0.1",
        "--out", str(out),
    )
    assert code == 0
    assert err == ""
    report = json.loads(out.read_text())
    assert report["schema_version"] == 1
    assert report["passed"] is True
    assert report["min_abs_det"] >= 1.0


def test_check_failing_model_exit_3(capsys):
    code, out, err = run(capsys, "check", "--model", "scalar_p", "--ts", "0.1")
    assert code == 3
    assert err.startswith("E_WELLPOSED:")
    report = json.loads(out)
    assert report["passed"] is False
    assert [20.0] in report["singular_points"]
    assert report["max_condition_number"] == "inf"
    assert report["refuted_by"] == "sample"
    assert err == "E_WELLPOSED: 1 singular point(s) in the sweep, first at p=[20.0]\n"


def test_check_refutes_a_zero_between_grid_points(capsys):
    # det = 1 - 0.35 p on [0, 40] is zero at p = 2/0.7, off the 11-point grid
    code, out, err = run(capsys, "check", "--model", "scalar_p", "--ts", "0.7")
    assert code == 3
    assert err.startswith("E_WELLPOSED:") and err.count("\n") == 1
    report = json.loads(out)
    assert report["passed"] is False
    assert report["refuted_by"] == "sign_change"
    (point,) = report["singular_points"]
    assert abs(point[0] - 2.0 / 0.7) <= 1e-9
    assert err == (
        "E_WELLPOSED: bisection between two samples of the sweep, where "
        "det(I - A(p) Ts/2) changes sign, found a singular point at "
        f"p={point}\n"
    )


# --- discretize ----------------------------------------------------------------


def test_discretize_integrator_blocks(capsys):
    code, out, err = run(
        capsys, "discretize", "--model", "integrator", "--ts", "0.5"
    )
    assert code == 0
    data = json.loads(out)
    assert data["wprime"]["Axi"] == [[1.0]]
    assert data["wprime"]["Dxi"] == [[0.25]]
    assert data["tustin"]["Axi"] == [[1.0]]
    assert data["tustin"]["Dxi"] == [[0.25]]
    assert data["p"] == [0.0]  # constant model defaults to the box midpoint
    assert data["similarity_residual"] <= 1e-10


def test_discretize_requires_p_for_lpv_model(capsys):
    code, _, err = run(capsys, "discretize", "--model", "msd", "--ts", "0.1")
    assert code == 1
    assert err.startswith("E_PARSE:")
    code, out, _ = run(
        capsys, "discretize", "--model", "msd", "--ts", "0.1", "--p", "2.0"
    )
    assert code == 0
    assert json.loads(out)["p"] == [2.0]


def test_discretize_model_by_explicit_path(capsys):
    code, out, _ = run(
        capsys, "discretize", "--model", str(fixture_path("integrator")),
        "--ts", "0.5",
    )
    assert code == 0
    assert json.loads(out)["wprime"]["Bxi"] == [[2.0]]


# --- JSON layout -----------------------------------------------------------------

_STEP_BLOCKS = ["Axi", "Bxi", "Cxi", "Dxi", "Xxi", "Xu"]
_CHECK_KEYS = ["schema_version", "command", "ts", "samples_checked", "min_abs_det",
               "argmin_p", "max_condition_number", "singular_points", "passed",
               "refuted_by"]


@pytest.mark.parametrize("model, ts, code", [("msd", "0.1", 0), ("scalar_p", "0.1", 3)])
def test_check_json_layout(capsys, model, ts, code):
    got, out, _ = run(capsys, "check", "--model", model, "--ts", ts)
    assert got == code
    data = json.loads(out)
    assert list(data) == _CHECK_KEYS
    assert isinstance(data["argmin_p"], list)
    assert isinstance(data["singular_points"], list)
    assert all(isinstance(q, list) for q in data["singular_points"])
    assert data["refuted_by"] == ("sample" if code else None)
    if code:
        assert data["singular_points"] == [[20.0]]
        assert data["min_abs_det"] == 0.0
        assert '"max_condition_number": "inf",' in out
    else:
        assert data["singular_points"] == []
        assert isinstance(data["max_condition_number"], float)


def test_discretize_json_layout(capsys):
    code, out, _ = run(capsys, "discretize", "--model", "msd", "--ts", "0.1", "--p", "2")
    assert code == 0
    data = json.loads(out)
    assert list(data) == ["schema_version", "command", "ts", "p", "wprime", "tustin",
                          "similarity_residual"]
    assert list(data["wprime"]) == _STEP_BLOCKS
    assert list(data["tustin"]) == _STEP_BLOCKS
    assert data["tustin"]["Xxi"] == [[1.0, 0.0], [0.0, 1.0]]
    assert data["tustin"]["Xu"] == [[0.0], [0.0]]


def test_compare_json_layout(capsys):
    code, out, _ = run(
        capsys, "compare", "--model", "msd", "--ts", "0.05", "--p", "const:2",
        "--u", "const:1", "--x0", "1,0", "--t-end", "1",
    )
    assert code == 0
    data = json.loads(out)
    assert list(data) == ["schema_version", "command", "tol", "max_abs_error",
                          "rms_error", "relative_to", "per_channel", "passed"]
    assert isinstance(data["per_channel"], list) and len(data["per_channel"]) == 1
    assert data["passed"] is True


# --- simulate / loop-simulate --------------------------------------------------


def test_simulate_integrator_csv(capsys):
    code, out, _ = run(
        capsys, "simulate", "--model", "integrator", "--ts", "0.5",
        "--u", "const:1", "--steps", "5",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,t,y1"
    assert lines[1] == "0,0.0,0.0"
    assert lines[-1] == "4,2.0,2.0"


def test_simulate_emit_state_columns(capsys):
    code, out, _ = run(
        capsys, "simulate", "--model", "integrator", "--ts", "0.5",
        "--u", "const:1", "--steps", "3", "--emit-state",
    )
    assert code == 0
    assert out.startswith("k,t,y1,x1,xi1\n")


def test_engines_byte_identical_on_integrator(capsys):
    args = ("--model", "integrator", "--ts", "0.5", "--u", "const:1",
            "--steps", "5", "--emit-state")
    _, out_a, _ = run(capsys, "simulate", *args)
    _, out_b, _ = run(capsys, "loop-simulate", *args)
    assert out_a == out_b


def test_simulate_engines_are_looked_up_per_call(capsys, monkeypatch):
    # a tracer rebinds the engines in this module after main built its parser
    argv = ("--model", "integrator", "--ts", "0.5", "--u", "const:1", "--steps", "3")
    assert run(capsys, "simulate", *argv)[0] == 0
    called = []
    for name in ("simulate_dt", "simulate_dt_loop_oracle"):
        def spy(*args, _engine=getattr(cli, name), _name=name):
            called.append(_name)
            return _engine(*args)
        monkeypatch.setattr(cli, name, spy)
    assert run(capsys, "simulate", *argv)[0] == 0
    assert run(capsys, "loop-simulate", *argv)[0] == 0
    assert called == ["simulate_dt", "simulate_dt_loop_oracle"]


def test_simulate_from_trajectory_table(capsys, tmp_path):
    table = tmp_path / "in.csv"
    table.write_text("k,t,p1,u1\n0,0.0,0.0,1.0\n1,0.5,0.0,1.0\n2,1.0,0.0,1.0\n")
    out_file = tmp_path / "out.csv"
    code, _, _ = run(
        capsys, "simulate", "--model", "integrator", "--ts", "0.5",
        "--traj", str(table), "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    assert lines[1:] == ["0,0.0,0.0", "1,0.5,0.5", "2,1.0,1.0"]


def test_simulate_conflicting_inputs_rejected(capsys, tmp_path):
    table = tmp_path / "in.csv"
    table.write_text("k,t,p1,u1\n0,0.0,0.0,1.0\n")
    code, _, err = run(
        capsys, "simulate", "--model", "integrator", "--ts", "0.5",
        "--traj", str(table), "--u", "const:1",
    )
    assert code == 1
    assert err.startswith("E_PARSE:")


@pytest.mark.parametrize("command", ["simulate", "loop-simulate", "compare"])
def test_simulate_wellposedness_exit_2(capsys, command):
    # both engines refuse a singular step with the one line of the same judge
    code, out, err = run(
        capsys, command, "--model", "scalar_p", "--ts", "0.1",
        "--p", "const:20", "--u", "const:1", "--steps", "3",
    )
    assert (code, out) == (2, "")
    assert err == ("E_WELLPOSED: step k=0, p=[20.0]: |det(I - A(p)*Ts/2)| = "
                   "0.000e+00 is numerically zero (Ts = 0.1)\n")


_RUN_3 = ("--p=const:0.5", "--u=const:1", "--u=const:1", "--steps", "3")


@pytest.mark.parametrize("argv", [
    ("simulate", *_RUN_3), ("loop-simulate", *_RUN_3), ("compare", *_RUN_3),
    ("check",), ("discretize", "--p", "0.5"),
], ids=lambda argv: argv[0])
def test_an_i_minus_a_ts_past_the_float_range_is_one_nonfinite_line(capsys, tmp_path, argv):
    # A = 1e300 [[1, 1], [1, 1]] at Ts = 1e10: A Ts/2 = 5e309 overflows
    eye = [[1.0, 0.0], [0.0, 1.0]]
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "nx": 2, "nu": 2, "ny": 2, "np": 1, "domain": {"lower": [0], "upper": [1]},
        "A": [{"exponents": [0], "coeff": [[1e300, 1e300], [1e300, 1e300]]}],
        "B": [{"exponents": [0], "coeff": eye}], "C": [{"exponents": [0], "coeff": eye}],
    }))
    out_file = tmp_path / "out"
    code, out, err = run(capsys, argv[0], "--model", str(path), "--ts", "1e10",
                         *argv[1:], "--out", str(out_file))
    assert (code, out) == (2, "")
    assert err == ("E_NONFINITE: I - A(p)*Ts/2 leaves the float range "
                   "(Ts = 10000000000.0)\n")
    assert not out_file.exists()


@pytest.mark.parametrize("command", ["simulate", "loop-simulate", "compare"])
@pytest.mark.parametrize("timing", [("--steps", "1"), ("--t-end", "99", "--steps", "2"),
                                    ("--t-end", "1")])
def test_a_trajectory_table_refuses_signal_timing(capsys, tmp_path, command, timing):
    # --t-end and --steps size a signal run; a table sets its own length
    table = tmp_path / "T.csv"
    table.write_text("k,t,p1,u1\n0,0.0,2.0,0.0\n1,0.05,2.0,0.5\n2,0.1,2.0,1.0\n")
    out_file = tmp_path / "out"
    code, out, err = run(
        capsys, command, "--model", "msd", "--ts", "0.05", "--traj", str(table),
        *timing, "--out", str(out_file),
    )
    assert (code, out) == (1, "")
    assert err == ("E_PARSE: --traj replaces --p/--u signals and --t-end/--steps; "
                   "give one or the other\n")
    assert not out_file.exists()


@pytest.mark.parametrize("argv, missing", [
    (("--p", "2", "--u", "1"), "--t-end"),
    (("--p", "2", "--t-end", "1"), "--u"),
    (("--p", "2"), "--u, --t-end"),
])
def test_converge_names_only_its_own_missing_options(capsys, argv, missing):
    # converge takes neither --steps nor --traj, so its line names neither
    code, out, err = run(capsys, "converge", "--model", "msd", *argv,
                         "--ts-list", "0.2,0.1,0.05")
    assert (code, out) == (1, "")
    assert err == f"E_PARSE: the following arguments are required: {missing}\n"


def _constant_model_json(A, B, C):
    return {
        "nx": len(A), "nu": len(B[0]), "ny": len(C), "np": 1,
        "domain": {"lower": [-1.0], "upper": [1.0]},
        "A": [{"exponents": [0], "coeff": A}],
        "B": [{"exponents": [0], "coeff": B}],
        "C": [{"exponents": [0], "coeff": C}],
    }


#: every run of these diverges: a double pole at s = 10, and a scalar pole
#: at s = 30 whose discrete pole at Ts 0.1 is -5, so its state alternates in
#: sign as it grows (the loop oracle once raised a raw FloatingPointError on it)
_DOUBLE_POLE = _constant_model_json([[0.0, 1.0], [-100.0, 20.0]], [[0.0], [1.0]],
                                    [[1.0, 0.0]])
_ALTERNATING = _constant_model_json([[30.0]], [[1.0]], [[1.0]])


@pytest.mark.parametrize("model, argv", [
    (_DOUBLE_POLE, ("simulate", "--ts", "0.01", "--t-end", "100", "--emit-state")),
    (_DOUBLE_POLE, ("loop-simulate", "--ts", "0.01", "--t-end", "100",
                    "--emit-state")),
    (_DOUBLE_POLE, ("compare", "--ts", "0.01", "--t-end", "100")),
    (_DOUBLE_POLE, ("converge", "--ts-list", "0.04,0.02,0.01", "--oversample", "4",
                    "--t-end", "100")),
    (_ALTERNATING, ("simulate", "--ts", "0.1", "--t-end", "100")),
    (_ALTERNATING, ("loop-simulate", "--ts", "0.1", "--t-end", "100")),
    (_ALTERNATING, ("compare", "--ts", "0.1", "--t-end", "100")),
])
def test_a_diverging_run_is_one_nonfinite_line(capsys, tmp_path, model, argv):
    path = tmp_path / "diverging.json"
    path.write_text(json.dumps(model))
    out = tmp_path / "out"
    code, stdout, err = run(
        capsys, argv[0], "--model", str(path), *argv[1:], "--p", "0", "--u", "1",
        "--out", str(out),
    )
    assert (code, stdout) == (2, "")
    assert err.startswith("E_NONFINITE: ") and err.count("\n") == 1
    assert "is not finite at step k=" in err
    assert not out.exists()


def test_simulate_rejects_bad_step_count(capsys):
    code, _, err = run(
        capsys, "simulate", "--model", "integrator", "--ts", "0.5",
        "--u", "const:1", "--steps", "1",
    )
    assert code == 1
    assert err.startswith("E_PARSE:")


def test_simulate_rejects_wrong_x0_width(capsys):
    code, _, err = run(
        capsys, "simulate", "--model", "msd", "--ts", "0.1",
        "--p", "const:2", "--u", "const:1", "--steps", "3", "--x0", "1,2,3",
    )
    assert code == 1
    assert err.startswith("E_DIM:")


def test_simulate_rejects_nan_in_trajectory_table(capsys, tmp_path):
    table = tmp_path / "in.csv"
    table.write_text("k,t,p1,u1\n0,0.0,2.0,1.0\n1,0.1,nan,1.0\n2,0.2,2.0,1.0\n")
    for command in ("simulate", "loop-simulate"):
        code, out, err = run(
            capsys, command, "--model", "msd", "--ts", "0.1",
            "--traj", str(table),
        )
        assert code == 1 and out == ""
        assert err.startswith("E_DOMAIN:") and "step 1" in err
        assert err.count("\n") == 1


def test_simulate_rejects_a_nan_time_in_trajectory_table(capsys, tmp_path):
    table = tmp_path / "T.csv"
    table.write_text("k,t,p1,u1\n0,0.0,1.0,2.0\n1,nan,1.0,2.0\n")
    code, out, err = run(
        capsys, "simulate", "--model", "integrator", "--ts", "0.1", "--traj", str(table),
    )
    assert (code, out) == (1, "")
    assert err == "E_IO: row 1 has t = nan, expected k*ts = 0.1 (ts = 0.1)\n"


@pytest.mark.parametrize("text", [
    "t,v\n0,1\n1,3\n",
    '"t","v"\r\n \r\n"0",1\r\n,\r\n1,"3"\r\n',  # quoted cells, CRLF, blank rows
    "t,v\n\t\n0,1\n , \n1,3",
])
def test_signal_table_reads_quoted_cells_crlf_and_blank_rows(tmp_path, text):
    table = tmp_path / "u.csv"
    table.write_text(text, newline="")
    got = generate_signal(parse_signal_text(f"csv:path={table},col=1"), [0.0, 0.5, 1.0])
    assert list(got) == [1.0, 2.0, 3.0]


@pytest.mark.parametrize(
    "extra, prefix",
    [
        (("--u", "const:nan"), "E_IO:"),
        (("--u", "const:1", "--x0", "nan,0"), "E_PARSE:"),
    ],
)
def test_simulate_rejects_non_finite_u_and_x0(capsys, extra, prefix):
    code, out, err = run(
        capsys, "simulate", "--model", "msd", "--ts", "0.1",
        "--p", "const:2", "--steps", "4", *extra,
    )
    assert code == 1 and out == ""
    assert err.startswith(prefix) and err.count("\n") == 1


@pytest.mark.parametrize(
    "field, value, prefix",
    [
        ("A", [{"exponents": [0], "coeff": [[0.0, 1.0], [float("nan"), -0.5]]}],
         "E_PARSE:"),
        ("domain", {"lower": [0.5], "upper": [float("inf")]}, "E_DOMAIN:"),
    ],
)
def test_non_finite_model_numbers_are_exit_1(capsys, tmp_path, field, value, prefix):
    data = json.loads(fixture_path("msd").read_text())
    data[field] = value
    model = tmp_path / "bad.json"
    model.write_text(json.dumps(data))  # json writes NaN / Infinity literals
    for argv in (
        ("simulate", "--p", "const:2", "--u", "const:1", "--steps", "4"),
        ("check",),
    ):
        code, out, err = run(capsys, *argv, "--model", str(model), "--ts", "0.1")
        assert code == 1 and out == ""
        assert err.startswith(prefix) and err.count("\n") == 1


# --- freqresp -------------------------------------------------------------------


def test_freqresp_files_and_residual(capsys, tmp_path):
    prefix = tmp_path / "fr"
    code, _, _ = run(
        capsys, "freqresp", "--model", "lag1", "--ts", "0.1",
        "--out", str(prefix),
    )
    assert code == 0
    data = json.loads((tmp_path / "fr.json").read_text())
    assert data["schema_version"] == 1
    assert data["warping_residual"] <= 1e-9
    assert data["n_points"] == 200
    assert data["ct_csv"] == "fr_ct.csv"
    ct_lines = (tmp_path / "fr_ct.csv").read_text().strip().split("\n")
    dt_lines = (tmp_path / "fr_dt.csv").read_text().strip().split("\n")
    assert ct_lines[0] == "omega_rads,reOut1In1,imOut1In1"
    assert dt_lines[0] == "omega_rads,reOut1In1,imOut1In1"
    assert len(ct_lines) == 201


def test_freqresp_stdout_without_prefix(capsys):
    code, out, _ = run(
        capsys, "freqresp", "--model", "msd", "--ts", "0.1", "--p", "2.0",
        "--decades", "2", "--points-per-decade", "10",
    )
    assert code == 0
    data = json.loads(out)
    assert data["n_points"] == 20
    assert "ct_csv" not in data


def test_freqresp_computes_the_dt_response_once(capsys, monkeypatch):
    # the warping residual reuses the DT response the command writes out
    calls = []
    real = analyze.freqresp_dt

    def counting_freqresp_dt(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "freqresp_dt", counting_freqresp_dt)
    monkeypatch.setattr(analyze, "freqresp_dt", counting_freqresp_dt)
    code, out, _ = run(
        capsys, "freqresp", "--model", "msd", "--ts", "0.1", "--p", "2.0",
        "--decades", "2", "--points-per-decade", "10",
    )
    assert code == 0 and len(calls) == 1
    cfg = DiscretizationConfig(0.1)
    grid = log_frequency_grid(cfg, decades=2, points_per_decade=10)
    model = parse_model(fixture_path("msd").read_text())
    assert json.loads(out)["warping_residual"] == warping_residual(model, [2.0], cfg, grid)
    assert len(calls) == 2


def test_freqresp_grid_rounding_to_no_points_is_one_line(capsys):
    code, out, err = run(
        capsys, "freqresp", "--model", "msd", "--ts", "0.1", "--p", "2",
        "--decades", "0.001", "--points-per-decade", "1",
    )
    assert code == 1 and out == ""
    assert err.startswith("E_PARSE:") and err.count("\n") == 1


def test_freqresp_grid_past_the_float_range_names_its_decades(capsys):
    # the grid's bottom underflows to 0: the reason is the decades asked for,
    # not the grid the user never gave
    code, out, err = run(
        capsys, "freqresp", "--model", "lag1", "--ts", "0.1",
        "--decades", "330", "--points-per-decade", "1",
    )
    assert (code, out) == (1, "")
    assert err == "E_PARSE: grid of 330 decades below 28.27 rad/s leaves the float range\n"
    code, out, err = run(
        capsys, "freqresp", "--model", "lag1", "--ts", "0.1",
        "--decades", "300", "--points-per-decade", "1",
    )
    assert (code, err) == (0, "")


# --- compare --------------------------------------------------------------------


def test_compare_engines_pass(capsys):
    code, out, err = run(
        capsys, "compare", "--model", "msd", "--ts", "0.05",
        "--p", "sine:amp=1.5,f=0.2,offset=2", "--u", "sine:amp=1,f=0.5",
        "--x0", "1,0", "--t-end", "10",
    )
    assert code == 0
    assert err == ""
    data = json.loads(out)
    assert data["passed"] is True
    assert data["max_abs_error"] <= 1e-9 * data["relative_to"]


def test_compare_threshold_failure_exit_3(capsys):
    code, out, err = run(
        capsys, "compare", "--model", "msd", "--ts", "0.05",
        "--p", "sine:amp=1.5,f=0.2,offset=2", "--u", "sine:amp=1,f=0.5",
        "--x0", "1,0", "--t-end", "10", "--tol", "1e-30",
    )
    assert code == 3
    assert err.startswith("E_THRESHOLD:")
    assert json.loads(out)["passed"] is False


# --- converge -------------------------------------------------------------------


def test_converge_report(capsys):
    code, out, _ = run(
        capsys, "converge", "--model", "lag1", "--u", "step:amp=1",
        "--t-end", "4", "--ts-list", "0.2,0.1,0.05", "--oversample", "20",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "Ts,max_error,pairwise_order"
    assert lines[-1].startswith("fitted_order=")
    assert 1.8 <= float(lines[-1].split("=")[1]) <= 2.2


def test_converge_rejects_non_halving_list(capsys):
    code, _, err = run(
        capsys, "converge", "--model", "lag1", "--u", "step:amp=1",
        "--t-end", "4", "--ts-list", "0.2,0.1,0.04",
    )
    assert code == 1
    assert err.startswith("E_PARSE:")


def test_converge_refuses_a_t_end_shorter_than_every_ts(capsys):
    code, out, err = run(capsys, "converge", "--model", "msd", "--ts-list", "0.2,0.1,0.05",
                         "--p", "2", "--u", "1", "--t-end", "1e-300")
    assert (code, out) == (1, "")
    assert err == "E_PARSE: Ts = 0.2 does not divide t_end = 1e-300\n"


@pytest.mark.parametrize("argv", [
    ("freqresp", "--model", "lag1", "--ts", "0.1", "--decades", "nan"),
    ("freqresp", "--model", "lag1", "--ts", "0.1", "--decades", "inf"),
    ("simulate", "--model", "lag1", "--ts", "0.1", "--u", "const:1", "--t-end", "inf"),
    ("converge", "--model", "lag1", "--u", "step:amp=1", "--t-end", "inf",
     "--ts-list", "0.2,0.1,0.05"),
    ("converge", "--model", "lag1", "--u", "step:amp=1", "--t-end", "4",
     "--ts-list", "0.2,0.1,nan"),
    ("converge", "--model", "lag1", "--u", "step:amp=1", "--t-end", "4",
     "--ts-list", "0.2,0.1,0"),
    ("converge", "--model", "msd", "--p", "1", "--u", "sine:f=1", "--t-end", "1",
     "--ts-list", "1e-320,5e-321,2.5e-321"),
    ("compare", "--model", "lag1", "--ts", "0.1", "--u", "const:1", "--t-end", "1",
     "--tol", "nan"),
    ("compare", "--model", "lag1", "--ts", "0.1", "--u", "const:1", "--t-end", "1",
     "--tol", "-1"),
])
def test_bad_cli_numbers_end_in_one_parse_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("E_PARSE:") and err.count("\n") == 1


@pytest.mark.parametrize("samples", ["0", "100"])
def test_a_negative_seed_is_one_parse_line(capsys, samples):
    code, out, err = run(capsys, "check", "--model", "msd", "--ts", "0.1",
                         "--samples", samples, "--seed=-1")
    assert (code, out, err) == (1, "", "E_PARSE: seed must be an integer >= 0, got -1\n")


# --- generic dispatch -----------------------------------------------------------


def test_usage_error_is_exit_1(capsys):
    code, _, err = run(capsys, "simulate", "--model", "integrator")
    assert code == 1
    assert err.startswith("E_PARSE:")
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert err.startswith("E_PARSE:")


def test_missing_model_file_is_exit_1(capsys):
    code, _, err = run(
        capsys, "check", "--model", "missing.json", "--ts", "0.1"
    )
    assert code == 1
    assert err.startswith("E_IO:")


def test_malformed_model_file_is_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run(capsys, "check", "--model", str(bad), "--ts", "0.1")
    assert code == 1
    assert err.startswith("E_PARSE:")


def test_nonpositive_ts_is_exit_1(capsys):
    code, _, err = run(
        capsys, "discretize", "--model", "integrator", "--ts", "-0.5"
    )
    assert code == 1
    assert err.startswith("E_PARSE:")


def test_infinite_ts_is_exit_1(capsys):
    code, _, err = run(capsys, "check", "--model", "msd", "--ts", "inf")
    assert code == 1
    assert err.startswith("E_PARSE:")


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "check" in out and "converge" in out


def test_repeat_runs_byte_identical_outputs(capsys, tmp_path):
    # same command, two output files: bytes must match
    args = ("check", "--model", "msd", "--ts", "0.1", "--seed", "42")
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


# --- output files ------------------------------------------------------------

_DISC = ("discretize", "--model", "integrator", "--ts", "0.5")


def test_rerun_over_longer_stale_outputs_gives_exact_bytes(tmp_path):
    fresh, stale = tmp_path / "fresh", tmp_path / "stale"
    fresh.mkdir()
    stale.mkdir()
    _run_cli_suite(fresh)
    names = sorted(q.name for q in fresh.iterdir())
    for name in names:
        (stale / name).write_bytes(b"~" * ((fresh / name).stat().st_size + 10240))
    _run_cli_suite(stale)
    assert sorted(q.name for q in stale.iterdir()) == names
    for name in names:
        assert (stale / name).read_bytes() == (fresh / name).read_bytes(), name


def test_out_to_dev_null(capsys):
    assert run(capsys, *_DISC, "--out", os.devnull) == (0, "", "")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_out_to_a_fifo_is_written_and_not_cut(capsys, tmp_path):
    expected = run(capsys, *_DISC)[1].encode()
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    # an open reader lets the CLI open the pipe; the JSON fits its buffer
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run(capsys, *_DISC, "--out", str(fifo)) == (0, "", "")
        assert os.read(reader, 1 << 16) == expected
    finally:
        os.close(reader)


def test_out_naming_a_directory_is_one_io_line(capsys, tmp_path):
    code, out, err = run(capsys, *_DISC, "--out", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith("E_IO: ") and err.count("\n") == 1


def test_a_failed_write_leaves_the_target_empty(capsys, tmp_path, monkeypatch):
    target = tmp_path / "disc.json"
    target.write_bytes(b"old contents\n" * 1000)
    real_write = os.write

    def write_half_then_fail(fd, data):
        real_write(fd, data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli.os, "write", write_half_then_fail)
    code, out, err = run(capsys, *_DISC, "--out", str(target))
    monkeypatch.undo()
    assert (code, out, err) == (1, "", "E_IO: [Errno 28] No space left on device\n")
    assert target.read_bytes() == b""


def _file_writes(tree):
    """(enclosing function, line) of each call in ``tree`` that may open a
    file for writing: ``os.open``, ``open`` with a mode that writes, or
    ``write_text``/``write_bytes``."""
    found = []

    def writes(call):
        f = call.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
        if name in ("write_text", "write_bytes"):
            return True
        if name != "open":
            return False
        owner = f.value.id if isinstance(f, ast.Attribute) and isinstance(
            f.value, ast.Name) else None
        if owner == "os":
            return True
        # open(file, mode) and io.open, but path.open(mode)
        at = 1 if owner in (None, "io") else 0
        mode = call.args[at] if len(call.args) > at else next(
            (k.value for k in call.keywords if k.arg == "mode"), None)
        if mode is None:
            return False
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
            return True  # a mode that cannot be read here counts as a write
        return bool(set(mode.value) & set("wax+"))

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and writes(child):
                found.append((func, child.lineno))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else func)

    visit(tree, None)
    return found


def test_cli_emit_is_the_only_file_writer():
    # _emit's in-place rewrite covers every output only while nothing else
    # in the package writes a file
    writers = set()
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        writers |= {(path.name, func) for func, _ in _file_writes(tree)}
    assert writers == {("cli.py", "_emit")}


@pytest.mark.parametrize("source, expected", [
    ("open(p, 'w')", 1), ("open(p, mode='a')", 1), ("open(p, 'rb')", 0),
    ("open(p)", 0), ("io.open(p, 'x')", 1), ("q.open('r+')", 1), ("q.open()", 0),
    ("os.open(p, os.O_RDONLY)", 1), ("q.write_text(t)", 1), ("q.write_bytes(b)", 1),
    ("open(p, m)", 1), ("fh.write(t)", 0),
])
def test_the_writer_scan_finds_each_way_of_writing(source, expected):
    assert len(_file_writes(ast.parse(source))) == expected


# --- one parser per process --------------------------------------------------

_SIM = ("simulate", "--model", "msd", "--ts", "0.1", "--x0", "0.5,0")


@pytest.mark.parametrize("first, second", [
    # append lists must not accumulate across calls
    ((*_SIM, "--p", "const:2", "--u", "const:1", "--steps", "4"),
     (*_SIM, "--p", "sine:amp=0.5,offset=2", "--u", "step:amp=2",
      "--steps", "6", "--emit-state")),
    # a usage error, then a valid call
    (("simulate", "--model", "msd", "--bogus"),
     (*_SIM, "--p", "const:3", "--u", "const:1", "--steps", "3")),
    # --help, then a valid call
    (("simulate", "--help"),
     (*_SIM, "--p", "const:3", "--u", "const:1", "--steps", "3")),
    # converge sets args.steps on its own namespace only
    (("converge", "--model", "lag1", "--u", "step:amp=1", "--t-end", "1",
      "--ts-list", "0.2,0.1,0.05", "--oversample", "4"),
     ("simulate", "--model", "lag1", "--ts", "0.2", "--u", "const:1",
      "--steps", "4")),
], ids=["append", "usage-error", "help", "converge-steps"])
def test_reused_parser_prints_what_a_fresh_one_would(capsys, monkeypatch, first, second):
    built, build_parser = [], cli.build_parser

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    monkeypatch.setattr(cli, "_parser", None)
    first_result = run(capsys, *first)
    reused = run(capsys, *second)
    assert len(built) == 1
    monkeypatch.setattr(cli, "_parser", None)
    assert run(capsys, *second) == reused
    assert len(built) == 2
    assert reused[0] == 0 and reused[1]
    assert first_result[0] == (1 if "--bogus" in first else 0)


def test_build_parser_returns_a_fresh_parser():
    assert cli.build_parser() is not cli.build_parser()


def test_import_does_not_build_the_parser():
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    code = "import lpvsim, lpvsim.cli as cli; raise SystemExit(cli._parser is not None)"
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
