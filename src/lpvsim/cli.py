"""Command-line front end.

Seven subcommands wire model files into the library: ``check`` (sampled
well-posedness sweep), ``discretize`` (per-step matrices at a frozen point),
``simulate`` and ``loop-simulate`` (the two discrete engines), ``freqresp``
(frozen-p responses plus the warping residual), ``compare`` (cross-engine
error metrics with a threshold), and ``converge`` (Ts sweep report).

Models are JSON files; ``--model`` also accepts a bundled example name.
Signals use a small inline grammar, e.g. ``--u "sine:amp=1,f=0.5"`` (see
``--help`` of the simulate command).  Every failure prints one line
``E_CODE: detail`` to stderr; exit status is 1 for usage, parse, and I/O
problems and for requests too large to allocate, 2 for a well-posedness
failure or a result past the float range during an operation, and 3 when a
check or threshold fails.
"""

import argparse
import dataclasses
import json
import math
import os
import pathlib
import stat
import sys

import numpy as np

from .analyze import (
    compare_traj,
    convergence_order,
    freqresp_ct,
    freqresp_dt,
    frequency_response_csv,
    log_frequency_grid,
    render_convergence_report,
    warping_residual,
)
from .discretize import (
    DiscretizationConfig,
    dt_step_matrices,
    tustin_frozen,
    wellposedness_check,
)
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    LpvError,
    NonFiniteError,
    WellposednessError,
)
from .fixtures import FIXTURE_NAMES, fixture_path
from .model import parse_model
from .simulate import (
    Scenario,
    SignalSpec,
    _sized,
    _table_rows,
    read_trajectory_csv,
    sample_scenario,
    simulate_dt,
    simulate_dt_loop_oracle,
    write_trajectory_csv,
)

SCHEMA_VERSION = 1

_SIGNAL_HELP = (
    "signal grammar: const:VALUE | step:amp=,t0=,offset= | "
    "sine:amp=,f=,phase=,offset= | chirp:amp=,f0=,f1=,t1=,offset= | "
    "csv:path=,col=,offset=,amp= (time in column 0, value in column col, "
    "linear interpolation, ends held); a bare number is a constant"
)

#: CLI kind -> (SignalSpec kind, {CLI key: SignalSpec field}, the defaults
#: that differ from SignalSpec's own).  Keys parse in map order.
_SIGNAL_GRAMMAR = {
    "const": ("constant", {"value": "offset"}, {"amplitude": 0.0}),
    "step": ("step", {"amp": "amplitude", "t0": "t0", "offset": "offset"}, {}),
    "sine": ("sine", {"amp": "amplitude", "f": "f", "phase": "phase",
                      "offset": "offset"}, {}),
    "chirp": ("chirp", {"amp": "amplitude", "f0": "f0", "f1": "f1", "t1": "t1",
                        "offset": "offset"}, {}),
    "csv": ("csv_column", {"path": "path", "col": "column", "offset": "offset",
                           "amp": "amplitude"}, {"column": 1}),
}

_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(SignalSpec)}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse normally exits(2) on bad usage; route through the E_PARSE path
    def error(self, message):
        raise _UsageError(message)


def _jsonable(obj):
    """JSON-safe copy: numpy to native, non-finite floats to strings."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isfinite(f):
            return f
        if math.isnan(f):
            return "nan"
        return "inf" if f > 0 else "-inf"
    return obj


def _json_text(payload) -> str:
    return json.dumps(_jsonable(payload), indent=1) + "\n"


def _report(command, out_path, **fields):
    """Emit the JSON report of ``command``: ``schema_version`` and
    ``command``, then ``fields`` in order."""
    payload = {"schema_version": SCHEMA_VERSION, "command": command, **fields}
    _emit(_json_text(payload), out_path)


def _emit(text, out_path):
    """Write ``text`` to the file ``out_path``, or to stdout if it is None.

    The one place the CLI writes a file.  An existing file is overwritten in
    place and then cut to the new length, rather than truncated on open: on
    ext4, truncating a non-empty file to zero costs about 90 us in ``open``
    and makes the close start a writeback that the next rewrite waits for.
    Only a regular file is cut; a FIFO, ``/dev/null`` or a terminal is just
    written.  If the write raises, a regular file is emptied before the error
    propagates.  This is weaker than truncating on open: a process killed
    (or a host crashing) between the write and the cut leaves the new bytes
    followed by the old file's tail, where ``open(path, "w")`` left at worst
    a short file.  The old tail is removed only when this function returns or
    raises.
    """
    if not out_path:
        sys.stdout.write(text)
        return
    data = text.encode("utf-8")
    fd = os.open(out_path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            rest = memoryview(data)
            while rest:  # os.write may write less than it is given
                rest = rest[os.write(fd, rest):]
        except BaseException:
            if regular:
                os.ftruncate(fd, 0)
            raise
        if regular:
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _read_file(path, what):
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} {str(path)!r}: {exc}") from None


def _load_model(spec):
    path = pathlib.Path(spec)
    if not path.exists() and spec in FIXTURE_NAMES:
        path = fixture_path(spec)
    return parse_model(_read_file(path, "model file"))


def _floats(text, what):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(
            f"{what} must be comma-separated numbers, got {text!r}"
        ) from None


def _vector(text, what, n, default):
    """``text`` as exactly n comma-separated numbers; ``default()`` if None."""
    if text is None:
        return default()
    return _sized(_floats(text, what), n, what)


def _default_p(model):
    """Box midpoint, the scheduling point used when --p is omitted; only a
    constant model may omit it."""
    if not model.is_constant:
        raise ConfigError(
            "--p is required when the model depends on the scheduling vector"
        )
    return model.domain.midpoint()


def _load_signal_table(path, col):
    """Column 0 and ``col`` of a signal table file, as SignalSpec's texts."""
    blocks = _table_rows(_read_file(path, "signal table"), f"signal table {path!r}")
    rows = [row for block in blocks for row in block]
    if rows:
        try:
            float(rows[0][0])
        except ValueError:
            rows = rows[1:]  # header row
    if not rows:
        raise DataError(f"signal table {path!r} has no data rows")
    for j, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise DataError(f"signal table {path!r}: row {j} has {len(row)} "
                            f"cells, expected {len(rows[0])}")
    if col < 1 or col >= len(rows[0]):
        raise DataError(
            f"signal table {path!r} has no value column {col} "
            f"(column 0 is time, values in 1..{len(rows[0]) - 1})"
        )
    return [(row[0], row[col]) for row in rows]


def _signal_option(key, text, field_type):
    """One option value as its SignalSpec field's type (str, int or float)."""
    if field_type is str:
        return text
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"signal option {key}={text!r} is not a number") from None
    if field_type is int:
        if not value.is_integer():
            raise ConfigError(f"signal option {key}={text!r} is not an integer")
        return int(value)
    return value


def parse_signal_text(text) -> SignalSpec:
    """Parse one inline signal description (see _SIGNAL_HELP)."""
    text = text.strip()
    if ":" not in text:
        try:
            return SignalSpec.constant(float(text))
        except ValueError:
            raise ConfigError(
                f"signal {text!r} has no kind prefix; {_SIGNAL_HELP}"
            ) from None
    kind, body = text.split(":", 1)
    kind = kind.strip()
    if kind not in _SIGNAL_GRAMMAR:
        raise ConfigError(
            f"unknown signal kind {kind!r}; expected one of "
            + ", ".join(_SIGNAL_GRAMMAR)
        )
    spec_kind, keys, defaults = _SIGNAL_GRAMMAR[kind]
    body = body.strip()
    kv = {}
    if kind == "const" and body and "=" not in body:
        kv["value"] = body
    elif body:
        for part in body.split(","):
            key, eq, value = part.partition("=")
            key = key.strip()
            if not eq or not key:
                raise ConfigError(f"signal option {part!r} is not key=value")
            if key not in keys:
                raise ConfigError(
                    f"signal kind {kind!r} does not take {key!r} "
                    f"(takes {', '.join(keys)})"
                )
            if key in kv:
                raise ConfigError(f"duplicate signal option {key!r}")
            kv[key] = value.strip()
    if kind == "csv" and "path" not in kv:
        raise ConfigError("csv signal needs path=FILE")
    fields = dict(defaults)
    for key, name in keys.items():
        if key in kv:
            fields[name] = _signal_option(key, kv[key], _FIELD_TYPES[name])
        if name == "column":  # so a missing table outranks a bad offset or amp
            fields["table"] = _load_signal_table(fields["path"], fields["column"])
    return SignalSpec(kind=spec_kind, **fields)


def _parse_x0(model, args):
    return _vector(args.x0, "--x0", model.n_x, lambda: np.zeros(model.n_x))


def _scenario_from_args(model, args, ts, x0):
    """Scenario from the signal specs and ``x0``, the parsed --x0."""
    if args.p:
        specs_p = tuple(parse_signal_text(s) for s in args.p)
        if len(specs_p) != model.n_p:
            raise DimensionError(
                f"{len(specs_p)} --p signals given, model needs {model.n_p}"
            )
    else:
        specs_p = tuple(SignalSpec.constant(float(v)) for v in _default_p(model))
    if not args.u:
        raise ConfigError("give --u signals (or --traj with a trajectory table)")
    specs_u = tuple(parse_signal_text(s) for s in args.u)
    if len(specs_u) != model.n_u:
        raise DimensionError(
            f"{len(specs_u)} --u signals given, model needs {model.n_u}"
        )
    if getattr(args, "steps", None) is not None:
        if args.t_end is not None:
            raise ConfigError("give --steps or --t-end, not both")
        if args.steps < 2:
            raise ConfigError(f"--steps must be >= 2, got {args.steps}")
        t_end = (args.steps - 1) * ts
    elif args.t_end is not None:
        t_end = args.t_end
    else:
        raise ConfigError("give --t-end (or --steps) with signal specs")
    return Scenario(p=specs_p, u=specs_u, x0=x0, t_end=t_end)


def _input_trajectory(model, args, cfg):
    """Trajectory plus x0 from either --traj or inline signal specs."""
    x0 = _parse_x0(model, args)
    if args.traj:
        if args.p or args.u:
            raise ConfigError("--traj replaces --p/--u signals; give one or the other")
        return read_trajectory_csv(_read_file(args.traj, "trajectory table"), cfg.ts), x0
    return sample_scenario(_scenario_from_args(model, args, cfg.ts, x0), cfg), x0


def cmd_check(args, model, cfg):
    report = wellposedness_check(
        model, cfg, grid_per_dim=args.grid, random_samples=args.samples,
        seed=args.seed,
    )
    _report("check", args.out, **dataclasses.asdict(report))
    if not report.passed:
        first = list(report.singular_points[0])
        if report.refuted_by == "sample":
            evidence = (f"{len(report.singular_points)} singular point(s) in "
                        f"the sweep, first at p={first}")
        else:
            evidence = ("bisection between two samples of the sweep, where "
                        "det(I - A(p) Ts/2) changes sign, found a singular "
                        f"point at p={first}")
        print(f"E_WELLPOSED: {evidence}", file=sys.stderr)
        return 3
    return 0


def cmd_discretize(args, model, cfg):
    p = _vector(args.p, "--p", model.n_p, lambda: _default_p(model))
    a = dt_step_matrices(model, p, cfg)
    b = tustin_frozen(model, p, cfg)
    gaps = (
        np.max(np.abs(a.Axi - b.Axi)),
        np.max(np.abs(a.Bxi - (2.0 / cfg.ts) * b.Bxi)),
        np.max(np.abs(a.Cxi - (cfg.ts / 2.0) * b.Cxi)),
        np.max(np.abs(a.Dxi - b.Dxi)),
    )
    scale = max(
        1.0, *(float(np.max(np.abs(x))) for x in (a.Axi, a.Bxi, a.Cxi, a.Dxi))
    )
    _report("discretize", args.out, ts=cfg.ts, p=list(p), wprime=vars(a),
            tustin=vars(b), similarity_residual=float(max(gaps)) / scale)
    return 0


def _cmd_simulate(args, model, cfg):
    # the engine is looked up per call, not bound into the reused parser, so
    # a function rebound in this module (e.g. by a tracer) is the one called
    engine = simulate_dt if args.command == "simulate" else simulate_dt_loop_oracle
    traj, x0 = _input_trajectory(model, args, cfg)
    out = engine(model, cfg, traj, x0)
    _emit(write_trajectory_csv(out, include_state=args.emit_state), args.out)
    return 0


def cmd_freqresp(args, model, cfg):
    p = _vector(args.p, "--p", model.n_p, lambda: _default_p(model))
    grid = log_frequency_grid(
        cfg, decades=args.decades, points_per_decade=args.points_per_decade
    )
    ct = freqresp_ct(model, p, grid)
    dt = freqresp_dt(dt_step_matrices(model, p, cfg), cfg, grid)
    fields = {
        "ts": cfg.ts,
        "p": list(p),
        "omega_min": float(grid[0]),
        "omega_max": float(grid[-1]),
        "n_points": int(grid.size),
        "warping_residual": warping_residual(model, p, cfg, grid, dt=dt),
    }
    if args.out:
        ct_path = f"{args.out}_ct.csv"
        dt_path = f"{args.out}_dt.csv"
        # basenames keep the JSON byte-identical across output directories
        fields["ct_csv"] = pathlib.PurePath(ct_path).name
        fields["dt_csv"] = pathlib.PurePath(dt_path).name
        _emit(frequency_response_csv(ct), ct_path)
        _emit(frequency_response_csv(dt), dt_path)
    _report("freqresp", args.out and f"{args.out}.json", **fields)
    return 0


def cmd_compare(args, model, cfg):
    if not args.tol >= 0.0:
        raise ConfigError(f"--tol must be a number >= 0, got {args.tol}")
    traj, x0 = _input_trajectory(model, args, cfg)
    a = simulate_dt(model, cfg, traj, x0)
    b = simulate_dt_loop_oracle(model, cfg, traj, x0)
    metrics = compare_traj(a, b, "y")
    passed = metrics.max_abs_error <= args.tol * metrics.relative_to
    _report("compare", args.out, tol=args.tol, **dataclasses.asdict(metrics),
            passed=passed)
    if not passed:
        print(
            f"E_THRESHOLD: max_abs_error {metrics.max_abs_error!r} exceeds "
            f"tol * relative_to = {args.tol * metrics.relative_to!r}",
            file=sys.stderr,
        )
        return 3
    return 0


def cmd_converge(args, model, cfg):
    ts_list = _floats(args.ts_list, "--ts-list")
    scen = _scenario_from_args(model, args, ts_list[-1], _parse_x0(model, args))
    study = convergence_order(model, scen, ts_list, oversample=args.oversample)
    _emit(render_convergence_report(study), args.out)
    return 0


def _add_model_ts(sp, ts=True):
    sp.add_argument(
        "--model", required=True,
        help="model JSON file, or a bundled name: " + ", ".join(FIXTURE_NAMES),
    )
    if ts:
        sp.add_argument("--ts", type=float, required=True,
                        help="sampling time in seconds")


def _add_scenario(sp, traj=True):
    sp.add_argument("--p", action="append", metavar="SPEC",
                    help="scheduling signal, one per dimension; " + _SIGNAL_HELP)
    sp.add_argument("--u", action="append", metavar="SPEC",
                    help="input signal, one per channel")
    sp.add_argument("--x0", help="initial state, comma-separated (default zeros)")
    sp.add_argument("--t-end", type=float, help="final time in seconds")
    if traj:
        sp.add_argument("--steps", type=int,
                        help="number of samples instead of --t-end")
        sp.add_argument("--traj", help="input trajectory CSV (k,t,p...,u...)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lpvsim",
        description="Discretize and simulate LPV state-space models with the "
        "bilinear method that keeps the continuous-time matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="sampled well-posedness sweep over the box")
    _add_model_ts(sp)
    sp.add_argument("--grid", type=int, default=11, help="grid points per dimension")
    sp.add_argument("--samples", type=int, default=100, help="extra random draws")
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--out", help="write the JSON report here (default stdout)")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("discretize", help="per-step matrices at a frozen point")
    _add_model_ts(sp)
    sp.add_argument("--p", help="frozen scheduling point, comma-separated "
                    "(optional for constant models)")
    sp.add_argument("--out", help="write the JSON blocks here (default stdout)")
    sp.set_defaults(func=cmd_discretize)

    for name, kind in (("simulate", "loop-free"), ("loop-simulate", "loop-solving")):
        sp = sub.add_parser(
            name, help=f"run the {kind} engine over a scenario or trajectory table"
        )
        _add_model_ts(sp)
        _add_scenario(sp)
        sp.add_argument("--emit-state", action="store_true",
                        help="append x and xi columns to the output CSV")
        sp.add_argument("--out", help="write the output CSV here (default stdout)")
        sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("freqresp", help="frozen-p responses and warping residual")
    _add_model_ts(sp)
    sp.add_argument("--p", help="frozen scheduling point, comma-separated")
    sp.add_argument("--decades", type=float, default=4.0)
    sp.add_argument("--points-per-decade", type=int, default=50)
    sp.add_argument("--out", help="output prefix: writes PREFIX.json, "
                    "PREFIX_ct.csv, PREFIX_dt.csv (default: JSON to stdout)")
    sp.set_defaults(func=cmd_freqresp)

    sp = sub.add_parser("compare", help="run both engines and compare outputs")
    _add_model_ts(sp)
    _add_scenario(sp)
    sp.add_argument("--tol", type=float, default=1e-9,
                    help="relative threshold on max |y_a - y_b|")
    sp.add_argument("--out", help="write the metrics JSON here (default stdout)")
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("converge", help="discretization-order sweep report")
    _add_model_ts(sp, ts=False)
    _add_scenario(sp, traj=False)
    sp.add_argument("--ts-list", required=True,
                    help="comma-separated halving sampling times, e.g. 0.2,0.1,0.05")
    sp.add_argument("--oversample", type=int, default=100,
                    help="RK4 substeps per smallest Ts")
    sp.add_argument("--out", help="write the text report here (default stdout)")
    sp.set_defaults(func=cmd_converge)
    return parser


#: the parser main() reuses; built on main's first call, not at import.
#: Reuse is safe: parse_args makes a new Namespace per call and copies
#: ``append`` defaults, so no call sees another's arguments.
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except _UsageError as exc:
        print(f"E_PARSE: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        # a result past the float range raises, where numpy would warn
        with np.errstate(over="raise", invalid="raise"):
            model = _load_model(args.model)
            cfg = DiscretizationConfig(args.ts) if "ts" in args else None
            return args.func(args, model, cfg)
    except LpvError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (WellposednessError, NonFiniteError)) else 1
    except FloatingPointError as exc:
        print(f"E_NONFINITE: a result left the float range: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"E_IO: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a request too large to allocate
        print(f"E_PARSE: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
