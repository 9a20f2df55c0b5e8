"""Signal generation and the three simulation engines.

Two discrete-time engines advance the same internal state xi over a sampled
scheduling trajectory.  The loop-free engine builds the paper's per-step
matrices for a window of samples at once (A and Phi once per run of equal
p(k), B, C and D at every step) and runs the xi recurrence as a log-depth
scan of its increment maps, blocks [D | s].  The loop oracle re-solves the
implicit feedback loop around the trapezoidal integrator block at every
step, one fixed window of steps at a time, and refuses a window with a
singular det(I - A Ts/2) before solving it.  Both realize the identical
map, so their outputs agree to machine precision; keeping both is the
point, since each checks the other.  A fixed-step RK4 integrator provides
the continuous-time reference: the model is linear in x, so each substep
is an increment map x+ = x + G_i [x; 1], G_i = [D_i | s_i], built batched
from [A | B u] on a half-step grid.  Both scan engines cut their run into
fixed windows as large as a byte budget allows and compose each window's
maps by one scan and read-off (:func:`_scan_window`), so their only Python
loops are over the windows and the scan's levels.

The internal state relates to the physical one by

    xi(k) = (2/Ts) x(k) - r x(k),    r x = A(p) x + B(p) u,

and the trapezoidal integrator advances it by xi(k+1) = xi(k) + 2 r x(k).
A run from a physical x(0) seeds xi(0) = (2/Ts) x(0) - A(p(0)) x(0) -
B(p(0)) u(0), so the reconstructed state hits x(0) exactly at k = 0.
"""

import csv
import io
import math
import re
from dataclasses import field

import numpy as np
from numpy.linalg import _umath_linalg

from .discretize import (DiscretizationConfig, _check_stack, _count, _refuse,
                         _step_blocks, _written)
from .errors import ConfigError, DataError, DimensionError, NonFiniteError
from .model import _first_false, _frozen_array, _record, check_in_box, eval_pmatrix_many

__all__ = [
    "SignalSpec",
    "generate_signal",
    "Scenario",
    "sample_scenario",
    "Trajectory",
    "sigma_initial_state",
    "simulate_dt",
    "simulate_dt_loop_oracle",
    "simulate_ct_reference",
    "read_trajectory_csv",
    "write_trajectory_csv",
]

_SIGNAL_KINDS = ("constant", "step", "sine", "chirp", "csv_column")


@_record
class SignalSpec:
    """One scalar channel as a named waveform.

    kind : one of constant, step, sine, chirp, csv_column
    offset : additive baseline, used by every kind
    amplitude : waveform gain (constant uses offset + amplitude)
    f, phase : sine frequency [Hz] and phase [rad]
    t0 : step onset time; the step is 0 before t0 and on from t0 inclusive
    f0, f1, t1 : chirp sweeps linearly from f0 at t=0 to f1 at t=t1
    path, column, table : CSV source, 0-based value column and its loaded
        (t, value) rows of finite numbers or their texts, stored stably
        sorted by t; linearly interpolated, held constant beyond the ends
    """

    kind: str
    offset: float = 0.0
    amplitude: float = 1.0
    f: float = 1.0
    phase: float = 0.0
    t0: float = 0.0
    f0: float = 0.0
    f1: float = 1.0
    t1: float = 1.0
    path: str = ""
    column: int = 0
    table: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in _SIGNAL_KINDS:
            raise ConfigError(f"unknown signal kind {self.kind!r}")
        if self.kind == "step" and math.isnan(self.t0):
            # t >= nan is false at every t; t0 = +-inf (never / always on) is valid
            raise ConfigError(f"step onset t0 must be a number, got {self.t0}")
        if self.kind == "sine" and not (self.f >= 0.0):
            raise ConfigError(f"sine frequency must be >= 0, got {self.f}")
        if self.kind == "chirp":
            if not (self.t1 > 0.0):
                raise ConfigError(f"chirp needs t1 > 0, got {self.t1}")
            if self.f1 < self.f0 or self.f0 < 0.0:
                raise ConfigError(
                    f"chirp needs 0 <= f0 <= f1, got f0={self.f0}, f1={self.f1}"
                )
        if self.kind == "csv_column":
            if self.table is None:
                raise DataError(f"csv_column signal {self.path!r} has no loaded table")
            try:
                tab = np.array(self.table, dtype=float)
            except (TypeError, ValueError) as exc:  # ragged rows, non-numbers
                raise DataError(f"signal table {self.path!r}: {exc}") from None
            if tab.ndim != 2 or tab.shape[0] < 1 or tab.shape[1] != 2:
                raise DataError(
                    f"signal table {self.path!r} must hold (t, value) rows, "
                    f"got an array of shape {tab.shape}"
                )
            if not np.all(np.isfinite(tab[:, 0])):
                raise DataError(f"signal table {self.path!r} has a non-finite time")
            tab = tab[np.argsort(tab[:, 0], kind="stable")]
            k = _first_false(np.isfinite(tab[:, 1]))
            if k is not None:
                raise DataError(f"signal table {self.path!r} has a non-finite value "
                                f"in column {self.column} at t = {float(tab[k, 0])}")
            object.__setattr__(self, "table", _frozen_array(tab))

    @classmethod
    def constant(cls, value):
        return cls(kind="constant", offset=float(value), amplitude=0.0)

    @classmethod
    def step(cls, amplitude=1.0, t0=0.0, offset=0.0):
        return cls(kind="step", amplitude=amplitude, t0=t0, offset=offset)

    @classmethod
    def sine(cls, amplitude=1.0, f=1.0, phase=0.0, offset=0.0):
        return cls(kind="sine", amplitude=amplitude, f=f, phase=phase, offset=offset)

    @classmethod
    def chirp(cls, amplitude=1.0, f0=0.0, f1=1.0, t1=1.0, offset=0.0):
        return cls(kind="chirp", amplitude=amplitude, f0=f0, f1=f1, t1=t1, offset=offset)

    @classmethod
    def csv_column(cls, path, column, offset=0.0, amplitude=1.0, table=None):
        return cls(kind="csv_column", path=str(path), column=int(column),
                   offset=offset, amplitude=amplitude, table=table)


def generate_signal(spec: SignalSpec, t) -> np.ndarray:
    """Evaluate one signal on an array of times (vectorized)."""
    t = np.asarray(t, dtype=float)
    # an inf or overflowing parameter gives non-finite samples, silently:
    # the callers' sample checks name the first one
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind == "constant":
            return np.full(t.shape, spec.offset + spec.amplitude)
        if spec.kind == "step":
            return spec.offset + spec.amplitude * (t >= spec.t0).astype(float)
        if spec.kind == "sine":
            phase = 2.0 * np.pi * spec.f * t + spec.phase
            return spec.offset + spec.amplitude * np.sin(phase)
        if spec.kind == "chirp":
            # instantaneous frequency f0 + (f1-f0) t/t1, hence quadratic phase
            rate = (spec.f1 - spec.f0) / spec.t1
            phase = 2.0 * np.pi * (spec.f0 * t + 0.5 * rate * t * t)
            return spec.offset + spec.amplitude * np.sin(phase)
        # csv_column, the one kind left: SignalSpec rejects any other
        tab = spec.table
        return spec.offset + spec.amplitude * np.interp(t, tab[:, 0], tab[:, 1])


def _sample_signals(specs, t):
    """One column per signal of ``specs``, one row per time of ``t``."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return np.column_stack([generate_signal(s, t) for s in specs])


@_record
class Scenario:
    """Sampled-experiment description: waveforms, start state, duration.

    p : tuple of SignalSpec, one per scheduling dimension
    u : tuple of SignalSpec, one per input channel
    x0 : initial physical state, shape (n_x,)
    t_end : final time, 0 < t_end < inf; sampling yields k = 0 .. floor(t_end/Ts)
    """

    p: tuple
    u: tuple
    x0: np.ndarray
    t_end: float

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(self.p))
        object.__setattr__(self, "u", tuple(self.u))
        object.__setattr__(self, "x0", _frozen_array(np.ravel(self.x0)))
        if not (self.p and self.u):
            raise ConfigError(f"a scenario needs p and u signals, got "
                              f"{len(self.p)} and {len(self.u)}")
        if not (0.0 < float(self.t_end) < math.inf):
            raise ConfigError(f"t_end must be positive and finite, got {self.t_end}")
        object.__setattr__(self, "t_end", float(self.t_end))

    def p_at(self, t) -> np.ndarray:
        """Scheduling trajectory sampled at times t, shape (len(t), n_p)."""
        return _sample_signals(self.p, t)

    def u_at(self, t) -> np.ndarray:
        return _sample_signals(self.u, t)


@_record
class Trajectory:
    """Uniformly sampled signals of one run; every channel is (N, width).

    An input trajectory read from a table has only ``p`` and ``u``; the RK4
    reference has no ``xi``.
    """

    ts: float
    p: np.ndarray
    u: np.ndarray
    y: np.ndarray = None
    x: np.ndarray = None
    xi: np.ndarray = None

    def __post_init__(self):
        for name in ("p", "u", "y", "x", "xi"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=float)
                if arr.ndim != 2:
                    raise DataError(f"channel {name} must be 2-D (N, width)")
                object.__setattr__(self, name, arr)
        n = self.p.shape[0]
        for name in ("u", "y", "x", "xi"):
            arr = getattr(self, name)
            if arr is not None and arr.shape[0] != n:
                raise DataError(
                    f"channel {name} has {arr.shape[0]} samples, expected {n}"
                )

    @property
    def n_steps(self) -> int:
        return self.p.shape[0]

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps) * self.ts

    def channel(self, name: str) -> np.ndarray:
        got = getattr(self, name, None)
        if got is None:
            raise DataError(f"trajectory has no {name!r} channel")
        return got


def sample_scenario(scenario: Scenario, cfg: DiscretizationConfig) -> Trajectory:
    """Sample scenario waveforms on the uniform grid k*Ts up to t_end.

    A Ts that divides t_end to 1e-9 relative keeps the sample at t_end.

    Raises
    ------
    ConfigError
        If the sampled t, p and u take more bytes than one request may allocate.
    """
    ratio = scenario.t_end / cfg.ts
    n_steps = np.floor(ratio + 1e-9 * max(1.0, ratio)) + 1.0
    width = 1 + len(scenario.p) + len(scenario.u)
    _check_stack(8 * n_steps * width, f"a grid of {n_steps:.6g} samples "
                 f"(t_end = {scenario.t_end} at ts = {cfg.ts})")
    n_steps = int(n_steps)
    t = np.arange(n_steps) * cfg.ts
    return Trajectory(cfg.ts, scenario.p_at(t), scenario.u_at(t))


def _seed_xi(A0, Bu0, x0, ts):
    return (2.0 / ts) * x0 - A0 @ x0 - Bu0


def sigma_initial_state(model, cfg, p0, u0, x0) -> np.ndarray:
    """Internal start state that reproduces x0 exactly at the first sample.

    xi(0) = (2/Ts) x0 - A(p(0)) x0 - B(p(0)) u(0).  A and B come from the one
    frozen-point guard, so a p(0) off the box is a :class:`DomainError`; a u0
    or x0 of another length is a :class:`DimensionError`, and one not finite
    the engines' :class:`DataError` or :class:`ConfigError`.
    """
    u0 = _sized(u0, model.n_u, "u0")
    A0, B0 = model.matrices_at(p0)[:2]
    x0 = _finite_start(model, u0[None], x0)
    return _seed_xi(A0, B0 @ u0, x0, cfg.ts)


def _sized(values, n, what):
    """``values`` as n floats, else a :class:`DimensionError` naming ``what``."""
    # a copy: a view would keep its temporary base alive for the run
    values = np.asarray(values, dtype=float).flatten()
    if values.size != n:
        raise DimensionError(f"{what} has {values.size} entries, model needs {n}")
    return values


def _check_finite_u(u, where):
    """Raise :class:`DataError` at the first non-finite row of ``u``; ``where``
    maps its index to its location, as in :func:`check_in_box`."""
    k = _first_false(np.isfinite(u))
    if k is not None:
        raise DataError(f"input {list(map(float, u[k]))} at {where(k)} is not finite")


def _run_bytes(model, n_steps):
    """Bytes that bound what either discrete engine holds over ``n_steps``
    samples: per sample x, xi, the oracle's two rows, y, a run index and 2 r c
    per (r, c) B, C or D (its whole-run stack and one term's product); once,
    the larger window, min(N, :func:`_dt_window`) steps of simulate_dt or
    the oracle's 64 of 6 n_x^2 floats (a loop matrix, A and one term's
    product).  Both peak below it from N = 100 (tracemalloc, n_x <= 64)."""
    n, m, q = model.n_x, model.n_u, model.n_y
    windows = max(min(n_steps, _dt_window(model)) * _dt_step_floats(model),
                  _ORACLE_WINDOW * 6 * n * n)
    return 8 * (n_steps * (6 * n + q + 1 + 2 * (n * m + q * n + q * m)) + windows)


def _check_run_inputs(model, cfg, traj, x0):
    """The one up-front guard of all three engines, on the sampled p and u,
    ``ts``, x0 and the run's memory; returns x0 as an (n_x,) array."""
    if traj.n_steps == 0:
        raise DataError("trajectory has no samples")
    if traj.p.shape[1] != model.n_p:
        raise DimensionError(
            f"scheduling width {traj.p.shape[1]} != n_p {model.n_p}"
        )
    if traj.u.shape[1] != model.n_u:
        raise DimensionError(f"input width {traj.u.shape[1]} != n_u {model.n_u}")
    if not abs(traj.ts - cfg.ts) <= min(1e-12, 1e-9 * cfg.ts):  # NaN fails the <=
        raise ConfigError(
            f"trajectory sampled at ts = {traj.ts}, configuration has "
            f"ts = {cfg.ts}"
        )
    _check_stack(_run_bytes(model, traj.n_steps),
                 f"a run of {traj.n_steps} samples at n_x = {model.n_x}")
    check_in_box(model.domain, traj.p, where=lambda k: f"step {k}")
    return _finite_start(model, traj.u, x0)


def _finite_start(model, u, x0):
    """The engines' last input rules: each u(k) finite, then x0 as n_x finite floats."""
    _check_finite_u(u, where=lambda k: f"step {k}")
    x0 = _sized(x0, model.n_x, "x0")
    if not np.all(np.isfinite(x0)):
        raise ConfigError(f"initial state {list(map(float, x0))} is not finite")
    return x0


def _matvecs(M, v):
    """Row-wise products M[k] @ v[k] of a stack (N, r, c) and rows (N, c)."""
    return np.einsum("kij,kj->ki", M, v)


def _runs(p):
    """``(points, run)``: the first row of each run of rows of p equal bit for
    bit (-0.0 after 0.0 starts one) and each row's run, or ``(p, None)``."""
    bits = np.ascontiguousarray(p).view(np.int64)
    starts = np.concatenate(([True], (bits[1:] != bits[:-1]).any(axis=1)))
    return (p, None) if starts.all() else (p[starts], np.cumsum(starts) - 1)


def _result(engine, model, cfg, traj, x, xi):
    """The engines' one result step: y = C(p) x + D(p) u, C and D evaluated
    at every step, one finiteness guard, the run's :class:`Trajectory`.

    Raises :class:`NonFiniteError` at the first step where a row of x, xi
    (None for the RK4 reference) or y is not finite, which a run from
    finite inputs reaches only by diverging."""
    p, u = traj.p, traj.u
    # as in the engines, a diverging run is reported by the guard below
    with np.errstate(over="ignore", invalid="ignore"):
        y = _matvecs(eval_pmatrix_many(model.C, p), x)
        y += _matvecs(eval_pmatrix_many(model.D, p), u)
    k = _first_false(*(np.isfinite(a) for a in (x, xi, y) if a is not None))
    if k is not None:
        raise NonFiniteError(f"{engine}: state or output is not finite at step k={k} "
                             f"(t = {k * cfg.ts!r}); the run diverges", step_index=k)
    return Trajectory(cfg.ts, p, u, y, x, xi)


#: bytes one window of simulate_dt may hold beside the run's logs
_DT_BUDGET = 2**20


def _dt_step_floats(model):
    """Floats per step of simulate_dt's window at its peak: a run index and 3
    (n, n + 1) blocks (A, Phi, Ts Phi A; or G, its scan, Xxi), or n (n + 2 n_u) with B."""
    n = model.n_x
    return max(3 * n * (n + 1), n * (n + 2 * model.n_u)) + 1


def _dt_window(model):
    """Steps per window of simulate_dt: 2148 at n_x = 4, n_u = 2; 10 at n_x = 64."""
    return max(1, _DT_BUDGET // (8 * _dt_step_floats(model)))


def simulate_dt(model, cfg, traj, x0) -> Trajectory:
    """Run the loop-free per-step matrices over a sampled trajectory.

    The run is cut into fixed windows of :func:`_dt_window` steps; only the
    xi, x and result logs are whole-run.  Per window, A and Phi are formed
    (:func:`~lpvsim.discretize.phi`) once per run of bit-equal points and B
    at every step, as C and D are by the result step: each step's blocks
    D = Ts Phi A, s = 2 Phi B u and Xxi = Ts/2 Phi are those of its own p,
    bit for bit.  The recurrence xi(k+1) = xi(k) + [D_k | s_k] [xi(k); 1]
    is a chain of increment maps, which :func:`_scan_window` runs from the
    state ending the previous window; x(k) = Xxi (xi(k) + B u(k)).

    Raises
    ------
    DimensionError, DomainError, DataError, ConfigError
        From the input guard that all three engines share, before any work:
        a p or u narrower or wider than the model's or an x0 of another
        length; a trajectory with no samples; a p(k) outside the scheduling
        box or not finite, or a u(k) not finite, naming the first such step;
        an x0 not finite, a ``traj.ts`` other than ``cfg.ts`` or a run over
        the 1 GiB cap.
    WellposednessError
        If I - A(p(k)) Ts/2 is numerically singular; carries the index of
        the first such step.
    NonFiniteError
        If x, xi or y is not finite at some step, because the run diverges;
        carries the index of the first such step.
    """
    x0 = _check_run_inputs(model, cfg, traj, x0)
    n, window = model.n_x, _dt_window(model)
    xis = np.empty((traj.n_steps + 1, n))
    # a huge drive or a diverging run overflows, reported by the result step
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, traj.n_steps, window):
            p = traj.p[k0:k0 + window]
            points, run = _runs(p)
            A = eval_pmatrix_many(model.A, points)
            Bu = _matvecs(eval_pmatrix_many(model.B, p), traj.u[k0:k0 + window])
            if k0 == 0:
                xi = xis[0] = _seed_xi(A[0], Bu[0], x0, cfg.ts)
            # Bu as the blocks' B makes Bxi s itself; A, D and s go before the scan
            D, s, Xxi = _step_blocks(A, Bu[:, :, None], cfg, p, run, k0)
            del A
            G = np.concatenate((D, s), axis=2)
            del D, s
            xi = _scan_window(xi, G, xis, k0, 1)
            del G
            if k0 == 0:  # allocated after the scan, whose peak it would raise
                x = np.empty((traj.n_steps, n))
            x[k0:k0 + len(p)] = _matvecs(Xxi, xis[k0:k0 + len(p)] + Bu)
    return _result("simulate_dt", model, cfg, traj, x, xis[:-1])


#: the LAPACK gufunc behind ``np.linalg.solve`` (one matrix, one right-hand
#: side); bound once, so the oracle calls it directly
_solve1 = _umath_linalg.solve1

#: steps per window of the loop oracle's loop matrices; measured against run
#: time and allocation peak at n_x 4 and 16 (figures in CHANGES.md)
_ORACLE_WINDOW = 64


def simulate_dt_loop_oracle(model, cfg, traj, x0) -> Trajectory:
    """Independent engine: re-solve the integrator feedback loop each step.

    The trapezoidal integrator block holds xi = (2/Ts) x - r x and advances
    it by xi+ = xi + 2 r x.  Closing x -> r x = A x + B u around it gives,
    at every step, a linear system in the unknowns (x, 2 r x):

        [ (2/Ts) I   -I/2 ] [ x     ]   [ xi     ]
        [ -A(p)       I/2 ] [ 2 r x ] = [ B(p) u ]

    The top half of each right-hand side is xi itself, so a step is one
    solve into its solution row and one add of 2 r x into the next step's
    top half.  B u, C and D are evaluated batched at every step, C and D by
    the result step.  The loop matrices live in one
    buffer of ``_ORACLE_WINDOW`` steps whose constant blocks are written
    once; per window, A(p(k)) is evaluated once and det(I - A Ts/2), Ts^n
    times the loop matrix's by block elimination, is judged by the one
    singularity test, which refuses a singular window before it is solved
    with :func:`simulate_dt`'s error for its first singular step; then -A is
    written and the steps solved.  Each solve calls LAPACK's gesv gufunc
    directly, the one ``np.linalg.solve`` wraps, with its ``dd->d``
    signature and so its bits: the wrapper's per-call checks and errstate
    cost about twice the solve itself, so one errstate with every warning
    off covers the run, whose divergence the result step reports.  No
    per-point matrices (Phi or the step blocks) are shared with
    :func:`simulate_dt`; the two paths share only the model, the input and
    result guards, the xi(0) seed and the singularity judge and refusal.
    It raises as :func:`simulate_dt` does, from the same input guard.
    """
    x0 = _check_run_inputs(model, cfg, traj, x0)
    ts, n, n_steps = cfg.ts, model.n_x, traj.n_steps
    # the rows (xi(k), B u(k)); the last row's top half takes xi(N), unused
    rhs = np.empty((n_steps + 1, 2 * n))
    rhs[:-1, n:] = _matvecs(eval_pmatrix_many(model.B, traj.p), traj.u)
    eye = np.eye(n)
    loops = np.empty((min(_ORACLE_WINDOW, n_steps), 2 * n, 2 * n))
    loops[:] = np.block([[(2.0 / ts) * eye, -0.5 * eye], [0.0 * eye, 0.5 * eye]])
    sol = np.empty((n_steps, 2 * n))
    solve, add = _solve1, np.add
    with np.errstate(all="ignore"):
        for k0 in range(0, n_steps, len(loops)):
            k1 = min(k0 + len(loops), n_steps)
            window, A = loops[:k1 - k0], eval_pmatrix_many(model.A, traj.p[k0:k1])
            _refuse(A, ts, traj.p[k0:k1], first=k0)
            if k0 == 0:
                rhs[0, :n] = _seed_xi(A[0], rhs[0, n:], x0, ts)
            np.negative(A, out=window[:, n:, :n])
            del A  # else it lives on while the next window's A is evaluated
            # the rows of each array are views, zipped once, so a step indexes nothing
            r, z = rhs[k0:k1 + 1], sol[k0:k1]
            for loop_k, rhs_k, sol_k, xi_k, w_k, xi_next in zip(
                    window, r, z, r[:, :n], z[:, n:], r[1:, :n]):
                solve(loop_k, rhs_k, out=sol_k, signature="dd->d")
                add(xi_k, w_k, out=xi_next)
    return _result("simulate_dt_loop_oracle", model, cfg, traj, sol[:, :n], rhs[:-1, :n])


#: bytes one window of the RK4 reference may hold at its peak: what 256
#: substeps hold at n_x = 4, n_p = n_u = 2 (see _rk4_window)
_RK4_BUDGET = 256 * 8 * (5 * 4 * 5 + 2 * (1 + 2 + 2))


def _rk4_window(model):
    """Fine substeps per window of the RK4 reference, W = max(1, budget //
    bytes per substep).

    A substep spans two half-step rows, each with a sample of t, p and u,
    2 (1 + n_p + n_u) floats, and the window's peak is the larger of two
    phases: the stage blocks (F = [A | B u] on both rows, G and two stage
    blocks), 5 n (n + 1) floats, or, while B is evaluated, A, B and one
    term's product on both rows, 2 (n^2 + 2 n n_u + 1), the larger only when
    n_u nears n.  W depends only on the model's dimensions, never on Ts or
    oversample, so windows start at the same multiples of W on every grid.
    """
    n, n_u = model.n_x, model.n_u
    blocks = max(5 * n * (n + 1), 2 * (n * n + 2 * n * n_u + 1))
    return max(1, _RK4_BUDGET // (8 * (blocks + 2 * (1 + model.n_p + n_u))))


def _rk4_affine_maps(model, p, u, h):
    """Increment maps of a run of RK4 substeps, as blocks G = [D | s].

    ``p`` and ``u`` hold the rows of the run's half-step grid: substep i
    starts at row 2i, has its midpoint at 2i+1 and ends at 2i+2, the next
    one's start, so F = [A | B u] is evaluated once per row and sliced.  The
    stage slopes of a linear system are affine in x, k_j = K_j [x; 1], and
    the drive rides in the blocks' last column:

        K1 = F0,  K2 = Fh + h/2 Ah K1,  K3 = Fh + h/2 Ah K2,
        K4 = F1 + h A1 K3,  G = h/6 (K1 + 2 K2 + 2 K3 + K4),

    so one substep is x+ = x + G [x; 1].
    """
    # A first: evaluated with B u already live, it would raise the window's peak
    A = eval_pmatrix_many(model.A, p)
    F = np.concatenate((A, _matvecs(eval_pmatrix_many(model.B, p), u)[:, :, None]), 2)
    del A
    K1, Fh, F1 = F[:-1:2], F[1::2], F[2::2]
    Ah, A1 = Fh[:, :, :-1], F1[:, :, :-1]
    # the views share F, so G is a fresh stack; the (rows, n, n + 1) stage
    # blocks are updated in place and dropped once used up
    K2 = Ah @ K1
    K2 *= 0.5 * h
    K2 += Fh
    G = K1 + K2
    G += K2
    K3 = Ah @ K2
    del K2
    K3 *= 0.5 * h
    K3 += Fh
    G += K3
    G += K3
    K4 = A1 @ K3
    del K3
    K4 *= h
    K4 += F1
    G += K4
    G *= h / 6.0
    return G


def _scan(G):
    """In-place prefix scan of the increment maps x -> x + G[i] [x; 1].

    Row i is the block [D_i | s_i] of x -> x + (D_i x + s_i).  An earlier
    map G_a followed by a later one G_b is again an increment,
    G = G_a + G_b + D_b G_a with D_b = G_b[:, :-1], and composition is
    associative, so a Hillis-Steele scan applies: after the level of stride
    w, row i holds the composition of maps i-2w+1 .. i.  I + D is never
    formed, so like the stagewise form the maps only add small increments.
    """
    # the product is formed whole before the in-place add, which would read
    # rows it has already written; deleting it keeps one product live
    w = 1
    while w < len(G):
        prod = G[w:, :, :-1] @ G[:-w]
        prod += G[:-w]
        G[w:] += prod
        del prod
        w *= 2


def _scan_window(x, G, log, i0, stride):
    """Scan the maps G of substeps i0, i0 + 1, ... from the state x, log x
    after every ``stride``-th substep (row r ends substep i0 + r), and
    return the state after the last row, which starts the next window."""
    _scan(G)
    r0 = -(i0 + 1) % stride
    k0 = (i0 + r0 + 1) // stride
    x1 = np.append(x, 1.0)
    xs = x + G[r0::stride] @ x1
    log[k0:k0 + len(xs)] = xs
    return x + G[-1] @ x1


def simulate_ct_reference(model, cfg, scenario, oversample=50) -> Trajectory:
    """Fixed-step RK4 integration of the continuous-time model.

    Integrates with step h = Ts/oversample, evaluating the scenario's p(t)
    and u(t) at the stage times on the half-step grid t_j = j h/2, and logs
    every Ts-multiple.  The returned trajectory carries y and x on the
    sampling grid (xi is None).

    For a linear time-varying system one RK4 substep is an affine map
    x+ = x + G_i [x; 1] with G_i = [D_i | s_i], built from [A | B u] at the
    substep's three stage times.  The fine grid is cut into windows of W
    substeps that start at multiples of W (:func:`_rk4_window`).  Per
    window, p and u are sampled on its half-step grid, the blocks are built
    batched, and :func:`_scan_window` composes them in increment form,
    never as I + D_i, whose product would round every entry of x afresh.
    W depends only on the model's dimensions, so runs at (Ts, oversample)
    and (2 Ts, 2 oversample) agree bit for bit at the samples they share.

    Raises
    ------
    ConfigError
        If oversample is not an integer >= 1, makes Ts/oversample no positive
        float or makes the half-step grid too large.
    DimensionError, DomainError, DataError, ConfigError
        As :func:`simulate_dt`, from the same guard, for the sampled p, u and
        x0; DomainError and DataError also when p(t) leaves the box or u(t)
        is not finite at an RK4 stage time, naming the earliest such t.
    NonFiniteError
        If x or y is not finite at some sample, because the run diverges.
    """
    oversample = _count(oversample, 1, "oversample")
    try:  # Ts / 10**400 overflows
        positive = cfg.ts / oversample > 0.0
    except OverflowError:
        positive = False
    if not positive:
        raise ConfigError(f"oversample must be an integer >= 1 with Ts/oversample > 0, "
                          f"got {_written(oversample)} at Ts = {cfg.ts}")
    samp = sample_scenario(scenario, cfg)
    x0 = _check_run_inputs(model, cfg, samp, scenario.x0)
    n_fine = (samp.n_steps - 1) * oversample
    _check_stack(8 * (2 * n_fine + 1) * (1 + len(scenario.p) + len(scenario.u)),
                 f"an RK4 grid of {n_fine} substeps (oversample = {oversample})")
    h = cfg.ts / oversample

    x_log = np.empty((samp.n_steps, model.n_x))
    x_log[0] = x = x0
    window = _rk4_window(model)
    # as in simulate_dt, a diverging run is reported by the result step
    with np.errstate(over="ignore", invalid="ignore"):
        for i0 in range(0, n_fine, window):
            # the window's half-step grid: substep i starts at 2i, ends at 2i+2
            t = np.arange(2 * i0, 2 * min(i0 + window, n_fine) + 1) * (0.5 * h)
            p = scenario.p_at(t)
            check_in_box(model.domain, p, where=lambda j: f"t = {float(t[j])}")
            u = scenario.u_at(t)
            _check_finite_u(u, where=lambda j: f"t = {float(t[j])}")
            x = _scan_window(x, _rk4_affine_maps(model, p, u, h), x_log, i0, oversample)
    return _result("simulate_ct_reference", model, cfg, samp, x_log, None)


def write_trajectory_csv(traj: Trajectory, include_state=False) -> str:
    """Render a result trajectory as CSV text.

    Columns are ``k,t`` then y channels, and with ``include_state`` also the
    x and xi channels; a trajectory without one is a :class:`DataError`
    that names it.  Values are written
    as the shortest decimal that round-trips (``repr`` of a Python float).
    """
    if traj.y is None:
        raise DataError("trajectory has no outputs to write")
    header = ["k", "t"]
    columns = [traj.times(), traj.y]
    header += [f"y{i + 1}" for i in range(traj.y.shape[1])]
    if include_state:
        x, xi = traj.channel("x"), traj.channel("xi")
        header += [f"x{i + 1}" for i in range(x.shape[1])]
        header += [f"xi{i + 1}" for i in range(xi.shape[1])]
        columns += [x, xi]
    return _render_csv(header, columns, numbered=True)


def _render_csv(header, columns, numbered=False):
    """CSV text of a header and float columns side by side, given as 1-D
    and 2-D arrays of equal length: one line per row, every value the
    shortest decimal that round-trips (``repr`` of a Python float), after
    the row number k when ``numbered``.  Rows are rendered one at a time,
    so no Python float of the whole table is held, and the stacked table is
    gone before the lines are joined."""
    table = np.column_stack(columns)
    rows = (",".join(map(repr, row.tolist())) for row in table)
    lines = [",".join(header)]
    lines += (f"{k},{line}" for k, line in enumerate(rows)) if numbered else rows
    del table
    lines.append("")  # the final newline, without a copy of the joined text
    return "\n".join(lines)


def _csv_rows(text, what):
    """The rows of ``csv.reader(io.StringIO(text))`` that hold a non-blank
    cell; a ``csv.Error`` is a DataError after ``what``."""
    try:
        # the first cell decides most rows; [] (csv.reader's blank line) is blank
        return [r for r in csv.reader(io.StringIO(text))
                if r and (r[0].strip() or "".join(r).strip())]
    except csv.Error as exc:
        raise DataError(f"{what}: {exc}") from None


#: characters per block of a table's split text, sized by read time
_READ_BLOCK = 16384

#: ASCII separators that numpy's number parsers skip as whitespace and
#: Python's ``int`` and ``float`` do not
_C0_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _split_is_csv(text):
    """True when ``csv.reader`` reads every line of ``text`` as the line
    split at commas: text with no ``"``, no CR and no line over the csv
    module's field limit."""
    limit = csv.field_size_limit()
    # a line over the limit holds a multiple of limit + 1, so only the lines
    # there are measured; find's -1 (no line end) mod len + 1 is the end
    return not ('"' in text or "\r" in text or any(
        (text.find("\n", c) % (len(text) + 1)) - text.rfind("\n", 0, c) - 1 > limit
        for c in range(0, len(text), limit + 1)
    ))


def _line_blocks(text, start):
    """``text`` from ``start`` in blocks of about ``_READ_BLOCK`` characters,
    each cut at a line end, which it drops."""
    while start < len(text):
        end = text.find("\n", start + _READ_BLOCK - 1)
        end = len(text) if end < 0 else end
        yield text[start:end]
        start = end + 1


def _header_cells(text):
    """The cells of the first non-blank line of split text and the index
    where the next line starts; (None, len(text)) if every line is blank."""
    # a cell is blank when str.strip() empties it, as \s is str.isspace()
    line = re.search(r"^.*[^,\s].*$", text, re.M)
    return (None, len(text)) if line is None else (line[0].split(","), line.end() + 1)


def _block_values(block, width, ts, first):
    """The t, p and u values of the rows of one block of split text, rows
    ``first``, ``first`` + 1, ..., as an (n, width - 1) array.

    numpy's C reader parses the block's lines with k as int64 and every
    other cell as float64, and k = first, first + 1, ... and |t - k ts| <=
    1e-9 are checked over whole columns.  Its number parsers read some
    non-ASCII letters as digits and skip ``_C0_SEPARATORS`` as whitespace;
    on other ASCII text, what they accept Python's ``int`` and ``float``
    accept, with the same value.  So a block that is not such text, that
    holds only blank lines, that numpy refuses or that fails a check goes
    to :func:`_row_values`, which also names the first fault.
    """
    if block.isascii() and block.strip() and not any(c in block for c in _C0_SEPARATORS):
        try:
            rows = np.loadtxt(
                block.split("\n"), delimiter=",", comments=None, quotechar=None,
                dtype=[("k", np.int64), ("v", np.float64, (width - 1,))], ndmin=1,
            )
        except ValueError:
            pass
        else:
            k, data = rows["k"], rows["v"]
            steps = np.arange(first, first + len(k))
            # a NaN t fails the <=
            if (k == steps).all() and (np.abs(data[:, 0] - steps * ts) <= 1e-9).all():
                return data
    return _row_values(_csv_rows(block, "trajectory table"), width, ts, first)


def _row_values(rows, width, ts, first):
    """The t, p and u values of table rows ``first``, ``first`` + 1, ... as
    an (n, width - 1) array, parsed with ``int`` and ``float`` and checked
    one row at a time: the first bad row raises the DataError of its first
    fault, whatever the order of checks elsewhere."""
    values = []
    for j, row in enumerate(rows, first):
        if len(row) != width:
            raise DataError(f"row {j} has {len(row)} cells, expected {width}")
        try:
            k = int(row[0])
            cells = list(map(float, row[1:]))
        except ValueError as exc:
            raise DataError(f"row {j}: {exc}") from None
        if k != j:
            raise DataError(f"row {j} has k = {k}, expected {j}")
        if not abs(cells[0] - j * ts) <= 1e-9:
            raise DataError(
                f"row {j} has t = {cells[0]}, expected k*ts = {j * ts} (ts = {ts})"
            )
        values.append(cells)
    return np.array(values, dtype=float).reshape(len(values), width - 1)


def read_trajectory_csv(text: str, ts: float) -> Trajectory:
    """Parse an input trajectory table ``k,t,p1..pN,u1..uM``.

    The k column must count 0,1,2,... and every t must be finite and equal
    k*ts within 1e-9; both guard against feeding a table sampled at a
    different rate.  One loop reads the rows after the header from their
    sources: for split text (see :func:`_split_is_csv`), the blocks of
    :func:`_line_blocks`, each by :func:`_block_values`; for other text, its
    ``csv.reader`` rows as one source, by :func:`_row_values`.  Either names
    the table's first bad row.
    """
    if _split_is_csv(text):
        header, start = _header_cells(text)
        sources, read = _line_blocks(text, start), _block_values
    else:
        rows = _csv_rows(text, "trajectory table")
        header = rows.pop(0) if rows else None
        sources, read = [rows], _row_values
    if header is None:
        raise DataError("empty trajectory table")
    header = [h.strip() for h in header]
    n_pc = sum(1 for h in header if h.startswith("p") and h[1:].isdigit())
    n_uc = sum(1 for h in header if h.startswith("u") and h[1:].isdigit())
    expected = (
        ["k", "t"]
        + [f"p{i + 1}" for i in range(n_pc)]
        + [f"u{i + 1}" for i in range(n_uc)]
    )
    if n_pc == 0 or n_uc == 0 or header != expected:
        raise DataError(
            "trajectory header must be k,t,p1..pN,u1..uM in order, got "
            + ",".join(header)
        )
    parts, n = [], 0
    for source in sources:
        parts.append(read(source, len(header), ts, n))
        n += len(parts[-1])
    if n == 0:
        raise DataError("trajectory table has a header but no rows")
    p = np.concatenate([d[:, 1:1 + n_pc] for d in parts])
    u = np.concatenate([d[:, 1 + n_pc:] for d in parts])
    return Trajectory(float(ts), p, u)
