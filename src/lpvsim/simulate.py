"""Signal generation and the three simulation engines.

Two discrete-time engines advance the same internal state xi over a sampled
scheduling trajectory.  The loop-free engine builds the paper's per-step
matrices for every sample at once -- A(p(k)) and B(p(k)) as (N, n, n) and
(N, n, m) stacks, one stacked factorization for Phi(p(k)) -- and runs the xi
recurrence as a log-depth scan over its increment maps, each stored as one
block [D | s], so the only Python loop left is over the scan's log2(N) levels.
The loop oracle re-solves the implicit feedback loop around the trapezoidal
integrator block at every step, written in xi itself: each step solves for x
and the increment of xi and adds that increment.  Its loop matrices exist
one fixed window of steps at a time, for the window's determinants and
solves; one check of all the determinants follows the last step.  Both
realize the identical map, so their outputs agree to machine precision; keeping both is the point, since each checks the other.  A
fixed-step RK4 integrator provides the continuous-time reference.  The model
is linear in x, so each RK4 substep is an increment map x+ = x + G_i [x; 1]
with G_i = [D_i | s_i]; the reference builds those blocks batched from
[A | B u] on a half-step grid, in fixed windows of the fine grid, and composes
them by the loop-free engine's scan, so its only Python loops are over the
windows and the scan's levels.

The internal state relates to the physical one by

    xi(k) = (2/Ts) x(k) - r x(k),    r x = A(p) x + B(p) u,

and the trapezoidal integrator advances it by xi(k+1) = xi(k) + 2 r x(k).
A simulation started from a physical x(0) seeds
xi(0) = (2/Ts) x(0) - A(p(0)) x(0) - B(p(0)) u(0), which makes the
reconstructed state hit x(0) exactly at k = 0.
"""

import csv
import io
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .discretize import DiscretizationConfig, _check_stack, _step_blocks, singular_rows
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    NonFiniteError,
    WellposednessError,
)
from .model import _frozen_array, check_in_box, eval_pmatrix_many

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


@dataclass(frozen=True, eq=False)
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
            bad = ~np.isfinite(tab[:, 1])
            if bad.any():
                t = float(tab[np.argmax(bad), 0])
                raise DataError(f"signal table {self.path!r} has a non-finite value "
                                f"in column {self.column} at t = {t}")
            object.__setattr__(self, "table", tab)

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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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
    return Trajectory(ts=cfg.ts, p=scenario.p_at(t), u=scenario.u_at(t))


def _seed_xi(A0, Bu0, x0, ts):
    return (2.0 / ts) * x0 - A0 @ x0 - Bu0


def sigma_initial_state(model, cfg, p0, u0, x0) -> np.ndarray:
    """Internal start state that reproduces x0 exactly at the first sample.

    xi(0) = (2/Ts) x0 - A(p(0)) x0 - B(p(0)) u(0).  A and B come from the one
    frozen-point guard, so a p(0) off the box is a :class:`DomainError`; an
    x0 or u0 of another length is a :class:`DimensionError`.
    """
    x0 = _sized(x0, model.n_x, "x0")
    u0 = _sized(u0, model.n_u, "u0")
    A0, B0 = model.matrices_at(p0)[:2]
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
    bad = ~np.all(np.isfinite(u), axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        raise DataError(f"input {list(map(float, u[k]))} at {where(k)} is not finite")


def _run_bytes(model):
    """Bytes per sample that bound what either discrete engine holds at once:
    3 (2 n_x + 1)^2 floats for simulate_dt's blocks and scan (the oracle's
    loop matrices are windowed), and 4 r c for each (r, c) B, C or D,
    twice its stack and one term's product while evaluated.  Both engines
    peak below half of it (tracemalloc, n_x 1 to 16, n_u and n_y 1 to 40)."""
    n, m, q = model.n_x, model.n_u, model.n_y
    return 8 * (3 * (2 * n + 1) ** 2 + 4 * (n * m + q * n + q * m))


def _check_run_inputs(model, cfg, traj, x0):
    """The one up-front guard of all three engines, on the sampled p and u,
    ``ts``, x0 and the run's memory; returns x0 as an (n_x,) array."""
    if traj.p.shape[1] != model.n_p:
        raise DimensionError(
            f"scheduling width {traj.p.shape[1]} != n_p {model.n_p}"
        )
    if traj.u.shape[1] != model.n_u:
        raise DimensionError(f"input width {traj.u.shape[1]} != n_u {model.n_u}")
    if abs(traj.ts - cfg.ts) > 1e-12:
        raise ConfigError(
            f"trajectory sampled at ts = {traj.ts}, configuration has "
            f"ts = {cfg.ts}"
        )
    _check_stack(traj.n_steps * _run_bytes(model),
                 f"a run of {traj.n_steps} samples at n_x = {model.n_x}")
    check_in_box(model.domain, traj.p, where=lambda k: f"step {k}")
    _check_finite_u(traj.u, where=lambda k: f"step {k}")
    x0 = _sized(x0, model.n_x, "x0")
    if not np.all(np.isfinite(x0)):
        raise ConfigError(f"initial state {list(map(float, x0))} is not finite")
    return x0


def _matvecs(M, v):
    """Row-wise products M[k] @ v[k] of a stack (N, r, c) and rows (N, c)."""
    return np.einsum("kij,kj->ki", M, v)


def _result(engine, model, cfg, traj, x, xi):
    """The engines' one result step: y = C(p) x + D(p) u from the state
    log x, one finiteness guard, and the run's :class:`Trajectory`.

    Raises :class:`NonFiniteError` at the first step where a row of x, xi
    (None for the RK4 reference) or y is not finite, which a run from
    finite inputs reaches only by diverging."""
    p, u = traj.p, traj.u
    # as in the engines, a diverging run is reported by the guard below
    with np.errstate(over="ignore", invalid="ignore"):
        y = _matvecs(eval_pmatrix_many(model.C, p), x)
        y += _matvecs(eval_pmatrix_many(model.D, p), u)
    logs = [a for a in (x, xi, y) if a is not None]
    finite = np.logical_and.reduce([np.isfinite(a).all(axis=1) for a in logs])
    if not finite.all():
        k = int(np.argmin(finite))
        raise NonFiniteError(
            f"{engine}: state or output is not finite at step k={k} "
            f"(t = {k * cfg.ts!r}); the run diverges",
            step_index=k,
        )
    return Trajectory(ts=cfg.ts, p=p, u=u, y=y, x=x, xi=xi)


def simulate_dt(model, cfg, traj, x0) -> Trajectory:
    """Run the loop-free per-step matrices over a sampled trajectory.

    Everything that depends only on p(k) is computed for all samples at
    once: A and B u are evaluated as stacks, and one call of the builder of
    :func:`~lpvsim.discretize.dt_step_matrices`' blocks gives D = Ts Phi A,
    s = 2 Phi B u and Xxi = Ts/2 Phi.  The recurrence xi(k+1) = xi(k) +
    G_k [xi(k); 1], with G_k = [D_k | s_k], is a chain of increment maps,
    the form of the RK4 reference's substeps, so it runs through the same
    log-depth scan, :func:`_scan`, after which row k maps xi(0) to xi(k+1)
    = xi(0) + G_k [xi(0); 1].  Only the scan's loop over levels runs in
    Python; its rounding differs from stepping sample by sample only in the
    last digits.  The state is read through the resolvent,
    x(k) = Xxi (xi(k) + B u(k)), as in x = Xxi xi + Xu u.

    Raises
    ------
    DimensionError, DomainError, DataError, ConfigError
        From the input guard that all three engines share, before any work:
        a p or u narrower or wider than the model's or an x0 of another
        length; a p(k) outside the scheduling box or not finite, or a u(k)
        not finite, naming the first such step; an x0 not finite, a
        ``traj.ts`` other than ``cfg.ts`` or a run over the 1 GiB cap.
    WellposednessError
        If I - A(p(k)) Ts/2 is numerically singular; carries the index of
        the first such step.
    NonFiniteError
        If x, xi or y is not finite at some step, because the run diverges;
        carries the index of the first such step.
    """
    x0 = _check_run_inputs(model, cfg, traj, x0)
    A = eval_pmatrix_many(model.A, traj.p)
    Bu = _matvecs(eval_pmatrix_many(model.B, traj.p), traj.u)
    xis = np.empty((traj.n_steps + 1, model.n_x))
    xis[0] = _seed_xi(A[0], Bu[0], x0, cfg.ts)
    # a huge drive or a diverging run overflows from here on; the result
    # step reports it as one error, so numpy's warnings are off
    with np.errstate(over="ignore", invalid="ignore"):
        # B u as the (N, n, 1) B of the blocks: their Bxi is then s itself.
        # Each stack is dropped once used: live (N, n, .) stacks set the peak
        D, s, Xxi = _step_blocks(A, Bu[:, :, None], cfg, traj.p)
        del A
        G = np.concatenate((D, s), axis=2)
        del D, s
        _scan(G)  # now row k maps xi(0) to xi(k+1)
        xis[1:] = xis[0] + G @ np.append(xis[0], 1.0)
        del G
        x = _matvecs(Xxi, xis[:-1] + Bu)
    return _result("simulate_dt", model, cfg, traj, x, xis[:-1])


#: the LAPACK gufuncs behind ``np.linalg.solve`` (one matrix, one right-hand
#: side) and ``np.linalg.slogdet``; bound once, so the oracle calls them directly
_solve1 = _umath_linalg.solve1
_slogdet = _umath_linalg.slogdet

#: steps per window of the loop oracle's loop matrices.  A window costs about
#: 6 us of calls (one BLAS thread, 2-core x86-64 Xeon): on 320- to 20 000-step
#: runs, windows of 64 took 1-5% longer than one whole-run stack at n_x <= 4
#: and 8-15% less at n_x = 16; windows of 128 saved 1-2% more but raised a
#: 320-step benchmark job's allocation peak at n_x = 4 from 190 to 219 KiB
_ORACLE_WINDOW = 64


def _solve_loop_steps(loops, rhs, sol):
    """Step the closed loop of the oracle through one window of samples.

    Step k solves ``loops[k] (x, w) = rhs[k]`` into ``sol[k]`` and writes
    xi(k+1) = xi(k) + w into the top half of ``rhs[k + 1]``.

    Each solve is the gufunc that ``np.linalg.solve`` itself calls, with the
    same ``dd->d`` signature, so its bits are those of ``np.linalg.solve``.
    The public function is skipped because its wrapper costs more than the
    solve: on an 8 x 8 loop matrix (numpy 2.4, one BLAS thread, 2-core
    x86-64 Xeon) ``np.linalg.solve`` took 5.7-7.9 us, of which 1.7-2.4 us
    was the gufunc and the rest its type checks and the ``np.errstate`` it
    enters at every call.  The caller enters one errstate for the whole
    run instead, with every floating-point warning off: a singular loop
    matrix, which gives NaN rows, is reported by the caller's determinant
    check once every step is solved, and a diverging run, which overflows
    to inf and then NaN, by the caller's finiteness check on the logs,
    never by a warning or a raise midway.
    """
    n = loops.shape[1] // 2
    solve, add = _solve1, np.add
    # the rows of each array are views, zipped once, so a step indexes nothing
    steps = zip(loops, rhs, sol, rhs[:, :n], sol[:, n:], rhs[1:, :n])
    for loop_k, rhs_k, sol_k, xi_k, w_k, xi_next in steps:
        solve(loop_k, rhs_k, out=sol_k, signature="dd->d")
        add(xi_k, w_k, out=xi_next)


def simulate_dt_loop_oracle(model, cfg, traj, x0) -> Trajectory:
    """Independent engine: re-solve the integrator feedback loop each step.

    The trapezoidal integrator block holds xi = (2/Ts) x - r x and advances
    it by xi+ = xi + 2 r x.  Closing x -> r x = A x + B u around it gives,
    at every step, a linear system in the unknowns (x, 2 r x):

        [ (2/Ts) I   -I/2 ] [ x     ]   [ xi     ]
        [ -A(p)       I/2 ] [ 2 r x ] = [ B(p) u ]

    The top half of each right-hand side is xi itself, so a step is one
    solve into its solution row and one add of 2 r x into the next step's
    top half.  A..D and B u are evaluated batched.  The loop matrices live
    in one buffer of ``_ORACLE_WINDOW`` steps whose constant blocks are
    written once; per window, -A(p(k)) is written, the determinants,
    det = Ts^-n det(I - A Ts/2) by block elimination, are logged and the
    steps solved.  One check of all the determinants then names the first
    singular step.  Each solve calls LAPACK's gesv
    gufunc directly, the one ``np.linalg.solve`` wraps, with the same bits:
    the wrapper's per-call checks and errstate cost about twice the solve
    itself (see :func:`_solve_loop_steps`).  No per-point matrices (Phi or
    the step blocks) are shared with :func:`simulate_dt`; the two paths
    share only the model, the input and result guards, the xi(0) seed and
    the singularity threshold.  It raises as :func:`simulate_dt` does, from
    the same input guard.
    """
    x0 = _check_run_inputs(model, cfg, traj, x0)
    ts, n, n_steps = cfg.ts, model.n_x, traj.n_steps
    A = eval_pmatrix_many(model.A, traj.p)
    # the rows (xi(k), B u(k)); the last row's top half takes xi(N), unused
    rhs = np.empty((n_steps + 1, 2 * n))
    rhs[:-1, n:] = Bu = _matvecs(eval_pmatrix_many(model.B, traj.p), traj.u)
    rhs[0, :n] = _seed_xi(A[0], Bu[0], x0, ts)
    del Bu
    eye = np.eye(n)
    loops = np.empty((min(_ORACLE_WINDOW, n_steps), 2 * n, 2 * n))
    loops[:] = np.block([[(2.0 / ts) * eye, -0.5 * eye], [0.0 * eye, 0.5 * eye]])
    sign, logdet, sol = np.empty(n_steps), np.empty(n_steps), np.empty((n_steps, 2 * n))
    with np.errstate(all="ignore"):  # see _solve_loop_steps
        for k0 in range(0, n_steps, len(loops)):
            k1 = min(k0 + len(loops), n_steps)
            window = loops[:k1 - k0]
            np.negative(A[k0:k1], out=window[:, n:, :n])
            _slogdet(window, out=(sign[k0:k1], logdet[k0:k1]), signature="d->dd")
            _solve_loop_steps(window, rhs[k0:k1 + 1], sol[k0:k1])
    # taken through logarithms, since Ts^-n alone overflows for large n; an
    # overflow to inf is far from singular, so it is no warning
    with np.errstate(over="ignore"):
        bad = singular_rows(sign * np.exp(logdet + n * math.log(ts)), A, ts)
    if bad.any():
        k = int(np.argmax(bad))
        raise WellposednessError(
            f"integrator feedback loop is singular at step {k}",
            A_p=A[k], ts=ts, step_index=k, p=traj.p[k],
        )
    del A
    return _result("simulate_dt_loop_oracle", model, cfg, traj, sol[:, :n], rhs[:-1, :n])


#: fine substeps per window of the RK4 reference's scan.  Windows start at
#: multiples of this length on the fine grid, so a substep's prefix map
#: depends only on its fine-grid index, whatever Ts and oversample are.  The
#: length bounds the window's stage samples and (rows, n, n + 1) blocks, and so
#: the reference's memory, whatever t_end is.  Measured with the [D | s]
#: blocks on 800- to 80 000-substep runs at n_x 2 and 4 (one BLAS thread,
#: 2-core x86-64 Xeon): a window of 128 took 28-51% longer, and one of 512
#: took 1-18% less time but raised the allocation peak by 31-94%
_RK4_WINDOW = 256


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
    # the product is formed whole before the in-place add, which would
    # otherwise read rows it has already written; deleting it keeps one
    # product live at a time
    w = 1
    while w < len(G):
        prod = G[w:, :, :-1] @ G[:-w]
        prod += G[:-w]
        G[w:] += prod
        del prod
        w *= 2


def simulate_ct_reference(model, cfg, scenario, oversample=50) -> Trajectory:
    """Fixed-step RK4 integration of the continuous-time model.

    Integrates with step h = Ts/oversample, evaluating the scenario's p(t)
    and u(t) at the stage times on the half-step grid t_j = j h/2, and logs
    every Ts-multiple.  The returned trajectory carries y and x on the
    sampling grid (xi is None).

    For a linear time-varying system one RK4 substep is an affine map
    x+ = x + G_i [x; 1] with G_i = [D_i | s_i], built from [A | B u] at the
    substep's three stage times.  The fine grid is cut into windows of
    ``_RK4_WINDOW`` substeps that start at multiples of that length.  Per
    window, p and u are sampled on its half-step grid, and the blocks are
    built batched and composed by a log-depth prefix scan in this increment
    form, never as I + D_i, whose product would round every entry of x
    afresh.  x is then formed only at the window's rows that end a sample,
    one strided slice of every oversample-th row, in one batched step
    x_start + G_pref [x_start; 1], and at its last row, which starts the
    next window.  So memory is bounded by the window plus the output log,
    and the only Python loops are over the windows and the scan's levels.
    Since the windows are fixed on the fine grid, runs at (Ts, oversample)
    and (2 Ts, 2 oversample) agree bit for bit at the samples they share.

    Raises
    ------
    ConfigError
        If oversample is not an integer >= 1.
    DimensionError, DomainError, DataError, ConfigError
        As :func:`simulate_dt`, from the same guard, for the sampled p, u and
        x0; DomainError and DataError also when p(t) leaves the box or u(t)
        is not finite at an RK4 stage time, naming the earliest such t.
    NonFiniteError
        If x or y is not finite at some sample, because the run diverges.
    """
    try:  # int() would truncate 2.9 to 2 and raise its own error on nan
        counts = int(oversample) == oversample >= 1
    except (TypeError, ValueError, OverflowError):
        counts = False
    if not counts:
        raise ConfigError(f"oversample must be an integer >= 1, got {oversample}")
    oversample = int(oversample)
    samp = sample_scenario(scenario, cfg)
    x0 = _check_run_inputs(model, cfg, samp, scenario.x0)
    n_keep = samp.n_steps
    h = cfg.ts / oversample
    n_fine = (n_keep - 1) * oversample

    x_log = np.empty((n_keep, model.n_x))
    x_log[0] = x = x0
    # as in simulate_dt, a diverging run is reported by the result step
    with np.errstate(over="ignore", invalid="ignore"):
        for i0 in range(0, n_fine, _RK4_WINDOW):
            i1 = min(i0 + _RK4_WINDOW, n_fine)
            # the window's half-step grid: substep i starts at 2i, ends at 2i+2
            t = np.arange(2 * i0, 2 * i1 + 1) * (0.5 * h)
            p = scenario.p_at(t)
            check_in_box(model.domain, p, where=lambda j: f"t = {float(t[j])}")
            u = scenario.u_at(t)
            _check_finite_u(u, where=lambda j: f"t = {float(t[j])}")
            G = _rk4_affine_maps(model, p, u, h)
            _scan(G)
            # row r ends substep i0 + r, so the rows that end a sample are
            # every oversample-th from r0; sample k0 is the first they reach
            r0 = -(i0 + 1) % oversample
            k0 = (i0 + r0 + 1) // oversample
            x1 = np.append(x, 1.0)
            xs = x + G[r0::oversample] @ x1
            x_log[k0:k0 + len(xs)] = xs
            # the window's last row starts the next window
            x = x + G[-1] @ x1
            # the next window's maps are built with these gone
            del G, x1
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
    """``list(csv.reader(io.StringIO(text)))``; a ``csv.Error`` is a
    DataError after ``what``."""
    try:
        return list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise DataError(f"{what}: {exc}") from None


#: characters per block that :func:`_table_rows` splits; its cells take about 9
#: times its text.  The benchmark's 320-row tables read 4-11% slower than in one
#: split in blocks of 8 KiB, and 1-7% in blocks of 16 KiB (2-core x86-64 Xeon)
_READ_BLOCK = 16384


def _table_rows(text, what):
    """The rows of a CSV table as ``csv.reader`` reads them, blank rows left
    out, yielded as one list per block: a row is blank when all its cells
    are whitespace.

    Text with no ``"``, no CR and no line over the csv module's field limit
    is read by ``csv.reader`` as each line split at commas, so it is split
    that way, in blocks of about ``_READ_BLOCK`` characters cut at line
    ends.  Any other text goes through :func:`_csv_rows`, as one block.
    """
    limit = csv.field_size_limit()
    # a line over the limit holds a multiple of limit + 1, so only the lines
    # there are measured; find's -1 (no line end) mod len + 1 is the end
    if '"' in text or "\r" in text or any(
        (text.find("\n", c) % (len(text) + 1)) - text.rfind("\n", 0, c) - 1 > limit
        for c in range(0, len(text), limit + 1)
    ):
        yield _non_blank(_csv_rows(text, what))
        return
    start = 0
    while start < len(text):
        end = text.find("\n", start + _READ_BLOCK - 1)
        end = len(text) if end < 0 else end
        yield _non_blank(line.split(",") for line in text[start:end].split("\n"))
        start = end + 1


def _non_blank(rows):
    return [r for r in rows if "".join(r).strip()]


def _columns(body, width, ts, first):
    """The t, p and u values of trajectory table rows ``first``, ``first`` +
    1, ... as an (n, width - 1) array, or None if any row is bad.

    The cell counts are checked over the rows; then the cells are taken in
    one flat list, k parsed with ``int`` from every width-th cell and the
    rest with ``float`` in one pass, and k = first, first + 1, ... and
    |t - k ts| <= 1e-9 checked over whole columns.
    """
    if set(map(len, body)) != {width}:
        return None
    n = len(body)
    cells = list(itertools.chain.from_iterable(body))
    try:
        if list(map(int, cells[::width])) != list(range(first, first + n)):
            return None
        del cells[::width]
        data = np.fromiter(
            map(float, cells), dtype=float, count=n * (width - 1)
        ).reshape(n, width - 1)
    except ValueError:
        return None
    # written as not <=, so that a NaN t fails the check
    if not (np.abs(data[:, 0] - np.arange(first, first + n) * ts) <= 1e-9).all():
        return None
    return data


def _raise_first_row_fault(body, width, ts, first):
    """Raise the error of the first bad row of ``first``, ... row by row.

    Runs only once :func:`_columns` has found a fault, so the error names
    the first bad row and its first fault whatever the order of checks.
    """
    for j, row in enumerate(body, first):
        if len(row) != width:
            raise DataError(f"row {j} has {len(row)} cells, expected {width}")
        try:
            k = int(row[0])
            t = float(row[1])
            for cell in row[2:]:
                float(cell)
        except ValueError as exc:
            raise DataError(f"row {j}: {exc}") from None
        if k != j:
            raise DataError(f"row {j} has k = {k}, expected {j}")
        if not abs(t - j * ts) <= 1e-9:
            raise DataError(
                f"row {j} has t = {t}, expected k*ts = {j * ts} (ts = {ts})"
            )


def read_trajectory_csv(text: str, ts: float) -> Trajectory:
    """Parse an input trajectory table ``k,t,p1..pN,u1..uM``.

    The k column must count 0,1,2,... and every t must be finite and equal
    k*ts within 1e-9; both guard against feeding a table sampled at a
    different rate.  Each block of rows (see :func:`_table_rows`) is parsed
    in one flat pass and checked column by column; only a block with a
    fault is scanned row by row, to name the table's first bad row.
    """
    blocks = filter(None, _table_rows(text, "trajectory table"))
    rows = next(blocks, None)
    if rows is None:
        raise DataError("empty trajectory table")
    header = [h.strip() for h in rows.pop(0)]
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
    for body in filter(None, itertools.chain([rows], blocks)):
        data = _columns(body, len(header), ts, n)
        if data is None:
            _raise_first_row_fault(body, len(header), ts, n)
        parts.append(data)
        n += len(body)
        body.clear()  # its cells are gone before the next block is split
    if n == 0:
        raise DataError("trajectory table has a header but no rows")
    p = np.concatenate([d[:, 1:1 + n_pc] for d in parts])
    u = np.concatenate([d[:, 1 + n_pc:] for d in parts])
    return Trajectory(ts=float(ts), p=p, u=u)
