"""Signal generation and the three simulation engines.

Two discrete-time engines advance the same internal state xi over a sampled
scheduling trajectory.  The loop-free engine builds the paper's per-step
matrices for every sample at once -- A(p(k)) and B(p(k)) as (N, n, n) and
(N, n, m) stacks, one stacked factorization for Phi(p(k)) -- and runs the xi
recurrence as a log-depth scan over its increment maps, each stored as one
block [D | s], so the only Python loop left is over the scan's log2(N) levels.
The loop oracle re-solves the implicit feedback loop around the trapezoidal
integrator block at every step, written in xi itself: each step solves for x
and the increment of xi and adds that increment.  Only its loop matrices are
stacked, once, for one determinant check and the per-step solves; the solve
stays per step.  Both realize the identical map, so their outputs agree to
machine precision; keeping both is the point, since each checks the other.  A
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

from .discretize import DiscretizationConfig, _step_blocks, singular_rows
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    NonFiniteError,
    WellposednessError,
)
from .model import check_in_box, eval_pmatrix, eval_pmatrix_many

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
        (t, value) rows, stored stably sorted by t; linearly interpolated
        between samples and held constant beyond the ends
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
        if self.kind == "csv_column" and self.table is not None:
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
            object.__setattr__(self, "table", tab[np.argsort(tab[:, 0], kind="stable")])

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
        if spec.table is None:
            raise DataError(
                f"csv_column signal has no loaded table (path {spec.path!r})"
            )
        tab = spec.table
        return spec.offset + spec.amplitude * np.interp(t, tab[:, 0], tab[:, 1])


@dataclass(frozen=True, eq=False)
class Scenario:
    """Sampled-experiment description: waveforms, start state, duration.

    p : tuple of SignalSpec, one per scheduling dimension
    u : tuple of SignalSpec, one per input channel
    x0 : initial physical state, shape (n_x,)
    t_end : final time; sampling yields k = 0 .. floor(t_end/Ts)
    """

    p: tuple
    u: tuple
    x0: np.ndarray
    t_end: float

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(self.p))
        object.__setattr__(self, "u", tuple(self.u))
        x0 = np.asarray(self.x0, dtype=float).reshape(-1).copy()
        x0.setflags(write=False)
        object.__setattr__(self, "x0", x0)
        if not (float(self.t_end) > 0.0):
            raise ConfigError(f"t_end must be positive, got {self.t_end}")
        if float(self.t_end) == math.inf:
            raise ConfigError(f"t_end must be finite, got {self.t_end}")
        object.__setattr__(self, "t_end", float(self.t_end))

    def p_at(self, t) -> np.ndarray:
        """Scheduling trajectory sampled at times t, shape (len(t), n_p)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.column_stack([generate_signal(s, t) for s in self.p])

    def u_at(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.column_stack([generate_signal(s, t) for s in self.u])


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly sampled signals of one run; every channel is (N, width).

    ``x`` and ``xi`` may be None when state logging was not requested or the
    data came from an input file without state columns.
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


#: the fewest float64 samples that one array cannot hold: numpy sizes an
#: array in bytes, as a signed pointer-width integer
_SAMPLE_LIMIT = (np.iinfo(np.intp).max + 1) // 8


def sample_scenario(scenario: Scenario, cfg: DiscretizationConfig) -> Trajectory:
    """Sample scenario waveforms on the uniform grid k*Ts up to t_end.

    A Ts that divides t_end to 1e-9 relative keeps the sample at t_end.

    Raises
    ------
    ConfigError
        If the grid has more samples than one float64 array can hold.
    """
    ratio = scenario.t_end / cfg.ts
    n_steps = np.floor(ratio + 1e-9 * max(1.0, ratio)) + 1.0
    # np.arange would fail on such a count with a bare ValueError, or on
    # inf with an OverflowError from int()
    if not n_steps < _SAMPLE_LIMIT:
        raise ConfigError(
            f"t_end = {scenario.t_end} at ts = {cfg.ts} gives {n_steps:.6g} "
            f"samples, more than one array can hold"
        )
    n_steps = int(n_steps)
    t = np.arange(n_steps) * cfg.ts
    return Trajectory(ts=cfg.ts, p=scenario.p_at(t), u=scenario.u_at(t))


def _seed_xi(A0, Bu0, x0, ts):
    return (2.0 / ts) * x0 - A0 @ x0 - Bu0


def sigma_initial_state(model, cfg, p0, u0, x0) -> np.ndarray:
    """Internal start state that reproduces x0 exactly at the first sample.

    xi(0) = (2/Ts) x0 - A(p(0)) x0 - B(p(0)) u(0).
    """
    x0 = np.asarray(x0, dtype=float).reshape(model.n_x)
    u0 = np.asarray(u0, dtype=float).reshape(model.n_u)
    A0 = eval_pmatrix(model.A, p0)
    B0 = eval_pmatrix(model.B, p0)
    return _seed_xi(A0, B0 @ u0, x0, cfg.ts)


def _check_finite_u(u, where):
    """Raise :class:`DataError` at the first non-finite row of ``u``; ``where``
    maps its index to its location, as in :func:`check_in_box`."""
    bad = ~np.all(np.isfinite(u), axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        raise DataError(f"input {list(map(float, u[k]))} at {where(k)} is not finite")


def _check_run_inputs(model, cfg, traj, x0):
    """Shared up-front guard of both engines; returns x0 as an (n_x,) array."""
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
    check_in_box(model.domain, traj.p, where=lambda k: f"step {k}")
    _check_finite_u(traj.u, where=lambda k: f"step {k}")
    x0 = np.asarray(x0, dtype=float).reshape(model.n_x)
    if not np.all(np.isfinite(x0)):
        raise ConfigError(f"initial state {list(map(float, x0))} is not finite")
    return x0


def _matvecs(M, v):
    """Row-wise products M[k] @ v[k] of a stack (N, r, c) and rows (N, c)."""
    return np.einsum("kij,kj->ki", M, v)


def _result(engine, model, cfg, traj, x, xi, record_state=True):
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
    if not record_state:
        x = xi = None
    return Trajectory(ts=cfg.ts, p=p, u=u, y=y, x=x, xi=xi)


def simulate_dt(model, cfg, traj, x0, record_state=True) -> Trajectory:
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
    DomainError
        If any sampled p(k) leaves the scheduling box or is not finite
        (checked up front, reporting the first offending step).
    DataError
        If any u(k) is not finite.
    ConfigError
        If x0 is not finite or ``traj.ts`` differs from ``cfg.ts``.
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
    return _result("simulate_dt", model, cfg, traj, x, xis[:-1], record_state)


#: the LAPACK gesv gufunc that ``np.linalg.solve`` calls for one matrix and
#: one right-hand side; bound once, so the oracle's loop calls it directly
_solve1 = _umath_linalg.solve1


def _solve_loop_steps(loops, rhs):
    """Step the closed loop of the oracle through all its samples.

    Step k solves ``loops[k] (x, w) = rhs[k]`` into row k of the returned
    solutions and writes xi(k+1) = xi(k) + w into the top half of
    ``rhs[k + 1]``.  A function of its own, so that the loop's row views
    are gone once it returns and the caller can free the stack.

    Each solve is the gufunc that ``np.linalg.solve`` itself calls, with the
    same ``dd->d`` signature, so its bits are those of ``np.linalg.solve``.
    The public function is skipped because its wrapper costs more than the
    solve: on an 8 x 8 loop matrix (numpy 2.4, one BLAS thread, 2-core
    x86-64 Xeon) ``np.linalg.solve`` took 5.7-7.9 us, of which 1.7-2.4 us
    was the gufunc and the rest its type checks and the ``np.errstate`` it
    enters at every call.  The loop enters one errstate instead, with every
    floating-point warning off: the caller's determinant check rejects a
    singular loop matrix before the loop, so no step meets a zero pivot, and
    a diverging run, which overflows to inf and then NaN, is reported by the
    caller's finiteness check on the logs, not by a warning or a raise
    midway.
    """
    n = loops.shape[1] // 2
    sol = np.empty((len(loops), 2 * n))
    solve, add = _solve1, np.add
    # the rows of each array are views, zipped once, so a step indexes nothing
    steps = zip(loops, rhs, sol, rhs[:, :n], sol[:, n:], rhs[1:, :n])
    with np.errstate(all="ignore"):
        for loop_k, rhs_k, sol_k, xi_k, w_k, xi_next in steps:
            solve(loop_k, rhs_k, out=sol_k, signature="dd->d")
            add(xi_k, w_k, out=xi_next)
    return sol


def simulate_dt_loop_oracle(model, cfg, traj, x0, record_state=True) -> Trajectory:
    """Independent engine: re-solve the integrator feedback loop each step.

    The trapezoidal integrator block holds xi = (2/Ts) x - r x and advances
    it by xi+ = xi + 2 r x.  Closing x -> r x = A x + B u around it gives,
    at every step, a linear system in the unknowns (x, 2 r x):

        [ (2/Ts) I   -I/2 ] [ x     ]   [ xi     ]
        [ -A(p)       I/2 ] [ 2 r x ] = [ B(p) u ]

    The top half of each right-hand side is xi itself, so a step is one
    solve into its solution row and one add of 2 r x into the next step's
    top half.  A..D and B u are evaluated batched, and the loop matrices of
    all steps are stacked once; the stack serves both one stacked
    determinant check, det = Ts^-n det(I - A Ts/2) by block elimination,
    and the per-step solves.  Each solve calls LAPACK's gesv gufunc
    directly, the one ``np.linalg.solve`` wraps, with the same bits: the
    wrapper's per-call checks and errstate cost about twice the solve
    itself (see :func:`_solve_loop_steps`).  No per-point matrices (Phi or
    the step blocks) are shared with :func:`simulate_dt`; the two paths
    share only the model, the input and result guards, the xi(0) seed and
    the singularity threshold.  It raises as :func:`simulate_dt` does.
    """
    x0 = _check_run_inputs(model, cfg, traj, x0)
    ts = cfg.ts
    n = model.n_x
    A = eval_pmatrix_many(model.A, traj.p)
    # the rows (xi(k), B u(k)); the last row's top half takes xi(N), unused.
    # B u and the seed come before the stack, which sets the allocation peak
    rhs = np.empty((traj.n_steps + 1, 2 * n))
    rhs[:-1, n:] = Bu = _matvecs(eval_pmatrix_many(model.B, traj.p), traj.u)
    rhs[0, :n] = _seed_xi(A[0], Bu[0], x0, ts)
    del Bu
    eye = np.eye(n)
    loops = np.empty((traj.n_steps, 2 * n, 2 * n))
    loops[:] = np.block([[(2.0 / ts) * eye, -0.5 * eye], [0.0 * eye, 0.5 * eye]])
    np.negative(A, out=loops[:, n:, :n])
    # det(loop) = Ts^-n det(I - A Ts/2) by block elimination; taken through
    # logarithms, since Ts^-n alone overflows for large n; an overflow to
    # inf is far from singular, so it is no warning
    sign, logdet = np.linalg.slogdet(loops)
    with np.errstate(over="ignore"):
        bad = singular_rows(sign * np.exp(logdet + n * math.log(ts)), A, ts)
    if bad.any():
        k = int(np.argmax(bad))
        raise WellposednessError(
            f"integrator feedback loop is singular at step {k}",
            A_p=A[k], ts=ts, step_index=k, p=traj.p[k],
        )
    del A
    sol = _solve_loop_steps(loops, rhs)
    del loops
    return _result("simulate_dt_loop_oracle", model, cfg, traj, sol[:, :n],
                   rhs[:-1, :n], record_state)


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
    DomainError, DataError, ConfigError
        As :func:`simulate_dt` for the sampled p, u and x0; DomainError and
        DataError also when p(t) leaves the box or u(t) is not finite at an
        RK4 stage time, naming the earliest such t.
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
    if len(scenario.p) != model.n_p or len(scenario.u) != model.n_u:
        raise DimensionError(
            f"scenario has {len(scenario.p)} p and {len(scenario.u)} u "
            f"channels, model needs {model.n_p} and {model.n_u}"
        )
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
    x and xi channels when the trajectory recorded them.  Values are written
    as the shortest decimal that round-trips (``repr`` of a Python float).
    """
    if traj.y is None:
        raise DataError("trajectory has no outputs to write")
    header = ["k", "t"]
    blocks = [traj.y]
    header += [f"y{i + 1}" for i in range(traj.y.shape[1])]
    if include_state:
        if traj.x is None or traj.xi is None:
            raise DataError("state logging was not enabled for this run")
        header += [f"x{i + 1}" for i in range(traj.x.shape[1])]
        header += [f"xi{i + 1}" for i in range(traj.xi.shape[1])]
        blocks += [traj.x, traj.xi]
    lines = [",".join(header)]
    for k, t in enumerate(traj.times().tolist()):
        row = [k, t]
        for b in blocks:
            row += b[k].tolist()
        lines.append(",".join(map(repr, row)))
    return "\n".join(lines) + "\n"


def _columns(body, width, ts):
    """The t, p and u columns of a trajectory table, one per row of an
    array, or None if any row is bad.

    k is parsed with ``int`` and every other cell with ``float``, column by
    column; the cell counts, k = 0, 1, 2, ... and |t - k ts| <= 1e-9 are
    checked over whole columns.
    """
    if set(map(len, body)) != {width}:
        return None
    cols = list(zip(*body))
    n = len(body)
    try:
        if list(map(int, cols[0])) != list(range(n)):
            return None
        data = np.fromiter(
            map(float, itertools.chain.from_iterable(cols[1:])),
            dtype=float, count=n * (width - 1),
        ).reshape(width - 1, n)
    except ValueError:
        return None
    if np.any(np.abs(data[0] - np.arange(n) * ts) > 1e-9):
        return None
    return data


def _raise_first_row_fault(body, width, ts):
    """Raise the error of the first bad row, scanning row by row.

    Runs only once :func:`_columns` has found a fault, so the error names
    the first bad row and its first fault whatever the order of checks.
    """
    for j, row in enumerate(body):
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
        if abs(t - j * ts) > 1e-9:
            raise DataError(
                f"row {j} has t = {t}, expected k*ts = {j * ts} (ts = {ts})"
            )


def read_trajectory_csv(text: str, ts: float) -> Trajectory:
    """Parse an input trajectory table ``k,t,p1..pN,u1..uM``.

    The k column must count 0,1,2,... and every t must equal k*ts within
    1e-9; both guard against feeding a table sampled at a different rate.
    Cells are parsed and checked column by column; only a table with a
    fault is scanned row by row, to name its first bad row.
    """
    rows = list(csv.reader(io.StringIO(text)))
    rows = [r for r in rows if "".join(r).strip()]
    if not rows:
        raise DataError("empty trajectory table")
    header = [h.strip() for h in rows[0]]
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
    body = rows[1:]
    if not body:
        raise DataError("trajectory table has a header but no rows")
    data = _columns(body, len(header), ts)
    if data is None:
        _raise_first_row_fault(body, len(header), ts)
    return Trajectory(
        ts=float(ts), p=data[1:1 + n_pc].T.copy(), u=data[1 + n_pc:].T.copy()
    )
