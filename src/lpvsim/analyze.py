"""Frozen-scheduling frequency-domain checks, trajectory comparison metrics,
and empirical convergence-order estimation.

Transfer functions only exist for frozen scheduling, so every frequency-domain
statement here is made at one fixed point p.  The central identity is the
frequency warping of the bilinear map: the discretized system evaluated on the
unit circle equals the continuous-time response at the tan-warped frequency,

    G_d(e^{j w Ts}) = G_ct(j * (2/Ts) * tan(w Ts / 2)),

exactly, for every frequency below Nyquist.  ``warping_residual`` measures the
failure of that identity: the left side from the discrete step matrices, the
right side from A..D.  Both responses come from one kernel that solves
``(s_i I - A) X_i = B`` for all frequencies in one stacked solve, with
``s = j w`` in continuous time and ``s = e^{j w Ts}`` in discrete time.
"""

import math

import numpy as np

from .discretize import (DiscretizationConfig, StepMatrices, _check_stack, _matrices_at,
                         dt_step_matrices)
from .errors import ConfigError, DimensionError, DomainError
from .model import LpvStateSpace, _frozen_array, _record
from .simulate import (
    Scenario,
    _render_csv,
    sample_scenario,
    simulate_ct_reference,
    simulate_dt,
)

__all__ = [
    "FrequencyResponse",
    "ComparisonMetrics",
    "ConvergenceStudy",
    "log_frequency_grid",
    "freqresp_ct",
    "freqresp_dt",
    "warping_residual",
    "frequency_response_csv",
    "compare_traj",
    "convergence_order",
    "render_convergence_report",
]


@_record
class FrequencyResponse:
    """Complex response matrices on a positive, strictly increasing grid.

    omegas : (m,) rad/s
    values : (m, n_y, n_u) complex
    """

    omegas: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        omegas = _frozen_array(self.omegas)
        values = _frozen_array(self.values, complex)
        if omegas.ndim != 1 or values.ndim != 3:
            raise DimensionError("omegas must be 1-D and values (m, n_y, n_u)")
        if values.shape[0] != omegas.size:
            raise DimensionError(
                f"{values.shape[0]} response matrices for {omegas.size} frequencies"
            )
        if omegas.size and not (omegas[0] > 0.0 and np.all(np.diff(omegas) > 0.0)):
            raise ConfigError("frequency grid must be positive and strictly increasing")
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "values", values)


def log_frequency_grid(cfg: DiscretizationConfig, decades=4, points_per_decade=50):
    """Logarithmic grid ending at 0.9 of the Nyquist angle.

    The top frequency is 0.9 * pi / Ts, safely below the w_max * Ts < pi
    requirement of :func:`freqresp_dt`.  The grid holds
    round(decades * points_per_decade) points, which must be at least one;
    a one-point grid is the top frequency alone, and no point may underflow
    or merge with its neighbour.
    """
    if decades <= 0 or not points_per_decade >= 1:
        raise ConfigError("grid needs decades > 0 and points_per_decade >= 1")
    if not decades < math.inf:  # NaN fails the <; an int of any size passes
        raise ConfigError(f"grid needs a finite number of decades, got {decades}")
    top = 0.9 * np.pi / cfg.ts
    try:
        count = float(decades * points_per_decade)
    except OverflowError:  # an integer count beyond the float range
        count = math.inf
    _check_stack(8 * count, f"a grid of {count:.6g} frequencies")
    n = int(round(count))
    if n < 1:
        raise ConfigError(
            f"grid of {decades} decades at {points_per_decade} points per "
            "decade rounds to no points"
        )
    if n == 1:
        return np.array([top])
    grid = np.logspace(np.log10(top) - decades, np.log10(top), n)
    if not (grid[0] > 0.0 and np.all(np.diff(grid) > 0.0)):
        raise ConfigError(f"grid of {decades:g} decades below {top:.4g} rad/s "
                          "leaves the float range")
    return grid


def _response(s, omegas, A, B, C, D) -> FrequencyResponse:
    """``C (s_i I - A)^-1 B + D`` for every complex ``s_i``, in one stacked
    solve; ``omegas[i]`` is the frequency that ``s_i`` stands for."""
    m, n = s.size, A.shape[0]
    _check_stack(16 * m * n * n, f"a response at {m} frequencies")
    # fill -A and add s through the diagonal view: forming s I - A by
    # broadcasting would allocate two more (m, n, n) stacks
    E = np.empty((m, n, n), dtype=complex)
    E[:] = -A
    E.reshape(m, n * n)[:, :: n + 1] += s[:, None]
    try:
        X = np.linalg.solve(E, np.broadcast_to(B, (m,) + B.shape))
    except np.linalg.LinAlgError:
        k = int(np.argmax(np.linalg.det(E) == 0.0))
        raise DomainError(
            f"resolvent is singular at omega = {float(omegas[k])!r} rad/s"
        ) from None
    del E  # the (m, n, n) stack is the largest array: free it first
    values = C @ X
    values += D
    return FrequencyResponse(omegas, values)


def freqresp_ct(model: LpvStateSpace, p, omegas) -> FrequencyResponse:
    """Frozen-p continuous-time response C (jwI - A)^-1 B + D.

    Raises
    ------
    DomainError
        If p lies outside the scheduling box or the resolvent is singular
        at some frequency (the first such one is named).
    """
    omegas = np.asarray(omegas, dtype=float)
    return _response(1j * omegas, omegas, *_matrices_at(model, p))


def freqresp_dt(step: StepMatrices, cfg: DiscretizationConfig, omegas) -> FrequencyResponse:
    """Response of one-step update matrices on the unit circle.

    values[i] = Cxi (e^{j w_i Ts} I - Axi)^-1 Bxi + Dxi; frequencies are
    continuous-time rad/s and must satisfy w Ts < pi (below Nyquist).
    """
    omegas = np.asarray(omegas, dtype=float)
    if omegas.size and float(omegas[-1]) * cfg.ts >= np.pi:
        raise ConfigError(
            f"omega * Ts must stay below pi, got {float(omegas[-1]) * cfg.ts!r}"
        )
    z = np.exp(1j * omegas * cfg.ts)
    return _response(z, omegas, step.Axi, step.Bxi, step.Cxi, step.Dxi)


def warping_residual(
    model: LpvStateSpace, p, cfg: DiscretizationConfig, omegas, *, dt=None
) -> float:
    """Max entrywise gap between the DT response and the warped CT response.

    Evaluates both sides of G_d(e^{j w Ts}) = G_ct(j (2/Ts) tan(w Ts/2)); the
    bilinear map makes them equal in exact arithmetic, so the return value
    is a pure roundoff measure for this discretization (and a large number
    for any other one).  ``dt`` is the :func:`freqresp_dt` response on
    ``omegas`` when the caller already has it; otherwise it is computed here.
    """
    omegas = np.asarray(omegas, dtype=float)
    if dt is None:
        dt = freqresp_dt(dt_step_matrices(model, p, cfg), cfg, omegas)
    ct = freqresp_ct(model, p, (2.0 / cfg.ts) * np.tan(omegas * cfg.ts / 2.0))
    return float(np.max(np.abs(dt.values - ct.values), initial=0.0))


def frequency_response_csv(fr: FrequencyResponse) -> str:
    """Render a response as CSV: omega_rads then re/im pairs, channel pairs
    in row-major (output-major) order."""
    m, n_y, n_u = fr.values.shape
    header = ["omega_rads"]
    for i in range(n_y):
        for j in range(n_u):
            header.append(f"reOut{i + 1}In{j + 1}")
            header.append(f"imOut{i + 1}In{j + 1}")
    # complex entries viewed as re, im float pairs: the header's column order
    parts = fr.values.reshape(m, n_y * n_u).view(float)
    return _render_csv(header, [fr.omegas, parts])


@_record(eq="tuple")
class ComparisonMetrics:
    """Error summary between two sampled channels.

    relative_to is max(1, peak |a|) so thresholds stay meaningful for both
    tiny and large signals; per_channel holds the max abs error per column.
    """

    max_abs_error: float
    rms_error: float
    relative_to: float
    per_channel: tuple


def compare_traj(a, b, channel="y") -> ComparisonMetrics:
    """Max and RMS entrywise difference of one channel of two trajectories."""
    if not abs(a.ts - b.ts) <= min(1e-12, 1e-9 * max(abs(a.ts), abs(b.ts))):  # NaN fails
        raise ConfigError(f"sampling times differ: {a.ts} vs {b.ts}")
    xa = a.channel(channel)
    xb = b.channel(channel)
    if xa.shape != xb.shape:
        raise DimensionError(
            f"channel {channel!r} shapes differ: {xa.shape} vs {xb.shape}"
        )
    diff = np.abs(xa - xb)
    peak = np.max(diff)
    # scaled by the peak, so that no square overflows
    scale = peak if 0.0 < peak < np.inf else 1.0
    return ComparisonMetrics(
        max_abs_error=float(peak),
        rms_error=float(scale * np.sqrt(np.mean((diff / scale) ** 2))),
        relative_to=float(max(1.0, np.max(np.abs(xa)))),
        per_channel=tuple(float(v) for v in diff.max(axis=0)),
    )


@_record(eq="tuple")
class ConvergenceStudy:
    """Ts sweep results: per-Ts max error, pairwise orders, fitted slope.

    degenerate is set when the discretization is exact on the scenario (all
    errors at roundoff level), in which case fitted_order is NaN.
    """

    ts_list: tuple
    max_errors: tuple
    pairwise_orders: tuple
    fitted_order: float
    degenerate: bool


def convergence_order(
    model: LpvStateSpace,
    scenario: Scenario,
    ts_list,
    oversample=100,
) -> ConvergenceStudy:
    """Empirical order of the discretization against the RK4 reference.

    The continuous-time reference is integrated once, on the grid of the
    smallest Ts with ``oversample`` RK4 substeps per sample.  For each Ts the
    scenario is simulated discretely and compared with that one reference
    sub-sampled at every Ts/Ts_min-th sample, recording max |y_dt - y_ct|
    over the sampling grid.  For exact halvings the sub-sampled reference
    equals a separate run at that Ts with oversample * Ts/Ts_min substeps,
    bit for bit: the substep, the stage times and the sample times are the
    same floats.

    Parameters
    ----------
    ts_list : decreasing sequence, >= 3 entries, each exactly halving the
        previous one (checked to 1e-9 relative) and dividing t_end at least once
    oversample : RK4 substeps per smallest Ts, an integer >= 1

    Returns
    -------
    ConvergenceStudy
        fitted_order is the least-squares slope of log error vs log Ts; a
        scenario the rule integrates exactly yields NaN and degenerate=True.
    """
    ts_list = [float(v) for v in ts_list]
    if len(ts_list) < 3:
        raise ConfigError(f"need at least 3 sampling times, got {len(ts_list)}")
    for a, b in zip(ts_list, ts_list[1:]):
        # written so that a zero or NaN sampling time fails it too
        if b == 0.0 or not abs(a / b - 2.0) <= 1e-9:
            raise ConfigError(
                f"sampling times must halve exactly, got {a} then {b}"
            )
    for ts in ts_list:
        ratio = scenario.t_end / ts
        if not math.isfinite(ratio):
            raise ConfigError(f"t_end / Ts = {scenario.t_end} / {ts} overflows")
        if not round(ratio) >= 1 or abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise ConfigError(
                f"Ts = {ts} does not divide t_end = {scenario.t_end}"
            )
    # simulate_ct_reference rejects an oversample that is not an integer >= 1
    ts_min = ts_list[-1]
    ct = simulate_ct_reference(
        model, DiscretizationConfig(ts_min), scenario, oversample=oversample
    )
    errors = []
    for ts in ts_list:
        cfg = DiscretizationConfig(ts)
        y = simulate_dt(model, cfg, sample_scenario(scenario, cfg), scenario.x0).y
        # a Ts (or Ts_min) that divides t_end only to within the tolerance
        # can sample one point fewer than the other grid holds
        ref = ct.y[:: int(round(ts / ts_min))]
        n = min(y.shape[0], ref.shape[0])
        errors.append(float(np.max(np.abs(y[:n] - ref[:n]))))
    scale = max(1.0, float(np.max(np.abs(ct.y))))

    degenerate = any(e <= 1e-12 * scale for e in errors)
    with np.errstate(divide="ignore", invalid="ignore"):
        pairwise = tuple(
            float(np.log2(ea / eb)) if eb > 0.0 else float("nan")
            for ea, eb in zip(errors, errors[1:])
        )
    if degenerate:
        fitted = float("nan")
    else:
        slope = np.polyfit(np.log(ts_list), np.log(errors), 1)[0]
        fitted = float(slope)
    return ConvergenceStudy(
        ts_list=tuple(ts_list),
        max_errors=tuple(errors),
        pairwise_orders=pairwise,
        fitted_order=fitted,
        degenerate=degenerate,
    )


def render_convergence_report(study: ConvergenceStudy) -> str:
    """Plain-text sweep table, the first row's order ``nan``, with a
    trailing machine-readable order line."""
    orders = (math.nan,) + study.pairwise_orders
    text = _render_csv(["Ts", "max_error", "pairwise_order"],
                       [study.ts_list, study.max_errors, orders])
    if study.degenerate:
        text += "degenerate=true\n"
    return text + f"fitted_order={float(study.fitted_order)!r}\n"
