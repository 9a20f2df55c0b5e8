"""Per-step discretization matrices for CT LPV models.

The bilinear (trapezoidal/Tustin-class) discretization used here keeps the
continuous-time matrices A(p), B(p), C(p), D(p) and pushes all sampling-time
dependence into a fixed integrator block plus one frozen resolvent

    Phi(p) = (I - A(p) * Ts/2)^-1,

which exists iff det(I - A(p) Ts/2) != 0.  Everything in this module is a
pure function of its arguments.  The per-point functions take A..D from
:meth:`~lpvsim.model.LpvStateSpace.matrices_at`, the one frozen-point guard:
it checks p against the box, then evaluates with the one-row case of the
batched evaluator the simulation engines use, so a frozen-p block and an
engine step at the same p start from bit-identical matrices:

* :func:`phi` -- the resolvent itself, via an LU inverse, for one frozen
  A(p) or for a stack of them (one per run of equal points of a trajectory).
* :func:`singular_rows` -- the one singularity rule on det(I - A(p) Ts/2),
  asked by the one judge of I - A Ts/2 for :func:`phi`, both simulation
  engines (which raise its one refusal) and :func:`wellposedness_check`.
* :func:`dt_step_matrices`, :func:`sigma_step` and :func:`tustin_frozen`
  -- the three builders of the one result type, :class:`StepMatrices`:
  the loop-free update obtained by solving the instantaneous feedback
  through the integrator block in closed form, from the one block builder
  that :func:`~lpvsim.simulate.simulate_dt` calls on its stacks; its
  B = C = I, D = 0 case, the integrator block around Phi alone
  (``perfbench/tracing.py`` wraps it by name); and the classical Tustin
  blocks, related by the constant similarity xi = (2/Ts) x.
* :func:`wellposedness_check` -- a deterministic sampled sweep of the
  determinant condition over the scheduling box (vertices + grid + seeded
  random draws).  Two samples whose determinants differ in sign refute the
  condition: bisection between them finds a singular point.  Sampling
  cannot certify the condition for all p; the report says exactly what was
  checked.
"""

import math

import numpy as np

from .errors import ConfigError, NonFiniteError, WellposednessError
from .model import LpvStateSpace, _frozen_array, _record, eval_pmatrix, eval_pmatrix_many

__all__ = [
    "DiscretizationConfig",
    "StepMatrices",
    "WellposednessReport",
    "phi",
    "singular_rows",
    "sigma_step",
    "dt_step_matrices",
    "tustin_frozen",
    "wellposedness_check",
]

#: the relative threshold of the one singularity rule, :func:`singular_rows`
SINGULAR_RTOL = 1e-12

#: the most bytes one stack of a request (a frequency grid, a sweep) may take
_STACK_LIMIT = 2**30


def _check_stack(nbytes, what):
    """Raise :class:`ConfigError` before allocating if a stack of ``nbytes``
    bytes, for ``what``, is over ``_STACK_LIMIT``."""
    if not nbytes <= _STACK_LIMIT:
        raise ConfigError(
            f"{what} takes more than {_STACK_LIMIT} bytes, the most one "
            "request may allocate"
        )


def _written(n):
    """``f"{n}"``, or the digit count of an int too long for ``str()``."""
    try:  # str() writes no int of more than 4300 digits
        return f"{n}"
    except ValueError:
        from decimal import Decimal  # counts them without str(), on this path alone
        return f"an integer of {Decimal(n).adjusted() + 1} digits"


def _count(value, least, what):
    """``value`` as an int if it is an integer >= ``least``; else (NaN, inf,
    text, a non-integer such as 2.9) a :class:`ConfigError` naming ``what``."""
    try:  # int() truncates 2.9 and fails on nan and inf
        counts = int(value) == value >= least
    except (TypeError, ValueError, OverflowError):
        counts = False
    if not counts:
        raise ConfigError(f"{what} must be an integer >= {least}, got {_written(value)}")
    return int(value)


@_record(eq="tuple")
class DiscretizationConfig:
    """Sampling configuration; ``ts`` is the sampling time in seconds."""

    ts: float

    def __post_init__(self):
        if not (0.0 < float(self.ts) < math.inf):
            raise ConfigError(
                f"sampling time must be positive and finite, got {self.ts}"
            )
        object.__setattr__(self, "ts", float(self.ts))


@_record
class StepMatrices:
    """One-step update, output, and state-reconstruction matrices.

    xi(k+1) = Axi xi(k) + Bxi u(k)
    y(k)    = Cxi xi(k) + Dxi u(k)
    x(k)    = Xxi xi(k) + Xu  u(k)

    The one result type of the three frozen-point builders, which holds
    each block as a read-only float copy.  :func:`dt_step_matrices` stores
    xi; :func:`sigma_step` is its B = C = I, D = 0 case, driven by ubar =
    B(p) u with y = x; :func:`tustin_frozen` stores x itself (Xxi = I,
    Xu = 0).  :func:`~lpvsim.simulate.simulate_dt` steps the first's blocks
    for all samples at once; the loop oracle, none.
    """

    Axi: np.ndarray
    Bxi: np.ndarray
    Cxi: np.ndarray
    Dxi: np.ndarray
    Xxi: np.ndarray
    Xu: np.ndarray

    def __post_init__(self):
        for name in ("Axi", "Bxi", "Cxi", "Dxi", "Xxi", "Xu"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))


def singular_rows(det, A, ts: float):
    """True where ``|det(I - A Ts/2)| < SINGULAR_RTOL * max(1, max|A| Ts/2)``
    (max|A|: A's largest |entry|), row by row, for ``det`` of one A (n, n) or
    of each of a stack (m, n, n), in the shape of ``det``.  ``_judge`` first
    tests a whole stack against one bound, and asks this rule if that fails."""
    # max|A| as max(max A, -min A): equal bit for bit, without an |A| copy
    peak = np.maximum(A.max(axis=(-2, -1)), -A.min(axis=(-2, -1)))
    return np.abs(det) < SINGULAR_RTOL * np.maximum(1.0, peak * (ts / 2.0))


def _judge(A, ts: float):
    """``M = I - A Ts/2``, ``det(M)`` and :func:`singular_rows`' verdict, for
    one matrix A or a stack.  M is finite exactly when A's largest |entry|
    times Ts/2 is; else a NonFiniteError.  At a huge Ts det overflows to
    inf, which is far from singular: no warning.  That entry bounds every
    row's max(1, max|A| Ts/2), so if every |det| clears the stack's
    threshold no row is singular; else (a NaN det too) each row is judged
    by its own."""
    # a Python float, so that a product past the float range is inf, unwarned
    scale = float(np.maximum(A.max(initial=0.0), -A.min(initial=0.0))) * (ts / 2.0)
    if not math.isfinite(scale):
        raise NonFiniteError(f"I - A(p)*Ts/2 leaves the float range (Ts = {ts})")
    # formed in place: one (N, n, n) stack, no temporary A Ts/2 beside it
    M = A * (ts / 2.0)
    np.subtract(np.eye(A.shape[-1]), M, out=M)
    with np.errstate(over="ignore"):
        det = np.linalg.det(M)
    clear = np.abs(det) >= SINGULAR_RTOL * max(1.0, scale)
    return M, det, ~clear if clear.all() else singular_rows(det, A, ts)


def _refuse(A, ts, points=None, run=None, first=0):
    """``M = I - A Ts/2`` from :func:`_judge`, of one A or a stack, else the
    :class:`WellposednessError` naming a stack's first singular step, and
    with ``points`` its p (``points``, ``run`` and ``first`` as in :func:`phi`)."""
    M, det, bad = _judge(A, ts)
    if not bad.any():
        return M
    step = p = None
    if A.ndim == 3:
        k = int(np.argmax(bad))
        step = k if run is None else int(np.searchsorted(run, k))
        A, det, p = A[k], det[k], None if points is None else points[step]
        step += first
    where = "" if p is None else f"step k={step}, p={list(map(float, p))}: "
    raise WellposednessError(
        f"{where}|det(I - A(p)*Ts/2)| = {abs(float(det)):.3e} is numerically "
        f"zero (Ts = {ts})", A_p=A, ts=ts, step_index=step, p=p)


def phi(A_p: np.ndarray, cfg: DiscretizationConfig, points=None, run=None,
        first=0) -> np.ndarray:
    """Resolvent ``Phi = (I - A_p * Ts/2)^-1`` via ``np.linalg.inv``
    (LAPACK's LU solve against the identity).

    Parameters
    ----------
    A_p : ndarray, shape (n_x, n_x) or (m, n_x, n_x)
        Frozen state matrix A(p), or one per scheduling point of a stack;
        a stack is inverted in one batched call.
    cfg : DiscretizationConfig
    points : ndarray, shape (N, n_p), optional
        A stack's scheduling points, one per step; the error names its p.
    run : ndarray of int, shape (N,), optional
        The step map: the (nondecreasing) row holding each step's A, when a
        row stands for a run of equal steps.  Without it, row k is step k.
    first : int, optional
        Step 0's index in a longer run, from which the error counts steps.

    Returns
    -------
    ndarray
        Phi, of the shape of ``A_p``, with residual
        ``max|(I - A_p Ts/2) Phi - I| <= 1e-10``.

    Raises
    ------
    WellposednessError
        If :func:`singular_rows` calls ``I - A_p Ts/2`` singular.  For a
        stack it reports the first step of the first singular row, as the
        error's ``step_index`` and, with ``points``, its ``p``.
    NonFiniteError
        If ``I - A_p Ts/2`` leaves the float range.
    """
    return np.linalg.inv(_refuse(np.asarray(A_p, dtype=float), cfg.ts, points, run, first))


def _step_blocks(A, B, cfg: DiscretizationConfig, points=None, run=None, first=0):
    """Axi - I = Ts Phi A, Bxi = 2 Phi B and Xxi = Ts/2 Phi of one (A, B)
    pair, or of each of an (N, n, n) and (N, n, m) stack, from one
    :func:`phi` call, to which ``points``, ``run`` and ``first`` go.  With
    the step map ``run``, A has a row per run and B per step: Phi and Ts Phi
    A are formed per run, then gathered to the steps."""
    Phi = phi(A, cfg, points, run, first)
    DA = Phi @ A
    DA *= cfg.ts
    if run is not None:
        Phi, DA = Phi[run], DA[run]
    PhiB = Phi @ B
    PhiB *= 2.0
    Phi *= cfg.ts / 2.0
    return DA, PhiB, Phi


def _matrices_at(model: LpvStateSpace, p):
    """``model.matrices_at(p)``, after :func:`_check_stack` of its largest matrix."""
    rows, cols = max(model.n_x, model.n_y), max(model.n_x, model.n_u)
    _check_stack(8 * rows * cols, f"a frozen {rows} x {cols} matrix")
    return model.matrices_at(p)


def _pack_step(A_p, B_p, C_p, D_p, cfg: DiscretizationConfig) -> StepMatrices:
    """:class:`StepMatrices` of the frozen (A, B, C, D), from :func:`_step_blocks`."""
    DA, Bxi, Xxi = _step_blocks(A_p, B_p, cfg)
    Xu = Xxi @ B_p
    return StepMatrices(np.eye(A_p.shape[0]) + DA, Bxi, C_p @ Xxi, C_p @ Xu + D_p, Xxi, Xu)


def sigma_step(model: LpvStateSpace, p, cfg: DiscretizationConfig) -> StepMatrices:
    """Loop-free update blocks at scheduling point p: :func:`dt_step_matrices`
    with B = C = I and D = 0, so the input is ubar = B(p) u and the output is
    x itself.  Raises as it does: DomainError for a p outside the box, and
    WellposednessError from :func:`phi`."""
    eye = np.eye(model.n_x)
    return _pack_step(_matrices_at(model, p)[0], eye, eye, 0.0 * eye, cfg)


def dt_step_matrices(model: LpvStateSpace, p, cfg: DiscretizationConfig) -> StepMatrices:
    """Full per-step matrices: the loop-free blocks composed with B, C, D.

    The induced update is xi(k+1) = Axi xi + Bxi u, y = Cxi xi + Dxi u, and
    the physical state is reconstructed as x = Xxi xi + Xu u.
    """
    return _pack_step(*_matrices_at(model, p), cfg)


def tustin_frozen(model: LpvStateSpace, p, cfg: DiscretizationConfig) -> StepMatrices:
    """Classical Tustin blocks at frozen p, packed as :class:`StepMatrices`.

    Ad = Phi (I + A Ts/2), Bd = Phi B Ts, Cd = C Phi,
    Dd = D + C Phi B Ts/2; the stored state is x itself (Xxi = I, Xu = 0).
    """
    A_p, B_p, C_p, D_p = _matrices_at(model, p)
    Phi, eye = phi(A_p, cfg), np.eye(model.n_x)
    PhiB = Phi @ B_p
    return StepMatrices(  # Axi, Bxi, Cxi, Dxi, Xxi, Xu
        Phi @ (eye + A_p * (cfg.ts / 2.0)), PhiB * cfg.ts, C_p @ Phi,
        D_p + (C_p @ PhiB) * (cfg.ts / 2.0), eye, np.zeros_like(B_p))


@_record(eq="tuple")
class WellposednessReport:
    """Sampled evidence for the determinant condition over the box.

    ``passed`` is true iff no sampled point fell below the singularity
    threshold and the sampled determinants do not change sign.  A sign
    change proves a zero between two samples; the zero found by bisection
    is then the one entry of ``singular_points``.  ``refuted_by`` says which
    evidence failed the condition: None when it passed, ``"sample"`` or
    ``"sign_change"``.  Sampling order is
    vertices, then the row-major grid, then seeded random draws, so
    identical inputs reproduce the report bit-for-bit.
    """

    ts: float
    samples_checked: int
    min_abs_det: float
    argmin_p: tuple
    max_condition_number: float
    singular_points: tuple
    passed: bool
    refuted_by: str


def wellposedness_check(
    model: LpvStateSpace,
    cfg: DiscretizationConfig,
    grid_per_dim: int,
    random_samples: int,
    seed: int,
) -> WellposednessReport:
    """Sweep det(I - A(p) Ts/2) over box vertices, a uniform grid, and
    seeded uniform random draws.

    Records the minimum |det| and where it occurred, the largest 2-norm
    condition number of I - A(p) Ts/2, and every sampled point where
    :func:`singular_rows` calls it singular.  When none is but the
    sampled determinants take both signs, the segment between the most
    negative and the most positive sample is bisected to a singular point,
    which is reported in ``singular_points``.  A failing condition yields
    ``passed=False``; an I - A(p) Ts/2 past the float range is a NonFiniteError.

    Parameters
    ----------
    grid_per_dim : int
        Endpoint-inclusive uniform grid points per scheduling dimension, an
        integer >= 2; each count that is not is a ConfigError.
    random_samples : int
        Extra uniform draws inside the box, an integer >= 0.
    seed : int
        RNG seed, an integer >= 0; fixed seed means a bit-identical report.
    """
    grid_per_dim = _count(grid_per_dim, 2, "grid_per_dim")
    random_samples = _count(random_samples, 0, "random_samples")
    seed = _count(seed, 0, "seed")
    dom = model.domain
    count = 2**dom.n_p + grid_per_dim**dom.n_p + random_samples
    _check_stack(8 * count * model.n_x**2, f"a sweep of {_written(count)} points")
    blocks = [dom.vertices(), dom.grid(grid_per_dim)]
    if random_samples > 0:
        rng = np.random.default_rng(seed)
        blocks.append(rng.uniform(dom.lower, dom.upper, size=(random_samples, dom.n_p)))
    points = np.vstack(blocks)

    A = eval_pmatrix_many(model.A, points)
    M, det, bad = _judge(A, cfg.ts)
    absdet = np.abs(det)
    cond = np.linalg.cond(M)
    k = int(np.argmin(absdet))
    singular = [tuple(map(float, q)) for q in points[bad]]
    refuted_by = "sample" if singular else None
    if not singular and det.min() < 0.0 < det.max():
        zero = _bisect_sign_change(
            model, cfg.ts, points[np.argmin(det)], points[np.argmax(det)]
        )
        singular.append(tuple(map(float, zero)))
        refuted_by = "sign_change"
    return WellposednessReport(
        cfg.ts,  # ts
        points.shape[0],  # samples_checked
        float(absdet[k]),  # min_abs_det
        tuple(float(v) for v in points[k]),  # argmin_p
        float(np.max(cond)),  # max_condition_number
        tuple(singular),  # singular_points
        not singular,  # passed
        refuted_by,
    )


#: bisection steps of a sign-change refutation: 2**-60 of a box diagonal is
#: below the rounding of any point on it
_BISECT_STEPS = 60


def _bisect_sign_change(model, ts, neg, pos):
    """A point between ``neg`` and ``pos`` where det(I - A(p) Ts/2) is zero.

    The determinant is negative at ``neg`` and positive at ``pos``; it is
    continuous in p and the box is convex, so it has a zero on the segment
    between them, and bisection on its sign closes in on one.  Stops at the
    first midpoint that :func:`singular_rows` calls singular, or after
    ``_BISECT_STEPS`` halvings.
    """
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (neg + pos)
        A = eval_pmatrix(model.A, mid)
        _, d, bad = _judge(A, ts)
        if bad:
            break
        if d < 0.0:
            neg = mid
        else:
            pos = mid
    return mid
