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
  A(p) or for a stack of them (one per sample of a trajectory).
* :func:`singular_rows` -- the one singularity predicate on
  det(I - A(p) Ts/2), shared by :func:`phi`, both simulation engines and
  :func:`wellposedness_check`.
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
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, WellposednessError
from .model import LpvStateSpace, _frozen_array, eval_pmatrix, eval_pmatrix_many

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

#: |det(I - A Ts/2)| below SINGULAR_RTOL * max(1, max|A| * Ts/2) is singular.
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


@dataclass(frozen=True)
class DiscretizationConfig:
    """Sampling configuration; ``ts`` is the sampling time in seconds."""

    ts: float

    def __post_init__(self):
        if not (0.0 < float(self.ts) < math.inf):
            raise ConfigError(
                f"sampling time must be positive and finite, got {self.ts}"
            )
        object.__setattr__(self, "ts", float(self.ts))


@dataclass(frozen=True, eq=False)
class StepMatrices:
    """One-step update, output, and state-reconstruction matrices.

    xi(k+1) = Axi xi(k) + Bxi u(k)
    y(k)    = Cxi xi(k) + Dxi u(k)
    x(k)    = Xxi xi(k) + Xu  u(k)

    The one result type of the three frozen-point builders.
    :func:`dt_step_matrices` stores xi; :func:`sigma_step` is its B = C = I,
    D = 0 case, driven by ubar = B(p) u with y = x; :func:`tustin_frozen`
    stores x itself (Xxi = I, Xu = 0).  :func:`~lpvsim.simulate.simulate_dt`
    steps the first's blocks for all samples at once; the loop oracle, none.
    """

    Axi: np.ndarray
    Bxi: np.ndarray
    Cxi: np.ndarray
    Dxi: np.ndarray
    Xxi: np.ndarray
    Xu: np.ndarray


def det_scale(A, ts: float):
    """Magnitude reference for the singularity threshold of I - A*Ts/2.

    ``A`` is one matrix (n, n) or a stack (m, n, n); the result is a scalar
    or an (m,) array of ``max(1, max|A| * Ts/2)``.  max|A| is taken as
    ``max(max A, -min A)``, equal bit for bit and without an |A| copy.
    """
    axes = (-2, -1)
    peak = np.maximum(np.max(A, axis=axes), -np.min(A, axis=axes))
    return np.maximum(1.0, peak * (ts / 2.0))


def singular_rows(det, A, ts: float):
    """True where ``|det(I - A Ts/2)| < SINGULAR_RTOL * det_scale(A, Ts)``.

    ``det`` is the determinant of I - A Ts/2 (or of any matrix with the same
    determinant) for one matrix A or for each matrix of a stack; the result
    has the shape of ``det``.
    """
    return np.abs(det) < SINGULAR_RTOL * det_scale(A, ts)


def _resolvent_det(A, ts: float):
    """``M = I - A Ts/2`` and ``det(M)``, for one matrix A or a stack.  At a
    huge Ts det overflows to inf, which is far from singular: no warning."""
    M = np.eye(A.shape[-1]) - A * (ts / 2.0)
    with np.errstate(over="ignore"):
        return M, np.linalg.det(M)


def phi(A_p: np.ndarray, cfg: DiscretizationConfig, points=None) -> np.ndarray:
    """Resolvent ``Phi = (I - A_p * Ts/2)^-1`` via ``np.linalg.inv``
    (LAPACK's LU solve against the identity).

    Parameters
    ----------
    A_p : ndarray, shape (n_x, n_x) or (m, n_x, n_x)
        Frozen state matrix A(p), or one per scheduling point of a stack;
        a stack is inverted in one batched call.
    cfg : DiscretizationConfig
    points : ndarray, shape (m, n_p), optional
        A stack's scheduling points; the error then names its step's p.

    Returns
    -------
    ndarray
        Phi, of the shape of ``A_p``, with residual
        ``max|(I - A_p Ts/2) Phi - I| <= 1e-10``.

    Raises
    ------
    WellposednessError
        If ``|det(I - A_p Ts/2)|`` falls below ``1e-12 * max(1, |A_p| Ts/2)``.
        For a stack it reports the first singular matrix, whose index is the
        error's ``step_index``; with ``points``, it is also its ``p``.
    """
    A_p = np.asarray(A_p, dtype=float)
    M, d = _resolvent_det(A_p, cfg.ts)
    bad = singular_rows(d, A_p, cfg.ts)
    if np.any(bad):
        k = int(np.argmax(bad)) if A_p.ndim == 3 else None
        A_bad, d_bad = (A_p, d) if k is None else (A_p[k], d[k])
        p_bad = None if points is None else points[k]
        where = "" if p_bad is None else f"step k={k}, p={list(map(float, p_bad))}: "
        raise WellposednessError(
            f"{where}|det(I - A(p)*Ts/2)| = {abs(float(d_bad)):.3e} is numerically "
            f"zero (Ts = {cfg.ts})",
            A_p=A_bad,
            ts=cfg.ts,
            step_index=k,
            p=p_bad,
        )
    return np.linalg.inv(M)


def _step_blocks(A, B, cfg: DiscretizationConfig, points=None):
    """Axi - I = Ts Phi A, Bxi = 2 Phi B and Xxi = Ts/2 Phi of one (A, B)
    pair, or of each of an (N, n, n) and (N, n, m) stack, from one
    :func:`phi` call, to which ``points`` is passed on."""
    Phi = phi(A, cfg, points)
    DA = Phi @ A
    DA *= cfg.ts
    PhiB = Phi @ B
    PhiB *= 2.0
    Phi *= cfg.ts / 2.0
    return DA, PhiB, Phi


def _pack_step(A_p, B_p, C_p, D_p, cfg: DiscretizationConfig) -> StepMatrices:
    """Read-only :class:`StepMatrices` of the frozen (A, B, C, D), from one
    :func:`_step_blocks` call."""
    DA, Bxi, Xxi = _step_blocks(A_p, B_p, cfg)
    Xu = Xxi @ B_p
    return StepMatrices(
        Axi=_frozen_array(np.eye(A_p.shape[0]) + DA),
        Bxi=_frozen_array(Bxi),
        Cxi=_frozen_array(C_p @ Xxi),
        Dxi=_frozen_array(C_p @ Xu + D_p),
        Xxi=_frozen_array(Xxi),
        Xu=_frozen_array(Xu),
    )


def sigma_step(model: LpvStateSpace, p, cfg: DiscretizationConfig) -> StepMatrices:
    """Loop-free update blocks at scheduling point p: :func:`dt_step_matrices`
    with B = C = I and D = 0, so the input is ubar = B(p) u and the output is
    x itself.  Raises as it does: DomainError for a p outside the box, and
    WellposednessError from :func:`phi`."""
    eye = np.eye(model.n_x)
    return _pack_step(model.matrices_at(p)[0], eye, eye, 0.0 * eye, cfg)


def dt_step_matrices(model: LpvStateSpace, p, cfg: DiscretizationConfig) -> StepMatrices:
    """Full per-step matrices: the loop-free blocks composed with B, C, D.

    The induced update is xi(k+1) = Axi xi + Bxi u, y = Cxi xi + Dxi u, and
    the physical state is reconstructed as x = Xxi xi + Xu u.
    """
    return _pack_step(*model.matrices_at(p), cfg)


def tustin_frozen(model: LpvStateSpace, p, cfg: DiscretizationConfig) -> StepMatrices:
    """Classical Tustin blocks at frozen p, packed as :class:`StepMatrices`.

    Ad = Phi (I + A Ts/2), Bd = Phi B Ts, Cd = C Phi,
    Dd = D + C Phi B Ts/2; the stored state is x itself (Xxi = I, Xu = 0).
    """
    A_p, B_p, C_p, D_p = model.matrices_at(p)
    Phi = phi(A_p, cfg)
    n = model.n_x
    PhiB = Phi @ B_p
    return StepMatrices(
        Axi=_frozen_array(Phi @ (np.eye(n) + A_p * (cfg.ts / 2.0))),
        Bxi=_frozen_array(PhiB * cfg.ts),
        Cxi=_frozen_array(C_p @ Phi),
        Dxi=_frozen_array(D_p + (C_p @ PhiB) * (cfg.ts / 2.0)),
        Xxi=_frozen_array(np.eye(n)),
        Xu=_frozen_array(np.zeros((n, model.n_u))),
    )


@dataclass(frozen=True)
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
    condition number of I - A(p) Ts/2, and every sampled point whose |det|
    fell below ``1e-12 * max(1, max|A(p)| * Ts/2)``.  When none did but
    the sampled determinants take both signs, the segment between the most
    negative and the most positive sample is bisected to a singular point,
    which is reported in ``singular_points``.  A failing condition yields
    ``passed=False``, never an exception.

    Parameters
    ----------
    grid_per_dim : int
        Endpoint-inclusive uniform grid points per scheduling dimension
        (>= 2).
    random_samples : int
        Extra uniform draws inside the box (>= 0).
    seed : int
        RNG seed; fixed seed means a bit-identical report.
    """
    if grid_per_dim < 2:
        raise ConfigError(f"grid_per_dim must be >= 2, got {grid_per_dim}")
    if random_samples < 0:
        raise ConfigError(f"random_samples must be >= 0, got {random_samples}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    dom = model.domain
    count = 2**dom.n_p + grid_per_dim**dom.n_p + random_samples
    _check_stack(8 * count * model.n_x**2, f"a sweep of {count} points")
    blocks = [dom.vertices(), dom.grid(grid_per_dim)]
    if random_samples > 0:
        rng = np.random.default_rng(seed)
        blocks.append(rng.uniform(dom.lower, dom.upper, size=(random_samples, dom.n_p)))
    points = np.vstack(blocks)

    A = eval_pmatrix_many(model.A, points)
    M, det = _resolvent_det(A, cfg.ts)
    absdet = np.abs(det)
    cond = np.linalg.cond(M)
    k = int(np.argmin(absdet))
    singular = [tuple(map(float, q)) for q in points[singular_rows(det, A, cfg.ts)]]
    refuted_by = "sample" if singular else None
    if not singular and det.min() < 0.0 < det.max():
        zero = _bisect_sign_change(
            model, cfg.ts, points[np.argmin(det)], points[np.argmax(det)]
        )
        singular.append(tuple(map(float, zero)))
        refuted_by = "sign_change"
    return WellposednessReport(
        ts=cfg.ts,
        samples_checked=points.shape[0],
        min_abs_det=float(absdet[k]),
        argmin_p=tuple(float(v) for v in points[k]),
        max_condition_number=float(np.max(cond)),
        singular_points=tuple(singular),
        passed=not singular,
        refuted_by=refuted_by,
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
        _, d = _resolvent_det(A, ts)
        if singular_rows(d, A, ts):
            break
        if d < 0.0:
            neg = mid
        else:
            pos = mid
    return mid
