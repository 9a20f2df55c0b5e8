"""Per-step discretization matrices for CT LPV models.

The bilinear (trapezoidal/Tustin-class) discretization used here keeps the
continuous-time matrices A(p), B(p), C(p), D(p) and pushes all sampling-time
dependence into a fixed integrator block plus one frozen resolvent

    Phi(p) = (I - A(p) * Ts/2)^-1,

which exists iff det(I - A(p) Ts/2) != 0.  Everything in this module is a
pure function of its arguments.  The per-point functions check p with the
model's one box guard, :func:`~lpvsim.model.check_in_box`, and evaluate
A..D with :func:`~lpvsim.model.eval_pmatrix`, the one-row case of the
batched evaluator the simulation engines use, so a frozen-p block and an
engine step at the same p start from bit-identical matrices:

* :func:`phi` -- the resolvent itself, via an LU solve, for one frozen A(p)
  or for a stack of them (one per sample of a trajectory).
* :func:`singular_rows` -- the one singularity predicate on
  det(I - A(p) Ts/2), shared by :func:`phi`, both simulation engines and
  :func:`wellposedness_check`.
* :func:`rinv_matrices` -- the parameter-independent trapezoidal integrator
  block [[I, 2I], [Ts/2 I, Ts/2 I]] acting on (xi, r x).
* :func:`sigma_step` -- the loop-free update blocks obtained by solving the
  instantaneous feedback through the integrator block in closed form (a
  function apart from its one caller, :func:`dt_step_matrices`, because
  ``perfbench/tracing.py`` wraps it by name):

      xi(k+1) = (I + Phi A Ts) xi(k) + 2 Phi ubar(k)
      x(k)    = Phi Ts/2 xi(k) + Phi Ts/2 ubar(k),     ubar = B(p) u

* :func:`dt_step_matrices` -- the blocks above composed with B, C, D into a
  single-state-update form.
* :func:`tustin_frozen` -- the classical Tustin state-space blocks at frozen
  p; related to the former by the constant similarity xi = (2/Ts) x.
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
from .model import LpvStateSpace, check_in_box, eval_pmatrix, eval_pmatrix_many

__all__ = [
    "DiscretizationConfig",
    "SigmaRealization",
    "StepMatrices",
    "WellposednessReport",
    "phi",
    "singular_rows",
    "sigma_step",
    "dt_step_matrices",
    "tustin_frozen",
    "rinv_matrices",
    "wellposedness_check",
]

#: |det(I - A Ts/2)| below SINGULAR_RTOL * max(1, max|A| * Ts/2) is singular.
SINGULAR_RTOL = 1e-12


def _read_only(a):
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


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
class SigmaRealization:
    """Loop-free update blocks at one frozen scheduling point.

    [xi(k+1); x(k)] = [[M11, M12], [M21, M22]] [xi(k); ubar(k)] with
    ubar(k) = B(p(k)) u(k).  M21 and M22 are the same array (both equal
    Phi * Ts/2, computed once).
    """

    M11: np.ndarray  # I + Phi A Ts
    M12: np.ndarray  # 2 Phi
    M21: np.ndarray  # Phi Ts/2
    M22: np.ndarray  # Phi Ts/2 (same array as M21)


@dataclass(frozen=True, eq=False)
class StepMatrices:
    """One-step update, output, and state-reconstruction matrices.

    xi(k+1) = Axi xi(k) + Bxi u(k)
    y(k)    = Cxi xi(k) + Dxi u(k)
    x(k)    = Xxi xi(k) + Xu  u(k)

    :func:`dt_step_matrices` stores xi; :func:`tustin_frozen` stores x
    itself (Xxi = I, Xu = 0).  The engines do not step these frozen blocks:
    they serve the frozen-p checks (similarity, frequency response).
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
    or an (m,) array of ``max(1, max|A| * Ts/2)``.
    """
    return np.maximum(1.0, np.max(np.abs(A), axis=(-2, -1)) * (ts / 2.0))


def singular_rows(det, A, ts: float):
    """True where ``|det(I - A Ts/2)| < SINGULAR_RTOL * det_scale(A, Ts)``.

    ``det`` is the determinant of I - A Ts/2 (or of any matrix with the same
    determinant) for one matrix A or for each matrix of a stack; the result
    has the shape of ``det``.
    """
    return np.abs(det) < SINGULAR_RTOL * det_scale(A, ts)


def phi(A_p: np.ndarray, cfg: DiscretizationConfig) -> np.ndarray:
    """Resolvent ``Phi = (I - A_p * Ts/2)^-1`` via a factorization solve.

    Parameters
    ----------
    A_p : ndarray, shape (n_x, n_x) or (m, n_x, n_x)
        Frozen state matrix A(p), or one per scheduling point of a stack;
        a stack is factored in one batched solve.
    cfg : DiscretizationConfig

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
        error's ``step_index``.
    """
    A_p = np.asarray(A_p, dtype=float)
    eye = np.eye(A_p.shape[-1])
    M = eye - A_p * (cfg.ts / 2.0)
    d = np.linalg.det(M)
    bad = singular_rows(d, A_p, cfg.ts)
    if np.any(bad):
        k = int(np.argmax(bad)) if A_p.ndim == 3 else None
        A_bad, d_bad = (A_p, d) if k is None else (A_p[k], d[k])
        raise WellposednessError(
            f"|det(I - A(p)*Ts/2)| = {abs(float(d_bad)):.3e} is numerically "
            f"zero (Ts = {cfg.ts})",
            A_p=A_bad,
            ts=cfg.ts,
            step_index=k,
        )
    return np.linalg.solve(M, np.broadcast_to(eye, M.shape))


def sigma_step(model: LpvStateSpace, p, cfg: DiscretizationConfig) -> SigmaRealization:
    """Loop-free update blocks of the discretization at scheduling point p.

    Raises
    ------
    DomainError
        If p lies outside the model's scheduling box.
    WellposednessError
        Propagated from :func:`phi`.
    """
    check_in_box(model.domain, p)
    A_p = eval_pmatrix(model.A, p)
    Phi = phi(A_p, cfg)
    half = _read_only(Phi * (cfg.ts / 2.0))
    return SigmaRealization(
        M11=_read_only(np.eye(model.n_x) + (Phi @ A_p) * cfg.ts),
        M12=_read_only(2.0 * Phi),
        M21=half,
        M22=half,
    )


def dt_step_matrices(model: LpvStateSpace, p, cfg: DiscretizationConfig) -> StepMatrices:
    """Full per-step matrices: the loop-free blocks composed with B, C, D.

    The induced update is xi(k+1) = Axi xi + Bxi u, y = Cxi xi + Dxi u, and
    the physical state is reconstructed as x = Xxi xi + Xu u.
    """
    sig = sigma_step(model, p, cfg)
    B_p = eval_pmatrix(model.B, p)
    C_p = eval_pmatrix(model.C, p)
    D_p = eval_pmatrix(model.D, p)
    Xu = sig.M22 @ B_p
    return StepMatrices(
        Axi=sig.M11,
        Bxi=_read_only(sig.M12 @ B_p),
        Cxi=_read_only(C_p @ sig.M21),
        Dxi=_read_only(C_p @ Xu + D_p),
        Xxi=sig.M21,
        Xu=_read_only(Xu),
    )


def tustin_frozen(model: LpvStateSpace, p, cfg: DiscretizationConfig) -> StepMatrices:
    """Classical Tustin blocks at frozen p, packed as :class:`StepMatrices`.

    Ad = Phi (I + A Ts/2), Bd = Phi B Ts, Cd = C Phi,
    Dd = D + C Phi B Ts/2; the stored state is x itself (Xxi = I, Xu = 0).
    """
    check_in_box(model.domain, p)
    A_p, B_p, C_p, D_p = model.matrices_at(p)
    Phi = phi(A_p, cfg)
    n = model.n_x
    PhiB = Phi @ B_p
    return StepMatrices(
        Axi=_read_only(Phi @ (np.eye(n) + A_p * (cfg.ts / 2.0))),
        Bxi=_read_only(PhiB * cfg.ts),
        Cxi=_read_only(C_p @ Phi),
        Dxi=_read_only(D_p + (C_p @ PhiB) * (cfg.ts / 2.0)),
        Xxi=_read_only(np.eye(n)),
        Xu=_read_only(np.zeros((n, model.n_u))),
    )


def rinv_matrices(n_x: int, cfg: DiscretizationConfig) -> np.ndarray:
    """Trapezoidal integrator block ``[[I, 2I], [Ts/2 I, Ts/2 I]]``.

    Acts on the stacked vector (xi(k), r x(k)) and returns
    (xi(k+1), x(k)); identity blocks have size ``n_x``.  No engine steps
    it: the loop oracle's top row (2/Ts) x - r x = xi is this block's
    second row solved for xi, and its first row is the oracle's add.
    """
    if n_x < 1:
        raise ConfigError(f"n_x must be >= 1, got {n_x}")
    eye = np.eye(n_x)
    half = (cfg.ts / 2.0) * eye
    return np.block([[eye, 2.0 * eye], [half, half]])


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
    dom = model.domain
    blocks = [dom.vertices(), dom.grid(grid_per_dim)]
    if random_samples > 0:
        rng = np.random.default_rng(seed)
        blocks.append(rng.uniform(dom.lower, dom.upper, size=(random_samples, dom.n_p)))
    points = np.vstack(blocks)

    A = eval_pmatrix_many(model.A, points)
    M = np.eye(model.n_x) - A * (cfg.ts / 2.0)
    det = np.linalg.det(M)
    absdet = np.abs(det)
    s = np.linalg.svd(M, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(s[:, -1] == 0.0, np.inf, s[:, 0] / s[:, -1])
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
    eye = np.eye(model.n_x)
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (neg + pos)
        A = eval_pmatrix(model.A, mid)
        d = np.linalg.det(eye - A * (ts / 2.0))
        if singular_rows(d, A, ts):
            break
        if d < 0.0:
            neg = mid
        else:
            pos = mid
    return mid
