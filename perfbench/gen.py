"""Seeded input generation for the benchmark, using numpy only.

Nothing here imports lpvsim: models are written in the documented JSON
format directly, well-posedness is rejection-sampled with this module's own
``det(I - A(p) Ts/2)`` test, and trajectory tables and signal specs are
rendered as text.  The seed picks coefficients and signal values only; every
shape (state size, scheduling size, table length, sampling time) is fixed by
the workload, so any seed carries the same amount of work.
"""

import hashlib
import json
import pathlib

import numpy as np

#: (n_x, n_p) of the pool's models, one input each; job i uses input i % 8
SHAPES = tuple((n_x, n_p) for n_x in (1, 2, 3, 4) for n_p in (1, 2))

SIM_TS = 0.05
SIM_SAMPLES = 320
PIECEWISE_LEVELS = 3
CONV_TS = (0.2, 0.1, 0.05)
CONV_T_END = 2.0
CONV_OVERSAMPLE = 20
FREQ_TS = 0.1
CHECK_GRID = 11
CHECK_SAMPLES = 100
#: every EXPECTED_FAIL_EVERY-th freq job checks a model singular inside its box
EXPECTED_FAIL_EVERY = 4

#: the fixed option values each workload's CLI calls pass, by workload; they
#: go into the input digest beside the generated files
OPTIONS = {
    "scheduled": {"ts": SIM_TS},
    "piecewise": {"ts": SIM_TS},
    "converge": {"t_end": CONV_T_END, "ts_list": CONV_TS, "oversample": CONV_OVERSAMPLE},
    "freq": {"ts": FREQ_TS, "grid": CHECK_GRID, "samples": CHECK_SAMPLES},
}

_DET_MARGIN = 0.2


def _fmt(v):
    return repr(float(v))


def _vec(values):
    return ",".join(_fmt(v) for v in values)


class AffineModel:
    """``M(p) = M0 + sum_i p_i M_i`` for M in A, B, C, D over a box."""

    def __init__(self, lower, upper, terms):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        self.terms = terms  # name -> array (1 + n_p, rows, cols)

    @property
    def n_x(self):
        return self.terms["A"].shape[1]

    @property
    def n_p(self):
        return self.lower.size

    def at(self, name, points):
        """Stack ``M(p_k)`` for points of shape (m, n_p)."""
        t = self.terms[name]
        return t[0] + np.einsum("ki,iab->kab", np.asarray(points, float), t[1:])

    def to_json(self):
        n_p = self.n_p
        data = {
            "nx": self.n_x,
            "nu": self.terms["B"].shape[2],
            "ny": self.terms["C"].shape[1],
            "np": n_p,
            "domain": {"lower": self.lower.tolist(), "upper": self.upper.tolist()},
        }
        for name in ("A", "B", "C", "D"):
            data[name] = [
                {"exponents": [int(j == i) for j in range(n_p)],
                 "coeff": self.terms[name][i + 1].tolist()}
                for i in range(-1, n_p)
            ]
        return json.dumps(data, indent=1) + "\n"


def _box_samples(rng, lower, upper, per_dim=5, extra=32):
    axes = [np.linspace(lo, hi, per_dim) for lo, hi in zip(lower, upper)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, lower.size)
    return np.vstack([grid, rng.uniform(lower, upper, size=(extra, lower.size))])


def min_abs_det(model, ts, points):
    A = model.at("A", points)
    return float(np.min(np.abs(np.linalg.det(np.eye(model.n_x) - A * (ts / 2.0)))))


def affine_model(rng, n_x, n_p, ts):
    """A random affine model whose ``I - A(p) Ts/2`` stays far from singular.

    ``A(p)`` is a damped diagonal plus small couplings, so the state stays
    bounded over the simulated horizons; draws whose sampled minimum of
    ``|det(I - A(p) Ts/2)|`` falls below a margin are rejected.
    """
    n_io = min(n_x, 2)
    while True:
        lower = rng.uniform(0.5, 1.0, n_p)
        upper = lower + rng.uniform(1.0, 2.0, n_p)
        width = upper - lower
        A = np.empty((1 + n_p, n_x, n_x))
        A[0] = -np.diag(rng.uniform(0.5, 3.0, n_x)) + 0.4 * rng.standard_normal((n_x, n_x))
        for i in range(n_p):
            A[1 + i] = 0.4 * rng.standard_normal((n_x, n_x)) / width[i]
            # keep the midpoint matrix equal to A[0]'s damping
            A[0] -= A[1 + i] * (lower[i] + upper[i]) / 2.0
        terms = {
            "A": A,
            "B": rng.standard_normal((1 + n_p, n_x, n_io)) * 0.5,
            "C": rng.standard_normal((1 + n_p, n_io, n_x)) * 0.5,
            "D": rng.standard_normal((1 + n_p, n_io, n_io)) * 0.1,
        }
        model = AffineModel(lower, upper, terms)
        if min_abs_det(model, ts, _box_samples(rng, lower, upper)) >= _DET_MARGIN:
            return model


def singular_model(rng, ts):
    """Scalar ``A(p) = a0 + c p`` with ``1 - A(p*) Ts/2 = 0`` at a grid point.

    The box is ``[0, 10 m]`` so the ``CHECK_GRID``-point sweep lands on the
    integers ``0, m, 2m, ...``; ``a0``, ``c`` and ``p*`` are small multiples
    of 1/2, so ``A(p*) = 2/Ts`` holds exactly in floating point.
    """
    m = int(rng.integers(1, 5))
    p_star = m * int(rng.integers(1, CHECK_GRID - 1))
    c = 0.5 * int(rng.integers(1, 9))
    a0 = 2.0 / ts - c * p_star
    terms = {
        "A": np.array([[[a0]], [[c]]]),
        "B": np.array([[[1.0 + rng.uniform()]], [[0.0]]]),
        "C": np.array([[[1.0 + rng.uniform()]], [[0.0]]]),
        "D": np.zeros((2, 1, 1)),
    }
    return AffineModel([0.0], [10.0 * m], terms)


def traj_table(p, u, ts):
    """Input table ``k,t,p1..,u1..`` with ``t = k*Ts`` and exact floats."""
    n_p, n_u = p.shape[1], u.shape[1]
    lines = [",".join(["k", "t"] + [f"p{i + 1}" for i in range(n_p)]
                      + [f"u{i + 1}" for i in range(n_u)])]
    for k in range(p.shape[0]):
        lines.append(f"{k},{_fmt(k * ts)},{_vec(p[k])},{_vec(u[k])}")
    return "\n".join(lines) + "\n"


def _inputs(rng, n, n_u, ts):
    t = np.arange(n) * ts
    f = rng.uniform(0.2, 1.0, n_u)
    phase = rng.uniform(0.0, 2 * np.pi, n_u)
    return np.sin(2 * np.pi * f * t[:, None] + phase) + 0.2 * rng.standard_normal((n, n_u))


def scheduled_p(rng, model, n):
    """A new scheduling point at every sample: a slow sine plus jitter."""
    lo, hi = model.lower, model.upper
    t = np.arange(n) * SIM_TS
    f = rng.uniform(0.1, 0.5, lo.size)
    wave = 0.5 + 0.4 * np.sin(2 * np.pi * f * t[:, None] + rng.uniform(0, 6, lo.size))
    wave += rng.uniform(-0.05, 0.05, (n, lo.size))
    return lo + (hi - lo) * np.clip(wave, 0.0, 1.0)


def piecewise_p(rng, model, n):
    """``PIECEWISE_LEVELS`` distinct points, each held for a long stretch."""
    levels = rng.uniform(model.lower, model.upper, (PIECEWISE_LEVELS, model.n_p))
    return np.repeat(levels, -(-n // PIECEWISE_LEVELS), axis=0)[:n]


def sine_spec(amp, f, phase, offset):
    return f"sine:amp={_fmt(amp)},f={_fmt(f)},phase={_fmt(phase)},offset={_fmt(offset)}"


class Inputs:
    """Files of one workload's input pool, written under ``root``."""

    def __init__(self, root):
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._digest = hashlib.sha256()
        self.jobs = []

    def write(self, name, text):
        path = self.root / name
        data = text.encode("utf-8")
        path.write_bytes(data)
        self._digest.update(name.encode() + b"\0" + data + b"\0")
        return str(path)

    def note(self, name, value):
        """Fold a non-file input (an option value) into the digest."""
        self._digest.update(f"{name}={value}\0".encode())
        return value

    def digest(self):
        return self._digest.hexdigest()


def _sim_pool(inputs, rng, schedule):
    for tag, (n_x, n_p) in enumerate(SHAPES):
        model = affine_model(rng, n_x, n_p, SIM_TS)
        n_u = model.terms["B"].shape[2]
        p = schedule(rng, model, SIM_SAMPLES)
        u = _inputs(rng, SIM_SAMPLES, n_u, SIM_TS)
        x0 = rng.uniform(-1.0, 1.0, n_x)
        inputs.jobs.append({
            "model": model,
            "model_path": inputs.write(f"model-{tag}.json", model.to_json()),
            "traj_path": inputs.write(f"traj-{tag}.csv", traj_table(p, u, SIM_TS)),
            "p": p, "u": u,
            "x0": inputs.note(f"x0-{tag}", _vec(x0)),
            "out": str(inputs.root / f"out-{tag}.csv"),
            "cmp": str(inputs.root / f"cmp-{tag}.json"),
        })


def _converge_pool(inputs, rng):
    for tag, (n_x, n_p) in enumerate(SHAPES):
        model = affine_model(rng, n_x, n_p, CONV_TS[0])
        mid = (model.lower + model.upper) / 2.0
        half = (model.upper - model.lower) / 2.0
        p_specs = [
            sine_spec(0.8 * half[i], rng.uniform(0.2, 0.5), rng.uniform(0, 6), mid[i])
            for i in range(n_p)
        ]
        u_specs = [
            sine_spec(1.0, rng.uniform(0.2, 0.8), rng.uniform(0, 6), 0.0)
            for _ in range(model.terms["B"].shape[2])
        ]
        x0 = rng.uniform(-1.0, 1.0, n_x)
        inputs.jobs.append({
            "model_path": inputs.write(f"model-{tag}.json", model.to_json()),
            "p_specs": [inputs.note(f"p-{tag}-{i}", x) for i, x in enumerate(p_specs)],
            "u_specs": [inputs.note(f"u-{tag}-{i}", x) for i, x in enumerate(u_specs)],
            "x0": inputs.note(f"x0-{tag}", _vec(x0)),
            "ts_list": _vec(CONV_TS),
            "out": str(inputs.root / f"conv-{tag}.txt"),
        })


def _freq_pool(inputs, rng):
    for tag, (n_x, n_p) in enumerate(SHAPES):
        model = affine_model(rng, n_x, n_p, FREQ_TS)
        p = rng.uniform(model.lower, model.upper)
        job = {
            "model_path": inputs.write(f"model-{tag}.json", model.to_json()),
            "p": inputs.note(f"p-{tag}", _vec(p)),
            "prefix": str(inputs.root / f"fr-{tag}"),
            "disc": str(inputs.root / f"disc-{tag}.json"),
            "check": str(inputs.root / f"check-{tag}.json"),
            "check_seed": inputs.note(f"seed-{tag}", str(int(rng.integers(0, 2**31)))),
            "expect_singular": tag % EXPECTED_FAIL_EVERY == EXPECTED_FAIL_EVERY - 1,
        }
        if job["expect_singular"]:
            job["check_model_path"] = inputs.write(
                f"singular-{tag}.json", singular_model(rng, FREQ_TS).to_json()
            )
        else:
            job["check_model_path"] = job["model_path"]
        inputs.jobs.append(job)


def generate(workload, seed, root):
    """Write the input pool of ``workload`` for ``seed`` under ``root``."""
    rng = np.random.default_rng([seed, sum(map(ord, workload))])
    inputs = Inputs(root)
    for name, value in OPTIONS.get(workload, {}).items():
        inputs.note(name, repr(value))
    if workload == "scheduled":
        _sim_pool(inputs, rng, scheduled_p)
    elif workload == "piecewise":
        _sim_pool(inputs, rng, piecewise_p)
    elif workload == "converge":
        _converge_pool(inputs, rng)
    elif workload == "freq":
        _freq_pool(inputs, rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs
