"""Span tracing of lpvsim's public functions, installed from outside.

``Tracer.install`` rebinds each function in ``LAYERS`` in every loaded
``lpvsim.*`` namespace that holds it (``lpvsim.simulate.eval_pmatrix`` as
well as ``lpvsim.model.eval_pmatrix``) to a wrapper that records one span
per call: function, start, end, parent span, job id, a work count and
whether it raised.  Counts are derived from arguments and return values
only.  Spans stay in memory; ``per_layer`` turns them into the per-layer
metrics and ``write`` dumps them once the run is over.  The wrappers cost
far more than the cheapest functions they wrap, so no end-to-end number
may come from a traced run.
"""

import functools
import sys
import time


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _one(args, kwargs, result):
    return 1


def _text_rows(args, kwargs, result):
    return result.count("\n") - 1


def _rows(args, kwargs, result):
    return result.shape[0]


def _steps(args, kwargs, result):
    return _arg(args, kwargs, 2, "traj").n_steps


def _n_steps(args, kwargs, result):
    return result.n_steps


def _points(args, kwargs, result):
    return len(result.omegas)


#: module -> [(function, work count from (args, kwargs, result), reported stats)]
#: A function that reports ``incl_ms`` has an inclusive unit cost; the others
#: have self-time unit costs.
LAYERS = {
    "model": [
        ("eval_pmatrix", _one, ("calls", "self_ms", "us_per_call")),
        ("eval_pmatrix_many", _rows, ("rows", "self_ms", "us_per_row")),
        ("parse_model", _one, ("self_ms",)),
    ],
    "discretize": [
        ("dt_step_matrices", _one, ("calls", "incl_ms", "us_per_call")),
        ("sigma_step", _one, ("self_ms",)),
        ("phi", _one, ("calls", "self_ms")),
        ("tustin_frozen", _one, ("self_ms",)),
        ("wellposedness_check", lambda a, k, r: r.samples_checked,
         ("points", "self_ms", "us_per_point")),
    ],
    "simulate": [
        ("simulate_dt", _steps, ("steps", "self_ms", "us_per_step")),
        ("simulate_dt_loop_oracle", _steps, ("steps", "self_ms", "us_per_step")),
        ("simulate_ct_reference",
         lambda a, k, r: (r.n_steps - 1) * int(_arg(a, k, 3, "oversample", 50)),
         ("substeps", "self_ms", "us_per_substep")),
        ("read_trajectory_csv", _n_steps, ("rows", "self_ms", "us_per_row")),
        ("write_trajectory_csv", _text_rows, ("rows", "bytes", "self_ms", "us_per_row")),
        ("sample_scenario", _n_steps, ("self_ms",)),
    ],
    "analyze": [
        ("freqresp_ct", _points, ("points", "self_ms", "us_per_point")),
        ("freqresp_dt", _points, ("points", "self_ms", "us_per_point")),
        ("warping_residual", lambda a, k, r: len(_arg(a, k, 3, "omegas")),
         ("points", "self_ms", "us_per_point")),
        ("frequency_response_csv", _text_rows, ("rows", "self_ms")),
        ("compare_traj", _one, ("self_ms",)),
        ("convergence_order", _one, ("self_ms",)),
    ],
    "cli": [
        ("main", _one, ("calls", "self_ms", "ms_per_call")),
    ],
}

_FUNCTIONS = [(f"{m}.{fn}", counter, stats)
              for m, fns in LAYERS.items() for fn, counter, stats in fns]


def _unit(stat):
    if stat.startswith("us_per_"):
        return "us"
    if stat.endswith("_ms") or stat == "ms_per_call":
        return "ms"
    return "B" if stat == "bytes" else "count"


#: every metric a traced run reports, as (name, unit)
PER_LAYER = (
    [(f"{key}.{stat}", _unit(stat)) for key, _, stats in _FUNCTIONS for stat in stats]
    + [("discretize.factor_ratio", "ratio")]
    + [(f"{key}.errors", "count") for key, _, _ in _FUNCTIONS]
    + [("trace.overhead_ratio", "ratio")]
)


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.names = [key for key, _, _ in _FUNCTIONS]
        # (function index, start ns, end ns, parent span or -1, job, count, bytes, raised)
        self.spans = []
        self.job = -1
        self._stack = []
        self._undo = []

    def _wrap(self, index, fn, counter, count_bytes):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            me = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[me] = (index, start, clock(), parent, self.job, 0, 0, 1)
                raise
            finally:
                stack.pop()
            end = clock()
            size = len(result) if count_bytes else 0
            spans[me] = (index, start, end, parent, self.job,
                         counter(args, kwargs, result), size, 0)
            return result

        return wrapper

    def install(self):
        """Rebind every traced function in all loaded lpvsim modules."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "lpvsim" or name.startswith("lpvsim.")]
        for index, (key, counter, stats) in enumerate(_FUNCTIONS):
            module, _, fn = key.partition(".")
            original = getattr(sys.modules[f"lpvsim.{module}"], fn)
            wrapper = self._wrap(index, original, counter, "bytes" in stats)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def per_layer(self, jobs, overhead_ratio):
        """Per-layer metrics as per-job means over ``jobs`` traced jobs.

        Self time is a span's duration minus the durations of its direct
        children; unit costs divide total time by total work.
        """
        n = len(self.names)
        calls, work, nbytes, errors, incl, own = ([0] * n for _ in range(6))
        child = [0] * len(self.spans)
        i_dt = self.names.index("discretize.dt_step_matrices")
        i_sim = self.names.index("simulate.simulate_dt")
        factored = 0
        for fn, start, end, parent, _job, count, size, raised in self.spans:
            if parent >= 0:
                child[parent] += end - start
                factored += fn == i_dt and self.spans[parent][0] == i_sim
            calls[fn] += 1
            work[fn] += count
            nbytes[fn] += size
            errors[fn] += raised
            incl[fn] += end - start
        for s, (fn, start, end, *_rest) in enumerate(self.spans):
            own[fn] += end - start - child[s]

        out = {}
        for i, (key, _, stats) in enumerate(_FUNCTIONS):
            cost_ns = incl[i] if "incl_ms" in stats else own[i]
            for stat in stats:
                if stat.endswith("_ms"):
                    value = (incl[i] if stat == "incl_ms" else own[i]) * 1e-6 / jobs
                elif stat.startswith("us_per_"):
                    value = cost_ns * 1e-3 / work[i] if work[i] else 0.0
                elif stat == "ms_per_call":
                    value = cost_ns * 1e-6 / calls[i] if calls[i] else 0.0
                elif stat == "bytes":
                    value = nbytes[i] / jobs
                else:  # the work count: calls, steps, rows, points, substeps
                    value = work[i] / jobs
                out[f"{key}.{stat}"] = value
        steps = work[i_sim]
        out["discretize.factor_ratio"] = factored / steps if steps else 0.0
        for i, key in enumerate(self.names):
            out[f"{key}.errors"] = errors[i]
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def write(self, path):
        """Dump the spans as CSV, one row per call."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_ns,end_ns,parent,job,count,raised\n")
            for s, (fn, start, end, parent, job, count, _size, raised) in enumerate(self.spans):
                fh.write(f"{s},{self.names[fn]},{start},{end},{parent},{job},{count},{raised}\n")
