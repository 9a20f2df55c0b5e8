"""A traced benchmark job of each workload runs through and reports every
per-layer metric.

``tests/test_tracer_names.py`` checks only that the traced names exist; a
traced function whose return type or arguments change under the tracer's
work counters would still break ``perfbench/run.py --trace 1``.  So one job
of each workload runs here under ``tracing.Tracer``, as a traced run would.
``perfbench/`` is imported read-only: no bytecode is written there, and its
modules leave ``sys.modules`` afterwards.
"""

import importlib
import pathlib
import sys

import pytest

from lpvsim import cli

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

#: workload -> (the job run, its subcommands' exit codes)
JOBS = {
    "scheduled": (0, [0, 0]),
    "piecewise": (0, [0, 0]),
    "converge": (0, [0]),
    # the fourth job's check model is singular inside its box
    "freq": (3, [0, 0, 3]),
}


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    try:
        yield tuple(importlib.import_module(m) for m in ("gen", "workloads", "tracing"))
    finally:
        for name in set(sys.modules) - before:
            if getattr(sys.modules[name], "__file__", "").startswith(str(PERFBENCH)):
                del sys.modules[name]


@pytest.mark.parametrize("workload", sorted(JOBS))
def test_a_traced_job_reports_every_layer(perfbench, tmp_path, workload):
    gen, workloads, tracing = perfbench
    index, codes = JOBS[workload]
    job = gen.generate(workload, 1, tmp_path).jobs[index]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.job = 0
        results = workloads.run_job(workload, job, cli.main)
    finally:
        tracer.uninstall()
    assert [code for code, _ in results] == codes
    assert workloads.check_job(workload, job, results) == []
    assert tracer.spans and [s for s in tracer.spans if s[-1]] == []
    values = tracer.per_layer(1, 1.0)
    assert sorted(values) == sorted(name for name, _ in tracing.PER_LAYER)
