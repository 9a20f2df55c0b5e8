"""The record contract of lpvsim's 13 frozen types, and the import guard
that keeps their methods from being generated by ``exec``.

Each type's constructor signature, ``repr``, equality and hashing, frozen
guard, dataclass introspection, copies and pickles are pinned here as the
``@dataclass(frozen=True)`` types gave them."""

import copy
import dataclasses
import inspect
import math
import os
import pathlib
import pickle
import pydoc
import subprocess
import sys

import numpy as np
import pytest

import lpvsim
from lpvsim import (
    ComparisonMetrics,
    ConfigError,
    ConvergenceStudy,
    DiscretizationConfig,
    FrequencyResponse,
    LpvStateSpace,
    PMatrixFunction,
    PTerm,
    Scenario,
    SchedulingDomain,
    SignalSpec,
    StepMatrices,
    Trajectory,
    WellposednessReport,
)


def _samples():
    dom = SchedulingDomain([0.0], [1.0])
    term = PTerm((1,), [[2.0]])
    pmf = PMatrixFunction(1, 1, (term,))
    one = PMatrixFunction.constant([[1.0]], 1)
    return [
        dom, term, pmf,
        LpvStateSpace(1, 1, 1, 1, pmf, one, one, PMatrixFunction.zero(1, 1), dom),
        DiscretizationConfig(0.1),
        StepMatrices(*[np.full((1, 1), v) for v in (0.5, 1.0, 2.0, 0.0, 0.25, 0.125)]),
        WellposednessReport(0.1, 3, 0.95, (1.0,), 1.1, (), True, None),
        SignalSpec.sine(amplitude=2.0, f=0.5),
        Scenario((SignalSpec.constant(0.5),), [SignalSpec.step(t0=0.2)], [0.0], 1.0),
        Trajectory(0.1, [[0.0], [0.5]], [[1.0], [1.0]]),
        FrequencyResponse([1.0, 2.0], [[[1.0 + 0.5j]], [[0.5 - 1j]]]),
        ComparisonMetrics(0.5, 0.25, 1.0, (0.5,)),
        ConvergenceStudy((0.1, 0.05), (1e-3, 2.5e-4), (2.0,), 2.0, False),
    ]


SAMPLES = _samples()
IDS = [type(s).__name__ for s in SAMPLES]
MODEL_TYPES = (SchedulingDomain, PTerm, PMatrixFunction, LpvStateSpace)
VALUE_TYPES = (DiscretizationConfig, WellposednessReport, ComparisonMetrics,
               ConvergenceStudy)

_SPEC = ("kind='{}', offset={}, amplitude={}, f=1.0, phase=0.0, t0={}, f0=0.0, "
         "f1=1.0, t1=1.0, path='', column=0")
#: (signature, repr of the sample), as the stdlib's dataclass wrote them
PINNED = {
    "SchedulingDomain": (
        "(lower: numpy.ndarray, upper: numpy.ndarray) -> None",
        "SchedulingDomain(lower=array([0.]), upper=array([1.]))"),
    "PTerm": (
        "(exponents: tuple, coeff: numpy.ndarray) -> None",
        "PTerm(exponents=(1,), coeff=array([[2.]]))"),
    "PMatrixFunction": (
        "(rows: int, cols: int, terms: tuple = ()) -> None",
        "PMatrixFunction(rows=1, cols=1, terms=(PTerm(exponents=(1,), "
        "coeff=array([[2.]])),))"),
    "LpvStateSpace": (
        "(n_x: int, n_u: int, n_y: int, n_p: int, A: lpvsim.model.PMatrixFunction, "
        "B: lpvsim.model.PMatrixFunction, C: lpvsim.model.PMatrixFunction, "
        "D: lpvsim.model.PMatrixFunction, domain: lpvsim.model.SchedulingDomain) -> None",
        "LpvStateSpace(n_x=1, n_u=1, n_y=1, n_p=1, A=PMatrixFunction(rows=1, cols=1, "
        "terms=(PTerm(exponents=(1,), coeff=array([[2.]])),)), B=PMatrixFunction("
        "rows=1, cols=1, terms=(PTerm(exponents=(0,), coeff=array([[1.]])),)), "
        "C=PMatrixFunction(rows=1, cols=1, terms=(PTerm(exponents=(0,), "
        "coeff=array([[1.]])),)), D=PMatrixFunction(rows=1, cols=1, terms=()), "
        "domain=SchedulingDomain(lower=array([0.]), upper=array([1.])))"),
    "DiscretizationConfig": ("(ts: float) -> None", "DiscretizationConfig(ts=0.1)"),
    "StepMatrices": (
        "(Axi: numpy.ndarray, Bxi: numpy.ndarray, Cxi: numpy.ndarray, "
        "Dxi: numpy.ndarray, Xxi: numpy.ndarray, Xu: numpy.ndarray) -> None",
        "StepMatrices(Axi=array([[0.5]]), Bxi=array([[1.]]), Cxi=array([[2.]]), "
        "Dxi=array([[0.]]), Xxi=array([[0.25]]), Xu=array([[0.125]]))"),
    "WellposednessReport": (
        "(ts: float, samples_checked: int, min_abs_det: float, argmin_p: tuple, "
        "max_condition_number: float, singular_points: tuple, passed: bool, "
        "refuted_by: str) -> None",
        "WellposednessReport(ts=0.1, samples_checked=3, min_abs_det=0.95, "
        "argmin_p=(1.0,), max_condition_number=1.1, singular_points=(), "
        "passed=True, refuted_by=None)"),
    "SignalSpec": (
        "(kind: str, offset: float = 0.0, amplitude: float = 1.0, f: float = 1.0, "
        "phase: float = 0.0, t0: float = 0.0, f0: float = 0.0, f1: float = 1.0, "
        "t1: float = 1.0, path: str = '', column: int = 0, "
        "table: numpy.ndarray = None) -> None",
        "SignalSpec(kind='sine', offset=0.0, amplitude=2.0, f=0.5, phase=0.0, "
        "t0=0.0, f0=0.0, f1=1.0, t1=1.0, path='', column=0)"),
    "Scenario": (
        "(p: tuple, u: tuple, x0: numpy.ndarray, t_end: float) -> None",
        "Scenario(p=(SignalSpec(" + _SPEC.format("constant", 0.5, 0.0, 0.0)
        + "),), u=(SignalSpec(" + _SPEC.format("step", 0.0, 1.0, 0.2)
        + "),), x0=array([0.]), t_end=1.0)"),
    "Trajectory": (
        "(ts: float, p: numpy.ndarray, u: numpy.ndarray, y: numpy.ndarray = None, "
        "x: numpy.ndarray = None, xi: numpy.ndarray = None) -> None",
        "Trajectory(ts=0.1, p=array([[0. ],\n       [0.5]]), u=array([[1.],\n"
        "       [1.]]), y=None, x=None, xi=None)"),
    "FrequencyResponse": (
        "(omegas: numpy.ndarray, values: numpy.ndarray) -> None",
        "FrequencyResponse(omegas=array([1., 2.]), values=array([[[1. +0.5j]],\n\n"
        "       [[0.5-1.j ]]]))"),
    "ComparisonMetrics": (
        "(max_abs_error: float, rms_error: float, relative_to: float, "
        "per_channel: tuple) -> None",
        "ComparisonMetrics(max_abs_error=0.5, rms_error=0.25, relative_to=1.0, "
        "per_channel=(0.5,))"),
    "ConvergenceStudy": (
        "(ts_list: tuple, max_errors: tuple, pairwise_orders: tuple, "
        "fitted_order: float, degenerate: bool) -> None",
        "ConvergenceStudy(ts_list=(0.1, 0.05), max_errors=(0.001, 0.00025), "
        "pairwise_orders=(2.0,), fitted_order=2.0, degenerate=False)"),
}


def _same(a, b):
    """Field by field equality of two records, arrays by value and dtype,
    nested records and tuples recursively."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return type(b) is np.ndarray and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, tuple):
        return type(b) is tuple and len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and a == b


def test_every_record_type_is_sampled():
    assert sorted(IDS) == sorted(PINNED)


@pytest.mark.parametrize("value", SAMPLES, ids=IDS)
def test_signature_repr_and_help_text(value):
    cls = type(value)
    sig, text = PINNED[cls.__name__]
    assert str(inspect.signature(cls)) == sig
    assert str(inspect.signature(cls.__init__)) == "(self, " + sig[1:]
    assert repr(value) == text
    assert f"class {cls.__name__}(builtins.object)\n |  {cls.__name__}{sig}\n" in (
        pydoc.render_doc(cls, renderer=pydoc.plaintext))
    for name in ("__init__", "__repr__", "__setattr__", "__delattr__"):
        method = getattr(cls, name)
        assert method.__module__ == cls.__module__
        assert method.__qualname__ == f"{cls.__qualname__}.{name}"


def test_a_field_declared_without_repr_is_left_out():
    spec = SignalSpec.csv_column("t.csv", 1, table=[[0.0, 1.0]])
    assert repr(spec) == ("SignalSpec(kind='csv_column', offset=0.0, amplitude=1.0, "
                          "f=1.0, phase=0.0, t0=0.0, f0=0.0, f1=1.0, t1=1.0, "
                          "path='t.csv', column=1)")


@pytest.mark.parametrize("value", SAMPLES, ids=IDS)
def test_equality_and_hashing(value):
    cls, twin = type(value), copy.copy(value)
    assert value == value and not value != value
    assert value.__eq__(object()) is NotImplemented
    if cls in VALUE_TYPES:
        assert twin == value and hash(twin) == hash(value)
        assert hash(value) == hash(tuple(getattr(value, f.name)
                                         for f in dataclasses.fields(value)))
    elif cls in MODEL_TYPES:
        assert twin == value
        with pytest.raises(TypeError, match="unhashable type"):
            hash(value)
    else:  # identity, as object's
        assert twin != value and not twin == value
        assert hash(value) == object.__hash__(value)


def test_a_nan_field_compares_as_in_a_tuple():
    # one nan object equals itself inside a tuple; two nan objects do not
    nan = float("nan")
    a = ComparisonMetrics(nan, 0.0, 1.0, ())
    assert a == ComparisonMetrics(nan, 0.0, 1.0, ())
    assert hash(a) == hash(ComparisonMetrics(nan, 0.0, 1.0, ()))
    assert a != ComparisonMetrics(float("nan"), 0.0, 1.0, ())
    study = ConvergenceStudy((0.1,), (0.0,), (), math.nan, True)
    assert study == ConvergenceStudy((0.1,), (0.0,), (), math.nan, True)
    # a value record equals only its own type
    assert DiscretizationConfig(0.1) != 0.1
    assert DiscretizationConfig(0.1).__eq__(ComparisonMetrics(0.1, 0, 0, ())) is NotImplemented


@pytest.mark.parametrize("value", SAMPLES, ids=IDS)
def test_assignment_and_deletion_are_refused(value):
    for f in dataclasses.fields(value):
        before = getattr(value, f.name)
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"^cannot assign to field '{f.name}'$"):
            setattr(value, f.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"^cannot delete field '{f.name}'$"):
            delattr(value, f.name)
        assert getattr(value, f.name) is before
    with pytest.raises(dataclasses.FrozenInstanceError,
                       match="^cannot assign to field 'extra'$"):
        value.extra = 1
    with pytest.raises(dataclasses.FrozenInstanceError,
                       match="^cannot delete field 'extra'$"):
        del value.extra


def _subclass_outcomes(obj, field):
    """What setting and deleting a non-field, then a field, does on ``obj``."""
    obj.extra = 1
    outcomes = [obj.extra]
    del obj.extra
    outcomes.append(hasattr(obj, "extra"))
    for act in (lambda: setattr(obj, field, None), lambda: delattr(obj, field),
                lambda: delattr(obj, "extra")):
        try:
            act()
            outcomes.append("done")
        except (dataclasses.FrozenInstanceError, AttributeError) as exc:
            outcomes.append((type(exc).__name__, str(exc)))
    return outcomes


@pytest.mark.parametrize("value", SAMPLES, ids=IDS)
def test_a_subclass_sets_and_deletes_what_is_not_a_field_as_the_stdlib_does(value):
    # a subclass instance takes the frozen guard's second branch: only a
    # field is refused, as for a subclass of a @dataclass(frozen=True) twin
    fields = dataclasses.fields(value)
    twin = dataclasses.make_dataclass(
        type(value).__name__, [(f.name, object) for f in fields], frozen=True)
    outcomes = [
        _subclass_outcomes(type("Sub", (cls,), {})(*(getattr(value, f.name) for f in fields)),
                           fields[0].name)
        for cls in (type(value), twin)]
    name = fields[0].name
    assert outcomes[0] == outcomes[1] == [
        1, False,
        ("FrozenInstanceError", f"cannot assign to field '{name}'"),
        ("FrozenInstanceError", f"cannot delete field '{name}'"),
        ("AttributeError", "'Sub' object has no attribute 'extra'"),
    ]


@pytest.mark.parametrize("value", SAMPLES, ids=IDS)
def test_dataclass_introspection(value):
    cls = type(value)
    names = [p for p in inspect.signature(cls).parameters]
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(value)
    assert [f.name for f in dataclasses.fields(cls)] == names
    assert cls.__match_args__ == tuple(names)
    assert list(vars(value)) == names
    assert list(dataclasses.asdict(value)) == names
    assert _same(dataclasses.replace(value), value)
    changed = dataclasses.replace(value, **{names[-1]: getattr(value, names[-1])})
    assert changed is not value and _same(changed, value)


def test_replace_and_keywords_run_the_checks():
    with pytest.raises(ConfigError, match="sampling time must be positive"):
        dataclasses.replace(DiscretizationConfig(0.1), ts=-1.0)
    assert dataclasses.replace(DiscretizationConfig(0.1), ts="0.5").ts == 0.5
    spec = SignalSpec("sine", 1.0, f=2.0, column=3)
    assert (spec.offset, spec.amplitude, spec.f, spec.column) == (1.0, 1.0, 2.0, 3)
    assert spec.table is None
    traj = Trajectory(0.1, u=[[1.0]], p=[[0.0]], xi=[[2.0]])
    assert traj.y is None and traj.xi.tolist() == [[2.0]]


@pytest.mark.parametrize("call", [
    lambda: DiscretizationConfig(),
    lambda: DiscretizationConfig(0.1, 0.2),
    lambda: DiscretizationConfig(0.1, ts=0.1),
    lambda: DiscretizationConfig(tss=0.1),
    lambda: SignalSpec(offset=1.0),
    lambda: PMatrixFunction(1),
], ids=["none", "too-many", "twice", "unknown", "missing-first", "missing-second"])
def test_a_call_that_binds_no_arguments_is_a_type_error(call):
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize("value", SAMPLES, ids=IDS)
@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v)),
], ids=["copy", "deepcopy", "pickle"])
def test_copies_and_pickles_round_trip(value, clone):
    twin = clone(value)
    assert type(twin) is type(value) and _same(twin, value)
    assert repr(twin) == repr(value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        twin.extra = 1


_COUNT_DATACLASS_EXECS = """
import builtins, sys
calls = []
real_exec = builtins.exec
def counting_exec(*args, **kwargs):
    calls.append(sys._getframe(1).f_globals.get("__name__"))
    return real_exec(*args, **kwargs)
builtins.exec = counting_exec
import lpvsim.cli
builtins.exec = real_exec
print(sum(name == "dataclasses" for name in calls))
"""


def test_importing_the_cli_makes_no_dataclass_exec_call():
    # the stdlib's @dataclass builds each generated method by exec, about
    # 1 ms per class at start-up; lpvsim's records are built without it
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(lpvsim.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", _COUNT_DATACLASS_EXECS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"
