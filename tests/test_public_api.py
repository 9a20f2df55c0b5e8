"""The package's public names: each module's ``__all__``, re-exported once."""

import types

import lpvsim
from lpvsim import analyze, discretize, errors, fixtures, model, simulate

# the names the package exported when its __init__ listed them by hand
EXPORTED = """
    ComparisonMetrics ConvergenceStudy FrequencyResponse compare_traj
    convergence_order freqresp_ct freqresp_dt frequency_response_csv
    log_frequency_grid render_convergence_report warping_residual
    DiscretizationConfig StepMatrices WellposednessReport
    dt_step_matrices phi sigma_step tustin_frozen
    wellposedness_check
    ConfigError DataError DimensionError DomainError LpvError NonFiniteError
    ParseError WellposednessError
    FIXTURE_NAMES fixture_path load_fixture
    LpvStateSpace PMatrixFunction PTerm SchedulingDomain eval_pmatrix
    eval_pmatrix_many parse_model serialize_model
    Scenario SignalSpec Trajectory generate_signal read_trajectory_csv
    sample_scenario sigma_initial_state simulate_ct_reference simulate_dt
    simulate_dt_loop_oracle write_trajectory_csv
""".split()

MODULES = (analyze, discretize, errors, fixtures, model, simulate)


def test_every_name_exported_before_still_resolves():
    assert len(EXPORTED) == 49
    missing = [n for n in EXPORTED + ["__version__"] if not hasattr(lpvsim, n)]
    assert missing == []


def test_package_all_is_the_joined_module_lists():
    joined = [name for mod in MODULES for name in mod.__all__]
    assert lpvsim.__all__ == joined
    assert len(set(joined)) == len(joined)
    assert not [n for n in joined if n.startswith("_")]
    assert not [n for n in joined if isinstance(getattr(lpvsim, n), types.ModuleType)]
    assert set(joined) - set(EXPORTED) == {"check_in_box", "singular_rows"}


def test_each_export_is_the_module_object_itself():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(lpvsim, name) is getattr(mod, name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from lpvsim import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(lpvsim.__all__)
