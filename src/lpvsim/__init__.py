"""lpvsim: continuous-time LPV state-space models, bilinear discretization
that keeps the CT matrices, loop-free discrete stepping, and verification
tooling (independent simulation engines, frequency-warping checks,
convergence-order estimation)."""

from .analyze import (
    ComparisonMetrics,
    ConvergenceStudy,
    FrequencyResponse,
    compare_traj,
    convergence_order,
    freqresp_ct,
    freqresp_dt,
    frequency_response_csv,
    log_frequency_grid,
    render_convergence_report,
    warping_residual,
)
from .discretize import (
    DiscretizationConfig,
    SigmaRealization,
    StepMatrices,
    WellposednessReport,
    dt_step_matrices,
    phi,
    rinv_matrices,
    sigma_step,
    tustin_frozen,
    wellposedness_check,
)
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    DomainError,
    LpvError,
    NonFiniteError,
    ParseError,
    WellposednessError,
)
from .fixtures import FIXTURE_NAMES, fixture_path, load_fixture
from .model import (
    LpvStateSpace,
    PMatrixFunction,
    PTerm,
    SchedulingDomain,
    eval_pmatrix,
    eval_pmatrix_many,
    parse_model,
    serialize_model,
)
from .simulate import (
    Scenario,
    SignalSpec,
    Trajectory,
    generate_signal,
    read_trajectory_csv,
    sample_scenario,
    sigma_initial_state,
    simulate_ct_reference,
    simulate_dt,
    simulate_dt_loop_oracle,
    write_trajectory_csv,
)

__version__ = "0.1.0"
