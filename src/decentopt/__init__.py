"""Simulation and analysis toolkit for exact-convergence decentralized
optimization: correction-term diffusion engines, gradient tracking,
their error dynamics, and closed-form step-size stability ranges."""

from .algorithms import (
    ENGINES,
    AlgorithmState,
    RunResult,
    StepSizes,
    TraceRecord,
    run,
)
from .costs import (
    ConvergenceError,
    CostModel,
    GroundTruth,
    LeastSquaresModel,
    LogisticModel,
    MSEQuadraticModel,
    QuadraticModel,
    hessian_bounds,
    least_squares_model,
    logistic_model,
    model_from_config,
    mse_quadratic_model,
    solve_centralized,
)
from .graphs import (
    CombinationMatrix,
    Graph,
    GraphError,
    SpectralError,
    build_averaging,
    build_metropolis,
    check_balanced,
    load_matrix_csv,
    matrix_from_array,
    random_connected_graph,
    save_matrix_csv,
)
from .stability import (
    ErrorDynamics,
    ScanResult,
    SpectralPair,
    StabilityBound,
    TwoAgentCase,
    b_spectrum_residual,
    build_error_dynamics,
    decompose_b,
    diffusion_step_bound,
    exact_radius,
    extra_step_bound,
    one_step_matrix,
    stability_scan,
    two_agent_case,
    two_agent_onset,
)

__version__ = "0.1.0"
