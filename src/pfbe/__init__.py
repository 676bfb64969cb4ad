"""Envelope-penalized first-order methods for minimax problems with
coupled constraints: Lagrangian lifting, a partial forward-backward
envelope with penalization, solvers, diagnostics, and a benchmark CLI.
"""

from .core import (
    BoxSet,
    ConstraintOracle,
    CoupledProblem,
    DegenerateNormalization,
    DimensionError,
    FunctionOracle,
    IncompleteOracle,
    MinimaxProblem,
    NonFiniteValue,
    PfbeError,
    PreconditionViolation,
    ProxRegularizer,
    UnsupportedSet,
    ZeroDirection,
    fd_gradient,
    fd_hvp,
    zero_regularizer,
)
from .diagnostics import (
    Certificate,
    certify,
    check_polar_convexity,
    eps_minimax_mm,
    feasibility_mcc,
    stationarity_gamma,
    transfer_constant,
)
from .envelope import (
    EnvelopeConfig,
    EnvelopeEval,
    evaluate,
    prox_step,
)
from .lagrangian import (
    KktResidual,
    LiftedProblem,
    kkt_residual_mol,
    lift,
    multiplier_bound_monitor,
)
from .problems import (
    Example1Instance,
    SyntheticInstance,
    make_example1,
    make_synthetic,
    spectral_norm_power,
    synthetic_from_data,
)
from .rng import NormalStream, Xoshiro256pp, splitmix64_next
from .sets import (
    OrthantCone,
    WholeSpace,
    ZeroCone,
    composite_prox,
)
from .solvers import (
    SOLVER_NAMES,
    SolverConfig,
    SolveResult,
    gamma_descent_check,
    select_gda_step,
    solve,
    solve_gda_baseline,
    solve_spg,
    solve_subgda,
)

__version__ = "0.1.0"
