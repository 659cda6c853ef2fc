"""Accelerated steepest descent for l_p-smooth convex objectives.

First-order methods whose elementary step minimizes a linear model plus a
squared l_p norm regularizer, together with an accelerated scheme that
couples the primal step and the dual-averaging weight through a scalar
binary search.  Includes classical baselines (gradient descent, Nesterov
acceleration, linear coupling, plain steepest descent) and a benchmark /
invariant-checking harness.
"""

from .geometry import (
    LpGeometry,
    lp_norm,
    lp_sq_hessian,
    lp_sq_hessian_split,
    steepest_step,
    subproblem_value,
)
from .objectives import (
    LogSumExpAffine,
    Quadratic,
    SmoothnessUnavailable,
    SmoothObjective,
    SymmetricSoftmax,
    convert_smoothness,
    load_instance,
    make_logsumexp_instance,
    save_instance,
    smoothness_bound,
    solve_reference,
)
from .core import (
    CouplingResult,
    CouplingSearchError,
    HasdConfig,
    HasdState,
    IterationTrace,
    NonFiniteProbeError,
    RunReport,
    a_from_rho,
    find_coupling,
    grad_norm_stopping,
    run,
    run_restarting,
    search_call_bound,
    step,
    step_t0,
    zeta_eval,
)
from .baselines import BaselineConfig, agd_run, gd_run, lc_run, sdp_run

__version__ = "0.1.0"

__all__ = [
    "LpGeometry",
    "lp_norm",
    "lp_sq_hessian",
    "lp_sq_hessian_split",
    "steepest_step",
    "subproblem_value",
    "SmoothObjective",
    "Quadratic",
    "LogSumExpAffine",
    "SymmetricSoftmax",
    "SmoothnessUnavailable",
    "convert_smoothness",
    "smoothness_bound",
    "solve_reference",
    "make_logsumexp_instance",
    "save_instance",
    "load_instance",
    "HasdConfig",
    "HasdState",
    "CouplingResult",
    "CouplingSearchError",
    "NonFiniteProbeError",
    "IterationTrace",
    "RunReport",
    "a_from_rho",
    "zeta_eval",
    "find_coupling",
    "step_t0",
    "step",
    "run",
    "run_restarting",
    "grad_norm_stopping",
    "search_call_bound",
    "BaselineConfig",
    "gd_run",
    "agd_run",
    "lc_run",
    "sdp_run",
]
