"""Accelerated steepest descent for l_p-smooth convex objectives.

First-order methods whose elementary step minimizes a linear model plus a
squared l_p norm regularizer, together with an accelerated scheme that
couples the primal step and the dual-averaging weight through a scalar
binary search.  Includes classical baselines (gradient descent, Nesterov
acceleration, linear coupling, plain steepest descent) and a benchmark /
invariant-checking harness.
"""

from .geometry import LpGeometry, lp_norm, steepest_step
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
    iterate,
    rate_bounds,
    run,
    run_restarting,
    step,
    zeta_eval,
)
from .baselines import BaselineConfig, agd_run, gd_run, lc_run, sdp_run

__version__ = "0.1.0"

# a name is public when a src module, a CLI verb, a perfbench workload or
# the README's library documentation reaches it
__all__ = [
    "LpGeometry",
    "lp_norm",
    "steepest_step",
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
    "step",
    "iterate",
    "run",
    "run_restarting",
    "rate_bounds",
    "BaselineConfig",
    "gd_run",
    "agd_run",
    "lc_run",
    "sdp_run",
]
