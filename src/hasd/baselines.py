"""Reference first-order methods sharing the HASD trace contract.

Gradient descent, Nesterov-accelerated gradient descent, linear coupling
(steepest-descent primal step plus Euclidean mirror-descent dual step),
and plain l_p steepest descent.  All run with a fixed tuned stepsize and
emit the same RunReport/trace rows as the accelerated method, with the
coupling-specific columns left empty.  With BaselineConfig.all_rows off a
run builds only its final row, which is all a stepsize sweep ranks.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import IterationTrace, RunReport, _gap
from .geometry import LpGeometry, lp_norm, steepest_step

_METHODS = ("gd", "agd", "lc", "sd_p")


@dataclass
class BaselineConfig:
    method: str
    stepsize: float
    iters: int
    geom: LpGeometry | None = None
    all_rows: bool = True  # False: trace only the final iterate

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError("method must be one of %r" % (_METHODS,))
        if self.stepsize <= 0:
            raise ValueError("stepsize must be positive")
        if self.iters < 0:
            raise ValueError("iters must be nonnegative")
        if self.method in ("lc", "sd_p") and self.geom is None:
            raise ValueError("%s requires a geometry" % self.method)


def _row(rows: list, obj, t: int, x, g, cfg: BaselineConfig):
    """Append the trace row of iterate t, g being grad f(x); with
    cfg.all_rows off, only the final one (t == cfg.iters) is built."""
    if not (cfg.all_rows or t == cfg.iters):
        return
    f = obj.value(x)
    dual = None if cfg.geom is None else lp_norm(g, cfg.geom.p_dual)
    rows.append(IterationTrace(iter=t, f=f, gap=_gap(f, obj.reference_optimum),
                               grad_l2=math.sqrt(g @ g), grad_dual=dual))


def _report(method: str, obj, x, rows, calls: int, iters: int) -> RunReport:
    f = rows[-1].f
    return RunReport(method=method, final_x=np.asarray(x, dtype=float),
                     final_f=f, gap=_gap(f, obj.reference_optimum),
                     iters=iters, grad_calls=calls, traces=rows)


def gd_run(obj, x0, cfg: BaselineConfig) -> RunReport:
    """x_{t+1} = x_t - alpha * grad f(x_t)."""
    x = np.asarray(x0, dtype=float).copy()
    alpha = cfg.stepsize
    g = obj.gradient(x)
    calls = 1
    rows = []
    _row(rows, obj, 0, x, g, cfg)
    for t in range(cfg.iters):
        x = x - alpha * g
        g = obj.gradient(x)
        calls += 1
        _row(rows, obj, t + 1, x, g, cfg)
    return _report("gd", obj, x, rows, calls, cfg.iters)


def agd_run(obj, x0, cfg: BaselineConfig) -> RunReport:
    """Nesterov acceleration: gradient step plus extrapolation.

        y_{t+1} = x_t - alpha * grad f(x_t)
        x_{t+1} = y_{t+1} + beta_t (y_{t+1} - y_t),  beta_t = (t-1)/(t+2)

    Momentum starts at the second update (the t = 0 coefficient is
    clipped to zero; there is no earlier y to extrapolate from).  The y
    sequence is the one traced and returned.
    """
    x = np.asarray(x0, dtype=float).copy()
    y = x.copy()
    alpha = cfg.stepsize
    gx = obj.gradient(x)
    calls = 1
    rows = []
    _row(rows, obj, 0, x, gx, cfg)
    for t in range(cfg.iters):
        if t > 0:
            gx = obj.gradient(x)
            calls += 1
        y_new = x - alpha * gx
        beta = max(0.0, (t - 1.0) / (t + 2.0))
        x = y_new + beta * (y_new - y)
        y = y_new
        gy = obj.gradient(y)
        calls += 1
        _row(rows, obj, t + 1, y, gy, cfg)
    return _report("agd", obj, y, rows, calls, cfg.iters)


def lc_run(obj, x0, cfg: BaselineConfig) -> RunReport:
    """Linear coupling of steepest descent and Euclidean mirror descent.

        x_{t+1} = beta_t z_t + (1 - beta_t) y_t,   beta_t = 2/(t+2)
        y_{t+1} = steepest step from x_{t+1} with proximity weight
                  1/(2 alpha)
        z_{t+1} = z_t - gamma_t grad f(x_{t+1}),   gamma_t = (t+1) alpha / 2

    z_0 = y_0 = x_0, so the first x equals the start (beta_0 = 1).  The y
    sequence is traced and returned.  At p = 2 this matches the classical
    three-sequence accelerated scheme step for step.
    """
    geom = cfg.geom
    alpha = cfg.stepsize
    z = np.asarray(x0, dtype=float).copy()
    y = z.copy()
    g = obj.gradient(y)
    calls = 1
    rows = []
    _row(rows, obj, 0, y, g, cfg)
    for t in range(cfg.iters):
        beta = 2.0 / (t + 2.0)
        x = beta * z + (1.0 - beta) * y
        if t > 0:
            g = obj.gradient(x)
            calls += 1
        y = steepest_step(x, g, 1.0 / (2.0 * alpha), geom)
        z = z - ((t + 1.0) * alpha / 2.0) * g
        g = obj.gradient(y)
        calls += 1
        _row(rows, obj, t + 1, y, g, cfg)
    return _report("lc", obj, y, rows, calls, cfg.iters)


def sdp_run(obj, x0, cfg: BaselineConfig) -> RunReport:
    """Unaccelerated l_p steepest descent with proximity weight 1/(2 alpha).

    At p = 2 this is gradient descent with stepsize alpha.
    """
    geom = cfg.geom
    x = np.asarray(x0, dtype=float).copy()
    g = obj.gradient(x)
    calls = 1
    rows = []
    _row(rows, obj, 0, x, g, cfg)
    for t in range(cfg.iters):
        x = steepest_step(x, g, 1.0 / (2.0 * cfg.stepsize), geom)
        g = obj.gradient(x)
        calls += 1
        _row(rows, obj, t + 1, x, g, cfg)
    return _report("sd_p", obj, x, rows, calls, cfg.iters)
