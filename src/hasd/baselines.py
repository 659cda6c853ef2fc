"""Reference first-order methods sharing the HASD trace contract.

Gradient descent, Nesterov-accelerated gradient descent, linear coupling
(steepest-descent primal step plus Euclidean mirror-descent dual step),
and plain l_p steepest descent.  All run with a fixed tuned stepsize and
emit the same RunReport/trace rows as the accelerated method, with the
coupling-specific columns left empty.  Each method's loop is a generator
of its iterates; one driver takes the first iters + 1 of them and builds
the rows and the report.  With rows off a run builds only its final row,
which is all a stepsize sweep ranks, and evaluates no gradient that only
an unbuilt row would use: agd and lc then make iters + 1 gradient calls
instead of 2 iters.  Every config names its geometry: each row's
||grad f||_{p*} is taken in it, and so is each step of lc and sd_p.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import RunReport, _row_head
from .geometry import LpGeometry, steepest_step


@dataclass
class BaselineConfig:
    stepsize: float
    iters: int
    geom: LpGeometry  # of each row's dual norm and of lc's and sd_p's steps

    def __post_init__(self):
        if not 0 < self.stepsize < math.inf:  # NaN fails too
            raise ValueError("stepsize must be positive and finite, got %r"
                             % (self.stepsize,))
        if self.iters < 0:
            raise ValueError("iters must be nonnegative")


def _drive(method: str, obj, cfg: BaselineConfig, points,
           rows: bool) -> RunReport:
    """Trace and report the first cfg.iters + 1 points of a baseline.

    points yields (x_t, grad f(x_t) or None, gradient calls since the
    previous yield) for t = 0, 1, ...  Every row is built, or with rows
    off only the final one (t == cfg.iters); a built row whose gradient
    was not yielded evaluates it here.  points is never advanced past the
    final row, so grad_calls counts the calls made.
    """
    traces = []
    calls = 0
    for t, (x, g, n) in zip(range(cfg.iters + 1), points):
        calls += n
        if rows or t == cfg.iters:
            if g is None:
                g = obj.gradient(x)
                calls += 1
            traces.append(_row_head(obj, t, x, g, cfg.geom))
    return RunReport(method, x, calls, traces)


def _descent(obj, x0, update):
    """Points of x_{t+1} = update(x_t, grad f(x_t)), each with its gradient."""
    x = np.asarray(x0, dtype=float).copy()
    while True:
        g = obj.gradient(x)
        yield x, g, 1
        x = update(x, g)


def gd_run(obj, x0, cfg: BaselineConfig, rows: bool = True) -> RunReport:
    """x_{t+1} = x_t - alpha * grad f(x_t)."""
    alpha = cfg.stepsize
    points = _descent(obj, x0, lambda x, g: x - alpha * g)
    return _drive("gd", obj, cfg, points, rows)


def agd_run(obj, x0, cfg: BaselineConfig, rows: bool = True) -> RunReport:
    """Nesterov acceleration: gradient step plus extrapolation.

        y_{t+1} = x_t - alpha * grad f(x_t)
        x_{t+1} = y_{t+1} + beta_t (y_{t+1} - y_t),  beta_t = (t-1)/(t+2)

    Momentum starts at the second update (the t = 0 coefficient is
    clipped to zero; there is no earlier y to extrapolate from).  The y
    sequence is the one traced and returned.
    """
    alpha = cfg.stepsize

    def points():
        y = x = np.asarray(x0, dtype=float).copy()
        gx = obj.gradient(x)
        yield x, gx, 1
        for t in itertools.count():
            if t > 0:
                gx = obj.gradient(x)
            y_new = x - alpha * gx
            beta = max(0.0, (t - 1.0) / (t + 2.0))
            x = y_new + beta * (y_new - y)
            y = y_new
            yield y, None, int(t > 0)  # grad f(y) only feeds a row

    return _drive("agd", obj, cfg, points(), rows)


def lc_run(obj, x0, cfg: BaselineConfig, rows: bool = True) -> RunReport:
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

    def points():
        y = z = np.asarray(x0, dtype=float).copy()
        g = obj.gradient(y)
        yield y, g, 1
        for t in itertools.count():
            beta = 2.0 / (t + 2.0)
            x = beta * z + (1.0 - beta) * y
            if t > 0:
                g = obj.gradient(x)
            y = steepest_step(x, g, 1.0 / (2.0 * alpha), geom)
            z = z - ((t + 1.0) * alpha / 2.0) * g
            yield y, None, int(t > 0)  # grad f(y) only feeds a row

    return _drive("lc", obj, cfg, points(), rows)


def sdp_run(obj, x0, cfg: BaselineConfig, rows: bool = True) -> RunReport:
    """Unaccelerated l_p steepest descent with proximity weight 1/(2 alpha).

    At p = 2 this is gradient descent with stepsize alpha.
    """
    weight = 1.0 / (2.0 * cfg.stepsize)
    return _drive("sd_p", obj, cfg, _descent(
        obj, x0, lambda x, g: steepest_step(x, g, weight, cfg.geom)), rows)
