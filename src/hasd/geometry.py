"""l_p norms, dual exponents, and the closed-form steepest descent step.

The elementary subproblem throughout the package is

    min_x  <g, x - y> + L * ||x - y||_p^2,       p in [2, inf],

whose minimizer has a closed form in terms of the dual norm ||g||_{p*},
p* = p/(p-1).  The method is first order: the subproblem's value and the
Hessian of ||.||_p^2 are test references (tests/oracles.py), not library
code.
"""

import math

import numpy as np

_TINY = float(np.finfo(float).tiny)


def lp_norm(x, p: float) -> float:
    """l_p norm for p in [1, inf] of x, its entries taken as one vector.

    At p = 2 it is sqrt(x . x), np.linalg.norm's formula, where that square
    is a normal float or an entry is inf or NaN.  The square is
    np.vdot(x, x), which raises no float warning where it overflows; on a
    contiguous x (every caller in this package passes one) it has the bits
    of x.dot(x), while a strided or reversed view may sum in another order.
    Otherwise it rescales by the max absolute entry before powering so that
    large or tiny inputs do not overflow/underflow.  The empty vector has
    norm 0.
    """
    if not (p >= 1.0):
        raise ValueError("lp_norm requires p >= 1, got %r" % (p,))
    x = np.asarray(x, dtype=float)
    if p == 2.0:
        sq = float(np.vdot(x, x))
        if _TINY <= sq < math.inf or not np.isfinite(x).all():
            return math.sqrt(sq)
    # ufunc reduces over all axes are what a.max()/a.sum()/np.sum run,
    # without their wrappers: the same bits at a fraction of the call cost
    if p == 1.0:  # an empty sum is 0.0
        return float(np.add.reduce(np.abs(x), None))
    if x.size == 0:
        return 0.0
    a = np.abs(x)
    m = float(np.maximum.reduce(a, None))
    if m == 0.0 or math.isinf(p):
        return m
    if p == 2.0:
        return m * math.sqrt(np.add.reduce((a / m) ** 2, None))
    return m * float(np.add.reduce((a / m) ** p, None) ** (1.0 / p))


class LpGeometry:
    """The exponent pair (p, p*) defining the step geometry.

    p must lie in [2, inf] (math.inf or np.inf for the sup norm).
    The dual exponent is p* = p/(p-1): 2 at p = 2, 1 at p = inf.
    """

    __slots__ = ("p", "p_dual")

    def __init__(self, p: float):
        p = float(p)
        if not (p >= 2.0):
            raise ValueError("geometry requires p >= 2, got %r" % (p,))
        self.p = p
        self.p_dual = 1.0 if math.isinf(p) else p / (p - 1.0)

    def __repr__(self):
        return "LpGeometry(p=%r)" % (self.p,)

    def __eq__(self, other):
        return isinstance(other, LpGeometry) and self.p == other.p

    def __hash__(self):
        return hash(("LpGeometry", self.p))


def steepest_step(y, grad, L: float, geom: LpGeometry):
    """Minimizer of <grad, x - y> + L * ||x - y||_p^2 over x.

    For finite p the step along coordinate i is

        x_i = y_i - (1/2L) * ||grad||_{p*}^{(p-2)/(p-1)}
                           * sign(grad_i) * |grad_i|^{1/(p-1)},

    which at p = 2 reduces to y - grad/(2L).  At p = inf the analytic
    limit is y - (1/2L) * ||grad||_1 * sign(grad); coordinates where
    grad_i = 0 do not move (sign(0) = 0).  A zero gradient returns a copy
    of y, bit for bit: away from p = 2 it is told by the dual norm the
    step takes anyway, which is 0 exactly when every entry is +-0 (a NaN
    entry makes it NaN), and at p = 2 by np.count_nonzero, because
    y - g/(2L) would turn a -0.0 in y into +0.0.
    """
    if not L > 0:  # NaN fails too
        raise ValueError("steepest_step requires L > 0, got %r" % (L,))
    y = np.asarray(y, dtype=float)
    g = np.asarray(grad, dtype=float)
    if y.shape != g.shape:
        raise ValueError("shape mismatch: y %r vs grad %r" % (y.shape, g.shape))
    p = geom.p
    if math.isinf(p):
        dual = float(np.add.reduce(np.abs(g), None))  # lp_norm(g, 1.0)
        if dual == 0.0:
            return y.copy()
        return y - (0.5 / L) * dual * np.sign(g)
    if p == 2.0:
        if not np.count_nonzero(g):  # cheaper than g.any(); NaN counts as nonzero
            return y.copy()
        return y - g / (2.0 * L)
    dual = lp_norm(g, geom.p_dual)
    if dual == 0.0:
        return y.copy()
    # sign(g)*|g|^{1/(p-1)} equals g/|g|^{(p-2)/(p-1)} with 0 -> 0
    direction = np.sign(g) * np.abs(g) ** (1.0 / (p - 1.0))
    return y - (0.5 / L) * dual ** ((p - 2.0) / (p - 1.0)) * direction
