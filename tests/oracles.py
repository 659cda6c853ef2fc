"""Independent numerical oracles used by the test suite.

These deliberately avoid the closed forms under test: the step oracle is
a general-purpose constrained/quasi-Newton minimizer applied to the raw
subproblem, the reference-optimum oracle is scipy's L-BFGS-B, derivatives
are checked by central finite differences, smoothness is sampled from
gradient differences with no safety factor, the coupling search is rerun
measuring every probe, and HASD and the four baselines on a quadratic are
rerun in exact rational arithmetic, and a problem is restated in signed,
permuted coordinates.  The step subproblem's value and the
Hessian of ||.||_p^2 (with its split into two PSD pieces) are references
the optimizer never calls: the tests check the closed-form step and the
squared norm's curvature against them.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
from scipy import optimize

from hasd.core import zeta_eval
from hasd.geometry import LpGeometry, lp_norm
from hasd.objectives import LogSumExpAffine, Quadratic


def numeric_steepest_step(y, g, L, p, seed=0):
    """argmin_x <g, x - y> + L ||x - y||_p^2 by a generic minimizer.

    Finite p: multi-start L-BFGS-B on the smooth subproblem with its
    analytic gradient.  p = inf: the epigraph reformulation
    min <g, delta> + L s^2 s.t. -s <= delta_i <= s, solved with SLSQP.
    Returns the argmin (absolute coordinates, not the offset).
    """
    y = np.asarray(y, dtype=float)
    g = np.asarray(g, dtype=float)
    d = y.size
    rng = np.random.default_rng(seed)
    gn = np.linalg.norm(g)
    if gn == 0:
        return y.copy()

    if math.isinf(p):
        def fun(u):
            return g @ u[:d] + L * u[d] ** 2

        def jac(u):
            out = np.empty(d + 1)
            out[:d] = g
            out[d] = 2 * L * u[d]
            return out

        cons = []
        for i in range(d):
            cons.append({"type": "ineq", "fun": (lambda u, i=i: u[d] - u[i])})
            cons.append({"type": "ineq", "fun": (lambda u, i=i: u[d] + u[i])})
        best = None
        starts = [np.concatenate([-g / (2 * L), [np.abs(g).max() / (2 * L) + 1e-3]])]
        for _ in range(3):
            delta0 = rng.standard_normal(d) * gn / (2 * L)
            starts.append(np.concatenate([delta0, [np.abs(delta0).max() + 1e-3]]))
        for u0 in starts:
            r = optimize.minimize(fun, u0, jac=jac, method="SLSQP",
                                  constraints=cons,
                                  options={"ftol": 1e-16, "maxiter": 1000})
            if r.x is not None and (best is None or fun(r.x) < fun(best)):
                best = r.x
        return y + best[:d]

    def phi(delta):
        n = np.sum(np.abs(delta) ** p) ** (1.0 / p)
        return g @ delta + L * n ** 2

    def dphi(delta):
        n = np.sum(np.abs(delta) ** p) ** (1.0 / p)
        if n == 0:
            return g.copy()
        return g + 2 * L * n ** (2.0 - p) * np.abs(delta) ** (p - 2.0) * delta

    best = None
    best_val = np.inf
    starts = [-g / (2 * L), -g / L, np.zeros(d) + 1e-8]
    for _ in range(3):
        starts.append(rng.standard_normal(d) * gn / (2 * L))
    for d0 in starts:
        r = optimize.minimize(phi, d0, jac=dphi, method="L-BFGS-B",
                              options={"ftol": 1e-18, "gtol": 1e-14,
                                       "maxiter": 5000})
        v = phi(r.x)
        if v < best_val:
            best, best_val = r.x, v
    return y + best


def subproblem_value(y, grad, L: float, geom: LpGeometry, x) -> float:
    """Objective <grad, x - y> + L * ||x - y||_p^2 of the step subproblem."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    g = np.asarray(grad, dtype=float)
    d = x - y
    return float(g @ d) + L * lp_norm(d, geom.p) ** 2


def lp_sq_hessian(z, p: float):
    """Hessian of z -> ||z||_p^2 at z != 0, for finite p >= 2.

    With s(z)_i = |z_i|^{p-2} z_i,

        H = 2(p-1) ||z||_p^{2-p} Diag(|z_i|^{p-2})
            + 2(2-p) ||z||_p^{2(1-p)} s(z) s(z)^T.

    The second term is negative semidefinite for p > 2, yet H as a whole
    dominates the rank-one matrix 2 ||z||_p^{2(1-p)} s(z) s(z)^T.
    """
    p = float(p)
    if math.isinf(p):
        raise ValueError("lp_sq_hessian requires finite p")
    if not (p >= 2.0):
        raise ValueError("lp_sq_hessian requires p >= 2, got %r" % (p,))
    z = np.asarray(z, dtype=float)
    if not np.any(z):
        raise ValueError("lp_sq_hessian undefined at z = 0")
    a = np.abs(z)
    nrm = lp_norm(z, p)
    s = a ** (p - 2.0) * z
    H = 2.0 * (p - 1.0) * nrm ** (2.0 - p) * np.diag(a ** (p - 2.0))
    H += 2.0 * (2.0 - p) * nrm ** (2.0 * (1.0 - p)) * np.outer(s, s)
    return H


def lp_sq_hessian_split(z, p: float):
    """lp_sq_hessian(z, p) as a sum of two positive semidefinite pieces.

        M1 = 2(p-1) ||z||_p^{2(1-p)} (||z||_p^p Diag(|z_i|^{p-2}) - s s^T)
        M2 = 2 ||z||_p^{2(1-p)} s s^T

    M1 is PSD by Cauchy-Schwarz (sum |z_i|^p majorizes the s-weighted
    square), M2 is a scaled Gram matrix, and M1 + M2 = lp_sq_hessian.
    In particular the Hessian dominates M2.
    """
    p = float(p)
    if math.isinf(p) or not (p >= 2.0):
        raise ValueError("lp_sq_hessian_split requires finite p >= 2")
    z = np.asarray(z, dtype=float)
    if not np.any(z):
        raise ValueError("lp_sq_hessian_split undefined at z = 0")
    a = np.abs(z)
    nrm = lp_norm(z, p)
    s = a ** (p - 2.0) * z
    scale = nrm ** (2.0 * (1.0 - p))
    M1 = 2.0 * (p - 1.0) * scale * (nrm ** p * np.diag(a ** (p - 2.0)) - np.outer(s, s))
    M2 = 2.0 * scale * np.outer(s, s)
    return M1, M2


def signed_permutation(obj, rng):
    """A quadratic or LogSumExp obj in the coordinates x' = s * x[perm],
    with no reference optimum, and the map x -> x'."""
    perm = rng.permutation(obj.dim)
    s = rng.choice([-1.0, 1.0], obj.dim)
    if isinstance(obj, Quadratic):
        moved = Quadratic(obj.h[perm], center=s * obj.center[perm])
    else:
        moved = LogSumExpAffine(obj.A[:, perm] * s, obj.b, obj.mu)
    moved.reference_optimum = None
    return moved, (lambda x: s * x[perm])


def search_every_probe(state, obj, cfg):
    """The coupling search that evaluates every probe it bisects on: (theta,
    zeta, y, x_next, grad f(x_next), gradient calls, rejected probes that
    c(theta) decides: c r_lo > 2 or c < 1/2, r_lo = d^-(1-2/p) Hoelder's
    lower end of the norm ratio)."""
    r_lo = state.x.size ** (2.0 / cfg.geom.p - 1.0)
    calls = decided = 0
    lo, hi = 1e-12, 1.0 - 1e-12
    while hi - lo > 4e-12:
        th = 0.5 * (lo + hi)
        calls += 2
        zeta, y, x, gx, _, _ = zeta_eval(th, state, obj, cfg)
        if 0.5 <= zeta <= 2.0:
            return th, zeta, y, x, gx, calls, decided
        c = 18.0 * cfg.L * (1.0 - th) ** 2 * state.A / th
        decided += c * r_lo > 2.0 or c < 0.5
        if zeta > 1.25:
            lo = th
        else:
            hi = th
    raise AssertionError("reference search failed")


def lbfgsb_reference(obj, grad_tol=1e-10, max_iter=500):
    """(x_star, f_star) of a bounded objective with a Hessian oracle, from 0:
    scipy's L-BFGS-B, then dense Newton steps backtracked on the gradient
    norm, accepted at ||grad||_2 <= grad_tol or below the oracle's rounding
    floor at x_star (up to a millionth of the start's gradient norm).
    Raises RuntimeError otherwise.  Leaves obj.reference_optimum alone.
    """
    x = np.zeros(obj.dim)
    start_gn = float(np.linalg.norm(obj.gradient(x)))
    res = optimize.minimize(obj.value, x, jac=obj.gradient, method="L-BFGS-B",
                            options={"maxfun": 200000, "ftol": 0.0,
                                     "gtol": 1e-12})
    x = np.asarray(res.x, dtype=float)
    gn = float(np.linalg.norm(obj.gradient(x)))
    for _ in range(max_iter):
        if gn <= grad_tol * 1e-2:
            break
        direction = np.linalg.solve(obj.hessian(x), obj.gradient(x))
        step, improved = 1.0, False
        for _ in range(40):
            x_new = x - step * direction
            gn_new = float(np.linalg.norm(obj.gradient(x_new)))
            if gn_new < gn:
                x, gn, improved = x_new, gn_new, True
                break
            step *= 0.5
        if not improved:
            break
    eps_mach = float(np.finfo(float).eps)
    f_x = float(obj.value(x))
    floor = 32.0 * eps_mach * (1.0 + abs(f_x) + float(np.linalg.norm(obj.hessian(x), 2))
                               * float(np.linalg.norm(x)))
    if gn > max(grad_tol, min(floor, 1e-6 * max(1.0, start_gn))):
        raise RuntimeError("L-BFGS-B reference stalled at ||grad||_2 = %.3e" % gn)
    return x, f_x


def fd_gradient(f, x, h=1e-6):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (f(x + e) - f(x - e)) / (2 * h)
    return out


def fd_hessian(f, x, h=1e-4):
    """Central-difference Hessian of a scalar function."""
    x = np.asarray(x, dtype=float)
    d = x.size
    H = np.empty((d, d))
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        for j in range(i, d):
            ej = np.zeros(d)
            ej[j] = h
            H[i, j] = (f(x + ei + ej) - f(x + ei - ej)
                       - f(x - ei + ej) + f(x - ei - ej)) / (4 * h * h)
            H[j, i] = H[i, j]
    return H


def sampled_smoothness(obj, geom: LpGeometry, num_pairs: int, seed: int):
    """The largest ||grad f(x) - grad f(y)||_{p*} / ||x - y||_p over
    num_pairs pairs drawn from seed, with no safety factor: x ~ 2 N(0, I)
    and y = x + 2 * 10^u N(0, I), u uniform in [-6, 0]."""
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(num_pairs):
        x = 2.0 * rng.standard_normal(obj.dim)
        y = x + 2.0 * 10.0 ** rng.uniform(-6, 0) * rng.standard_normal(obj.dim)
        dx = lp_norm(x - y, geom.p)
        if dx > 0:
            dg = lp_norm(obj.gradient(x) - obj.gradient(y), geom.p_dual)
            best = max(best, dg / dx)
    return best


def exact_hasd_quadratic(h, center, x0, p, iters):
    """core.iterate on Quadratic(h, center) with no reference attached, at
    p in {2, inf} and L = obj.smoothness_for(LpGeometry(p)), in exact
    rational arithmetic.

    h, center and x0 are floats, read exactly.  Every quantity is then a
    rational except the bisection midpoints, which stay the float run's
    0.5 * (lo + hi), and the gain G_t = sum ||g_i||_{p*} / ||g_i||_2,
    which takes square roots (the growth check reads it in decimal at 50
    digits).  A probe is settled without measuring it where c(theta)
    alone decides zeta = c(theta) r, r in [d^-(1-2/p), 1], and measured
    otherwise; it is accepted at 1/2 <= zeta <= 2.  Returns one dict per
    row, x_0 first: theta (the accepted float midpoint, None on rows 0
    and 1), f, A and x, and on every row after row 0 the violations as
    signed shortfalls, each <= 0 where its guarantee holds: window,
    recurrence (its absolute defect), progress, potential and growth
    (a Decimal).  Raises ValueError at a zero gradient or a collapsed
    bracket.
    """
    h = [Fraction(v) for v in h]
    c = [Fraction(v) for v in center]
    x0 = [Fraction(v) for v in x0]
    d = len(h)
    L = max(h) if p == 2 else sum(h)
    hoelder = 1 if p == 2 else d  # 1 / (the least r), d^(1-2/p)

    def grad(x):
        return [hi * (xi - ci) for hi, xi, ci in zip(h, x, c)]

    def value(x):
        return sum(hi * (xi - ci) ** 2 for hi, xi, ci in zip(h, x, c)) / 2

    def dot(u, w):
        return sum(a * b for a, b in zip(u, w))

    def dual_sq(g):  # ||g||_{p*}^2
        return dot(g, g) if p == 2 else sum(abs(gi) for gi in g) ** 2

    def steepest(y, g):
        if p == 2:
            return [yi - gi / (2 * L) for yi, gi in zip(y, g)]
        s = sum(abs(gi) for gi in g) / (2 * L)
        return [yi - s * ((gi > 0) - (gi < 0)) for yi, gi in zip(y, g)]

    def dec(q):  # rounded to the context's precision
        return Decimal(q.numerator) / Decimal(q.denominator)

    def ratio(g):  # r = ||g||_2^2 / ||g||_{p*}^2
        if not any(g):
            raise ValueError("zero gradient")
        return dot(g, g) / dual_sq(g)

    half = Fraction(1, 2)
    A = B = psi_c = Fraction(0)
    u = [Fraction(0)] * d
    gains = []  # (||g||_{p*}^2, ||g||_2^2) of each folded point
    x = x0
    rows = [{"theta": None, "f": value(x0), "A": A, "x": x0}]
    for t in range(iters):
        if t == 0:
            theta, y = None, x0
            x_new = steepest(y, grad(y))
            g = grad(x_new)
            rho = ratio(g)
            a = 1 / (18 * L * rho)
        else:
            v = [x0i - ui for x0i, ui in zip(x0, u)]
            lo, hi = 1e-12, 1.0 - 1e-12
            while True:
                if not hi - lo > 4e-12:
                    raise ValueError("bracket collapsed at step %d" % (t + 1))
                theta = 0.5 * (lo + hi)
                th = Fraction(theta)
                c_th = 18 * L * (1 - th) ** 2 * A / th
                if c_th > 2 * hoelder:  # zeta > 2
                    lo = theta
                    continue
                if c_th < half:  # zeta < 1/2
                    hi = theta
                    continue
                y = [th * xi + (1 - th) * vi for xi, vi in zip(x, v)]
                x_new = steepest(y, grad(y))
                g = grad(x_new)
                zeta = c_th * ratio(g)
                if half <= zeta <= 2:
                    break
                if zeta > 2:
                    lo = theta
                else:
                    hi = theta
            rho = 1 / c_th
            a = A * (1 - th) / th
        l2_sq, d_sq = dot(g, g), dual_sq(g)
        r = l2_sq / d_sq
        A += a
        B += A / (18 * L) * d_sq
        u = [ui + a * gi for ui, gi in zip(u, g)]
        f = value(x_new)
        psi_c += a * (f - dot(g, x_new))
        gains.append((d_sq, l2_sq))
        dx = [xi - yi for xi, yi in zip(x_new, y)]
        model = L * (dot(dx, dx) if p == 2 else max(abs(e) for e in dx) ** 2)
        inner = -dot(g, dx)
        psi_min = dot(u, x0) - dot(u, u) / 2 + psi_c
        with localcontext() as ctx:
            ctx.prec = 50
            G_sum = sum((dec(ds) / dec(ls)).sqrt() for ds, ls in gains)
            growth = G_sum / (18 * dec(L).sqrt()) - dec(A).sqrt()
        x = x_new
        rows.append({
            "theta": theta, "f": f, "A": A, "x": x,
            "window": max(half - rho / r, rho / r - 2),
            "recurrence": abs(18 * L * rho * a * a - A),
            "progress": max(model - inner, d_sq / (9 * L) - model),
            "potential": A * f + B - psi_min,
            "growth": growth})
    return rows


def exact_baseline_quadratic(method, h, center, x0, p, alpha, iters,
                             signs=None):
    """The points baselines' method traces on Quadratic(h, center) at
    stepsize alpha, p in {2, inf}, in exact rational arithmetic: x_0 and the
    iters points after it (agd's and lc's y sequence).

    h, center, x0 and alpha are floats, read exactly, and every quantity
    is then rational: agd's beta_t = max(0, (t-1)/(t+2)), lc's 2/(t+2) and
    (t+1) alpha / 2, and the steepest step of lc and sd_p, x - alpha g at
    p = 2 and x - alpha ||g||_1 sign(g) at p = inf.  At p = inf signs[t]
    is the float run's sign(g) at its step t, as exact_hasd_quadratic
    takes the float run's midpoints: an entry that is 0 in one arithmetic
    and not in the other moves its coordinate in one run only.  Returns
    one dict per row, x_0 first: f and x.
    """
    h = [Fraction(v) for v in h]
    c = [Fraction(v) for v in center]
    x0 = [Fraction(v) for v in x0]
    alpha = Fraction(alpha)

    def grad(x):
        return [hi * (xi - ci) for hi, xi, ci in zip(h, x, c)]

    def value(x):
        return sum(hi * (xi - ci) ** 2 for hi, xi, ci in zip(h, x, c)) / 2

    def descend(x, g, scale):  # x - scale * g
        return [xi - scale * gi for xi, gi in zip(x, g)]

    def steepest(x, g, t):
        if p == 2:
            return descend(x, g, alpha)
        sign = [int(si) for si in signs[t]]
        return descend(x, sign, alpha * sum(abs(gi) for gi in g))

    points = [x0]
    x = y = z = x0
    for t in range(iters):
        if method == "gd":
            x = descend(x, grad(x), alpha)
        elif method == "sd_p":
            x = steepest(x, grad(x), t)
        elif method == "agd":
            y_new = descend(x, grad(x), alpha)
            beta = max(Fraction(0), Fraction(t - 1, t + 2))
            x = [yn + beta * (yn - yo) for yn, yo in zip(y_new, y)]
            y = y_new
        elif method == "lc":
            beta = Fraction(2, t + 2)
            x = [beta * zi + (1 - beta) * yi for zi, yi in zip(z, y)]
            g = grad(x)
            y = steepest(x, g, t)
            z = descend(z, g, (t + 1) * alpha / 2)
        else:
            raise ValueError("no exact run of method %r" % (method,))
        points.append(x if method in ("gd", "sd_p") else y)
    return [{"f": value(x), "x": x} for x in points]
