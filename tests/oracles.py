"""Independent numerical oracles used by the test suite.

These deliberately avoid the closed forms under test: the step oracle is
a general-purpose constrained/quasi-Newton minimizer applied to the raw
subproblem, the reference-optimum oracle is scipy's L-BFGS-B, and
derivatives are checked by central finite differences.
"""

import math

import numpy as np
from scipy import optimize


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
