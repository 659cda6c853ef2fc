"""Smooth convex test objectives with value/gradient/Hessian oracles.

An objective is l_p-smooth with constant L when

    ||grad f(x) - grad f(y)||_{p*} <= L ||x - y||_p   for all x, y.

Smoothness declared for exponent q transfers to any p <= q with the same
constant (the p-norm of the difference shrinks while the dual norm of the
gradient difference grows as p decreases), and to p > q at the cost of a
dimension factor d^{2/q - 2/p}.
"""

import json
import math

import numpy as np
from scipy import optimize

from .geometry import LpGeometry, lp_norm


# The two kernels below repeat scipy.special.logsumexp/softmax step for step
# (max shift, ties split out of the sum, numpy's log1p), so they return the
# same bits.  On the oracles' short rows scipy's time goes to array-API
# dispatch, not arithmetic: the kernels cost about a tenth of its logsumexp
# and a third of its softmax.

def _logsumexp(z):
    """log(sum(exp(z))) of a nonempty 1-D float array, as a numpy float64."""
    zmax = z.max()
    if not math.isfinite(zmax):
        # a +inf, -inf or NaN maximum: scipy's direct evaluation, silently
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.log(np.exp(z).sum())
    top = z == zmax
    m = np.float64(np.count_nonzero(top))
    e = z - zmax
    np.exp(e, out=e)
    e[top] = 0.0
    s = e.sum()
    if s != 0:
        s = s / m
    return np.log1p(s) + np.log(m) + zmax


def _softmax(z):
    """exp(z) / sum(exp(z)) of a nonempty 1-D float array, shifted by max(z)."""
    e = z - z.max()
    np.exp(e, out=e)
    e /= e.sum()
    return e


class SmoothnessUnavailable(Exception):
    """No analytic or declared smoothness constant applies."""


class SmoothObjective:
    """Oracle bundle: dimension, value, gradient, optional metadata.

    Attributes
    ----------
    dim : int
        Ambient dimension.
    smoothness : None or (float, LpGeometry)
        Declared smoothness constant and the geometry it certifies.
    reference_optimum : None or (ndarray, float)
        Known or precomputed (x_star, f_star).
    """

    def __init__(self, dim: int):
        if int(dim) <= 0:
            raise ValueError("dim must be positive, got %r" % (dim,))
        self.dim = int(dim)
        self.smoothness = None
        self.reference_optimum = None

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError("expected shape (%d,), got %r" % (self.dim, x.shape))
        return x

    def value(self, x) -> float:
        raise NotImplementedError

    def gradient(self, x):
        raise NotImplementedError

    def __call__(self, x) -> float:
        return self.value(x)


class Quadratic(SmoothObjective):
    """Separable convex quadratic 0.5 * sum_i h_i (x_i - c_i)^2 + f0, h_i >= 0."""

    def __init__(self, h, center=None, offset: float = 0.0):
        h = np.asarray(h, dtype=float)
        if h.ndim != 1 or np.any(h < 0):
            raise ValueError("h must be a nonnegative vector")
        super().__init__(h.size)
        self.h = h
        self.center = np.zeros(self.dim) if center is None else np.asarray(center, dtype=float)
        if self.center.shape != (self.dim,):
            raise ValueError("center shape mismatch")
        self.offset = float(offset)
        self.reference_optimum = (self.center.copy(), self.offset)

    def value(self, x) -> float:
        x = self._check(x)
        d = x - self.center
        return 0.5 * float(self.h @ (d * d)) + self.offset

    def gradient(self, x):
        x = self._check(x)
        return self.h * (x - self.center)

    def hessian(self, x):
        return np.diag(self.h)

    def smoothness_for(self, geom: LpGeometry) -> float:
        # operator norm of Diag(h): l_p -> l_{p*} is ||h||_{p/(p-2)}
        p = geom.p
        if p == 2.0:
            return float(self.h.max())
        if math.isinf(p):
            return float(self.h.sum())
        return lp_norm(self.h, p / (p - 2.0))

    def strong_convexity_l2(self) -> float:
        return float(self.h.min())


class SymmetricSoftmax(SmoothObjective):
    """f(x) = alpha * log sum_i (e^{x_i/alpha} + e^{-x_i/alpha}).

    Smooth max of +/- x_i pairs; minimized at x = 0 with value
    alpha * log(2 d).  Smooth with constant 1/alpha for the sup-norm
    geometry, hence for every p in [2, inf].
    """

    def __init__(self, dim: int, alpha: float = 1.0):
        super().__init__(dim)
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = float(alpha)
        self.smoothness = (1.0 / self.alpha, LpGeometry(math.inf))
        self.reference_optimum = (np.zeros(self.dim), self.alpha * math.log(2 * self.dim))

    def _weights(self, x):
        u = np.concatenate([x, -x]) / self.alpha
        return _softmax(u)

    def value(self, x) -> float:
        x = self._check(x)
        u = np.concatenate([x, -x]) / self.alpha
        return self.alpha * float(_logsumexp(u))

    def gradient(self, x):
        x = self._check(x)
        w = self._weights(x)
        return w[: self.dim] - w[self.dim :]

    def hessian(self, x):
        x = self._check(x)
        w = self._weights(x)
        g = w[: self.dim] - w[self.dim :]
        return (np.diag(w[: self.dim] + w[self.dim :]) - np.outer(g, g)) / self.alpha


class LogSumExpAffine(SmoothObjective):
    """f(x) = log sum_k exp(a_k^T x - b_k) + (mu/2) ||x||_2^2.

    With mu = 0 and strictly positive row sums of A the objective is
    unbounded below (every softmax combination of the rows stays in the
    positive orthant, so the gradient never vanishes); mu > 0 restores a
    unique minimizer.
    """

    def __init__(self, A, b, mu: float = 0.0, seed=None):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.ndim != 2 or A.shape[0] == 0 or b.shape != (A.shape[0],):
            raise ValueError("A must be (n, d), n >= 1, with b of shape (n,)")
        if mu < 0:
            raise ValueError("mu must be nonnegative")
        super().__init__(A.shape[1])
        self.A = A
        self.b = b
        self.mu = float(mu)
        self.seed = seed

    def value(self, x) -> float:
        x = self._check(x)
        v = float(_logsumexp(self.A @ x - self.b))
        return v + 0.5 * self.mu * float(x @ x)

    def gradient(self, x):
        x = self._check(x)
        w = _softmax(self.A @ x - self.b)
        return self.A.T @ w + self.mu * x

    def hessian(self, x):
        x = self._check(x)
        w = _softmax(self.A @ x - self.b)
        Aw = self.A.T @ w
        H = self.A.T @ (self.A * w[:, None]) - np.outer(Aw, Aw)
        return H + self.mu * np.eye(self.dim)

    def smoothness_upper(self, geom: LpGeometry) -> float:
        """Analytic smoothness upper bound for the given geometry.

        Two valid routes, take the smaller: the sup-norm bound
        max_k ||a_k||_1^2 + mu*d (inherited downward to any p), and the
        l2 bound max_k ||a_k||_2^2 + mu scaled up by d^{1 - 2/p}.
        """
        d = self.dim
        p = geom.p
        via_inf = float(np.abs(self.A).sum(axis=1).max() ** 2) + self.mu * d
        l2 = float((self.A * self.A).sum(axis=1).max()) + self.mu
        scale = d if math.isinf(p) else d ** (1.0 - 2.0 / p)
        return min(via_inf, l2 * scale)

    def strong_convexity_l2(self) -> float:
        return self.mu


def make_logsumexp_instance(n: int, d: int, mu: float, seed: int,
                            declare_smoothness: bool = False) -> LogSumExpAffine:
    """Random instance: A_ij ~ Bernoulli(0.8) in {0,1}, b_k ~ N(0,1).

    Draws A first, then b, from numpy's default PCG64 stream so the
    instance is reproducible from (n, d, mu, seed) alone.
    """
    rng = np.random.default_rng(seed)
    A = (rng.random((n, d)) < 0.8).astype(float)
    b = rng.standard_normal(n)
    obj = LogSumExpAffine(A, b, mu=mu, seed=seed)
    if declare_smoothness:
        geom = LpGeometry(math.inf)
        obj.smoothness = (obj.smoothness_upper(geom), geom)
    return obj


def convert_smoothness(L: float, q: float, p: float, d: int) -> float:
    """Constant valid for l_p geometry given L-smoothness for l_q, q >= 2.

    p <= q keeps L; p > q pays d^{2/q - 2/p}.
    """
    if L <= 0 or d <= 0:
        raise ValueError("need L > 0 and d > 0")
    if not (q >= 2.0 and p >= 2.0):
        raise ValueError("exponents must be >= 2")
    if p <= q:
        return float(L)
    iq = 0.0 if math.isinf(q) else 1.0 / q
    ip = 0.0 if math.isinf(p) else 1.0 / p
    return float(L * d ** (2.0 * iq - 2.0 * ip))


def empirical_smoothness(obj: SmoothObjective, geom: LpGeometry,
                         num_pairs: int = 200, radius: float = 2.0,
                         seed: int = 0, safety: float = 1.5) -> float:
    """Estimate L as the max gradient-difference ratio over sampled pairs.

    Pairs are drawn around the origin at the given radius scale; the max
    observed ||grad f(x) - grad f(y)||_{p*} / ||x - y||_p is inflated by
    the safety factor.  An estimate, not a certificate.
    """
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(num_pairs):
        x = radius * rng.standard_normal(obj.dim)
        y = x + radius * 10.0 ** rng.uniform(-6, 0) * rng.standard_normal(obj.dim)
        dg = lp_norm(obj.gradient(x) - obj.gradient(y), geom.p_dual)
        dx = lp_norm(x - y, geom.p)
        if dx > 0:
            best = max(best, dg / dx)
    if best == 0.0:
        raise SmoothnessUnavailable("all sampled pairs degenerate")
    return safety * best


def smoothness_bound(obj: SmoothObjective, geom: LpGeometry) -> float:
    """Smoothness constant for obj in the given geometry.

    Preference order: a declared constant (converted between exponents as
    needed), an analytic class-specific bound, then an empirical estimate
    for LogSumExpAffine.  Raises SmoothnessUnavailable otherwise.
    """
    if obj.smoothness is not None:
        L, g0 = obj.smoothness
        return convert_smoothness(L, g0.p, geom.p, obj.dim)
    if isinstance(obj, Quadratic):
        return obj.smoothness_for(geom)
    if isinstance(obj, SymmetricSoftmax):
        return 1.0 / obj.alpha
    if isinstance(obj, LogSumExpAffine):
        return empirical_smoothness(obj, geom)
    raise SmoothnessUnavailable("no smoothness information for %r" % (type(obj).__name__,))


def solve_reference(obj: SmoothObjective, x0=None, grad_tol: float = 1e-10,
                    max_iter: int = 500):
    """High-accuracy reference optimum via a second-order trust-region solve.

    Requires a Hessian oracle.  Stores (x_star, f_star) on the objective
    and returns the pair.  Raises RuntimeError if the gradient norm target
    is not reached.
    """
    if isinstance(obj, Quadratic):
        obj.reference_optimum = (obj.center.copy(), obj.offset)
        return obj.reference_optimum
    if isinstance(obj, SymmetricSoftmax):
        obj.reference_optimum = (np.zeros(obj.dim), obj.alpha * math.log(2 * obj.dim))
        return obj.reference_optimum
    if not hasattr(obj, "hessian"):
        raise SmoothnessUnavailable("reference solve needs a Hessian oracle")
    x0 = np.zeros(obj.dim) if x0 is None else np.asarray(x0, dtype=float)
    # quasi-Newton first: a weakly regularized optimum can sit very far from
    # the start, beyond what trust-region radii cover in few iterations
    res = optimize.minimize(obj.value, x0, jac=obj.gradient, method="L-BFGS-B",
                            options={"maxfun": 200000, "ftol": 0.0,
                                     "gtol": 1e-12})
    x = np.asarray(res.x, dtype=float)
    gn = float(np.linalg.norm(obj.gradient(x)))
    # dense Newton polish; generic solvers stop on value stagnation long
    # before the gradient target when |f| is large
    for _ in range(max_iter):
        if gn <= grad_tol * 1e-2:
            break
        g = obj.gradient(x)
        try:
            direction = np.linalg.solve(obj.hessian(x), g)
        except np.linalg.LinAlgError:
            break
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
    # a far-away optimum raises the rounding floor of the gradient oracle
    # itself (intermediates of size ~||H|| ||x|| and |f|); below that floor
    # the residual is pure evaluation noise, not distance to the optimum
    eps_mach = float(np.finfo(float).eps)
    h_norm = float(np.linalg.norm(obj.hessian(x), 2))
    f_x = float(obj.value(x))
    floor = 32.0 * eps_mach * (1.0 + abs(f_x)
                               + h_norm * float(np.linalg.norm(x)))
    if gn > max(grad_tol, floor):
        raise RuntimeError("reference solve stalled at ||grad||_2 = %.3e" % gn)
    obj.reference_optimum = (x, f_x)
    return obj.reference_optimum


def save_instance(obj: SmoothObjective, path=None) -> dict:
    """Serialize an objective (and any reference optimum) to a JSON document."""
    if isinstance(obj, LogSumExpAffine):
        doc = {"kind": "logsumexp", "n": int(obj.A.shape[0]), "d": obj.dim,
               "mu": obj.mu, "seed": obj.seed,
               "A": obj.A.tolist(), "b": obj.b.tolist()}
    elif isinstance(obj, SymmetricSoftmax):
        doc = {"kind": "softmax", "d": obj.dim, "alpha": obj.alpha}
    elif isinstance(obj, Quadratic):
        doc = {"kind": "quadratic", "d": obj.dim, "h": obj.h.tolist(),
               "center": obj.center.tolist(), "offset": obj.offset}
    else:
        raise ValueError("cannot serialize %r" % (type(obj).__name__,))
    if obj.smoothness is not None:
        L, g = obj.smoothness
        doc["smoothness"] = {"L": L, "p": "inf" if math.isinf(g.p) else g.p}
    if obj.reference_optimum is not None:
        xs, fs = obj.reference_optimum
        doc["ref_optimum"] = {"x": np.asarray(xs).tolist(), "f": float(fs)}
    if path is not None:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
    return doc


def load_instance(source) -> SmoothObjective:
    """Rebuild an objective from a JSON document, dict, or file path."""
    if isinstance(source, dict):
        doc = source
    else:
        with open(source) as fh:
            doc = json.load(fh)
    kind = doc.get("kind")
    if kind == "logsumexp":
        if "A" in doc and "b" in doc:
            obj = LogSumExpAffine(np.asarray(doc["A"], dtype=float),
                                  np.asarray(doc["b"], dtype=float),
                                  mu=doc.get("mu", 0.0), seed=doc.get("seed"))
        else:
            obj = make_logsumexp_instance(doc["n"], doc["d"], doc.get("mu", 0.0),
                                          doc["seed"])
    elif kind == "softmax":
        obj = SymmetricSoftmax(doc["d"], alpha=doc.get("alpha", 1.0))
    elif kind == "quadratic":
        obj = Quadratic(np.asarray(doc["h"], dtype=float),
                        center=np.asarray(doc["center"], dtype=float),
                        offset=doc.get("offset", 0.0))
    else:
        raise ValueError("unknown instance kind %r" % (kind,))
    if "smoothness" in doc:
        s = doc["smoothness"]
        pp = math.inf if s["p"] == "inf" else float(s["p"])
        obj.smoothness = (float(s["L"]), LpGeometry(pp))
    if "ref_optimum" in doc:
        obj.reference_optimum = (np.asarray(doc["ref_optimum"]["x"], dtype=float),
                                 float(doc["ref_optimum"]["f"]))
    return obj
