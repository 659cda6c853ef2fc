"""Smooth convex test objectives with value and gradient oracles.

The methods are first order.  Only LogSumExpAffine has a Hessian oracle,
for solve_reference's Newton steps: the quadratic's and the symmetric
softmax's optima are known in closed form, so no solve reads a Hessian
of theirs, and they have none.

An objective is l_p-smooth with constant L when

    ||grad f(x) - grad f(y)||_{p*} <= L ||x - y||_p   for all x, y.

Smoothness declared for exponent q transfers to any p <= q with the same
constant (the p-norm of the difference shrinks while the dual norm of the
gradient difference grows as p decreases), and to p > q at the cost of a
dimension factor d^{2/q - 2/p}.
"""

import json
import math
import operator

import numpy as np

from .geometry import LpGeometry, lp_norm


# The two kernels below repeat scipy.special.logsumexp/softmax step for step
# (max shift, ties split out of the sum, numpy's log1p), so they return the
# same bits.  On the oracles' short rows scipy's time goes to array-API
# dispatch, not arithmetic: the kernels cost about a tenth of its logsumexp
# and a third of its softmax.  They call the ufunc reduces that the
# .max()/.sum() methods wrap, which is the same arithmetic without the
# wrapper's call cost.  The max is read as z[z.argmax()], a third of the
# cost of np.maximum.reduce on a short row and the same value: argmax stops
# at the first NaN, and where +0.0 and -0.0 tie for the max the sign it
# picks only reaches exp(+-0) = 1, the tie mask (0.0 == -0.0) and a sum
# whose other terms make it +0.0 either way.

def _logsumexp(z):
    """log(sum(exp(z))) of a nonempty 1-D float array, as a numpy float64."""
    zmax = z[z.argmax()]
    if not math.isfinite(zmax):
        # a +inf, -inf or NaN maximum: scipy's direct evaluation, silently
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.log(np.add.reduce(np.exp(z)))
    top = z == zmax
    m = np.float64(np.count_nonzero(top))
    e = z - zmax
    np.exp(e, out=e)
    e[top] = 0.0
    s = np.add.reduce(e)
    if s != 0:
        s = s / m
    return np.log1p(s) + np.log(m) + zmax


def _softmax(z):
    """exp(z) / sum(exp(z)) of a nonempty 1-D float array, shifted by max(z)."""
    e = z - z[z.argmax()]
    np.exp(e, out=e)
    e /= np.add.reduce(e)
    return e


# Bytes of a block of _row_blocks: small beside a large A, large enough
# that the per-block calls cost nothing beside the sums.
_BOUND_BLOCK_BYTES = 1 << 20


def _row_blocks(A):
    """Yield (block, buf) over the rows of A: blocks of about
    _BOUND_BLOCK_BYTES and at least two rows (numpy sums a lone row of a
    Fortran-ordered array in another order than within the array), the
    last ending at row n and overlapping the one before, and one buffer of
    their shape laid out as A is."""
    n, d = A.shape
    rows = min(n, max(2, _BOUND_BLOCK_BYTES // (A.itemsize * d)))
    buf = np.empty_like(A[:rows])
    for lo in range(0, n, rows):
        lo = min(lo, n - rows)
        yield A[lo:lo + rows], buf


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

    A subclass whose oracles share one map of the point supplies _map(x)
    and reads (x, map) through _at.
    """

    def __init__(self, dim: int):
        if int(dim) <= 0:
            raise ValueError("dim must be positive, got %r" % (dim,))
        self.dim = int(dim)
        self.smoothness = None
        self.reference_optimum = None
        self._last = None  # (x.tobytes(), _map(x)) at the last point mapped

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError("expected shape (%d,), got %r" % (self.dim, x.shape))
        return x

    def _at(self, x):
        """(x, _map(x)) at the checked x, shared by the oracles.

        The last point's map is kept under the bytes of x, so value and
        gradient at one point map it once (a point mutated in place has new
        bytes, hence a miss).  Key and map are stored as one tuple in one
        assignment, so a concurrent caller never pairs one point's key with
        another's map.  Callers must not mutate the map, and what _map
        reads must not change after construction.
        """
        x = self._check(x)
        key = x.tobytes()
        last = self._last
        if last is None or last[0] != key:
            last = self._last = (key, self._map(x))
        return x, last[1]

    def value(self, x) -> float:
        raise NotImplementedError

    def gradient(self, x):
        raise NotImplementedError


class Quadratic(SmoothObjective):
    """Separable convex quadratic 0.5 * sum_i h_i (x_i - c_i)^2 + f0, h_i >= 0.

    The center must not change after construction: the oracles share the
    last point's x - c.
    """

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

    def _map(self, x):
        return x - self.center

    def value(self, x) -> float:
        d = self._at(x)[1]
        return 0.5 * float(self.h @ (d * d)) + self.offset

    def gradient(self, x):
        return self.h * self._at(x)[1]

    def smoothness_for(self, geom: LpGeometry) -> float:
        # operator norm of Diag(h): l_p -> l_{p*} is ||h||_{p/(p-2)}
        p = geom.p
        if p == 2.0:
            return float(self.h.max())
        if math.isinf(p):
            return float(self.h.sum())
        return lp_norm(self.h, p / (p - 2.0))


class SymmetricSoftmax(SmoothObjective):
    """f(x) = alpha * log sum_i (e^{x_i/alpha} + e^{-x_i/alpha}).

    Smooth max of +/- x_i pairs; minimized at x = 0 with value
    alpha * log(2 d).  Smooth with constant 1/alpha for the sup-norm
    geometry, hence for every p in [2, inf].  alpha must not change after
    construction: the oracles share the last point's [x, -x] / alpha.
    """

    def __init__(self, dim: int, alpha: float = 1.0):
        super().__init__(dim)
        if not 0 < alpha < math.inf:  # NaN fails too
            raise ValueError("alpha must be positive and finite, got %r" % (alpha,))
        self.alpha = float(alpha)
        self.smoothness = (1.0 / self.alpha, LpGeometry(math.inf))
        self.reference_optimum = (np.zeros(self.dim), self.alpha * math.log(2 * self.dim))

    def _map(self, x):
        return np.concatenate([x, -x]) / self.alpha

    def value(self, x) -> float:
        return self.alpha * float(_logsumexp(self._at(x)[1]))

    def gradient(self, x):
        w = _softmax(self._at(x)[1])
        return w[: self.dim] - w[self.dim :]


class LogSumExpAffine(SmoothObjective):
    """f(x) = log sum_k exp(a_k^T x - b_k) + (mu/2) ||x||_2^2.

    With mu = 0 and strictly positive row sums of A the objective is
    unbounded below (every softmax combination of the rows stays in the
    positive orthant, so the gradient never vanishes); mu > 0 restores a
    unique minimizer.

    A and b must not change after construction: the oracles share the
    last point's logits, and gradient and hessian take their products
    with the transpose view A.T kept from the constructor.
    """

    def __init__(self, A, b, mu: float = 0.0, seed=None):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.ndim != 2 or A.shape[0] == 0 or b.shape != (A.shape[0],):
            raise ValueError("A must be (n, d), n >= 1, with b of shape (n,)")
        if not 0 <= mu < math.inf:  # NaN fails too
            raise ValueError("mu must be nonnegative and finite, got %r" % (mu,))
        if not (A.flags.c_contiguous or A.flags.f_contiguous):
            # a strided view would be copied on every product: copy it once
            A = np.ascontiguousarray(A)
        super().__init__(A.shape[1])
        self.A = A
        self._AT = A.T  # a view, kept so gradient builds none per call
        self.b = b
        self.mu = float(mu)
        self.seed = seed

    def _map(self, x):
        # on a contiguous x, ndarray.dot is the gemv that @ calls, with less
        # dispatch; on a negative stride the two round differently
        z = self.A.dot(x) if x.flags.c_contiguous else self.A @ x
        z -= self.b
        return z

    def value(self, x) -> float:
        x, z = self._at(x)
        return float(_logsumexp(z)) + 0.5 * self.mu * float(x @ x)

    def gradient(self, x):
        x, z = self._at(x)
        g = self._AT.dot(_softmax(z))
        g += self.mu * x
        return g

    def certifies_unbounded(self, x) -> bool:
        """True when x proves f unbounded below: mu = 0 and a_k . x < 0
        for every row k, after the rounding of the products is allowed for.

        Then f(t x) = log sum_k exp(t a_k . x - b_k) tends to -inf as t
        grows.  The margin (d + 2) eps |a_k| . |x| covers the rounding
        error of any summation order of a length-d dot product, so |A| is
        taken over _row_blocks, and the first block with a row at or above
        0, or NaN, ends the test.
        """
        if self.mu != 0.0:
            return False
        x = self._check(x)
        slack = (self.dim + 2) * float(np.finfo(float).eps)
        abs_x = np.abs(x)
        with np.errstate(all="ignore"):  # a non-finite x certifies nothing
            for block, buf in _row_blocks(self.A):
                np.abs(block, out=buf)
                worst = block.dot(x) + slack * buf.dot(abs_x)
                if not np.maximum.reduce(worst) < 0.0:
                    return False
        return True

    def hessian(self, x):
        w = _softmax(self._at(x)[1])
        Aw = self._AT @ w
        H = self._AT @ (self.A * w[:, None]) - np.outer(Aw, Aw)
        return H + self.mu * np.eye(self.dim)

    def smoothness_upper(self, geom: LpGeometry) -> float:
        """Analytic smoothness upper bound for the given geometry.

        Two valid routes, take the smaller: the sup-norm bound
        max_k ||a_k||_1^2 + mu*d (inherited downward to any p), and the
        l2 bound max_k ||a_k||_2^2 + mu scaled up by d^{1 - 2/p}.

        The row norms are taken over _row_blocks, so each row is summed as
        the one-shot formula sums it, and combining the block maxima by
        np.maximum gives its bits: a NaN entry gives NaN, an inf entry inf.
        """
        d = self.dim
        l1_max, l2_max = [], []
        for block, buf in _row_blocks(self.A):
            np.abs(block, out=buf)
            l1_max.append(np.maximum.reduce(np.add.reduce(buf, axis=1)))
            np.multiply(block, block, out=buf)
            l2_max.append(np.maximum.reduce(np.add.reduce(buf, axis=1)))
        p = geom.p
        via_inf = float(np.maximum.reduce(l1_max) ** 2) + self.mu * d
        l2 = float(np.maximum.reduce(l2_max)) + self.mu
        scale = d if math.isinf(p) else d ** (1.0 - 2.0 / p)
        return min(via_inf, l2 * scale)


def make_logsumexp_instance(n: int, d: int, mu: float, seed: int,
                            declare_smoothness: bool = False) -> LogSumExpAffine:
    """Random instance: A_ij ~ Bernoulli(0.8) in {0,1}, b_k ~ N(0,1).

    Draws A first, then b, from numpy's default PCG64 stream so the
    instance is reproducible from (n, d, mu, seed) alone.  A is drawn
    into its own buffer and thresholded there, the same doubles in the
    same order as (rng.random((n, d)) < 0.8).astype(float), so building
    the instance holds A and, with declare_smoothness, one block of
    smoothness_upper's rows, and nothing else of A's size.  An A too
    large to allocate is a ValueError naming n, d and the bytes asked for,
    and an n or d below 1 is one naming it.
    """
    for name, size in (("n", n), ("d", d)):
        if size < 1:
            raise ValueError("%s must be at least 1, got %r" % (name, size))
    rng = np.random.default_rng(seed)
    try:
        A = np.empty((n, d))
    except (MemoryError, ValueError) as exc:  # ValueError: "array is too big"
        raise ValueError("a %d x %d LogSumExp instance needs %d bytes for A, "
                         "more than can be allocated"
                         % (n, d, 8 * n * d)) from exc
    rng.random(out=A)
    np.less(A, 0.8, out=A)
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
    if not (L > 0 and d > 0):  # NaN fails too
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
    for LogSumExpAffine.  Raises SmoothnessUnavailable otherwise, for a
    constant LogSumExpAffine (A = 0, mu = 0), declared or not, and for an
    affine one (mu = 0, every row of A equal) with none declared: its
    gradient is one vector, so sampled pairs measure only rounding noise.
    """
    if isinstance(obj, LogSumExpAffine) and obj.mu == 0.0 and not obj.A.any():
        raise SmoothnessUnavailable("the LogSumExpAffine objective is constant "
                                    "(A = 0 and mu = 0): it has no "
                                    "smoothness constant to step by")
    if obj.smoothness is not None:
        L, g0 = obj.smoothness
        return convert_smoothness(L, g0.p, geom.p, obj.dim)
    if isinstance(obj, Quadratic):
        return obj.smoothness_for(geom)
    if isinstance(obj, LogSumExpAffine):
        A = obj.A
        if obj.mu == 0.0 and np.array_equal(np.maximum.reduce(A, axis=0),
                                             np.minimum.reduce(A, axis=0)):
            raise SmoothnessUnavailable(
                "the LogSumExpAffine objective is affine (mu = 0 and every "
                "row of A equal): sampled pairs measure no smoothness "
                "constant, and none is declared")
        return empirical_smoothness(obj, geom)
    raise SmoothnessUnavailable("no smoothness information for %r" % (type(obj).__name__,))


def solve_reference(obj: SmoothObjective):
    """High-accuracy reference optimum by regularized Newton from the origin.

    A Quadratic's or SymmetricSoftmax's optimum is returned in closed form;
    any other objective needs a Hessian oracle.  Dense steps
    x+ = x - (H + sqrt(M ||g||_2) I)^-1 g from x = 0 (Mishchenko, SIAM J.
    Optim. 2023; Polyak, Math. Program. 2009) carry x to a gradient norm
    of tol / 100, tol = 1e-10, however far away the optimum sits.  A trial
    is accepted when its gradient norm is below the current one; M starts
    at 1, is multiplied by 4 on each rejected trial and divided by 4 after
    each accepted step.  The loop stops early when 40 trials find no such
    point or after 500 steps.  The result is accepted at a gradient norm
    of tol, or of the oracle's own rounding floor at x when that is
    larger, up to a millionth of the gradient norm at the origin.  Stores
    (x_star, f_star) on the objective and returns the pair.  Raises
    RuntimeError when neither bound is met, and as soon as a point the
    solve differentiates certifies that a LogSumExpAffine objective is
    unbounded below (see certifies_unbounded).
    """
    if isinstance(obj, Quadratic):
        obj.reference_optimum = (obj.center.copy(), obj.offset)
        return obj.reference_optimum
    if isinstance(obj, SymmetricSoftmax):
        obj.reference_optimum = (np.zeros(obj.dim), obj.alpha * math.log(2 * obj.dim))
        return obj.reference_optimum
    if not hasattr(obj, "hessian"):
        raise SmoothnessUnavailable("reference solve needs a Hessian oracle")

    x = np.zeros(obj.dim)
    tol = 1e-10
    certify = isinstance(obj, LogSumExpAffine)

    def jac(x):
        g = obj.gradient(x)
        if certify and obj.certifies_unbounded(x):
            raise RuntimeError("reference solve stopped: f is unbounded "
                               "below along the current iterate")
        return g

    # regularized Newton steps, accepted on the gradient norm; generic
    # solvers stop on value stagnation long before the gradient target when
    # |f| is large.  The shift keeps the system definite where H is nearly
    # singular, and the gradient of an accepted trial serves the next step
    g = jac(x)
    gn = start_gn = lp_norm(g, 2.0)
    seen = {x.tobytes()}  # every point differentiated so far
    eye = np.eye(obj.dim)
    M = 1.0
    for _ in range(500):
        if gn <= tol * 1e-2:
            break
        H, improved, key = obj.hessian(x), False, x.tobytes()
        for _ in range(40):
            try:
                x_new = x - np.linalg.solve(H + math.sqrt(M * gn) * eye, g)
            except np.linalg.LinAlgError:  # a larger shift makes H definite
                M *= 4.0
                continue
            new_key = x_new.tobytes()
            if new_key == key:  # every larger shift gives x again
                break
            # a trial can land on a point differentiated earlier in the
            # solve, whose gradient norm was no smaller than gn (gn only
            # falls): it is rejected again without a second gradient call
            if new_key not in seen:
                seen.add(new_key)
                g_new = jac(x_new)
                gn_new = lp_norm(g_new, 2.0)
                if gn_new < gn:
                    x, g, gn, improved = x_new, g_new, gn_new, True
                    M /= 4.0
                    break
            M *= 4.0
        if not improved:
            break
    # a far-away optimum raises the rounding floor of the gradient oracle
    # itself (intermediates of size ~||H|| ||x|| and |f|); below that floor
    # the residual is pure evaluation noise, not distance to the optimum.
    # The floor grows with |f| without limit on an objective unbounded
    # below, so it may excuse at most a millionth of the start's gradient.
    eps_mach = float(np.finfo(float).eps)
    h_norm = float(np.linalg.norm(obj.hessian(x), 2))
    f_x = float(obj.value(x))
    floor = 32.0 * eps_mach * (1.0 + abs(f_x) + h_norm * lp_norm(x, 2.0))
    cap = 1e-6 * max(1.0, start_gn)
    if gn > max(tol, min(floor, cap)):
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


def _read_doc(source, what: str) -> dict:
    if not isinstance(source, dict):
        with open(source) as fh:
            source = json.load(fh)
    return _object(source, what)


def _object(doc, what: str) -> dict:
    """doc, or a ValueError naming the part that should be a JSON object."""
    if not isinstance(doc, dict):
        raise ValueError("%s must be a JSON object, not %s"
                         % (what, type(doc).__name__))
    return doc


def _field(doc: dict, key: str, what: str, convert, default=None):
    """convert(doc[key]), or default when the key is absent and a default
    is given; a ValueError naming the key when the document lacks it or its
    value does not convert (a list where a number belongs, or a non-finite
    number, say)."""
    if key not in doc:
        if default is None:
            raise ValueError("%s has no %r key" % (what, key))
        return default
    try:
        return convert(doc[key])
    except (TypeError, ValueError) as exc:
        raise ValueError("%s key %r: %s" % (what, key, exc)) from None


def _finite(value) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError("%r is not a finite number" % (x,))
    return x


def _floats(value):
    a = np.asarray(value, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("an entry is not a finite number")
    return a


def _seed(value):
    """value, when numpy seeds a generator from it reproducibly: an integer
    >= 0 or a list of them (None would draw fresh entropy)."""
    if value is None:
        raise TypeError("a generated instance needs a seed, not null")
    np.random.SeedSequence(value)
    return value


def attach_reference(obj: SmoothObjective, source):
    """Attach a stored (x_star, f_star) pair: an {"x", "f"} document, one
    under "ref_optimum" in an instance document, or a JSON file holding
    either.  Raises ValueError when x_star does not match obj's dimension,
    f_star is not obj's value at x_star (to a relative 1e-9), a key is
    missing or holds a value of the wrong type or a non-finite number, or
    the document is not a JSON object."""
    doc = _read_doc(source, "reference document")
    what = "reference optimum"
    doc = _object(doc.get("ref_optimum", doc), what)
    x = _field(doc, "x", what, _floats)
    if x.shape != (obj.dim,):
        raise ValueError("reference optimum has dimension %d, expected %d"
                         % (x.size, obj.dim))
    f = _field(doc, "f", what, _finite)
    fx = float(obj.value(x))
    # written so that a NaN value fails
    if not abs(fx - f) <= 1e-9 * max(1.0, abs(f)):
        raise ValueError("%s key 'f': %r is not the objective's value at x, "
                         "%r" % (what, f, fx))
    obj.reference_optimum = (x, f)


def load_instance(source) -> SmoothObjective:
    """Rebuild an objective from a JSON document, dict, or file path.

    Raises ValueError on an unknown kind, a missing key, a value of the
    wrong type (a list where a number belongs, a non-integer n or d, a
    seed numpy cannot seed from reproducibly), a non-finite number (NaN or
    an infinity anywhere but the smoothness exponent p, where inf is the
    sup norm and only NaN is refused), or a part that should be a JSON
    object and is not."""
    doc = _read_doc(source, "instance")
    kind = doc.get("kind")
    what = "%s instance" % (kind,)
    if kind == "logsumexp":
        mu = _field(doc, "mu", what, _finite, 0.0)
        if "A" in doc and "b" in doc:
            obj = LogSumExpAffine(_field(doc, "A", what, _floats),
                                  _field(doc, "b", what, _floats),
                                  mu=mu, seed=doc.get("seed"))
        else:
            obj = make_logsumexp_instance(_field(doc, "n", what, operator.index),
                                          _field(doc, "d", what, operator.index),
                                          mu, _field(doc, "seed", what, _seed))
    elif kind == "softmax":
        obj = SymmetricSoftmax(_field(doc, "d", what, operator.index),
                               alpha=_field(doc, "alpha", what, _finite, 1.0))
    elif kind == "quadratic":
        obj = Quadratic(_field(doc, "h", what, _floats),
                        center=_field(doc, "center", what, _floats),
                        offset=_field(doc, "offset", what, _finite, 0.0))
    else:
        raise ValueError("unknown instance kind %r" % (kind,))
    if "smoothness" in doc:
        what = "smoothness entry"
        s = _object(doc["smoothness"], what)
        # LpGeometry reads the "inf" that save_instance writes for p = inf,
        # and refuses NaN
        obj.smoothness = (_field(s, "L", what, _finite),
                          _field(s, "p", what, LpGeometry))
    if "ref_optimum" in doc:
        attach_reference(obj, doc)
    return obj
