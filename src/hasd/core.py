"""Hyper-accelerated steepest descent (HASD).

Accelerated l_p steepest descent in which the dual-averaging weight a_{t+1}
and the next iterate x_{t+1} are chosen *simultaneously*: the scalar rho_t
tying them together must land within a factor 2 of the squared l2/l_{p*}
gradient-norm ratio measured at the resulting point.  The pair is found by
a bisection over the interpolation parameter theta = A_t / A_{t+1}, at
most 38 probes.  zeta is one product c(theta) r: the factor c(theta) =
18 L (1-theta)^2 A_t / theta is known up front, and the norm ratio r is
clamped to Hoelder's interval [d^-(1-2/p), 1].  Rounding is monotone, so
c d^-(1-2/p) > 2 proves zeta > 2 and c < 1/2 proves zeta < 1/2: the
search settles such a probe exactly, with no oracle call, and every
other probe costs two.  A measured gradient with no ratio to read
(a non-finite entry, or a square that overflows or underflows) raises
NonFiniteProbeError, at a probe or at the first step.

Per accepted iteration the following hold (up to floating point):

  window       rho_t in [r/2, 2r],  r = ||grad f(x_{t+1})||_2^2 / ||.||_{p*}^2
  recurrence   18 L rho_t a_{t+1}^2 = A_t + a_{t+1}
  progress     <grad f(x_{t+1}), y_t - x_{t+1}> >= L ||x_{t+1}-y_t||_p^2
                                                >= ||grad f(x_{t+1})||_{p*}^2 / (9L)
  potential    A_t f(x_t) + B_t <= min_x psi_t(x)
  growth       sqrt(A_t) >= G_t * t / (18 sqrt(L))

which combine into the rate  f(x_T) - f* <= 324 L ||x_0 - x*||_2^2 / (G^2 T^2).
With a reference optimum x* and R = ||x_0 - x*||_2 four more hold, named in
REFERENCE_CHECKS: psi_t(x*) <= R^2/2 + A_t f*, ||v_t - x*||_2 <= R,
f(x_t) - f* <= R^2/(2 A_t) and ||grad f(x_t)||_{p*}^2 <= 2 L (f(x_t) - f*).

iterate yields a run's rows, x_0 first; a row that folds a step into the
state carries these as violation magnitudes in its `violations`.
A run stops at an exactly zero gradient, after max_iters steps, or, with
a reference optimum attached, at the first iterate it folds in within
eps of the reference value.  The iterates depend only on the coupling
search, the steepest step and that stop, so with rows off (the tuning
sweep's grid runs) the loop takes no violation and no row until the
final one, and an f value only where the stop needs it.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import _TINY, LpGeometry, lp_norm, steepest_step


class CouplingSearchError(RuntimeError):
    """Coupling search failed: its bracket collapsed with no probe accepted.

    calls counts gradient evaluations, and last_zeta is the zeta of the
    last probe that measured one (None when every probe was settled from
    its norm bounds).  run re-raises it with traces, the rows it built
    before the failure (None when raised elsewhere).
    """

    traces = None

    def __init__(self, bracket, calls, last_zeta=None):
        self.bracket = bracket
        self.calls = calls
        self.last_zeta = last_zeta
        super().__init__(
            "no coupling found within %d oracle calls, bracket=(%.6e, %.6e), "
            "last zeta=%r" % (calls, bracket[0], bracket[1], last_zeta))


class NonFiniteProbeError(CouplingSearchError):
    """A measured gradient g gives no ratio ||g||_2^2 / ||g||_{p*}^2.

    A non-finite entry in g makes both norms infinite or NaN, so this
    covers every non-finite gradient, and a nonzero finite one with a
    square that overflows or underflows (see _norm_ratio).  At a coupling
    probe zeta is then NaN: the search stops at that probe instead of
    bisecting on a NaN comparison until its bracket collapses.  Only a
    measured probe can raise it: one that find_coupling settles from its
    norm bounds makes no oracle call.  At the first step (at_first_step)
    rho_0 is NaN, so no weight a_1 follows; that step makes no search:
    theta, bracket and last_zeta are None, and calls is its one gradient
    call, at x_1.
    """

    def __init__(self, theta, bracket, calls, message=None):
        self.theta = theta
        self.bracket = bracket
        self.calls = calls
        self.last_zeta = None if theta is None else math.nan
        RuntimeError.__init__(self, message or (
            "zeta is NaN at theta=%.6e after %d oracle calls "
            "(non-finite gradient, or squared norms that overflow or "
            "underflow), bracket=(%.6e, %.6e)"
            % (theta, calls, bracket[0], bracket[1])))

    @classmethod
    def at_first_step(cls, grad_l2, grad_dual):
        """The error of a first step whose gradient at x_1 has no ratio."""
        return cls(None, None, 1,
                   "first step: rho_0 = nan at x_1 is not finite and "
                   "positive (||grad f(x_1)||_2 = %r, ||.||_{p*} = %r)"
                   % (grad_l2, grad_dual))


@dataclass
class HasdConfig:
    """Run parameters.

    L is the smoothness constant for the chosen geometry; eps is the
    target accuracy: with a reference optimum attached to the objective, a
    run stops at the first iterate it folds in whose gap is at most eps,
    and any run stops at an exactly zero gradient or after max_iters
    steps; step_scale multiplies 1/L inside the steepest step only (a
    tuning knob; values other than 1 void the per-iteration guarantees
    while leaving the coupling logic intact).
    """

    L: float
    geom: LpGeometry
    eps: float = 1e-8
    max_iters: int = 100
    step_scale: float = 1.0

    def __post_init__(self):
        # written so that NaN fails every test
        if not 0 < self.L < math.inf:
            raise ValueError("L must be positive and finite, got %r" % (self.L,))
        if not self.eps > 0:
            raise ValueError("eps must be positive, got %r" % (self.eps,))
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if not 0 < self.step_scale < math.inf:
            raise ValueError("step_scale must be positive and finite, got %r"
                             % (self.step_scale,))

    @property
    def step_L(self) -> float:
        return self.L / self.step_scale


class HasdState:
    """Mutable per-run state.

    The lower model psi_t(x) = 0.5 ||x - x0||_2^2 + <u_t, x> + c_t is kept
    in accumulator form: u_t = sum a_i grad f(x_i) and c_t = sum a_i
    (f(x_i) - <grad f(x_i), x_i>), so its minimizer v_t = x0 - u_t and
    minimum value are exact closed forms with no drift.  v is refreshed
    whenever grad_accum changes, so coupling probes read it without
    recomputing it.  A point folded in without its f value leaves c_t, and
    so psi, undefined: psi and psi_min then raise ValueError.  grad_calls
    counts the gradient evaluations the run has spent; R = ||x0 - x*||_2
    with a reference optimum attached (iterate sets it), else None.
    """

    def __init__(self, x0):
        x0 = np.asarray(x0, dtype=float)
        if x0.ndim != 1:
            raise ValueError("x0 must be a vector")
        self.x0 = x0.copy()
        self.x = x0.copy()
        self.t = 0
        self.A = 0.0
        self.B = 0.0
        self.grad_accum = np.zeros_like(x0)
        self.v = self.x0 - self.grad_accum  # minimizer of the lower model
        self.psi_const = 0.0  # None once a point is folded without f
        self.G_sum = 0.0
        self.grad_calls = 0
        self.R = None

    def _psi_const(self) -> float:
        if self.psi_const is None:
            raise ValueError("psi is undefined: a point was folded into this "
                             "state without its f value")
        return self.psi_const

    def psi(self, x) -> float:
        x = np.asarray(x, dtype=float)
        d = x - self.x0
        return 0.5 * float(d.dot(d)) + float(self.grad_accum.dot(x)) + self._psi_const()

    def psi_min(self) -> float:
        """psi_t at its minimizer v_t, in closed form."""
        u = self.grad_accum
        return float(u.dot(self.x0)) - 0.5 * float(u.dot(u)) + self._psi_const()

    def accumulate(self, a: float, x_new, f_new: float | None, g_new,
                   dual: float, l2: float, L: float):
        """Fold an accepted iterate into A, B, psi, and the gain average;
        f_new None leaves psi undefined from here on.  x_new and g_new are
        float arrays of the state's shape; x_new becomes state.x."""
        self.A += a
        self.B += (self.A / (18.0 * L)) * dual * dual
        self.grad_accum = self.grad_accum + a * g_new
        self.v = self.x0 - self.grad_accum
        if f_new is None or self.psi_const is None:
            self.psi_const = None
        else:
            self.psi_const += a * (f_new - float(g_new.dot(x_new)))
        self.G_sum += dual / l2
        self.x = x_new
        self.t += 1


@dataclass
class CouplingResult:
    """Outcome of one coupling search (_fold derives rho and a from theta).

    grad_dual and grad_l2 are ||grad f(x_next)||_{p*} and ||.||_2, as the
    probe computed them; _fold reads their ratio through _norm_ratio, as
    zeta did.  A gradient with a square that overflows or underflows has
    no ratio and raises NonFiniteProbeError instead of making a result.
    """

    theta: float | None
    y: np.ndarray | None
    x_next: np.ndarray | None
    zeta: float | None
    oracle_calls: int
    grad_x_next: np.ndarray | None = None
    grad_dual: float | None = None
    grad_l2: float | None = None

    @property
    def early_converged(self) -> bool:
        """x_next has an exactly zero gradient: the run converged there."""
        return self.grad_dual == 0.0


@dataclass
class IterationTrace:
    """Per-iteration record; HASD-only columns stay None for baselines."""

    iter: int
    f: float
    gap: float | None = None
    grad_l2: float | None = None
    grad_dual: float | None = None
    rho: float | None = None
    theta: float | None = None
    zeta: float | None = None
    search_calls: int | None = None
    A: float | None = None
    B: float | None = None
    G_running: float | None = None
    violations: dict | None = None  # check name -> magnitude; not in the CSV
    converged: bool = False


@dataclass
class RunReport:
    """Summary of one optimizer run; final_f, gap, G_mean and whether the
    run converged (trace.converged) are its last row's."""

    method: str
    final_x: np.ndarray
    iters: int
    grad_calls: int
    traces: list
    R: float | None = None
    invariants: dict | None = None
    restart_gaps: list | None = None
    restart_G: list | None = None

    @property
    def final_f(self) -> float:
        return self.traces[-1].f

    @property
    def gap(self) -> float | None:
        return self.traces[-1].gap

    @property
    def G_mean(self) -> float | None:
        """The mean gain G over the folded steps; None before the first."""
        return self.traces[-1].G_running


def _grad_norms(g, geom: LpGeometry):
    """(||g||_{p*}, ||g||_2)."""
    return lp_norm(g, geom.p_dual), lp_norm(g, 2.0)


def _holder_lo(d: int, p: float) -> float:
    """d^-(1-2/p), Hoelder's lower end of ||g||_2^2 / ||g||_{p*}^2 in d
    coordinates (1.0 at p = 2).  _norm_ratio clamps to it and find_coupling
    settles probes on it: the settle rule holds because both read this
    one float."""
    return d ** (2.0 / p - 1.0)


def _norm_ratio(dual: float, l2: float, d: int, p: float):
    """(dual_sq, r) of a gradient g in d coordinates, from dual =
    ||g||_{p*} and l2 = ||g||_2: dual_sq = dual * dual, and r the quotient
    l2 * l2 / dual_sq clamped to Hoelder's interval [_holder_lo(d, p), 1],
    so the float r lies in that interval.  At p = 2 both norms are
    lp_norm(g, 2), so r is exactly 1.  r is NaN (no ratio) where a square
    is below the smallest normal float (0 too) or is inf or NaN."""
    dual_sq, l2_sq = dual * dual, l2 * l2
    if not (_TINY <= l2_sq < math.inf and _TINY <= dual_sq < math.inf):
        return dual_sq, math.nan
    q = l2_sq / dual_sq
    lo = _holder_lo(d, p)
    return dual_sq, lo if q < lo else 1.0 if q > 1.0 else q


def _coupling_factor(theta: float, A_t: float, L: float) -> float:
    """c(theta) = 18 L (1-theta)^2 A_t / theta, the factor of zeta that
    needs no oracle call: zeta(theta) = c(theta) * r (see zeta_eval)."""
    return 18.0 * L * (1.0 - theta) ** 2 * A_t / theta


def zeta_eval(theta: float, state: HasdState, obj, cfg: HasdConfig):
    """Probe the coupling diagnostic at interpolation parameter theta.

    Forms y_theta = theta x_t + (1-theta) v_t, takes the steepest step to
    x_theta, and returns (zeta, y_theta, x_theta, g, ||g||_{p*}, ||g||_2),
    g = grad f(x_theta), with zeta the one product

        zeta = c(theta) * r,   c(theta) = 18 L (1-theta)^2 A_t / theta,

    where r = ||g||_2^2 / ||g||_{p*}^2 is read through _norm_ratio,
    clamped to Hoelder's interval [d^-(1-2/p), 1].  Costs exactly two
    gradient evaluations.  zeta is None when g vanishes identically
    (x_theta is then an exact optimum), and NaN where g gives no ratio: a
    non-finite g, or a square that overflows or underflows.
    """
    if not (0.0 < theta < 1.0):
        raise ValueError("theta must lie strictly inside (0, 1)")
    if state.A <= 0.0:
        raise ValueError("coupling search requires A_t > 0 (after the first step)")
    y = theta * state.x + (1.0 - theta) * state.v
    x = steepest_step(y, obj.gradient(y), cfg.step_L, cfg.geom)
    gx = obj.gradient(x)
    dual, l2 = _grad_norms(gx, cfg.geom)
    if dual == 0.0:
        return None, y, x, gx, dual, l2
    _, r = _norm_ratio(dual, l2, x.size, cfg.geom.p)
    return _coupling_factor(theta, state.A, cfg.L) * r, y, x, gx, dual, l2


_THETA_MIN = 1e-12


def find_coupling(state: HasdState, obj, cfg: HasdConfig) -> CouplingResult:
    """Bisection for a (theta, x_next) pair inside the acceptance window.

    Maintains a bracket on theta in (0, 1); zeta blows up as theta -> 0
    and vanishes as theta -> 1, so a probe above the window moves the
    lower end up and one below it moves the upper end down.  Returns the
    first probe whose zeta lands in [1/2, 2], which is all the downstream
    guarantees use, or whose gradient is exactly zero (zeta None, which
    _fold takes as convergence).  Raises CouplingSearchError when the
    bracket collapses (width at most 4e-12, after at most 38 probes; zeta
    need not be globally monotone), and NonFiniteProbeError at the probe
    that measured a NaN zeta (a non-finite gradient, or a square that
    overflows or underflows).  The bracket is the
    only cap the search needs: the paper's worst case, 9 + (5(p-2)/2p)
    log2 d + log2(L D_R / eps) probes with D_R = (R + 1458 R^2)(20 R +
    4374 R^2) and R = ||x_0 - x*||_2, is at least 55 on every cell of the
    invariant checker (seeds 0-79, at half the certified L too), above
    the 38 the bracket allows.

    zeta_eval measures zeta as the float product c * r, where c =
    _coupling_factor(theta, A_t, L) needs no oracle call and the float r
    lies in [r_lo, 1], r_lo = _holder_lo(d, p).  Rounding is monotone, so
    a computed c * r_lo > 2 proves the measured zeta > 2, and c < 1/2
    proves it < 1/2, for every d.  A probe that passes either test is
    settled: it moves the bracket as its measured zeta would have, with
    no oracle call, so every measured probe, and the returned one, is the
    probe a search measuring every theta makes.  At p = 2, r_lo = r = 1,
    so only a probe whose zeta = c lies in the window is measured.  Only
    a measured probe costs calls (two gradient evaluations), sets
    last_zeta and can raise NonFiniteProbeError.
    """
    if state.A <= 0.0:
        raise ValueError("coupling search requires A_t > 0 (after the first step)")
    r_lo = _holder_lo(state.x.size, cfg.geom.p)
    calls = 0
    last_zeta = None
    lo, hi = _THETA_MIN, 1.0 - _THETA_MIN
    while hi - lo > 4.0 * _THETA_MIN:
        th = 0.5 * (lo + hi)
        c = _coupling_factor(th, state.A, cfg.L)
        if c * r_lo > 2.0:  # zeta = c * r >= c * r_lo
            lo = th
            continue
        if c < 0.5:  # zeta = c * r <= c
            hi = th
            continue
        calls += 2
        zeta, y, x, gx, dual, l2 = zeta_eval(th, state, obj, cfg)
        if zeta is None or 0.5 <= zeta <= 2.0:
            return CouplingResult(theta=th, y=y, x_next=x, zeta=zeta,
                                  oracle_calls=calls, grad_x_next=gx,
                                  grad_dual=dual, grad_l2=l2)
        if math.isnan(zeta):
            raise NonFiniteProbeError(th, (lo, hi), calls)
        last_zeta = zeta
        if zeta > 2.0:
            lo = th
        else:
            hi = th
    raise CouplingSearchError((lo, hi), calls, last_zeta)


def _gap(f: float, ref) -> float | None:
    return None if ref is None else f - ref[1]


def _row_head(obj, t: int, x, g, geom: LpGeometry) -> IterationTrace:
    """Trace row t at x, g being grad f(x): f, gap, ||g||_2 and ||g||_{p*};
    the coupling columns stay empty."""
    f = obj.value(x)
    dual, l2 = _grad_norms(g, geom)
    return IterationTrace(iter=t, f=f, gap=_gap(f, obj.reference_optimum),
                          grad_l2=l2, grad_dual=dual)


INVARIANTS = ("window", "recurrence", "progress", "potential", "growth")
REFERENCE_CHECKS = ("psi_at_opt", "v_distance", "gap_model_bound",
                    "grad_conversion")
INVARIANT_TOL = 1e-8


def _ends_run(cfg: HasdConfig, t: int, converged: bool) -> bool:
    """The stop rule: a converged step, or t steps folded in with
    t >= cfg.max_iters."""
    return converged or t >= cfg.max_iters


def _fold(state: HasdState, obj, cfg: HasdConfig, res: CouplingResult,
          rows: bool = True):
    """Fold the point a step reached into the state and return its trace row.

    res is the step's search result.  The first step has no search: it
    passes its steepest step from x0 in the same form (theta and zeta None,
    one oracle call), and rho_0 is the gradient-norm ratio r at x_1, read
    through _norm_ratio as zeta reads it (NonFiniteProbeError where g has
    no ratio), and a_1 = 1/(18 L rho_0); a later step's rho and a follow
    from its theta.  The window check compares rho with the same clamped r,
    and every square of a norm is the product x * x.  At a zero gradient
    the run has converged: x moves to the point and nothing is folded in,
    so after the first step its row carries A, B and G_running as they
    stand.  A folded row carries the violation magnitudes of the five
    per-step guarantees, keyed by INVARIANTS, and with a reference optimum attached
    the four REFERENCE_CHECKS; one above INVARIANT_TOL is a violation.
    Growth is an absolute shortfall, the others are relative to the
    quantities compared.  With a reference optimum attached, a folded point
    whose gap is at most cfg.eps ends the run: its row is built as any
    other and marked converged.

    With rows off only what the iterates and the stop read is folded in:
    f is taken only when a reference is attached (psi is left undefined)
    and no row is built, except for the step that ends the run, whose row
    has no violations.  Otherwise None is returned.
    """
    L = cfg.L
    x_new, g_new = res.x_next, res.grad_x_next
    dual, l2 = res.grad_dual, res.grad_l2
    first = state.t == 0
    state.grad_calls += res.oracle_calls
    ref = obj.reference_optimum
    converged = dual == 0.0
    ends = _ends_run(cfg, state.t + 1, converged)
    f_new = gap = None
    if rows or ends or ref is not None:
        f_new = obj.value(x_new)
        gap = _gap(f_new, ref)
    if converged:
        state.x = x_new
        A, B, G = ((None,) * 3 if first
                   else (state.A, state.B, state.G_sum / state.t))
        return IterationTrace(iter=state.t + 1, f=f_new, gap=gap, grad_l2=l2,
                              grad_dual=dual, theta=res.theta, zeta=res.zeta,
                              search_calls=res.oracle_calls, A=A, B=B,
                              G_running=G, converged=True)
    # r = ||g||_2^2 / ||g||_{p*}^2, once: rho_0 and the window read it
    dual_sq, r = _norm_ratio(dual, l2, x_new.size, cfg.geom.p)
    if first:
        if math.isnan(r):
            raise NonFiniteProbeError.at_first_step(l2, dual)
        rho, a = r, 1.0 / (18.0 * L * r)  # the root at A_0 = 0
    else:
        th = res.theta  # = A_t / A_{t+1}, which fixes rho_t and a_{t+1}
        rho = th / (18.0 * L * (1.0 - th) ** 2 * state.A)
        a = state.A * (1.0 - th) / th
    A_before = state.A
    state.accumulate(a, x_new, f_new if rows else None, g_new, dual, l2, L)
    reached = ref is not None and gap <= cfg.eps
    if not (rows or ends or reached):
        return None
    tr = IterationTrace(
        iter=state.t, f=f_new, gap=gap, grad_l2=l2, grad_dual=dual,
        rho=rho, theta=res.theta, zeta=res.zeta, search_calls=res.oracle_calls,
        A=state.A, B=state.B, G_running=state.G_sum / state.t,
        converged=reached)
    if not rows:
        return tr
    a = state.A - A_before  # the weight as folded into A
    dx = x_new - res.y
    # <g, y - x> is exactly -<g, x - y>: negation commutes with rounding
    inner = -float(g_new.dot(dx))
    dx_p = lp_norm(dx, cfg.geom.p)
    model = L * (dx_p * dx_p)
    dual_q = dual_sq / (9.0 * L)
    psi_min = state.psi_min()
    v = tr.violations = {
        "window": max(0.5 - rho / r, rho / r - 2.0, 0.0),
        "recurrence": abs(18.0 * L * rho * a * a - state.A) / state.A,
        "progress": (max(model - inner, dual_q - model, 0.0)
                     / max(abs(inner), model, dual_q, 1e-30)),
        "potential": ((state.A * f_new + state.B - psi_min)
                      / max(abs(psi_min), 1e-12)),
        "growth": state.G_sum / (18.0 * math.sqrt(L)) - math.sqrt(state.A),
    }
    if ref is not None:
        x_star, f_star = ref
        R = state.R
        psi_bound = 0.5 * R * R + state.A * f_star
        u = state.v - x_star
        model_bound = R * R / (2.0 * state.A)
        conv = 2.0 * L * max(gap, 0.0)
        v["psi_at_opt"] = ((state.psi(x_star) - psi_bound)
                           / max(abs(psi_bound), 1.0))
        v["v_distance"] = (lp_norm(u, 2.0) - R) / max(R, 1e-30)
        v["gap_model_bound"] = (gap - model_bound) / max(model_bound, 1e-30)
        v["grad_conversion"] = (dual_sq - conv) / max(dual_sq, conv, 1e-20)
    return tr


def step(state: HasdState, obj, cfg: HasdConfig, rows: bool = True):
    """One accelerated iteration (t >= 1): search, step, fold into state.

    Returns (state, row); with rows off the row is None unless the step
    ends the run (see _fold).
    """
    if state.t < 1:
        raise ValueError("step requires t >= 1 (after the first step)")
    return state, _fold(state, obj, cfg, find_coupling(state, obj, cfg), rows)


def iterate(obj, x0, cfg: HasdConfig, rows: bool = True):
    """The HASD iteration loop: yields (state, trace) for the start x0 and
    after every step.

    Row 0 holds f and the gradient norms at x0.  The first step is the
    steepest step from y_0 = v_0 = x0 with the gradient row 0 already
    holds; rho_0 is the gradient-norm ratio at x_1 (so the window holds
    with equality) and a_1 = A_1 = 1/(18 L rho_0).  Then step runs until a
    trace is converged (a zero gradient, or with a reference optimum
    attached an iterate folded in with gap at most cfg.eps) or state.t
    reaches cfg.max_iters.  Only row 0 is yielded when cfg.max_iters is 0
    or the gradient at x0 is exactly zero, marked converged in the second
    case when cfg.max_iters > 0.  The same state object is yielded each
    time, updated in place, its R set before row 0.

    With rows off only the final row is built and yielded, from the
    gradient and norms in hand at the last point, and without violations;
    the iterates, state.t and state.grad_calls are those of a run with
    rows, and psi is left undefined.  f is then taken at each step only
    when a reference is attached, for the stop.
    """
    state = HasdState(x0)
    if obj.reference_optimum is not None:
        state.R = lp_norm(state.x0 - obj.reference_optimum[0], 2.0)
    g0 = obj.gradient(state.x)
    state.grad_calls = 1
    stop = cfg.max_iters == 0 or not np.count_nonzero(g0)
    if rows or stop:
        tr = _row_head(obj, 0, state.x, g0, cfg.geom)
        tr.converged = stop and cfg.max_iters > 0  # g0 == 0
        yield state, tr
    if stop:
        return
    x1 = steepest_step(state.x, g0, cfg.step_L, cfg.geom)
    g1 = obj.gradient(x1)
    dual, l2 = _grad_norms(g1, cfg.geom)
    tr = _fold(state, obj, cfg, CouplingResult(
        theta=None, y=state.x, x_next=x1, zeta=None, oracle_calls=1,
        grad_x_next=g1, grad_dual=dual, grad_l2=l2), rows)
    while True:
        if tr is not None:
            yield state, tr
            if _ends_run(cfg, state.t, tr.converged):
                return
        state, tr = step(state, obj, cfg, rows)


def _run(obj, x0, cfg: HasdConfig, rows: bool) -> RunReport:
    """run, or with rows off the same report from iterate's final row only:
    traces holds that row and invariants is None.  A CouplingSearchError
    is re-raised with the rows built before it as its traces."""
    traces = []
    fails = dict.fromkeys(INVARIANTS, 0)
    try:
        for state, tr in iterate(obj, x0, cfg, rows):
            traces.append(tr)
            v = tr.violations
            for name in INVARIANTS if v else ():
                if not v[name] <= INVARIANT_TOL:  # NaN is a violation
                    fails[name] += 1
    except CouplingSearchError as exc:
        exc.traces = traces
        raise
    return RunReport(method="hasd", final_x=state.x, iters=state.t,
                     grad_calls=state.grad_calls, traces=traces, R=state.R,
                     invariants=fails if rows else None)


def run(obj, x0, cfg: HasdConfig) -> RunReport:
    """Run HASD for cfg.max_iters iterations (or to early convergence)."""
    return _run(obj, x0, cfg, rows=True)


def run_restarting(obj, x0, mu: float, eps: float, cfg: HasdConfig,
                   G_hat: float = 1.0, K: int | None = None) -> RunReport:
    """Outer restart loop for mu-strongly-convex (w.r.t. l2) objectives.

    Each round runs T = ceil((36 / G_hat) sqrt(L / mu)) inner iterations
    with the lower model re-centered at the round's start, which at least
    halves the optimality gap; K = ceil(log2(gap_0 / eps)) rounds reach
    gap <= eps.  K is derived from the reference optimum when available,
    otherwise it must be supplied.  The report is the last round's with
    the fields that span rounds replaced (R is the first round's, the
    invariants are summed), so final_f and gap are its last row's.  With
    K = 0 (x0 already within eps, or as supplied) no round runs: the
    report is run's at max_iters 0, with invariants None.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    if G_hat <= 0:
        raise ValueError("G_hat must be positive")
    if eps <= 0:
        raise ValueError("eps must be positive")
    x0 = np.asarray(x0, dtype=float)
    ref = obj.reference_optimum
    gap0 = _gap(obj.value(x0), ref)
    if K is None:
        if ref is None:
            raise ValueError("run_restarting needs a reference optimum or K")
        K = 0 if gap0 <= eps else max(1, math.ceil(math.log2(gap0 / eps)))
    T = math.ceil((36.0 / G_hat) * math.sqrt(cfg.L / mu))
    inner_cfg = replace(cfg, max_iters=T, eps=min(cfg.eps, eps))
    x = x0
    rounds = []
    for _ in range(K):
        rounds.append(run(obj, x, inner_cfg))
        x = rounds[-1].final_x
        if rounds[-1].gap is not None and rounds[-1].gap <= eps:
            break
    gaps = None if gap0 is None else [gap0] + [r.gap for r in rounds]
    if not rounds:
        return replace(_run(obj, x0, replace(cfg, max_iters=0), rows=True),
                       method="hasd+restart", invariants=None,
                       restart_gaps=gaps, restart_G=[])
    traces = rounds[0].traces[:1]  # row 0 of round 0
    for rep in rounds:
        offset = traces[-1].iter
        for tr in rep.traces[1:]:
            tr.iter += offset
            traces.append(tr)
    return replace(rounds[-1], method="hasd+restart", iters=traces[-1].iter,
                   grad_calls=sum(r.grad_calls for r in rounds),
                   R=rounds[0].R,
                   invariants={key: sum(r.invariants[key] for r in rounds)
                               for key in INVARIANTS},
                   restart_gaps=gaps, restart_G=[r.G_mean for r in rounds],
                   traces=traces)


def rate_bounds(L: float, R: float, G: float, T: int):
    """End-of-run bounds after T steps with mean gain G, from ||x0 - x*|| = R.

    Returns (certificate, cubic): the gap bound f(x_T) - f* <= 324 L R^2 /
    (G T)^2, and the bound 8748 L^2 R^2 / (G^2 T^3) on the smallest
    squared dual gradient norm over steps 1..T.
    """
    cert = 324.0 * L * R * R / (G * G * T ** 2)
    cubic = 8748.0 * (L * L) * R * R / (G * G * T ** 3)
    return cert, cubic

