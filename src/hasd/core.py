"""Hyper-accelerated steepest descent (HASD).

Accelerated l_p steepest descent in which the dual-averaging weight a_{t+1}
and the next iterate x_{t+1} are chosen *simultaneously*: the scalar rho_t
tying them together must land within a factor 2 of the squared l2/l_{p*}
gradient-norm ratio measured at the resulting point.  The pair is found by
a binary search over the interpolation parameter theta = A_t / A_{t+1}.

Per accepted iteration the following hold (up to floating point):

  window       rho_t in [r/2, 2r],  r = ||grad f(x_{t+1})||_2^2 / ||.||_{p*}^2
  recurrence   18 L rho_t a_{t+1}^2 = A_t + a_{t+1}
  progress     <grad f(x_{t+1}), y_t - x_{t+1}> >= L ||x_{t+1}-y_t||_p^2
                                                >= ||grad f(x_{t+1})||_{p*}^2 / (9L)
  potential    A_t f(x_t) + B_t <= min_x psi_t(x)
  growth       sqrt(A_t) >= G_t * t / (18 sqrt(L))

which combine into the rate  f(x_T) - f* <= 324 L ||x_0 - x*||_2^2 / (G^2 T^2).
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import LpGeometry, lp_norm, steepest_step


def tolerance(scale: float, rel: float = 1e-8) -> float:
    """Relative comparison tolerance with an absolute floor."""
    s = abs(scale)
    return rel * s + 1e-10 * (1.0 + s)


class CouplingSearchError(RuntimeError):
    """The coupling search exhausted its oracle budget without acceptance."""

    def __init__(self, bracket, calls, last_zeta=None):
        self.bracket = bracket
        self.calls = calls
        self.last_zeta = last_zeta
        super().__init__(
            "no coupling found within %d oracle calls, bracket=(%.6e, %.6e), "
            "last zeta=%r" % (calls, bracket[0], bracket[1], last_zeta))


class NonFiniteProbeError(CouplingSearchError):
    """A coupling probe measured a NaN zeta.

    A non-finite entry in the probe's gradient makes both norms in zeta
    infinite or NaN, so this covers every non-finite gradient (and a finite
    one whose squared norms overflow).  The search stops at that probe
    instead of bisecting on a NaN comparison until its budget is spent.
    """

    def __init__(self, theta, bracket, calls):
        self.theta = theta
        self.bracket = bracket
        self.calls = calls
        self.last_zeta = math.nan
        RuntimeError.__init__(
            self, "zeta is NaN at theta=%.6e after %d oracle calls "
            "(non-finite gradient), bracket=(%.6e, %.6e)"
            % (theta, calls, bracket[0], bracket[1]))


class ExactOptimum(Exception):
    """A probed point has an exactly zero gradient."""

    def __init__(self, x, y):
        self.x = x
        self.y = y
        super().__init__("probe hit a point with zero gradient")


@dataclass
class HasdConfig:
    """Run parameters.

    L is the smoothness constant for the chosen geometry; eps is the
    search accuracy (early-exit gap threshold when a reference optimum is
    attached to the objective); max_search_calls caps gradient evaluations
    per coupling search; grad_tol declares convergence when the dual
    gradient norm falls below it; step_scale multiplies 1/L inside the
    steepest step only (a tuning knob; values other than 1 void the
    per-iteration guarantees while leaving the coupling logic intact).
    """

    L: float
    geom: LpGeometry
    eps: float = 1e-8
    max_search_calls: int = 200
    max_iters: int = 100
    grad_tol: float = 1e-12
    step_scale: float = 1.0

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError("L must be positive")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.max_search_calls < 2:
            raise ValueError("max_search_calls must be at least 2")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.grad_tol < 0:
            raise ValueError("grad_tol must be nonnegative")
        if self.step_scale <= 0:
            raise ValueError("step_scale must be positive")

    @property
    def step_L(self) -> float:
        return self.L / self.step_scale


class HasdState:
    """Mutable per-run state.

    The lower model psi_t(x) = 0.5 ||x - x0||_2^2 + <u_t, x> + c_t is kept
    in accumulator form: u_t = sum a_i grad f(x_i) and c_t = sum a_i
    (f(x_i) - <grad f(x_i), x_i>), so its minimizer v_t = x0 - u_t and
    minimum value are exact closed forms with no drift.
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
        self.psi_const = 0.0
        self.G_sum = 0.0

    @property
    def v(self):
        """Minimizer of the current lower model."""
        return self.x0 - self.grad_accum

    def psi(self, x) -> float:
        x = np.asarray(x, dtype=float)
        d = x - self.x0
        return 0.5 * float(d @ d) + float(self.grad_accum @ x) + self.psi_const

    def psi_min(self) -> float:
        """psi_t at its minimizer v_t, in closed form."""
        u = self.grad_accum
        return float(u @ self.x0) - 0.5 * float(u @ u) + self.psi_const

    def accumulate(self, a: float, x_new, f_new: float, g_new, dual: float,
                   l2: float, L: float):
        """Fold an accepted iterate into A, B, psi, and the gain average."""
        self.A += a
        self.B += (self.A / (18.0 * L)) * dual * dual
        self.grad_accum = self.grad_accum + a * np.asarray(g_new, dtype=float)
        self.psi_const += a * (f_new - float(np.asarray(g_new) @ np.asarray(x_new)))
        self.G_sum += dual / l2
        self.x = np.asarray(x_new, dtype=float)
        self.t += 1


@dataclass
class CouplingResult:
    """Outcome of one coupling search."""

    theta: float | None
    rho: float | None
    a_next: float | None
    y: np.ndarray | None
    x_next: np.ndarray | None
    zeta: float | None
    oracle_calls: int
    early_converged: bool = False
    grad_x_next: np.ndarray | None = None
    f_x_next: float | None = None


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
    # diagnostic extras for the invariant suite (not part of the CSV schema)
    progress_inner: float | None = None
    progress_model: float | None = None
    progress_dual: float | None = None
    potential_lhs: float | None = None
    potential_rhs: float | None = None
    growth_lhs: float | None = None
    growth_rhs: float | None = None
    converged: bool = False


@dataclass
class RunReport:
    """Summary of one optimizer run."""

    method: str
    final_x: np.ndarray
    final_f: float
    gap: float | None
    iters: int
    grad_calls: int
    G_mean: float | None = None
    R: float | None = None
    certificate: float | None = None
    invariants: dict | None = None
    converged_early: bool = False
    restart_gaps: list | None = None
    restart_G: list | None = None
    traces: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "final_f": self.final_f,
            "gap": self.gap,
            "iters": self.iters,
            "oracle_calls": self.grad_calls,
            "G_mean": self.G_mean,
            "R": self.R,
            "certificate": self.certificate,
            "invariants": self.invariants,
            "converged_early": self.converged_early,
            "restart_gaps": self.restart_gaps,
            "restart_G": self.restart_G,
            "final_x": np.asarray(self.final_x, dtype=float).tolist(),
        }


def a_from_rho(A_t: float, L: float, rho: float) -> float:
    """Positive root a of 18 L rho a^2 = A_t + a.

    a = (1 + sqrt(1 + 72 L rho A_t)) / (36 L rho); at A_t = 0 this is
    1/(18 L rho).
    """
    if L <= 0 or rho <= 0:
        raise ValueError("a_from_rho needs L > 0 and rho > 0")
    if A_t < 0:
        raise ValueError("A_t must be nonnegative")
    return (1.0 + math.sqrt(1.0 + 72.0 * L * rho * A_t)) / (36.0 * L * rho)


def search_call_bound(p: float, d: int, L: float, eps: float, R: float) -> float:
    """Worst-case number of theta probes for one coupling search.

    9 + (5(p-2)/2p) log2(d) + log2(L D_R / eps),  D_R = (R + 1458 R^2)
    (20 R + 4374 R^2).  Each probe costs two gradient evaluations.
    Valid for eps <= L D_R / 6.
    """
    if d <= 0 or L <= 0 or eps <= 0 or R <= 0:
        raise ValueError("need positive d, L, eps, R")
    coeff = 0.5 if math.isinf(p) else (p - 2.0) / (2.0 * p)
    D_R = (R + 1458.0 * R * R) * (20.0 * R + 4374.0 * R * R)
    return 9.0 + 5.0 * coeff * math.log2(d) + math.log2(L * D_R / eps)


def zeta_eval(theta: float, state: HasdState, obj, cfg: HasdConfig):
    """Probe the coupling diagnostic at interpolation parameter theta.

    Forms y_theta = theta x_t + (1-theta) v_t, takes the steepest step to
    x_theta, and returns (zeta, y_theta, x_theta, grad_x_theta) with

        zeta = 18 L (1-theta)^2 A_t / theta
               * ||grad f(x_theta)||_2^2 / ||grad f(x_theta)||_{p*}^2.

    Costs exactly two gradient evaluations.  Raises ExactOptimum if the
    gradient at x_theta vanishes identically.
    """
    if not (0.0 < theta < 1.0):
        raise ValueError("theta must lie strictly inside (0, 1)")
    if state.A <= 0.0:
        raise ValueError("coupling search requires A_t > 0 (run step_t0 first)")
    y = theta * state.x + (1.0 - theta) * state.v
    gy = obj.gradient(y)
    x = steepest_step(y, gy, cfg.step_L, cfg.geom)
    gx = obj.gradient(x)
    dual = lp_norm(gx, cfg.geom.p_dual)
    if dual == 0.0:
        raise ExactOptimum(x, y)
    l2 = float(np.linalg.norm(gx))
    zeta = (18.0 * cfg.L * (1.0 - theta) ** 2 * state.A / theta) * (l2 * l2) / (dual * dual)
    return zeta, y, x, gx


_THETA_MIN = 1e-12
_GRID_POINTS = 64


def find_coupling(state: HasdState, obj, cfg: HasdConfig) -> CouplingResult:
    """Binary search for a (rho, x_next) pair inside the acceptance window.

    Maintains a bracket on theta in (0, 1); zeta blows up as theta -> 0
    and vanishes as theta -> 1, so a probe above the 5/4 target moves the
    lower end up and one below moves the upper end down.  Accepts as soon
    as zeta lands in [1/2, 2], which is all the downstream guarantees use.
    If the bracket collapses without acceptance (zeta need not be globally
    monotone), a uniform grid of theta values is scanned before raising
    CouplingSearchError.  Exceeding cfg.max_search_calls gradient
    evaluations is a hard error, and a NaN zeta (a non-finite gradient)
    raises NonFiniteProbeError at the probe that measured it.

    When the objective carries a reference optimum and a probed point
    already has gap <= cfg.eps, or a probe hits a zero gradient, returns
    early_converged=True with that point.
    """
    ref = obj.reference_optimum
    calls = 0
    last_zeta = None

    def attempt(th):
        nonlocal calls, last_zeta
        calls += 2
        zeta, y, x, gx = zeta_eval(th, state, obj, cfg)
        if math.isnan(zeta):
            raise NonFiniteProbeError(th, (lo, hi), calls)
        last_zeta = zeta
        if 0.5 <= zeta <= 2.0:
            rho = th / (18.0 * cfg.L * (1.0 - th) ** 2 * state.A)
            a = state.A * (1.0 - th) / th
            return CouplingResult(theta=th, rho=rho, a_next=a, y=y, x_next=x,
                                  zeta=zeta, oracle_calls=calls,
                                  grad_x_next=gx)
        if ref is not None:
            fx = obj.value(x)
            if fx - ref[1] <= cfg.eps:
                return CouplingResult(theta=th, rho=None, a_next=None, y=y,
                                      x_next=x, zeta=zeta, oracle_calls=calls,
                                      early_converged=True, grad_x_next=gx,
                                      f_x_next=fx)
        return zeta

    lo, hi = _THETA_MIN, 1.0 - _THETA_MIN
    try:
        while calls + 2 <= cfg.max_search_calls and hi - lo > 4.0 * _THETA_MIN:
            mid = 0.5 * (lo + hi)
            out = attempt(mid)
            if isinstance(out, CouplingResult):
                return out
            if out > 1.25:
                lo = mid
            else:
                hi = mid
        # bracket collapsed or budget nearly spent: fall back to a scan
        for th in np.linspace(0.0, 1.0, _GRID_POINTS + 2)[1:-1]:
            if calls + 2 > cfg.max_search_calls:
                break
            out = attempt(float(th))
            if isinstance(out, CouplingResult):
                return out
    except ExactOptimum as opt:
        return CouplingResult(theta=None, rho=None, a_next=None, y=opt.y,
                              x_next=opt.x, zeta=None, oracle_calls=calls,
                              early_converged=True,
                              grad_x_next=np.zeros_like(opt.x))
    raise CouplingSearchError((lo, hi), calls, last_zeta)


def _gap(f: float, ref) -> float | None:
    return None if ref is None else f - ref[1]


def _hasd_trace(state: HasdState, cfg: HasdConfig, f_new: float, gap,
                l2: float, dual: float, rho, theta, zeta, calls: int,
                y, x_new, g_new) -> IterationTrace:
    """Assemble the post-update trace row with invariant diagnostics."""
    L = cfg.L
    inner = model = dual_q = None
    if y is not None:
        inner = float(np.asarray(g_new) @ (np.asarray(y) - np.asarray(x_new)))
        model = L * lp_norm(np.asarray(x_new) - np.asarray(y), cfg.geom.p) ** 2
        dual_q = dual * dual / (9.0 * L)
    return IterationTrace(
        iter=state.t, f=f_new, gap=gap, grad_l2=l2, grad_dual=dual,
        rho=rho, theta=theta, zeta=zeta, search_calls=calls,
        A=state.A, B=state.B, G_running=state.G_sum / state.t,
        progress_inner=inner, progress_model=model, progress_dual=dual_q,
        potential_lhs=state.A * f_new + state.B,
        potential_rhs=state.psi_min(),
        growth_lhs=math.sqrt(state.A),
        growth_rhs=state.G_sum / (18.0 * math.sqrt(L)))


def step_t0(state: HasdState, obj, cfg: HasdConfig):
    """First iteration: y_0 = v_0 = x_0, then rho_0 is read off exactly.

    Takes the steepest step from x_0, sets rho_0 to the gradient-norm
    ratio at x_1 (so the window holds with equality) and a_1 = A_1 =
    1/(18 L rho_0).  Returns (state, trace); trace is None when the run
    starts at a stationary point.
    """
    if state.t != 0:
        raise ValueError("step_t0 requires a fresh state (t = 0)")
    g0 = obj.gradient(state.x)
    if not np.any(g0):
        return state, None
    x1 = steepest_step(state.x, g0, cfg.step_L, cfg.geom)
    g1 = obj.gradient(x1)
    f1 = obj.value(x1)
    gap = _gap(f1, obj.reference_optimum)
    dual = lp_norm(g1, cfg.geom.p_dual)
    l2 = float(np.linalg.norm(g1))
    x0 = state.x.copy()
    if dual == 0.0:
        state.x = x1
        tr = IterationTrace(iter=1, f=f1, gap=gap, grad_l2=0.0, grad_dual=0.0,
                            search_calls=2, converged=True)
        return state, tr
    rho0 = (l2 * l2) / (dual * dual)
    a1 = a_from_rho(0.0, cfg.L, rho0)
    state.accumulate(a1, x1, f1, g1, dual, l2, cfg.L)
    tr = _hasd_trace(state, cfg, f1, gap, l2, dual, rho0, None, None, 2,
                     x0, x1, g1)
    return state, tr


def step(state: HasdState, obj, cfg: HasdConfig):
    """One accelerated iteration (t >= 1): search, step, fold into state."""
    if state.t < 1:
        raise ValueError("step requires t >= 1 (run step_t0 first)")
    res = find_coupling(state, obj, cfg)
    if res.early_converged:
        state.x = np.asarray(res.x_next, dtype=float)
        f_new = res.f_x_next if res.f_x_next is not None else obj.value(state.x)
        g = res.grad_x_next
        tr = IterationTrace(
            iter=state.t + 1, f=f_new, gap=_gap(f_new, obj.reference_optimum),
            grad_l2=float(np.linalg.norm(g)),
            grad_dual=lp_norm(g, cfg.geom.p_dual),
            theta=res.theta, zeta=res.zeta, search_calls=res.oracle_calls,
            A=state.A, B=state.B, converged=True)
        return state, tr
    g_new = res.grad_x_next
    f_new = obj.value(res.x_next)
    dual = lp_norm(g_new, cfg.geom.p_dual)
    l2 = float(np.linalg.norm(g_new))
    state.accumulate(res.a_next, res.x_next, f_new, g_new, dual, l2, cfg.L)
    tr = _hasd_trace(state, cfg, f_new, _gap(f_new, obj.reference_optimum),
                     l2, dual, res.rho, res.theta, res.zeta,
                     res.oracle_calls, res.y, res.x_next, g_new)
    return state, tr


def _invariant_counters(traces, L: float) -> dict:
    """Count per-iteration violations of the run invariants."""
    fails = {"window": 0, "recurrence": 0, "progress": 0, "potential": 0,
             "growth": 0}
    prev_A = 0.0
    for tr in traces:
        if tr.iter == 0 or tr.converged or tr.A is None:
            continue
        if tr.rho is not None and tr.grad_dual and tr.grad_l2 is not None:
            r = (tr.grad_l2 ** 2) / (tr.grad_dual ** 2)
            if not (0.5 * r - tolerance(r) <= tr.rho <= 2.0 * r + tolerance(r)):
                fails["window"] += 1
            a = tr.A - prev_A
            resid = 18.0 * L * tr.rho * a * a - tr.A
            if abs(resid) > tolerance(tr.A):
                fails["recurrence"] += 1
        if tr.progress_inner is not None:
            m = tr.progress_model
            if tr.progress_inner < m - tolerance(m) or m < tr.progress_dual - tolerance(m):
                fails["progress"] += 1
        if tr.potential_lhs is not None:
            if tr.potential_lhs > tr.potential_rhs + tolerance(tr.potential_rhs):
                fails["potential"] += 1
        if tr.growth_lhs is not None:
            if tr.growth_lhs < tr.growth_rhs - tolerance(tr.growth_rhs):
                fails["growth"] += 1
        prev_A = tr.A if tr.A is not None else prev_A
    return fails


def run(obj, x0, cfg: HasdConfig) -> RunReport:
    """Run HASD for cfg.max_iters iterations (or to early convergence)."""
    x0 = np.asarray(x0, dtype=float)
    ref = obj.reference_optimum
    f0 = obj.value(x0)
    g0 = obj.gradient(x0)
    grad_calls = 1
    traces = [IterationTrace(iter=0, f=f0, gap=_gap(f0, ref),
                             grad_l2=float(np.linalg.norm(g0)),
                             grad_dual=lp_norm(g0, cfg.geom.p_dual))]
    state = HasdState(x0)
    converged = False
    if cfg.max_iters > 0:
        state, tr = step_t0(state, obj, cfg)
        if tr is None:
            converged = True
        else:
            grad_calls += tr.search_calls
            traces.append(tr)
            converged = tr.converged or tr.grad_dual <= cfg.grad_tol
    while not converged and state.t < cfg.max_iters:
        state, tr = step(state, obj, cfg)
        grad_calls += tr.search_calls
        traces.append(tr)
        converged = tr.converged or tr.grad_dual <= cfg.grad_tol
    final_f = traces[-1].f
    G_mean = state.G_sum / state.t if state.t > 0 else None
    R = None if ref is None else float(np.linalg.norm(x0 - ref[0]))
    cert = None
    if ref is not None and state.t > 0 and G_mean:
        cert = 324.0 * cfg.L * R * R / (G_mean ** 2 * state.t ** 2)
    return RunReport(method="hasd", final_x=state.x, final_f=final_f,
                     gap=_gap(final_f, ref), iters=state.t,
                     grad_calls=grad_calls, G_mean=G_mean, R=R,
                     certificate=cert,
                     invariants=_invariant_counters(traces, cfg.L),
                     converged_early=converged, traces=traces)


def run_restarting(obj, x0, mu: float, eps: float, cfg: HasdConfig,
                   G_hat: float = 1.0, K: int | None = None) -> RunReport:
    """Outer restart loop for mu-strongly-convex (w.r.t. l2) objectives.

    Each round runs T = ceil((36 / G_hat) sqrt(L / mu)) inner iterations
    with the lower model re-centered at the round's start, which at least
    halves the optimality gap; K = ceil(log2(gap_0 / eps)) rounds reach
    gap <= eps.  K is derived from the reference optimum when available,
    otherwise it must be supplied.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    if G_hat <= 0:
        raise ValueError("G_hat must be positive")
    if eps <= 0:
        raise ValueError("eps must be positive")
    x0 = np.asarray(x0, dtype=float)
    ref = obj.reference_optimum
    f_start = obj.value(x0)
    gap0 = _gap(f_start, ref)
    if K is None:
        if ref is None:
            raise ValueError("run_restarting needs a reference optimum or K")
        K = 0 if gap0 <= eps else max(1, math.ceil(math.log2(gap0 / eps)))
    T = math.ceil((36.0 / G_hat) * math.sqrt(cfg.L / mu))
    inner_cfg = replace(cfg, max_iters=T, eps=min(cfg.eps, eps))
    x = x0
    gaps = [gap0] if gap0 is not None else None
    round_G = []
    traces = []
    offset = 0
    grad_calls = 0
    fails = None
    report = None
    for k in range(K):
        report = run(obj, x, inner_cfg)
        x = report.final_x
        grad_calls += report.grad_calls
        if gaps is not None:
            gaps.append(report.gap)
        round_G.append(report.G_mean)
        if fails is None:
            fails = dict(report.invariants)
        else:
            for key, n in report.invariants.items():
                fails[key] += n
        rows = report.traces if k == 0 else report.traces[1:]
        for tr in rows:
            tr.iter += offset
            traces.append(tr)
        offset = traces[-1].iter if traces else 0
        if report.gap is not None and report.gap <= eps:
            break
    final_f = obj.value(x)
    return RunReport(method="hasd+restart", final_x=x, final_f=final_f,
                     gap=_gap(final_f, ref), iters=offset,
                     grad_calls=grad_calls,
                     G_mean=report.G_mean if report else None,
                     R=None if ref is None else float(np.linalg.norm(x0 - ref[0])),
                     invariants=fails,
                     converged_early=bool(report and report.converged_early),
                     restart_gaps=gaps, restart_G=round_G, traces=traces)


def grad_norm_stopping(traces, L: float, R: float, G_hat: float, eps: float):
    """Iteration counts guaranteeing a small dual gradient norm.

    Returns (T_naive, T_improved, min_grad_dual): the direct count
    ceil(18 sqrt(2) L R / (G_hat eps)), the cubic-decay count
    ceil(21 (L R)^{2/3} / (G_hat eps)^{2/3}), and the smallest dual
    gradient norm observed in the traces (None if no rows carry one).
    """
    if L <= 0 or R <= 0 or G_hat <= 0 or eps <= 0:
        raise ValueError("need positive L, R, G_hat, eps")
    T_naive = math.ceil(18.0 * math.sqrt(2.0) * L * R / (G_hat * eps))
    T_improved = math.ceil(21.0 * (L * R) ** (2.0 / 3.0) / (G_hat * eps) ** (2.0 / 3.0))
    seen = [tr.grad_dual for tr in traces
            if tr.grad_dual is not None and tr.iter >= 1]
    return T_naive, T_improved, (min(seen) if seen else None)
