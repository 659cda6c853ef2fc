"""Accelerated steepest-descent core: coupling search, state, invariants."""

import math
from dataclasses import replace

import numpy as np
import pytest

from hasd.core import (CouplingSearchError, ExactOptimum, HasdConfig,
                       HasdState, NonFiniteProbeError, a_from_rho,
                       find_coupling, grad_norm_stopping, run, run_restarting,
                       search_call_bound, step, step_t0, tolerance, zeta_eval)
from hasd.geometry import LpGeometry, lp_norm, steepest_step
from hasd.objectives import (Quadratic, SymmetricSoftmax,
                             make_logsumexp_instance, smoothness_bound)

INF = math.inf


def quad_cfg(h, p=2.0, **kw):
    obj = Quadratic(np.asarray(h, dtype=float))
    geom = LpGeometry(p)
    return obj, HasdConfig(L=obj.smoothness_for(geom), geom=geom, **kw)


# ------------------------------------------------------------- utilities

def test_tolerance():
    assert tolerance(0.0) == 1e-10
    assert tolerance(100.0) == pytest.approx(1e-6 + 1e-10 * 101.0)
    assert tolerance(-100.0) == tolerance(100.0)


def test_a_from_rho_closed_form():
    assert a_from_rho(0.0, 2.0, 3.0) == pytest.approx(1.0 / (18.0 * 2.0 * 3.0), rel=1e-15)
    assert a_from_rho(1.0, 1.0, 1.0) == pytest.approx((1.0 + math.sqrt(73.0)) / 36.0, rel=1e-15)


def test_a_from_rho_solves_recurrence():
    rng = np.random.default_rng(0)
    for _ in range(100):
        A = rng.uniform(0, 50)
        L = 10.0 ** rng.uniform(-3, 3)
        rho = 10.0 ** rng.uniform(-2, 2)
        a = a_from_rho(A, L, rho)
        assert 18.0 * L * rho * a * a == pytest.approx(A + a, rel=1e-12)


def test_a_from_rho_matches_theta_parameterization():
    # with rho = theta / (18 L (1-theta)^2 A), the root is A (1-theta)/theta
    rng = np.random.default_rng(1)
    for _ in range(100):
        A = rng.uniform(1e-3, 20)
        L = 10.0 ** rng.uniform(-2, 2)
        th = rng.uniform(1e-4, 1 - 1e-4)
        rho = th / (18.0 * L * (1 - th) ** 2 * A)
        assert a_from_rho(A, L, rho) == pytest.approx(A * (1 - th) / th, rel=1e-10)


def test_a_from_rho_rejects_bad_inputs():
    with pytest.raises(ValueError):
        a_from_rho(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        a_from_rho(1.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        a_from_rho(-1.0, 1.0, 1.0)


def test_search_call_bound():
    base = search_call_bound(2.0, 16, 1.0, 1e-3, 1.0)
    D_R = (1.0 + 1458.0) * (20.0 + 4374.0)
    assert base == pytest.approx(9.0 + math.log2(D_R / 1e-3), rel=1e-12)
    # geometry coefficient: (p-2)/2p ramps from 0 at p=2 to 1/2 at p=inf
    assert search_call_bound(4.0, 16, 1.0, 1e-3, 1.0) - base == pytest.approx(5.0)
    assert search_call_bound(INF, 16, 1.0, 1e-3, 1.0) - base == pytest.approx(10.0)
    with pytest.raises(ValueError):
        search_call_bound(2.0, 0, 1.0, 1e-3, 1.0)
    with pytest.raises(ValueError):
        search_call_bound(2.0, 16, 1.0, -1.0, 1.0)


def test_config_validation():
    geom = LpGeometry(2)
    with pytest.raises(ValueError):
        HasdConfig(L=0.0, geom=geom)
    with pytest.raises(ValueError):
        HasdConfig(L=1.0, geom=geom, eps=0.0)
    with pytest.raises(ValueError):
        HasdConfig(L=1.0, geom=geom, max_search_calls=1)
    with pytest.raises(ValueError):
        HasdConfig(L=1.0, geom=geom, step_scale=0.0)
    assert HasdConfig(L=4.0, geom=geom, step_scale=2.0).step_L == 2.0


# ------------------------------------------------------------ lower model

def test_state_model_bookkeeping():
    st = HasdState(np.zeros(2))
    a1, x1, f1, g1 = 0.3, np.array([1.0, 0.0]), 2.0, np.array([0.5, -1.0])
    a2, x2, f2, g2 = 0.7, np.array([0.2, 0.4]), 1.0, np.array([-0.1, 0.3])
    st.accumulate(a1, x1, f1, g1, dual=1.0, l2=1.0, L=1.0)
    st.accumulate(a2, x2, f2, g2, dual=2.0, l2=1.0, L=1.0)
    assert st.A == pytest.approx(1.0)
    assert st.B == pytest.approx(0.3 / 18.0 * 1.0 + 1.0 / 18.0 * 4.0)
    assert st.t == 2 and st.G_sum == pytest.approx(3.0)
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.standard_normal(2) * 3
        direct = (0.5 * float((x - st.x0) @ (x - st.x0))
                  + a1 * (f1 + g1 @ (x - x1)) + a2 * (f2 + g2 @ (x - x2)))
        assert st.psi(x) == pytest.approx(direct, rel=1e-12)
        assert st.psi_min() <= st.psi(x) + 1e-12
    assert st.psi(st.v) == pytest.approx(st.psi_min(), rel=1e-12)
    np.testing.assert_allclose(st.v, -(a1 * g1 + a2 * g2), rtol=1e-15)


def test_state_rejects_matrix_start():
    with pytest.raises(ValueError):
        HasdState(np.zeros((2, 2)))


# -------------------------------------------------------- first iteration

def test_step_t0_quadratic_worked_example():
    obj, cfg = quad_cfg([1.0, 1.0])
    state = HasdState(np.array([2.0, 0.0]))
    state, tr = step_t0(state, obj, cfg)
    np.testing.assert_allclose(state.x, [1.0, 0.0], rtol=1e-15)
    assert tr.f == pytest.approx(0.5)
    assert tr.rho == pytest.approx(1.0)  # l2 and dual norms agree at p = 2
    assert state.A == pytest.approx(1.0 / 18.0, rel=1e-15)
    assert state.B == pytest.approx(1.0 / 324.0, rel=1e-15)
    assert tr.search_calls == 2 and tr.iter == 1
    assert tr.G_running == pytest.approx(1.0)
    assert tr.potential_lhs <= tr.potential_rhs + 1e-12
    assert tr.growth_lhs >= tr.growth_rhs - 1e-12


def test_step_t0_stationary_start():
    obj, cfg = quad_cfg([1.0, 2.0])
    state, tr = step_t0(HasdState(np.zeros(2)), obj, cfg)
    assert tr is None and state.t == 0


def test_step_t0_requires_fresh_state():
    obj, cfg = quad_cfg([1.0, 1.0])
    state = HasdState(np.array([2.0, 0.0]))
    state, _ = step_t0(state, obj, cfg)
    with pytest.raises(ValueError):
        step_t0(state, obj, cfg)
    with pytest.raises(ValueError):
        step(HasdState(np.ones(2)), obj, cfg)


# --------------------------------------------------------- coupling probe

def test_zeta_eval_validates_inputs():
    obj, cfg = quad_cfg([1.0, 1.0])
    fresh = HasdState(np.ones(2))
    with pytest.raises(ValueError):
        zeta_eval(0.5, fresh, obj, cfg)  # A = 0
    state, _ = step_t0(HasdState(np.array([2.0, 0.0])), obj, cfg)
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            zeta_eval(bad, state, obj, cfg)


def test_zeta_eval_p2_closed_form():
    # at p = 2 the norm ratio is 1, so zeta depends on theta alone
    obj, cfg = quad_cfg([1.0, 1.0])
    state, _ = step_t0(HasdState(np.array([2.0, 0.0])), obj, cfg)
    for th in (0.2, 0.5, 0.8):
        zeta, y, x, gx = zeta_eval(th, state, obj, cfg)
        expected = 18.0 * cfg.L * (1 - th) ** 2 * state.A / th
        assert zeta == pytest.approx(expected, rel=1e-12)
        np.testing.assert_allclose(y, th * state.x + (1 - th) * state.v, rtol=1e-15)
        np.testing.assert_allclose(x, y - obj.gradient(y) / 2.0, rtol=1e-12)
        np.testing.assert_allclose(gx, obj.gradient(x), rtol=1e-15)


def test_zeta_eval_p4_independent_recomputation():
    h = np.array([1.0, 2.0, 0.5])
    obj = Quadratic(h)
    geom = LpGeometry(4)
    L = obj.smoothness_for(geom)
    cfg = HasdConfig(L=L, geom=geom)
    state, _ = step_t0(HasdState(np.array([1.5, -1.0, 2.0])), obj, cfg)
    th = 0.37
    zeta, y, x, gx = zeta_eval(th, state, obj, cfg)

    y_m = th * state.x + (1 - th) * (state.x0 - state.grad_accum)
    gy = h * y_m
    dual_y = float(np.sum(np.abs(gy) ** (4.0 / 3.0))) ** 0.75
    x_m = y_m - (0.5 / L) * dual_y ** (2.0 / 3.0) * np.sign(gy) * np.abs(gy) ** (1.0 / 3.0)
    gx_m = h * x_m
    l2 = math.sqrt(float(gx_m @ gx_m))
    dual_x = float(np.sum(np.abs(gx_m) ** (4.0 / 3.0))) ** 0.75
    zeta_m = 18.0 * L * (1 - th) ** 2 * state.A / th * l2 ** 2 / dual_x ** 2

    np.testing.assert_allclose(y, y_m, rtol=1e-14)
    np.testing.assert_allclose(x, x_m, rtol=1e-12)
    assert zeta == pytest.approx(zeta_m, rel=1e-12)


def test_zeta_eval_exact_optimum():
    obj = Quadratic(np.array([1.0, 1.0]))
    cfg = HasdConfig(L=1.0, geom=LpGeometry(2))
    st = HasdState(np.zeros(2))
    st.A = 1.0  # model centered at the optimum: every probe lands on it
    with pytest.raises(ExactOptimum):
        zeta_eval(0.5, st, obj, cfg)
    res = find_coupling(st, obj, cfg)
    assert res.early_converged
    np.testing.assert_array_equal(res.x_next, np.zeros(2))
    np.testing.assert_array_equal(res.grad_x_next, np.zeros(2))


# -------------------------------------------------------- coupling search

def test_find_coupling_accepts_in_window():
    for p in (2.0, 3.0, INF):
        obj = Quadratic(np.array([1.0, 3.0, 0.5, 2.0]))
        geom = LpGeometry(p)
        cfg = HasdConfig(L=obj.smoothness_for(geom), geom=geom)
        state, _ = step_t0(HasdState(np.array([2.0, -1.0, 1.5, 0.5])), obj, cfg)
        res = find_coupling(state, obj, cfg)
        assert not res.early_converged
        assert 0.5 <= res.zeta <= 2.0
        assert res.oracle_calls % 2 == 0 and 2 <= res.oracle_calls <= cfg.max_search_calls
        # rho and a_next both come from the accepted theta
        th = res.theta
        assert res.rho == pytest.approx(th / (18.0 * cfg.L * (1 - th) ** 2 * state.A), rel=1e-14)
        assert res.a_next == pytest.approx(state.A * (1 - th) / th, rel=1e-14)
        assert 18.0 * cfg.L * res.rho * res.a_next ** 2 == pytest.approx(
            state.A + res.a_next, rel=1e-10)
        # the reported zeta is the measured ratio diagnostic at x_next
        g = res.grad_x_next
        r = float(g @ g) / lp_norm(g, geom.p_dual) ** 2
        assert res.zeta == pytest.approx(
            18.0 * cfg.L * (1 - th) ** 2 * state.A / th * r, rel=1e-10)


def test_find_coupling_budget_error():
    obj, cfg = quad_cfg([1.0, 1.0])
    obj.reference_optimum = None  # no gap-based escape hatch
    state, _ = step_t0(HasdState(np.array([2.0, 0.0])), obj, cfg)
    for _ in range(4):  # grow A until the first probe leaves the window
        state, _ = step(state, obj, cfg)
    assert 18.0 * cfg.L * 0.25 * state.A / 0.5 > 2.0
    tiny = replace(cfg, max_search_calls=2)
    with pytest.raises(CouplingSearchError) as exc:
        find_coupling(state, obj, tiny)
    assert exc.value.calls == 2
    assert exc.value.last_zeta is not None


class BrokenFarOut(Quadratic):
    """Quadratic whose gradient has a bad entry outside the sup-norm ball of
    radius 6: finite at x_0 = 0 and x_1 = 5 (center 10, L = 1, p = 2), bad
    at the first probe's steepest step, x = 6.32."""

    def __init__(self, bad):
        super().__init__(np.ones(2), center=np.array([10.0, 0.0]))
        self.reference_optimum = None
        self.bad = bad

    def gradient(self, x):
        g = super().gradient(x)
        if np.abs(x).max() > 6.0:
            g[0] = self.bad
        return g


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_find_coupling_raises_at_first_non_finite_probe(bad):
    obj = BrokenFarOut(bad)
    cfg = HasdConfig(L=1.0, geom=LpGeometry(2.0))
    state, _ = step_t0(HasdState(np.zeros(2)), obj, cfg)
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteProbeError) as exc:
        find_coupling(state, obj, cfg)
    # the first probe (theta = 1/2) is the one that fails, not the budget
    assert exc.value.calls == 2 < cfg.max_search_calls
    assert exc.value.theta == pytest.approx(0.5)
    assert math.isnan(exc.value.last_zeta)
    assert isinstance(exc.value, CouplingSearchError)


def test_find_coupling_gap_early_exit():
    obj, cfg = quad_cfg([1.0, 1.0])
    state, _ = step_t0(HasdState(np.array([2.0, 0.0])), obj, cfg)
    for _ in range(4):
        state, _ = step(state, obj, cfg)
    loose = replace(cfg, eps=1e6)
    t_before, A_before = state.t, state.A
    state, tr = step(state, obj, loose)
    assert tr.converged and tr.gap <= 1e6
    assert state.t == t_before and state.A == A_before  # nothing folded in


# ------------------------------------------------------- invariant chains

def assert_invariant_chain(report, L):
    """Re-verify the per-iteration guarantees from the raw trace rows."""
    checked = 0
    prev_A = 0.0
    for tr in report.traces:
        if tr.iter == 0 or tr.converged or tr.A is None:
            continue
        r = tr.grad_l2 ** 2 / tr.grad_dual ** 2
        assert 0.5 * r - tolerance(r) <= tr.rho <= 2.0 * r + tolerance(r)
        a = tr.A - prev_A
        assert abs(18.0 * L * tr.rho * a * a - tr.A) <= tolerance(tr.A)
        m = tr.progress_model
        assert tr.progress_inner >= m - tolerance(m)
        assert m >= tr.progress_dual - tolerance(m)
        assert tr.potential_lhs <= tr.potential_rhs + tolerance(tr.potential_rhs)
        assert tr.growth_lhs >= tr.growth_rhs - tolerance(tr.growth_rhs)
        prev_A = tr.A
        checked += 1
    assert checked > 0
    assert report.invariants == {"window": 0, "recurrence": 0, "progress": 0,
                                 "potential": 0, "growth": 0}


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0, INF])
def test_run_invariants_quadratic(p):
    obj = Quadratic(np.array([0.5, 1.0, 2.0, 4.0, 1.5]))
    geom = LpGeometry(p)
    cfg = HasdConfig(L=obj.smoothness_for(geom), geom=geom, max_iters=25)
    x0 = np.array([2.0, -1.0, 0.5, 1.0, -2.0])
    assert_invariant_chain(run(obj, x0, cfg), cfg.L)


@pytest.mark.parametrize("p", [2.0, 3.0, INF])
def test_run_invariants_softmax(p):
    obj = SymmetricSoftmax(6, alpha=0.5)
    cfg = HasdConfig(L=2.0, geom=LpGeometry(p), max_iters=25)
    x0 = np.linspace(-1.0, 2.0, 6)
    assert_invariant_chain(run(obj, x0, cfg), cfg.L)


@pytest.mark.parametrize("p", [2.0, 4.0, INF])
def test_run_invariants_logsumexp(p):
    obj = make_logsumexp_instance(20, 6, 1e-2, seed=3, declare_smoothness=True)
    geom = LpGeometry(p)
    cfg = HasdConfig(L=smoothness_bound(obj, geom), geom=geom, max_iters=25)
    x0 = np.random.default_rng(4).standard_normal(6)
    assert_invariant_chain(run(obj, x0, cfg), cfg.L)


def test_run_rate_certificate_and_call_accounting():
    obj = Quadratic(np.array([1.0, 2.0]))
    geom = LpGeometry(2)
    cfg = HasdConfig(L=2.0, geom=geom, max_iters=20, grad_tol=0.0)
    report = run(obj, np.array([3.0, -1.0]), cfg)
    assert report.certificate == pytest.approx(
        324.0 * cfg.L * report.R ** 2 / (report.G_mean ** 2 * report.iters ** 2), rel=1e-12)
    assert report.gap <= report.certificate
    assert report.grad_calls == 1 + sum(tr.search_calls or 0 for tr in report.traces)
    assert report.iters == report.traces[-1].iter


def test_run_convergence_by_gradient_tolerance():
    obj, _ = quad_cfg([1.0, 2.0])
    cfg = HasdConfig(L=2.0, geom=LpGeometry(2), max_iters=150, grad_tol=1e-9)
    report = run(obj, np.array([3.0, -1.0]), cfg)
    assert report.converged_early and report.iters < 150
    assert lp_norm(obj.gradient(report.final_x), 2) <= 1e-9 or report.gap <= cfg.eps


def test_run_zero_iterations():
    obj, cfg = quad_cfg([1.0, 1.0], max_iters=0)
    report = run(obj, np.array([2.0, 0.0]), cfg)
    assert report.iters == 0 and len(report.traces) == 1
    assert report.G_mean is None and report.certificate is None


def test_run_stationary_start():
    obj, cfg = quad_cfg([1.0, 2.0])
    report = run(obj, np.zeros(2), cfg)
    assert report.converged_early and report.iters == 0
    assert report.final_f == pytest.approx(0.0)


def test_softmax_gain_is_sqrt_dim():
    # symmetric start keeps every gradient sign-balanced: G = sqrt(d) exactly
    for d in (4, 16):
        obj = SymmetricSoftmax(d, alpha=0.5)
        cfg = HasdConfig(L=2.0, geom=LpGeometry(INF), max_iters=12)
        report = run(obj, np.ones(d), cfg)
        for tr in report.traces:
            if tr.G_running is not None:
                assert tr.G_running == pytest.approx(math.sqrt(d), abs=1e-10)


# --------------------------------------------------------------- restarts

def test_restarting_halves_gap_per_round():
    obj = Quadratic(np.array([1.0, 2.0, 0.5]))
    geom = LpGeometry(2)
    cfg = HasdConfig(L=2.0, geom=geom)
    x0 = np.array([2.0, -1.0, 4.0])
    eps = 1e-6
    report = run_restarting(obj, x0, mu=0.5, eps=eps, cfg=cfg)
    assert report.method == "hasd+restart"
    assert report.gap <= eps
    gaps = report.restart_gaps
    assert gaps[0] == pytest.approx(obj.value(x0) - obj.offset, rel=1e-12)
    for before, after in zip(gaps, gaps[1:]):
        assert after <= 0.5 * before * (1 + 1e-6)
    K_max = math.ceil(math.log2(gaps[0] / eps))
    assert len(gaps) - 1 <= K_max
    assert all(n == 0 for n in report.invariants.values())
    iters = [tr.iter for tr in report.traces]
    assert iters == sorted(iters) and len(set(iters)) == len(iters)


def test_restarting_round_length():
    # mu = L and G_hat = 1 give the round length 36 exactly
    obj = Quadratic(np.array([1.0, 1.0]))
    cfg = HasdConfig(L=1.0, geom=LpGeometry(2), grad_tol=0.0, eps=1e-300)
    report = run_restarting(obj, np.array([2.0, 0.0]), mu=1.0, eps=1e-3,
                            cfg=cfg, G_hat=1.0)
    first_round_rows = [tr for tr in report.traces if tr.iter <= 36]
    assert len(first_round_rows) == 37  # rows 0..36 of the first round
    assert report.gap <= 1e-3


def test_restarting_validates_inputs():
    obj = Quadratic(np.array([1.0, 1.0]))
    cfg = HasdConfig(L=1.0, geom=LpGeometry(2))
    with pytest.raises(ValueError):
        run_restarting(obj, np.ones(2), mu=0.0, eps=1e-3, cfg=cfg)
    with pytest.raises(ValueError):
        run_restarting(obj, np.ones(2), mu=1.0, eps=-1.0, cfg=cfg)
    bare = make_logsumexp_instance(8, 3, 1e-2, seed=5)
    with pytest.raises(ValueError):
        run_restarting(bare, np.ones(3), mu=1e-2, eps=1e-3, cfg=cfg)


def test_restarting_without_reference_uses_supplied_K():
    obj = make_logsumexp_instance(12, 4, 1e-1, seed=6, declare_smoothness=True)
    geom = LpGeometry(2)
    cfg = HasdConfig(L=smoothness_bound(obj, geom), geom=geom)
    report = run_restarting(obj, np.zeros(4), mu=1e-1, eps=1e-4, cfg=cfg, K=3)
    assert report.gap is None and report.restart_gaps is None
    assert len(report.restart_G) == 3


# ------------------------------------------------------ gradient stopping

def test_grad_norm_stopping_counts():
    T_naive, T_improved, _ = grad_norm_stopping([], 1.0, 1.0, 1.0, 1.0)
    assert T_naive == 26  # ceil(18 sqrt(2))
    assert T_improved == 21
    assert T_improved < T_naive
    with pytest.raises(ValueError):
        grad_norm_stopping([], 0.0, 1.0, 1.0, 1.0)


def test_grad_norm_stopping_scans_traces():
    obj, cfg = quad_cfg([1.0, 2.0], max_iters=15)
    report = run(obj, np.array([3.0, -1.0]), cfg)
    _, _, seen = grad_norm_stopping(report.traces, cfg.L, report.R, 1.0, 1e-2)
    duals = [tr.grad_dual for tr in report.traces if tr.iter >= 1]
    assert seen == min(duals)
    # the observed minimum respects the cubic-decay guarantee
    T = report.iters
    assert seen ** 2 <= 8748.0 * cfg.L ** 2 * report.R ** 2 / (
        report.G_mean ** 2 * T ** 3) * (1 + 1e-6)
