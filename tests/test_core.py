"""Accelerated steepest-descent core: coupling search, state, invariants."""

import ast
import copy
import math
import re
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from hasd.core import (INVARIANT_TOL, INVARIANTS,
                       REFERENCE_CHECKS, CouplingResult,
                       CouplingSearchError, HasdConfig,
                       HasdState, _holder_lo, _norm_ratio, _run,
                       NonFiniteProbeError, find_coupling, iterate,
                       rate_bounds, run, run_restarting, step, zeta_eval)
from hasd.geometry import LpGeometry, lp_norm, steepest_step
from hasd.objectives import (Quadratic, SmoothObjective, SymmetricSoftmax,
                             make_logsumexp_instance, smoothness_bound,
                             solve_reference)

from oracles import search_every_probe

INF = math.inf


def quad_cfg(h, p=2.0, **kw):
    obj = Quadratic(np.asarray(h, dtype=float))
    geom = LpGeometry(p)
    return obj, HasdConfig(L=obj.smoothness_for(geom), geom=geom, **kw)


def first_step(obj, x0, cfg):
    """(state, row 1): iterate's start row, then its first step, at t = 1."""
    return list(iterate(obj, x0, replace(cfg, max_iters=1)))[-1]


class CountingQuadratic(Quadratic):
    """Quadratic that records every point its gradient is evaluated at."""

    def __init__(self, h):
        super().__init__(np.asarray(h, dtype=float))
        self.grad_points = []

    def gradient(self, x):
        self.grad_points.append(np.array(x, dtype=float))
        return super().gradient(x)


# ------------------------------------------------------------- utilities

def test_config_validation():
    geom = LpGeometry(2)
    with pytest.raises(ValueError):
        HasdConfig(L=0.0, geom=geom)
    with pytest.raises(ValueError):
        HasdConfig(L=1.0, geom=geom, eps=0.0)
    with pytest.raises(ValueError):
        HasdConfig(L=1.0, geom=geom, step_scale=0.0)
    nan, inf = math.nan, math.inf
    for bad in ({"L": nan}, {"L": inf}, {"eps": nan},
                {"step_scale": nan}, {"step_scale": inf}):
        with pytest.raises(ValueError):
            HasdConfig(**{"L": 1.0, "geom": geom, **bad})
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


def test_state_v_is_refreshed_on_every_accumulate():
    rng = np.random.default_rng(5)
    st = HasdState(rng.standard_normal(6))
    assert st.v.tobytes() == (st.x0 - st.grad_accum).tobytes()
    for _ in range(8):
        g = rng.standard_normal(6) * 10.0 ** rng.uniform(-5, 5)
        st.accumulate(rng.uniform(0.1, 3.0), rng.standard_normal(6), 1.0, g,
                      dual=1.0, l2=1.0, L=2.0)
        assert st.v.tobytes() == (st.x0 - st.grad_accum).tobytes()


def test_rows_and_zeta_use_numpys_l2_norm_bit_for_bit():
    # the loop computes ||g||_2 as sqrt(g @ g); the rows and every probe's
    # zeta must carry exactly what np.linalg.norm gives, and zeta is the
    # one product c * r, r the quotient of the squares clamped to
    # Hoelder's [40^-1/2, 1]
    obj = make_logsumexp_instance(60, 40, 1e-3, seed=4)
    geom = LpGeometry(4)
    cfg = HasdConfig(L=smoothness_bound(obj, geom), geom=geom, max_iters=12)
    rng = np.random.default_rng(9)
    for _ in range(20):  # row 0 alone, from many starts
        x0 = rng.standard_normal(40) * 10.0 ** rng.uniform(-3, 3)
        _, row0 = next(iterate(obj, x0, cfg))
        assert row0.grad_l2 == float(np.linalg.norm(obj.gradient(x0)))
    for state, tr in iterate(obj, x0, cfg):
        g = obj.gradient(state.x)
        assert tr.grad_l2 == float(np.linalg.norm(g))
    assert state.t == 12
    for th in np.linspace(0.05, 0.95, 19):
        zeta, _, _, gx, dual_got, l2_got = zeta_eval(th, state, obj, cfg)
        l2, dual = float(np.linalg.norm(gx)), lp_norm(gx, geom.p_dual)
        assert (dual_got, l2_got) == (dual, l2)
        c = 18.0 * cfg.L * (1.0 - th) ** 2 * state.A / th
        r = min(max((l2 * l2) / (dual * dual), 40 ** -0.5), 1.0)
        assert zeta == c * r


def test_a_p2_row_reads_one_value_for_one_norm():
    # at p = 2 the dual norm is the l2 norm, and both columns are
    # lp_norm(g, 2): every row carries one value in both
    obj = make_logsumexp_instance(200, 50, 0.0, 0)
    geom = LpGeometry(2.0)
    rep = run(obj, np.zeros(50), HasdConfig(L=smoothness_bound(obj, geom),
                                            geom=geom, max_iters=30))
    assert len(rep.traces) == 31
    assert [tr.iter for tr in rep.traces
            if not tr.grad_dual == tr.grad_l2] == []


def test_l2_scales_where_the_square_overflows():
    # u @ u overflows once ||u||_2 passes about 1.34e154 and is subnormal
    # or 0 below about 1.49e-154; lp_norm(u, 2) then takes its scaled
    # formula, so finite entries give a finite, nonzero norm.  An infinite
    # entry gives inf and a NaN gives NaN, through the dot formula
    big = np.full(3, 1e160)
    with np.errstate(over="ignore"):
        assert lp_norm(big, 2.0) == 1e160 * math.sqrt(3.0) < INF
        assert lp_norm(np.array([INF, 1.0]), 2.0) == INF
        assert math.isnan(lp_norm(np.array([math.nan, 1e200]), 2.0))
    assert lp_norm(np.full(3, 1e-170), 2.0) == 1.7320508075688772e-170


def test_row_0_carries_R_with_a_reference_attached():
    # iterate takes R = ||x0 - x*||_2 once, before it yields row 0; with
    # no reference R stays None
    obj, cfg = quad_cfg([1.0, 2.0, 4.0])
    x0 = np.array([2.0, -1.0, 0.5])
    state, row0 = next(iterate(obj, x0, cfg))
    assert row0.iter == 0
    assert state.R == float(np.linalg.norm(x0 - obj.reference_optimum[0]))
    obj.reference_optimum = None
    assert next(iterate(obj, x0, cfg))[0].R is None


def test_state_rejects_matrix_start():
    with pytest.raises(ValueError):
        HasdState(np.zeros((2, 2)))


# -------------------------------------------------------- first iteration

def test_iterate_first_step_quadratic_worked_example():
    obj, cfg = quad_cfg([1.0, 1.0])
    rows = iterate(obj, np.array([2.0, 0.0]), cfg)
    state, row0 = next(rows)
    assert (row0.iter, row0.f, row0.grad_l2, row0.grad_dual) == (0, 2.0, 2.0, 2.0)
    assert row0.search_calls is None and row0.violations is None
    assert state.t == 0 and state.A == 0.0
    state, tr = next(rows)
    np.testing.assert_allclose(state.x, [1.0, 0.0], rtol=1e-15)
    assert tr.f == pytest.approx(0.5)
    assert tr.rho == pytest.approx(1.0)  # l2 and dual norms agree at p = 2
    assert state.A == pytest.approx(1.0 / 18.0, rel=1e-15)
    assert state.B == pytest.approx(1.0 / 324.0, rel=1e-15)
    # the step reuses row 0's gradient: one new gradient, at x_1
    assert tr.search_calls == 1 and tr.iter == 1
    assert tr.G_running == pytest.approx(1.0)
    assert tr.violations["potential"] <= 1e-12
    assert tr.violations["growth"] <= 1e-12


def test_iterate_stationary_start_yields_only_row_0():
    obj, cfg = quad_cfg([1.0, 2.0])
    rows = list(iterate(obj, np.zeros(2), cfg))
    assert len(rows) == 1
    state, tr = rows[0]
    assert tr.iter == 0 and tr.grad_dual == 0.0 and state.t == 0


def test_step_requires_first_step():
    obj, cfg = quad_cfg([1.0, 1.0])
    with pytest.raises(ValueError):
        step(HasdState(np.ones(2)), obj, cfg)


# --------------------------------------------------------- coupling probe

def test_zeta_eval_validates_inputs():
    obj, cfg = quad_cfg([1.0, 1.0])
    fresh = HasdState(np.ones(2))
    with pytest.raises(ValueError):
        zeta_eval(0.5, fresh, obj, cfg)  # A = 0
    obj.reference_optimum = None  # the search that settles probes unevaluated
    with pytest.raises(ValueError):
        find_coupling(fresh, obj, cfg)
    state, _ = first_step(obj, np.array([2.0, 0.0]), cfg)
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            zeta_eval(bad, state, obj, cfg)


def test_zeta_eval_p2_closed_form():
    # at p = 2 the norm ratio is 1, so zeta depends on theta alone
    obj, cfg = quad_cfg([1.0, 1.0])
    state, _ = first_step(obj, np.array([2.0, 0.0]), cfg)
    for th in (0.2, 0.5, 0.8):
        zeta, y, x, gx, dual, l2 = zeta_eval(th, state, obj, cfg)
        expected = 18.0 * cfg.L * (1 - th) ** 2 * state.A / th
        assert zeta == pytest.approx(expected, rel=1e-12)
        np.testing.assert_allclose(y, th * state.x + (1 - th) * state.v, rtol=1e-15)
        np.testing.assert_allclose(x, y - obj.gradient(y) / 2.0, rtol=1e-12)
        np.testing.assert_allclose(gx, obj.gradient(x), rtol=1e-15)
        assert dual == l2 == pytest.approx(float(np.linalg.norm(gx)), rel=1e-15)


def test_zeta_eval_p4_independent_recomputation():
    h = np.array([1.0, 2.0, 0.5])
    obj = Quadratic(h)
    geom = LpGeometry(4)
    L = obj.smoothness_for(geom)
    cfg = HasdConfig(L=L, geom=geom)
    state, _ = first_step(obj, np.array([1.5, -1.0, 2.0]), cfg)
    th = 0.37
    zeta, y, x, gx, dual, l2 = zeta_eval(th, state, obj, cfg)

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
    assert l2 == pytest.approx(math.sqrt(float(gx_m @ gx_m)), rel=1e-12)
    assert dual == pytest.approx(dual_x, rel=1e-12)


def test_zeta_eval_exact_optimum():
    obj = Quadratic(np.array([1.0, 1.0]))
    cfg = HasdConfig(L=1.0, geom=LpGeometry(2))
    st = HasdState(np.zeros(2))
    st.A = 1.0  # model centered at the optimum: every probe lands on it
    zeta, _, x, gx, dual, l2 = zeta_eval(0.5, st, obj, cfg)
    assert zeta is None and dual == l2 == 0.0
    np.testing.assert_array_equal(x, np.zeros(2))
    np.testing.assert_array_equal(gx, np.zeros(2))
    # the search returns its first measured probe (theta = 1/2 is decided),
    # which _fold takes as converged
    res = find_coupling(st, obj, cfg)
    assert res.early_converged and res.zeta is None
    assert res.theta == pytest.approx(0.75)
    assert res.oracle_calls == 2
    np.testing.assert_array_equal(res.x_next, np.zeros(2))
    np.testing.assert_array_equal(res.grad_x_next, np.zeros(2))


# -------------------------------------------------------- coupling search

def test_find_coupling_accepts_in_window():
    for p in (2.0, 3.0, INF):
        obj = Quadratic(np.array([1.0, 3.0, 0.5, 2.0]))
        geom = LpGeometry(p)
        cfg = HasdConfig(L=obj.smoothness_for(geom), geom=geom)
        state, _ = first_step(obj, np.array([2.0, -1.0, 1.5, 0.5]), cfg)
        res = find_coupling(state, obj, cfg)
        assert not res.early_converged
        assert 0.5 <= res.zeta <= 2.0
        assert res.oracle_calls % 2 == 0 and 2 <= res.oracle_calls <= 76
        # the reported zeta is the measured ratio diagnostic at x_next
        th = res.theta
        g = res.grad_x_next
        r = float(g @ g) / lp_norm(g, geom.p_dual) ** 2
        assert res.zeta == pytest.approx(
            18.0 * cfg.L * (1 - th) ** 2 * state.A / th * r, rel=1e-10)
        # folding the step derives rho and a_{t+1} from the accepted theta
        A_t = state.A
        state, tr = step(state, obj, cfg)
        a = state.A - A_t
        assert tr.theta == th
        assert tr.rho == pytest.approx(th / (18.0 * cfg.L * (1 - th) ** 2 * A_t), rel=1e-14)
        assert a == pytest.approx(A_t * (1 - th) / th, rel=1e-14)
        assert 18.0 * cfg.L * tr.rho * a ** 2 == pytest.approx(A_t + a, rel=1e-10)


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
    state, _ = first_step(obj, np.zeros(2), cfg)
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteProbeError) as exc:
        find_coupling(state, obj, cfg)
    # the first probe (theta = 1/2) is the one that fails
    assert exc.value.calls == 2
    assert exc.value.theta == pytest.approx(0.5)
    assert math.isnan(exc.value.last_zeta)
    assert isinstance(exc.value, CouplingSearchError)


@pytest.mark.parametrize("p", [2.0, INF])
@pytest.mark.parametrize("entry", [1.4e-162, 1e-170])
def test_zeta_is_nan_where_a_squared_norm_underflows(entry, p):
    # g = (e, e, e) does not vanish, but its squared norms fall below the
    # smallest normal float: at e = 1.4e-162 they are subnormal (a ratio
    # read from a few bits), at 1e-170 they underflow to 0 (a division by
    # 0); either way the probe has no ratio and zeta is NaN, and ||g||_2 is
    # still the accurate scaled norm
    class Linear(SmoothObjective):
        def gradient(self, x):
            return np.full(3, entry)

    state = HasdState(np.zeros(3))
    state.A = 1.0
    cfg = HasdConfig(L=1.0, geom=LpGeometry(p))
    zeta, _, _, _, dual, l2 = zeta_eval(0.5, state, Linear(3), cfg)
    assert math.isnan(zeta) and l2 == lp_norm(np.full(3, entry), 2.0) > 0.0
    assert dual > 0.0


class ConstantGradient(SmoothObjective):
    """f(x) = <g, x> in 100 coordinates, g the constant 1e153: ||g||_2^2 =
    1e308 is finite, but ||g||_{p*}^2 overflows at p = 4 (1e309) and at
    p = inf (1e310)."""

    def __init__(self):
        super().__init__(100)
        self.g = np.full(100, 1e153)

    def value(self, x):
        return float(self.g.dot(self._check(x)))

    def gradient(self, x):
        self._check(x)
        return self.g.copy()


@pytest.mark.parametrize("p", [4.0, INF])
def test_zeta_is_nan_where_a_squared_norm_overflows(p):
    # the quotient of the squares is 0, which would read as Hoelder's lower
    # end (zeta 0.9 at p = 4, 0.09 at p = inf), but a square that overflows
    # leaves no ratio: zeta is NaN and the search raises at that probe
    state = HasdState(np.zeros(100))
    state.A = 1.0
    cfg = HasdConfig(L=1.0, geom=LpGeometry(p))
    zeta, _, _, _, dual, l2 = zeta_eval(0.5, state, ConstantGradient(), cfg)
    assert math.isnan(zeta) and l2 * l2 < INF and dual * dual == INF
    with pytest.raises(NonFiniteProbeError) as exc:
        find_coupling(state, ConstantGradient(), cfg)
    assert exc.value.calls == 2 and exc.value.theta == pytest.approx(0.5)


def jump(theta, state, obj, cfg):
    """zeta_eval stand-in whose zeta jumps from above the window straight
    to below it at theta = 0.3, so that no probe is accepted."""
    x = state.x.copy()
    return (3.0 if theta < 0.3 else 0.1), x, x, np.ones_like(x), 1.0, 1.0


def test_find_coupling_raises_when_bracket_collapses(monkeypatch):
    # the search must stop once its bracket has collapsed onto the jump
    obj, cfg = quad_cfg([1.0, 1.0])
    obj.reference_optimum = None
    state, _ = first_step(obj, np.array([2.0, 0.0]), cfg)
    monkeypatch.setattr("hasd.core.zeta_eval", jump)
    with pytest.raises(CouplingSearchError) as exc:
        find_coupling(state, obj, cfg)
    lo, hi = exc.value.bracket
    assert lo < 0.3 <= hi and hi - lo <= 4e-12
    assert exc.value.last_zeta in (3.0, 0.1)


def test_a_search_that_never_accepts_stops_after_38_probes(monkeypatch):
    # with c(theta) deciding no probe, every probe is measured: the bracket
    # halves from width 1 to at most 4e-12 in 38 probes, 76 gradient calls
    import hasd.core as core
    obj, cfg = quad_cfg([1.0, 1.0])
    state, _ = first_step(obj, np.array([2.0, 0.0]), cfg)
    probes = []

    def counted_jump(theta, state, obj, cfg):
        probes.append(theta)
        return jump(theta, state, obj, cfg)

    monkeypatch.setattr(core, "zeta_eval", counted_jump)
    monkeypatch.setattr(core, "_coupling_factor", lambda theta, A, L: 1.0)
    with pytest.raises(CouplingSearchError) as exc:
        find_coupling(state, obj, cfg)
    assert len(probes) == 38 and exc.value.calls == 76
    lo, hi = exc.value.bracket
    assert lo < 0.3 <= hi and hi - lo <= 4e-12


def coupling_states(p):
    """Search states along HASD runs on three objectives at exponent p."""
    lse = make_logsumexp_instance(30, 8, 1e-3, seed=2)
    solve_reference(lse)
    for obj, x0 in ((lse, np.linspace(-1.0, 1.0, 8)),
                    (SymmetricSoftmax(7, alpha=0.5), np.linspace(-1.0, 2.0, 7)),
                    (Quadratic(np.array([0.5, 1.0, 2.0, 4.0, 1.5]),
                               center=np.array([1.0, 0.0, -1.0, 2.0, 0.5])),
                     np.array([2.0, -1.0, 0.5, 1.0, -2.0]))):
        geom = LpGeometry(p)
        cfg = HasdConfig(L=smoothness_bound(obj, geom), geom=geom, max_iters=12)
        for state, tr in iterate(obj, x0, cfg):
            if state.t >= 1 and not tr.converged:
                yield obj, state, cfg


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 8.0, INF])
def test_find_coupling_matches_a_search_evaluating_every_probe(p):
    decided = 0
    for obj, state, cfg in coupling_states(p):
        ref = obj.reference_optimum
        th, zeta, y, x, gx, calls, skipped = search_every_probe(state, obj, cfg)
        decided += skipped
        # the search reads neither the reference nor eps
        for attach, eps in ((False, cfg.eps), (True, cfg.eps), (True, 1.0)):
            obj.reference_optimum = ref if attach else None
            res = find_coupling(state, obj, replace(cfg, eps=eps))
            assert (res.theta, res.zeta) == (th, zeta)
            assert res.y.tobytes() == y.tobytes()
            assert res.x_next.tobytes() == x.tobytes()
            assert res.grad_x_next.tobytes() == gx.tobytes()
            assert not res.early_converged
            # a decided rejected probe costs no call
            assert res.oracle_calls == calls - 2 * skipped
    assert decided > 0


def test_find_coupling_settles_every_rejected_probe_at_p2():
    # at p = 2 the norm ratio is 1, so c(theta) alone decides every probe
    # outside the window and each search evaluates only the one it accepts,
    # with its reference attached or not: the searches take no f value
    cfg = HasdConfig(L=4.0, geom=LpGeometry(2), max_iters=30)
    for attach in (False, True):
        obj = CountingQuadratic([0.5, 1.0, 2.0, 4.0, 1.5])
        if not attach:
            obj.reference_optimum = None
        _counting_value(obj)
        report = run(obj, np.array([2.0, -1.0, 0.5, 1.0, -2.0]), cfg)
        searches = [tr.search_calls for tr in report.traces[2:]]
        assert len(searches) == 29 and set(searches) == {2}
        assert report.grad_calls == len(obj.grad_points) == 2 + 2 * 29
        assert obj.values == len(report.traces)  # each row's f alone


def decided_reference_state():
    """A p = 2 quadratic with its reference, at t = 12 of a run: c(1/2) is
    about 23, so the first probe is decided, and its gap is below 1."""
    obj = CountingQuadratic([0.5, 1.0, 2.0, 4.0, 1.5])
    cfg = HasdConfig(L=4.0, geom=LpGeometry(2), max_iters=12)
    state, _ = list(iterate(obj, np.array([2.0, -1.0, 0.5, 1.0, -2.0]), cfg))[-1]
    assert state.t == 12
    assert 18.0 * cfg.L * 0.25 * state.A / 0.5 > 2.0
    obj.grad_points.clear()
    _counting_value(obj)
    return obj, state, cfg


def test_a_decided_rejected_probe_makes_no_oracle_call():
    obj, state, cfg = decided_reference_state()
    # the decided probes theta = 1/2 and 3/4 are rejected with no call,
    # even at eps = 1, where the point at theta = 1/2 has gap below eps;
    # c leaves theta = 7/8 open: two calls, accepted
    for eps in (cfg.eps, 1.0):
        obj.grad_points.clear()
        res = find_coupling(state, obj, replace(cfg, eps=eps))
        assert res.theta == pytest.approx(0.875) and not res.early_converged
        assert res.oracle_calls == len(obj.grad_points) == 2
        assert obj.values == 0


def test_a_run_stops_at_its_first_iterate_within_eps():
    obj, state, cfg = decided_reference_state()
    t_before, A_before = state.t, state.A
    # the gap is about 0.75 at t = 12 and 0.67 at t = 13
    eps = 0.7
    state, tr = step(state, obj, replace(cfg, eps=eps))
    # the accepted point is folded in, its row built with its violations,
    # and the run stops there: one search, one f value
    assert tr.converged and tr.iter == state.t == t_before + 1
    assert state.A > A_before and tr.gap <= eps
    assert tr.theta == pytest.approx(0.875) and tr.rho is not None
    assert all(v <= INVARIANT_TOL for v in tr.violations.values())
    assert tr.search_calls == len(obj.grad_points) == 2
    assert obj.values == 1 and tr.f == obj.value(state.x)
    report = run(obj, state.x0, replace(cfg, max_iters=30, eps=eps))
    assert report.iters == t_before + 1 and report.traces[-1].converged
    assert report.traces[-1] == tr


def every_probe_coupling(state, obj, cfg):
    """find_coupling's result from search_every_probe."""
    th, zeta, y, x, gx, calls, _ = search_every_probe(state, obj, cfg)
    return CouplingResult(theta=th, y=y, x_next=x, zeta=zeta,
                          oracle_calls=calls, grad_x_next=gx,
                          grad_dual=lp_norm(gx, cfg.geom.p_dual),
                          grad_l2=math.sqrt(gx @ gx))


@pytest.mark.parametrize("p", [2.0, INF])
def test_run_with_reference_matches_a_run_evaluating_every_probe(p, monkeypatch):
    # eps = 0.1 ends the run at an iterate within 30 iterations
    x0 = np.array([2.0, -1.0, 0.5, 1.0, -2.0])
    cfg = HasdConfig(L=4.0, geom=LpGeometry(p), max_iters=30, eps=0.1)
    obj = CountingQuadratic([0.5, 1.0, 2.0, 4.0, 1.5])
    report = run(obj, x0, cfg)
    assert report.grad_calls == len(obj.grad_points)
    monkeypatch.setattr("hasd.core.find_coupling", every_probe_coupling)
    every = run(CountingQuadratic([0.5, 1.0, 2.0, 4.0, 1.5]), x0, cfg)
    assert report.grad_calls < every.grad_calls
    last = report.traces[-1]
    assert last.converged and last.violations is not None
    assert ([replace(tr, search_calls=None) for tr in report.traces]
            == [replace(tr, search_calls=None) for tr in every.traces])
    assert report.final_x.tobytes() == every.final_x.tobytes()


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 8.0, INF])
def test_a_settled_probe_takes_the_verdict_of_its_measured_zeta(p):
    # the ratio as zeta_eval reads it lies in [r_lo, 1], r_lo Hoelder's
    # lower end d^-(1-2/p), also where the true ratio sits at an end
    # (uniform and one-hot g); so at each settle threshold, c r_lo = 2 and
    # c = 1/2, and one float either side, a probe find_coupling settles
    # (c r_lo > 2: above the window, c < 1/2: below it) has the verdict
    # of zeta = c * r.  Entries lie in [e^-5, 1] times the scale, so
    # every squared norm stays finite and normal up to d = 10^4
    geom = LpGeometry(p)
    rng = np.random.default_rng(0)
    settled = 0
    for d in (1, 2, 3, 10, 100, 1000, 10000):
        r_lo = _holder_lo(d, p)
        one_hot = np.zeros(d)
        one_hot[d // 2] = 1.0
        signed = rng.choice([-1.0, 1.0], d) * np.exp(rng.uniform(-5.0, 0.0, d))
        cs = []
        for edge in (2.0 / r_lo, 0.5):
            cs += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, INF)]
        for g in (np.ones(d), one_hot, signed):
            for scale in (1e-150, 1e-50, 1e-5, 1.0, 3e7, 1e50, 1e150):
                gs = scale * g
                _, r = _norm_ratio(lp_norm(gs, geom.p_dual), lp_norm(gs, 2.0),
                                   d, p)
                assert r_lo <= r <= 1.0, (d, scale, r)
                for c in cs:
                    zeta = c * r
                    if c * r_lo > 2.0:
                        assert zeta > 2.0, (d, scale, c, r)
                        settled += 1
                    elif c < 0.5:
                        assert zeta < 0.5, (d, scale, c, r)
                        settled += 1
    assert settled > 0


# ------------------------------------------------------- invariant chains

def assert_invariant_chain(report, L):
    """Re-verify the per-iteration guarantees from the raw trace rows:
    window, recurrence and growth from the CSV columns, progress and
    potential from the magnitudes each row carries."""
    def tol(scale):  # relative 1e-8 with an absolute floor
        return 1e-8 * abs(scale) + 1e-10 * (1.0 + abs(scale))

    checked = 0
    prev_A = 0.0
    for tr in report.traces:
        if tr.iter == 0 or tr.converged or tr.A is None:
            continue
        r = tr.grad_l2 ** 2 / tr.grad_dual ** 2
        assert 0.5 * r - tol(r) <= tr.rho <= 2.0 * r + tol(r)
        a = tr.A - prev_A
        assert abs(18.0 * L * tr.rho * a * a - tr.A) <= tol(tr.A)
        growth = tr.G_running * tr.iter / (18.0 * math.sqrt(L))
        assert math.sqrt(tr.A) >= growth - tol(growth)
        assert tr.violations["progress"] <= INVARIANT_TOL
        assert tr.violations["potential"] <= INVARIANT_TOL
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


def test_a_reference_adds_its_four_checks_to_each_folded_row():
    # _fold evaluates the nine per-step checks with a reference attached and
    # the five INVARIANTS without; RunReport.invariants counts the five only
    for with_ref in (True, False):
        obj, cfg = quad_cfg([0.5, 1.0, 2.0], p=INF, max_iters=8)
        if not with_ref:
            obj.reference_optimum = None
        report = run(obj, np.array([2.0, -1.0, 0.5]), cfg)
        folded = [tr for tr in report.traces if tr.violations is not None]
        assert len(folded) == report.iters == 8
        keys = INVARIANTS + REFERENCE_CHECKS if with_ref else INVARIANTS
        for tr in folded:
            assert tuple(tr.violations) == keys
            assert all(v <= INVARIANT_TOL for v in tr.violations.values())
        assert tuple(report.invariants) == INVARIANTS
        assert sum(report.invariants.values()) == 0


def test_a_failed_search_carries_the_rows_built_before_it():
    # run re-raises a failed coupling search with its rows so far as
    # traces: row 0 and the 12 steps folded in before a probe first passes
    # |x|_inf = 6; the error raised by find_coupling itself carries none
    def build():
        return NanFarOut(np.ones(2), center=np.array([10.0, 0.0]))

    cfg = HasdConfig(L=4.0, geom=LpGeometry(2.0), max_iters=40)
    built = []
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteProbeError) as exc:
        for _, tr in iterate(build(), np.zeros(2), cfg):
            built.append(tr)
    assert exc.value.traces is None
    assert [tr.iter for tr in built] == list(range(13))
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteProbeError) as exc:
        run(build(), np.zeros(2), cfg)
    assert exc.value.traces == built


def test_run_counts_a_nan_violation(monkeypatch):
    # a NaN magnitude fails every comparison, so it must count as a
    # violation rather than pass as "not above the tolerance"
    import hasd.core as core
    obj = Quadratic(np.array([0.5, 1.0, 2.0]))
    geom = LpGeometry(2.0)
    cfg = HasdConfig(L=obj.smoothness_for(geom), geom=geom, max_iters=6)
    real_iterate = core.iterate

    def nan_potential(*args, **kwargs):
        for state, tr in real_iterate(*args, **kwargs):
            if tr.violations is not None:
                tr.violations["potential"] = math.nan
            yield state, tr

    monkeypatch.setattr(core, "iterate", nan_potential)
    report = run(obj, np.array([2.0, -1.0, 0.5]), cfg)
    folded = sum(tr.violations is not None for tr in report.traces)
    assert folded > 0
    assert report.invariants["potential"] == folded
    assert report.invariants["window"] == 0


def test_the_first_steps_rho_is_exactly_1_at_p_2():
    # at p = 2 Hoelder's interval for r = ||g||_2^2 / ||g||_{p*}^2 is the
    # point 1, but the two norms round differently: rho_0 takes the end
    # of the interval, so a permuted problem starts with the same weight
    obj, cfg = quad_cfg(np.arange(1.0, 8.0), p=2.0)
    rng = np.random.default_rng(12)
    for _ in range(50):
        x0 = rng.standard_normal(7) * 10.0 ** rng.uniform(-3, 3)
        assert first_step(obj, x0, cfg)[1].rho == 1.0


def test_a_first_step_whose_rho_overflows_is_a_typed_search_error():
    # a step of 1e200/L from the quadratic's start makes ||grad f(x_1)||_2
    # overflow (p = inf: the dual l_1 norm stays finite), so rho_0 is NaN;
    # the first step raises a CouplingSearchError naming itself, not a
    # bare ValueError, and run attaches row 0 as its traces
    obj, cfg = quad_cfg([0.5, 1.0, 2.0, 4.0, 1.5], p=INF, max_iters=50)
    x0 = np.array([2.0, -1.0, 0.5, 1.0, -2.0])
    with np.errstate(over="ignore"), pytest.raises(NonFiniteProbeError) as exc:
        run(obj, x0, replace(cfg, step_scale=1e200))
    assert isinstance(exc.value, CouplingSearchError)
    assert str(exc.value).startswith("first step: rho_0 = nan at x_1")
    assert exc.value.theta is None and exc.value.calls == 1
    assert [tr.iter for tr in exc.value.traces] == [0]
    with pytest.raises(NonFiniteProbeError):  # a rows-off run as well
        with np.errstate(over="ignore"):
            _run(obj, x0, replace(cfg, step_scale=1e200), rows=False)
    # the probes' overflow case: ||grad f(x_1)||_{p*}^2 overflows while
    # ||.||_2^2 does not, so rho_0 has no ratio either
    for p in (4.0, INF):
        cfg = HasdConfig(L=1.0, geom=LpGeometry(p))
        with np.errstate(over="ignore"), \
                pytest.raises(NonFiniteProbeError) as exc:
            run(ConstantGradient(), np.zeros(100), cfg)
        assert str(exc.value).startswith("first step: rho_0 = nan")
        assert exc.value.theta is exc.value.bracket is None
        assert exc.value.last_zeta is None and exc.value.calls == 1
        assert [tr.iter for tr in exc.value.traces] == [0]


def test_an_overflowing_square_in_a_row_is_inf_not_an_error():
    # a step of 1e300/L on a LogSumExp leaves the gradient finite but the
    # step's ||x_1 - y||_p squared overflows: the progress check takes it
    # as inf (x * x, where ** raises OverflowError) and counts a violation
    obj = make_logsumexp_instance(20, 5, 0.0, seed=0)
    geom = LpGeometry(INF)
    cfg = HasdConfig(L=smoothness_bound(obj, geom), geom=geom, max_iters=50,
                     step_scale=1e300)
    with np.errstate(all="ignore"):
        report = run(obj, np.zeros(5), cfg)
    assert report.iters == 50
    assert report.invariants["progress"] > 0
    assert report.traces[1].grad_dual < math.inf


def test_run_rate_certificate_and_call_accounting():
    obj = Quadratic(np.array([1.0, 2.0]))
    geom = LpGeometry(2)
    cfg = HasdConfig(L=2.0, geom=geom, max_iters=20)
    report = run(obj, np.array([3.0, -1.0]), cfg)
    cert = rate_bounds(cfg.L, report.R, report.G_mean, report.iters)[0]
    assert cert == pytest.approx(
        324.0 * cfg.L * report.R ** 2 / (report.G_mean ** 2 * report.iters ** 2), rel=1e-12)
    assert report.gap <= cert
    assert report.grad_calls == 1 + sum(tr.search_calls or 0 for tr in report.traces)
    assert report.iters == report.traces[-1].iter


def test_run_evaluates_the_start_gradient_once():
    obj = CountingQuadratic([1.0, 2.0])
    x0 = np.array([3.0, -1.0])
    cfg = HasdConfig(L=2.0, geom=LpGeometry(2), max_iters=6)
    report = run(obj, x0, cfg)
    at_x0 = [x for x in obj.grad_points if np.array_equal(x, x0)]
    assert len(at_x0) == 1
    assert report.grad_calls == len(obj.grad_points)
    assert report.traces[1].search_calls == 1


def test_rate_bounds():
    cert, cubic = rate_bounds(2.0, 3.0, 1.5, 4)
    assert cert == pytest.approx(324.0 * 2.0 * 9.0 / (1.5 * 4) ** 2, rel=1e-15)
    assert cubic == pytest.approx(8748.0 * 4.0 * 9.0 / (1.5 ** 2 * 4 ** 3), rel=1e-15)


def test_rate_bounds_squares_are_products():
    # every square of a norm is the IEEE product x * x, which is correctly
    # rounded; pow's x ** 2 is not, and at this G it is an ulp off
    G = 1.5453803786388183e43
    assert G ** 2 != G * G
    cert, cubic = rate_bounds(2.0, 3.0, G, 4)
    assert cert == 324.0 * 2.0 * 3.0 * 3.0 / (G * G * 16)
    assert cubic == 8748.0 * (2.0 * 2.0) * 3.0 * 3.0 / (G * G * 64)
    assert rate_bounds(G, 3.0, 1.0, 1)[1] == 8748.0 * (G * G) * 3.0 * 3.0


def test_iterate_yields_every_step_then_stops():
    obj, cfg = quad_cfg([1.0, 2.0], max_iters=5)
    x0 = np.array([3.0, -1.0])
    seen = [(state.t, tr.iter) for state, tr in iterate(obj, x0, cfg)]
    assert seen == [(t, t) for t in range(0, 6)]  # row 0, then every step
    states = {id(state) for state, _ in iterate(obj, x0, cfg)}
    assert len(states) == 1  # one state, updated in place
    only = [tr.iter for _, tr in iterate(obj, x0, replace(cfg, max_iters=0))]
    assert only == [0]


def test_run_zero_iterations():
    obj, cfg = quad_cfg([1.0, 1.0], max_iters=0)
    report = run(obj, np.array([2.0, 0.0]), cfg)
    assert report.iters == 0 and len(report.traces) == 1
    assert report.G_mean is None
    assert report.grad_calls == 1 and not report.traces[-1].converged


def test_run_stationary_start():
    obj, cfg = quad_cfg([1.0, 2.0])
    report = run(obj, np.zeros(2), cfg)
    assert report.traces[-1].converged and report.iters == 0
    assert report.grad_calls == 1 and len(report.traces) == 1
    assert report.final_f == pytest.approx(0.0)
    # with no step allowed, a stationary start is no convergence
    start = run(obj, np.zeros(2), replace(cfg, max_iters=0))
    assert not start.traces[-1].converged


def test_softmax_gain_is_sqrt_dim():
    # symmetric start keeps every gradient sign-balanced: G = sqrt(d) exactly
    for d in (4, 16):
        obj = SymmetricSoftmax(d, alpha=0.5)
        cfg = HasdConfig(L=2.0, geom=LpGeometry(INF), max_iters=12)
        report = run(obj, np.ones(d), cfg)
        for tr in report.traces:
            if tr.G_running is not None:
                assert tr.G_running == pytest.approx(math.sqrt(d), abs=1e-10)


# ----------------------------------------------------------- rows off

class DeadZone(Quadratic):
    """0.5 ||x - clip(x, -1, 1)||^2: the gradient is exactly zero on the
    unit box, so a probe landing inside it is an exact optimum."""

    def __init__(self, d):
        super().__init__(np.ones(d))

    def value(self, x):
        x = self._check(x)
        r = x - np.clip(x, -1.0, 1.0)
        return 0.5 * float(r @ r)

    def gradient(self, x):
        x = self._check(x)
        return x - np.clip(x, -1.0, 1.0)


class NanFarOut(Quadratic):
    """Gradient NaN beyond |x|_inf = 6, on the way to the center at 10."""

    def gradient(self, x):
        g = super().gradient(x)
        return g if np.abs(x).max() <= 6.0 else g * math.nan


def _counting_value(obj):
    """Count obj's value calls in obj.values (an instance-level wrapper)."""
    value = obj.value
    obj.values = 0

    def counted(x):
        obj.values += 1
        return value(x)

    obj.value = counted


def _outcome(obj, x0, cfg, rows):
    try:
        with np.errstate(all="ignore"):
            return _run(obj, x0, cfg, rows)
    except CouplingSearchError as exc:
        return exc


def _rows_off_cases():
    """(label, objective factory, x0, cfg) over p, objectives, references."""
    lse_ref = solve_reference(make_logsumexp_instance(30, 8, 1e-3, seed=2))
    objectives = (
        ("lse", lambda: make_logsumexp_instance(30, 8, 1e-3, seed=2),
         np.linspace(-1.0, 1.0, 8), lse_ref),
        ("softmax", lambda: SymmetricSoftmax(7, alpha=0.5),
         np.linspace(-1.0, 2.0, 7), None),
        ("quadratic", lambda: Quadratic(
            np.array([0.5, 1.0, 2.0, 4.0, 1.5]),
            center=np.array([1.0, 0.0, -1.0, 2.0, 0.5])),
         np.array([2.0, -1.0, 0.5, 1.0, -2.0]), None),
    )
    for p in (2.0, 3.0, 4.0, INF):
        geom = LpGeometry(p)
        for name, make, x0, ref in objectives:
            for mode in ("no reference", "reference", "eps = 1"):
                def build(make=make, ref=ref, mode=mode):
                    obj = make()
                    if mode == "no reference":
                        obj.reference_optimum = None
                    elif ref is not None:
                        obj.reference_optimum = ref
                    return obj
                L = smoothness_bound(build(), geom)
                for scale in (1.0, 0.05):
                    cfg = HasdConfig(L=L, geom=geom, max_iters=25,
                                     step_scale=scale,
                                     eps=1.0 if mode == "eps = 1" else 1e-8)
                    yield ("%s p=%g %s scale=%g" % (name, p, mode, scale),
                           build, x0, cfg)
    quad = lambda: Quadratic(np.array([1.0, 2.0]), center=np.array([1.0, -1.0]))
    cfg2 = HasdConfig(L=2.0, geom=LpGeometry(2.0), max_iters=25)
    yield "max_iters = 0", quad, np.zeros(2), replace(cfg2, max_iters=0)
    yield "stationary start", quad, np.array([1.0, -1.0]), cfg2
    ones = lambda: Quadratic(np.ones(2), center=np.array([1.0, -1.0]))
    yield "zero gradient at x_1", ones, np.zeros(2), replace(cfg2, L=0.5)
    # at scale 0.25 a measured probe lands in the dead zone
    for p in (2.0, INF):
        for scale in (0.5, 0.25):
            zone = HasdConfig(L=1.0, geom=LpGeometry(p), max_iters=25,
                              step_scale=scale)
            yield ("dead zone p=%g scale=%g" % (p, scale),
                   lambda: DeadZone(3), np.array([3.0, -2.0, 2.5]), zone)
    for mode in ("no reference", "reference"):
        def build(mode=mode):
            obj = NanFarOut(np.ones(2), center=np.array([10.0, 0.0]))
            if mode == "no reference":
                obj.reference_optimum = None
            return obj
        yield "NaN probe, %s" % mode, build, np.zeros(2), replace(
            cfg2, L=1.0, max_iters=5)


def test_rows_off_runs_equal_core_run():
    # a final-row-only run (the tuning sweep's grid runs) makes the same
    # iterates and calls as core.run, or raises the same error, and its one
    # row is core.run's last row without the violations
    kinds = set()
    for label, build, x0, cfg in _rows_off_cases():
        full = _outcome(build(), x0, cfg, rows=True)
        obj = build()
        _counting_value(obj)
        fast = _outcome(obj, x0, cfg, rows=False)
        assert type(fast) is type(full), label
        if isinstance(full, CouplingSearchError):
            assert str(fast) == str(full), label
            kinds.add(type(full).__name__)
            continue
        assert fast.final_x.tobytes() == full.final_x.tobytes(), label
        for key in ("final_f", "gap", "iters", "grad_calls", "G_mean", "R"):
            assert getattr(fast, key) == getattr(full, key), (label, key)
        assert fast.invariants is None and full.invariants is not None
        assert fast.traces == [replace(full.traces[-1], violations=None)], label
        if obj.reference_optimum is None:
            assert obj.values == 1, label  # the final row's f alone
        last = full.traces[-1]
        kind = ("stopped at iters" if fast.iters == cfg.max_iters
                else "zero gradient at x_1" if last.iter == 1 > fast.iters
                else "row 0 only" if last.iter == 0
                else "gap stop at an iterate" if (
                    last.converged and last.violations is not None)
                else "exact optimum" if last.converged and last.zeta is None
                else "unexplained stop")
        kinds.add(kind)
        if kind == "exact optimum":
            # a probe's zero gradient after a folded step: the row folds
            # nothing in, so it carries A, B and G_running as they stood
            before = full.traces[-2]
            assert before.iter == last.iter - 1 == full.iters, label
            assert None not in (last.A, last.B, last.G_running), label
            assert (last.A, last.B) == (before.A, before.B), label
            assert last.G_running.hex() == before.G_running.hex(), label
            assert full.G_mean == fast.G_mean == last.G_running, label
    assert kinds == {"stopped at iters", "zero gradient at x_1",
                     "gap stop at an iterate", "exact optimum", "row 0 only",
                     "NonFiniteProbeError"}, kinds


def test_rows_off_state_refuses_psi():
    # a state folded without f values has no lower-model constant: psi and
    # psi_min raise rather than return a finite wrong value
    obj, cfg = quad_cfg([1.0, 2.0, 4.0], p=INF, max_iters=6)
    (state, row), = iterate(obj, np.array([2.0, -1.0, 0.5]), cfg, rows=False)
    assert row.iter == state.t == 6 and row.violations is None
    with pytest.raises(ValueError, match="without its f value"):
        state.psi(state.x)
    with pytest.raises(ValueError, match="without its f value"):
        state.psi_min()
    fresh = HasdState(np.zeros(2))
    fresh.accumulate(1.0, np.ones(2), 3.0, np.ones(2), dual=1.0, l2=1.0, L=1.0)
    assert math.isfinite(fresh.psi_min())
    fresh.accumulate(1.0, np.ones(2), None, np.ones(2), dual=1.0, l2=1.0, L=1.0)
    fresh.accumulate(1.0, np.ones(2), 3.0, np.ones(2), dual=1.0, l2=1.0, L=1.0)
    with pytest.raises(ValueError):
        fresh.psi_min()  # one missing f voids every later psi


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
    cfg = HasdConfig(L=1.0, geom=LpGeometry(2), eps=1e-300)
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


def _restart_aggregate_inline(obj, x0, cfg, rounds, gap0):
    """run_restarting's report fields as the hand-kept counters built them
    before the report was assembled from its round reports; with no round
    run, row 0 at x0 as run builds it, for one gradient call."""
    ref = obj.reference_optimum
    x = x0
    gaps = [gap0] if gap0 is not None else None
    round_G, traces = [], []
    offset = grad_calls = 0
    if not rounds:
        traces = [next(iterate(obj, x0, cfg))[1]]
        grad_calls = 1
    fails = report = None
    for k, report in enumerate(rounds):
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
        for tr in (report.traces if k == 0 else report.traces[1:]):
            tr.iter += offset
            traces.append(tr)
        offset = traces[-1].iter if traces else 0
    final_f = obj.value(x)
    return dict(final_x=x, final_f=final_f,
                gap=None if ref is None else final_f - ref[1], iters=offset,
                grad_calls=grad_calls,
                R=None if ref is None else float(np.linalg.norm(x0 - ref[0])),
                invariants=fails, restart_gaps=gaps, restart_G=round_G,
                traces=traces)


def test_restarting_report_is_built_from_its_rounds(monkeypatch):
    # every field equals the hand-kept aggregation, and no value call
    # follows the last round (its report already holds the final value)
    cases = []
    for p in (2.0, 4.0, INF):
        for seed in (0, 1, 2):
            obj = make_logsumexp_instance(12, 4, 1e-1, seed=seed,
                                          declare_smoothness=True)
            solve_reference(obj)
            for K in (None, 0, 2):
                cases.append((obj, LpGeometry(p), K))
    quad = Quadratic(np.array([1.0, 2.0, 0.5]))
    cases.append((quad, LpGeometry(2), None))
    events = []
    rounds = []

    def recording_run(obj, x, cfg):
        rep = run(obj, x, cfg)
        rounds.append(copy.deepcopy(rep))
        events.append("run")
        return rep

    monkeypatch.setattr("hasd.core.run", recording_run)
    round_counts = set()
    for obj, geom, K in cases:
        cfg = HasdConfig(L=smoothness_bound(obj, geom), geom=geom)
        x0 = np.linspace(-1.0, 1.0, obj.dim)
        value = obj.value

        def recording_value(x):
            events.append("value")
            return value(x)

        obj.value = recording_value
        events.clear()
        rounds.clear()
        rep = run_restarting(obj, x0, mu=1e-1, eps=1e-3, cfg=cfg, G_hat=16.0,
                             K=K)
        del obj.value
        assert events[-1] == ("run" if rounds else "value")
        round_counts.add(len(rounds))
        gap0 = obj.value(x0) - obj.reference_optimum[1]
        want = _restart_aggregate_inline(obj, x0, cfg, rounds, gap0)
        assert want.pop("final_x").tobytes() == rep.final_x.tobytes()
        assert want == {key: getattr(rep, key) for key in want}
    assert 0 in round_counts and max(round_counts) > 2


@pytest.mark.parametrize("p", [2.0, INF])
def test_a_restart_run_maps_no_point_twice(p):
    # gap0 and round 0's row 0 both take f(x0), and each round starts at
    # the point the last one ended on: the oracle memo answers every repeat,
    # so every _map call is at a new point (x0 once)
    obj = make_logsumexp_instance(24, 8, 0.1, seed=0, declare_smoothness=True)
    solve_reference(obj)
    geom = LpGeometry(p)
    cfg = HasdConfig(L=smoothness_bound(obj, geom), geom=geom)
    x0 = np.random.default_rng(1000).standard_normal(8)
    mapped = []
    map_ = obj._map

    def recording_map(x):
        mapped.append(x.tobytes())
        return map_(x)

    obj._map = recording_map
    rep = run_restarting(obj, x0, mu=0.1, eps=1e-3, cfg=cfg, G_hat=16.0)
    assert len(rep.restart_G) == 14  # K = ceil(log2(gap0 / eps)) rounds
    assert mapped[0] == x0.tobytes()
    assert len(set(mapped)) == len(mapped) > 1000


def test_restarting_with_no_round_reports_row_0_and_a_copy_of_x0():
    # x0 is already within eps, so K = 0: the report holds row 0 at x0 as
    # run builds it, and a fresh array, not the caller's
    obj = Quadratic(np.ones(3))
    cfg = HasdConfig(L=1.0, geom=LpGeometry(2))
    x0 = np.array([1e-6, 0.0, 0.0])
    rep = run_restarting(obj, x0, mu=1.0, eps=1e-3, cfg=cfg)
    start = run(obj, x0, replace(cfg, max_iters=0))
    assert rep.iters == 0 and rep.restart_gaps == [rep.gap]
    assert [asdict(tr) for tr in rep.traces] == [asdict(start.traces[0])]
    assert rep.grad_calls == start.grad_calls == 1
    assert rep.final_x is not x0
    assert rep.final_x.tobytes() == start.final_x.tobytes() == x0.tobytes()
    x0[0] = 5.0
    assert rep.final_x[0] == 1e-6


def test_every_name_in_all_resolves():
    # so `from hasd import *` cannot break on a stale entry
    import hasd
    assert len(set(hasd.__all__)) == len(hasd.__all__)
    namespace = {}
    exec("from hasd import *", namespace)  # AttributeError on a stale name
    assert set(hasd.__all__) <= set(namespace)


def test_every_name_in_all_is_reached():
    # the rule stated above __all__: a name is public only when a src
    # module other than __init__ refers to it (an ast Name or Attribute),
    # or a perfbench module or the README mentions it
    import hasd
    used = set()
    for path in Path(hasd.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    root = Path(__file__).resolve().parents[1]
    texts = [p.read_text() for p in (root / "perfbench").glob("*.py")]
    texts.append((root / "README.md").read_text())
    mentioned = {word for text in texts for word in re.findall(r"\w+", text)}
    assert [name for name in hasd.__all__
            if name not in used | mentioned] == []
