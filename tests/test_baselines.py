"""Reference methods: gradient descent, AGD, linear coupling, steepest descent."""

import math

import numpy as np
import pytest

from hasd.baselines import (BaselineConfig, agd_run, gd_run, lc_run, sdp_run)
from hasd.core import HasdConfig, iterate
from hasd.geometry import LpGeometry, steepest_step
from hasd.objectives import Quadratic, make_logsumexp_instance

INF = math.inf


def test_config_validation():
    with pytest.raises(ValueError):
        BaselineConfig(0.0, 5)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            BaselineConfig(bad, 5)
    with pytest.raises(ValueError):
        BaselineConfig(0.1, -1)


def test_lc_and_sd_p_refuse_a_config_without_a_geometry():
    obj = Quadratic(np.array([1.0, 2.0]))
    cfg = BaselineConfig(0.1, 5)  # geometry optional for gd and agd
    for method, runner in (("lc", lc_run), ("sd_p", sdp_run)):
        with pytest.raises(ValueError, match="^%s requires a geometry$"
                           % method):
            runner(obj, np.ones(2), cfg)
    for runner in (gd_run, agd_run):
        assert runner(obj, np.ones(2), cfg).iters == 5


def test_gd_one_step():
    obj = Quadratic(np.array([1.0, 2.0]))
    rep = gd_run(obj, np.array([1.0, 1.0]), BaselineConfig(0.5, 1))
    np.testing.assert_allclose(rep.final_x, [0.5, 0.0], rtol=1e-15)
    assert rep.iters == 1 and rep.grad_calls == 2
    assert rep.traces[0].f == pytest.approx(1.5)
    assert rep.traces[0].grad_dual is None  # no geometry given


def test_rows_use_numpys_l2_norm_bit_for_bit():
    # rows compute ||g||_2 as sqrt(g @ g); it must equal np.linalg.norm
    obj = make_logsumexp_instance(30, 8, 0.0, seed=6)
    grads = []
    gradient = obj.gradient

    def recording_gradient(x):
        grads.append(gradient(x))
        return grads[-1]

    obj.gradient = recording_gradient
    rep = gd_run(obj, np.zeros(8), BaselineConfig(0.05, 15))
    assert len(grads) == len(rep.traces) == 16
    for g, tr in zip(grads, rep.traces):
        assert tr.grad_l2 == float(np.linalg.norm(g))


def test_gd_descends_and_meets_classical_rate():
    obj = Quadratic(np.array([1.0, 4.0, 9.0]))
    L = 9.0
    x0 = np.array([2.0, -1.0, 1.0])
    rep = gd_run(obj, x0, BaselineConfig(1.0 / L, 40, geom=LpGeometry(2)))
    fs = [tr.f for tr in rep.traces]
    assert all(b <= a + 1e-14 for a, b in zip(fs, fs[1:]))
    R2 = float(x0 @ x0)
    for tr in rep.traces[1:]:
        assert tr.gap <= L * R2 / (2.0 * tr.iter) * (1 + 1e-9)


def test_agd_warmup_matches_gd():
    # momentum is clipped to zero until there are two points to extrapolate,
    # and it shifts the evaluation point first: y4 is the first traced
    # iterate that can differ from plain gradient descent
    obj = make_logsumexp_instance(12, 5, 1e-2, seed=0)
    x0 = np.zeros(5)
    agd = agd_run(obj, x0, BaselineConfig(0.05, 4))
    gd = gd_run(obj, x0, BaselineConfig(0.05, 4))
    for t in (1, 2, 3):
        assert agd.traces[t].f == pytest.approx(gd.traces[t].f, rel=1e-15)
    assert np.abs(agd.final_x - gd.final_x).max() > 1e-6


@pytest.mark.parametrize("h,x0", [
    ([1.0, 10.0], [3.0, -2.0]),
    ([0.5, 2.0, 8.0], [1.0, 1.0, 1.0]),
])
def test_agd_classical_rate(h, x0):
    obj = Quadratic(np.array(h))
    L = max(h)
    x0 = np.array(x0)
    rep = agd_run(obj, x0, BaselineConfig(1.0 / L, 80))
    R2 = float(x0 @ x0)
    for tr in rep.traces[1:]:
        assert tr.gap <= 2.0 * L * R2 / (tr.iter + 1.0) ** 2 * (1 + 1e-9)


def test_agd_call_accounting():
    obj = Quadratic(np.array([1.0, 2.0]))
    rep = agd_run(obj, np.ones(2), BaselineConfig(0.1, 10))
    assert rep.grad_calls == 20  # one fresh point per update after warmup
    assert len(rep.traces) == 11


def test_lc_first_step_is_plain_steepest_step():
    obj = make_logsumexp_instance(10, 4, 1e-2, seed=1)
    x0 = np.full(4, 0.3)
    geom = LpGeometry(3)
    rep = lc_run(obj, x0, BaselineConfig(0.04, 1, geom=geom))
    expected = steepest_step(x0, obj.gradient(x0), 1.0 / (2.0 * 0.04), geom)
    np.testing.assert_allclose(rep.final_x, expected, rtol=1e-14)


def test_lc_p2_matches_three_sequence_recursion():
    obj = Quadratic(np.array([1.0, 5.0, 2.0]))
    alpha = 1.0 / 5.0
    x0 = np.array([1.0, -1.0, 2.0])
    rep = lc_run(obj, x0, BaselineConfig(alpha, 25, geom=LpGeometry(2)))
    z = x0.copy()
    y = x0.copy()
    for t in range(25):
        beta = 2.0 / (t + 2.0)
        x = beta * z + (1.0 - beta) * y
        g = obj.gradient(x)
        y = x - alpha * g
        z = z - (t + 1.0) * alpha / 2.0 * g
        assert rep.traces[t + 1].f == pytest.approx(obj.value(y), rel=1e-10)
    np.testing.assert_allclose(rep.final_x, y, rtol=1e-10, atol=1e-30)


def test_lc_rate_on_quadratic():
    obj = Quadratic(np.array([1.0, 10.0]))
    x0 = np.array([3.0, -2.0])
    rep = lc_run(obj, x0, BaselineConfig(0.1, 80, geom=LpGeometry(2)))
    R2 = float(x0 @ x0)
    for tr in rep.traces[1:]:
        assert tr.gap <= 4.0 * 10.0 * R2 / tr.iter ** 2 * (1 + 1e-9)


def test_lc_call_accounting():
    obj = Quadratic(np.array([1.0, 2.0]))
    geom = LpGeometry(4)
    rep = lc_run(obj, np.ones(2), BaselineConfig(0.1, 10, geom=geom))
    assert rep.grad_calls == 20
    assert rep.method == "lc" and rep.iters == 10


def test_sdp_p2_is_gradient_descent():
    obj = make_logsumexp_instance(15, 6, 1e-3, seed=2)
    x0 = np.zeros(6)
    alpha = 0.25  # power of two keeps the two arithmetic paths bit-identical
    sd = sdp_run(obj, x0, BaselineConfig(alpha, 20, geom=LpGeometry(2)))
    gd = gd_run(obj, x0, BaselineConfig(alpha, 20, geom=LpGeometry(2)))
    np.testing.assert_allclose(sd.final_x, gd.final_x, rtol=1e-14)
    for a, b in zip(sd.traces, gd.traces):
        assert a.f == pytest.approx(b.f, rel=1e-14)


def test_sdp_sup_norm_step():
    obj = Quadratic(np.array([1.0, 1.0]))
    rep = sdp_run(obj, np.array([2.0, 0.0]),
                  BaselineConfig(0.5, 1, geom=LpGeometry(INF)))
    # x - alpha * ||g||_1 * sign(g) on the support of g
    np.testing.assert_allclose(rep.final_x, [1.0, 0.0], atol=1e-15)


def test_sdp_descends_for_every_geometry():
    obj = make_logsumexp_instance(20, 6, 1e-2, seed=3, declare_smoothness=True)
    L_inf = obj.smoothness[0]
    for p in (2.0, 3.0, INF):
        rep = sdp_run(obj, np.zeros(6),
                      BaselineConfig(1.0 / (2.0 * L_inf), 30,
                                     geom=LpGeometry(p)))
        fs = [tr.f for tr in rep.traces]
        assert all(b <= a + 1e-12 for a, b in zip(fs, fs[1:]))


def test_rows_carry_gap_and_dual_norm():
    obj = Quadratic(np.array([2.0, 1.0]))
    geom = LpGeometry(3)
    rep = gd_run(obj, np.ones(2), BaselineConfig(0.1, 5, geom=geom))
    for tr in rep.traces:
        assert tr.gap is not None and tr.gap >= -1e-15
        assert tr.grad_dual is not None
        assert tr.rho is None and tr.theta is None and tr.A is None


def test_final_row_only_runs_equal_full_runs():
    # a final-row-only run builds the full run's last row and computes no
    # gradient that only an unbuilt row would use; grad_calls counts the
    # calls each run made
    obj = make_logsumexp_instance(15, 4, 1e-2, seed=9)
    calls = []
    gradient = obj.gradient

    def counting_gradient(x):
        calls.append(1)
        return gradient(x)

    obj.gradient = counting_gradient
    geom = LpGeometry(3.0)
    x0 = np.random.default_rng(10).standard_normal(4)
    runners = (("gd", gd_run), ("agd", agd_run), ("lc", lc_run),
               ("sd_p", sdp_run))
    for method, runner in runners:
        for iters in (0, 1, 7):
            calls.clear()
            full = runner(obj, x0, BaselineConfig(0.05, iters, geom=geom))
            assert full.grad_calls == len(calls)
            calls.clear()
            last = runner(obj, x0, BaselineConfig(0.05, iters, geom=geom),
                          rows=False)
            assert last.grad_calls == len(calls) == iters + 1
            assert last.method == full.method == method
            assert len(full.traces) == iters + 1
            assert last.traces == full.traces[-1:]
            assert (last.final_f, last.gap, last.iters) == (
                full.final_f, full.gap, full.iters)
            np.testing.assert_array_equal(last.final_x, full.final_x)


def test_row_0_is_hasds_row_0():
    # baselines and HASD build the start row with the same head
    obj = make_logsumexp_instance(15, 4, 1e-2, seed=9)
    geom = LpGeometry(3.0)
    x0 = np.random.default_rng(11).standard_normal(4)
    _, hasd_row = next(iterate(obj, x0, HasdConfig(L=1.0, geom=geom)))
    for runner in (gd_run, sdp_run):
        rep = runner(obj, x0, BaselineConfig(0.05, 0, geom=geom))
        assert rep.traces == [hasd_row]
