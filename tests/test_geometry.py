"""Norms, steepest step, and the squared-norm Hessian."""

import math

import numpy as np
import pytest

from hasd.geometry import (LpGeometry, lp_norm, lp_sq_hessian,
                           lp_sq_hessian_split, steepest_step,
                           subproblem_value)
from oracles import fd_hessian, numeric_steepest_step

P_VALUES = [2.0, 2.5, 3.0, 4.0, 8.0, math.inf]


# ---------------------------------------------------------------- lp_norm

def test_lp_norm_known_values():
    x = np.array([3.0, -4.0])
    assert lp_norm(x, 2) == pytest.approx(5.0, rel=1e-15)
    assert lp_norm(x, 1) == pytest.approx(7.0, rel=1e-15)
    assert lp_norm(x, math.inf) == 4.0
    # frozen: (3^{4/3} + 4^{4/3})^{3/4} from a 50-digit evaluation
    assert lp_norm(x, 4.0 / 3.0) == pytest.approx(5.9063229656488888, rel=1e-14)


def test_lp_norm_edge_cases():
    assert lp_norm(np.array([]), 3) == 0.0
    assert lp_norm(np.zeros(4), 2.5) == 0.0
    with pytest.raises(ValueError):
        lp_norm(np.ones(2), 0.5)


def test_lp_norm_extreme_scales():
    # rescaling keeps powers of huge/tiny entries from overflowing
    big = np.full(8, 1e300)
    tiny = np.full(8, 1e-300)
    for p in [1.5, 2, 3, 8, 64]:
        nb = lp_norm(big, p)
        nt = lp_norm(tiny, p)
        assert np.isfinite(nb) and nb == pytest.approx(1e300 * 8 ** (1 / p), rel=1e-12)
        assert nt > 0 and nt == pytest.approx(1e-300 * 8 ** (1 / p), rel=1e-12)


def test_lp_norm_properties():
    rng = np.random.default_rng(7)
    for p in [1, 1.5, 2, 3, 5, math.inf]:
        for _ in range(20):
            u = rng.standard_normal(6)
            v = rng.standard_normal(6)
            c = rng.uniform(-3, 3)
            assert lp_norm(c * u, p) == pytest.approx(abs(c) * lp_norm(u, p), rel=1e-12)
            assert lp_norm(u + v, p) <= lp_norm(u, p) + lp_norm(v, p) + 1e-12


# ------------------------------------------ hot path, bit for bit
# lp_norm and steepest_step call the ufunc reduces and ndarray.any that
# a.max(), a.sum(), np.sum and np.any wrap.  The wrapped forms are written
# out below, and the results must agree bit for bit (any NaN matches NaN).

def _wrapped_lp_norm(x, p):
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return 0.0
    a = np.abs(x)
    m = float(a.max())
    if m == 0.0 or math.isinf(p):
        return m
    if p == 1.0:
        return float(a.sum())
    if p == 2.0:
        return m * float(np.sqrt(np.sum((a / m) ** 2)))
    return m * float(np.sum((a / m) ** p) ** (1.0 / p))


def _wrapped_steepest_step(y, g, L, geom):
    y = np.asarray(y, dtype=float)
    g = np.asarray(g, dtype=float)
    if not np.any(g):
        return y.copy()
    p = geom.p
    if math.isinf(p):
        return y - (0.5 / L) * _wrapped_lp_norm(g, 1.0) * np.sign(g)
    if p == 2.0:
        return y - g / (2.0 * L)
    dual = _wrapped_lp_norm(g, geom.p_dual)
    direction = np.sign(g) * np.abs(g) ** (1.0 / (p - 1.0))
    return y - (0.5 / L) * dual ** ((p - 2.0) / (p - 1.0)) * direction


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


def _hot_path_vectors():
    rng = np.random.default_rng(41)
    vecs = [np.array([]), np.zeros(5), np.array([-0.0, 0.0]),
            np.array([5e-324, -5e-324, 0.0]), 5e-324 * rng.integers(-9, 9, 40),
            np.array([1.0, math.nan, -2.0]), np.array([math.inf, 1.0]),
            np.array([-math.inf, 3.0, math.inf]), np.array([math.nan, math.inf]),
            np.array([1.7976931348623157e308, -1.7976931348623157e308]),
            rng.standard_normal((2, 3))]
    for scale in 10.0 ** np.arange(-300, 301, 20):
        for n in (1, 2, 7, 50, 300):
            vecs.append(scale * rng.standard_normal(n))
    return vecs


def test_lp_norm_matches_wrapped_reduces_bit_for_bit():
    for x in _hot_path_vectors():
        for p in (1.0, 4.0 / 3.0, 2.0, 3.0, 4.0, math.inf):
            with np.errstate(all="ignore"):
                got, want = lp_norm(x, p), _wrapped_lp_norm(x, p)
            assert _same_bits(got, want), (x, p, got, want)


@pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 1.5, 2.0, 3.0, 4.0, math.inf])
def test_lp_norm_along_the_last_axis_is_each_rows_norm_bit_for_bit(p):
    # the stencil and probe blocks of the invariant checker take their row
    # norms in one call; each must be the vector's own norm, zero rows too
    rng = np.random.default_rng(53)
    for d in (1, 2, 5, 10, 33):
        X = rng.standard_normal((120, d)) * 10.0 ** rng.uniform(-3, 3, (120, 1))
        X[0] = 0.0
        X[1, ::2] = 0.0
        norms = lp_norm(X, p, axis=-1)
        assert norms.shape == (120,)
        for row, got in zip(X, norms):
            assert _same_bits(got, lp_norm(row, p)), (row, p)
    assert lp_norm(np.zeros((3, 0)), p, axis=-1).tolist() == [0.0] * 3
    assert lp_norm(np.zeros((0, 4)), p, axis=-1).shape == (0,)
    stack = rng.standard_normal((2, 3, 4))
    assert _same_bits(lp_norm(stack, p, axis=-1)[1, 2], lp_norm(stack[1, 2], p))
    assert _same_bits(lp_norm(stack, p, axis=0)[2, 1], lp_norm(stack[:, 2, 1], p))


def test_steepest_step_matches_wrapped_any_bit_for_bit():
    rng = np.random.default_rng(43)
    grads = [np.zeros(4), np.array([-0.0, 0.0, 0.0, -0.0]),
             np.array([1.0, math.nan, -1.0, 0.0]), np.array([math.nan] * 4),
             np.array([1.0, -1.0, 2.0, -2.0]), np.array([0.0, 3.0, 0.0, -5e-324])]
    grads += [rng.standard_normal(4) * 10.0 ** rng.uniform(-100, 100)
              for _ in range(50)]
    y = np.array([0.5, -1.5, 2.0, 0.0])
    for g in grads:
        for p in (2.0, 3.0, 4.0, math.inf):
            geom = LpGeometry(p)
            with np.errstate(all="ignore"):
                got = steepest_step(y, g, 3.0, geom)
                want = _wrapped_steepest_step(y, g, 3.0, geom)
            assert _same_bits(got, want), (g, p, got, want)


def test_sqrt_of_self_dot_is_numpys_l2_norm():
    # core and baselines compute ||g||_2 of a 1-D float64 gradient as
    # math.sqrt(g @ g) or math.sqrt(g.dot(g)), which is np.linalg.norm's own
    # formula for such input; ndarray.dot is the same BLAS dot as @
    rng = np.random.default_rng(47)
    for scale in 10.0 ** np.arange(-150, 151, 10):
        for n in (1, 3, 6, 50, 129, 1000):
            g = scale * rng.standard_normal(n)
            h = rng.standard_normal(n)
            assert math.sqrt(g @ g) == float(np.linalg.norm(g))
            assert math.sqrt(g.dot(g)) == float(np.linalg.norm(g))
            assert _same_bits(g.dot(h), g @ h)
    for g in (np.zeros(3), np.array([5e-324, 1e-310]), np.array([1e200, 1e200]),
              np.array([math.inf, 1.0]), np.array([math.nan, 1.0])):
        with np.errstate(all="ignore"):
            assert _same_bits(math.sqrt(g @ g), float(np.linalg.norm(g)))
            assert _same_bits(math.sqrt(g.dot(g)), float(np.linalg.norm(g)))


def test_geometry_dual_exponents():
    assert LpGeometry(2).p_dual == 2.0
    assert LpGeometry(3).p_dual == pytest.approx(1.5)
    assert LpGeometry(4).p_dual == pytest.approx(4.0 / 3.0)
    assert LpGeometry(math.inf).p_dual == 1.0
    with pytest.raises(ValueError):
        LpGeometry(1.5)


def test_holder_inequality():
    rng = np.random.default_rng(11)
    for p in P_VALUES:
        geom = LpGeometry(p)
        for _ in range(50):
            u = rng.standard_normal(7)
            v = rng.standard_normal(7)
            lhs = abs(float(u @ v))
            rhs = lp_norm(u, geom.p) * lp_norm(v, geom.p_dual)
            assert lhs <= rhs * (1 + 1e-12)


def test_norm_ordering_and_equivalence():
    rng = np.random.default_rng(13)
    for p in P_VALUES:
        geom = LpGeometry(p)
        dfac_exp = 0.5 if math.isinf(p) else 0.5 - 1.0 / p
        for _ in range(30):
            d = rng.integers(2, 12)
            x = rng.standard_normal(d)
            n_dual = lp_norm(x, geom.p_dual)
            n2 = lp_norm(x, 2)
            n_p = lp_norm(x, p)
            assert n_dual >= n2 * (1 - 1e-12)
            assert n2 >= n_p * (1 - 1e-12)
            assert n_dual <= d ** dfac_exp * n2 * (1 + 1e-12)
    # the dimension factor is tight on the all-ones vector
    ones = np.ones(9)
    g = LpGeometry(4)
    assert lp_norm(ones, g.p_dual) == pytest.approx(9 ** (0.5 - 0.25) * lp_norm(ones, 2), rel=1e-12)


# ---------------------------------------------------------- steepest_step

def test_steepest_step_p2_is_gradient_step():
    rng = np.random.default_rng(3)
    geom = LpGeometry(2)
    for _ in range(10):
        y = rng.standard_normal(5)
        g = rng.standard_normal(5)
        L = rng.uniform(0.2, 5.0)
        np.testing.assert_allclose(steepest_step(y, g, L, geom),
                                   y - g / (2 * L), rtol=1e-14)


def test_steepest_step_inf_worked_example():
    # y = 0, grad = (3, -4), L = 1/2: step is -(1/L/2)*||g||_1*sign(g) = (-7, 7)
    geom = LpGeometry(math.inf)
    x = steepest_step(np.zeros(2), np.array([3.0, -4.0]), 0.5, geom)
    np.testing.assert_allclose(x, [-7.0, 7.0], atol=1e-14)
    val = subproblem_value(np.zeros(2), np.array([3.0, -4.0]), 0.5, geom, x)
    assert val == pytest.approx(-24.5, rel=1e-14)


def test_steepest_step_p4_frozen_oracle_values():
    # frozen output of an independent numerical argmin (multi-start
    # quasi-Newton) cross-checked by a 50-digit stationary-point solve
    geom = LpGeometry(4)
    x = steepest_step(np.zeros(2), np.array([3.0, -4.0]), 1.0, geom)
    np.testing.assert_allclose(x, [-2.3562527981722647, 2.593391773189737],
                               rtol=1e-12)
    val = subproblem_value(np.zeros(2), np.array([3.0, -4.0]), 1.0, geom, x)
    assert val == pytest.approx(-8.721162743637871, rel=1e-12)


def test_steepest_step_inf_zero_coordinates_do_not_move():
    geom = LpGeometry(math.inf)
    y = np.array([1.0, 2.0, 3.0])
    g = np.array([2.0, 0.0, -1.0])
    x = steepest_step(y, g, 1.0, geom)
    assert x[1] == y[1]
    np.testing.assert_allclose(x, [1.0 - 1.5, 2.0, 3.0 + 1.5], atol=1e-14)


def test_steepest_step_zero_gradient_returns_start():
    for p in P_VALUES:
        y = np.array([1.0, -2.0, 0.5])
        x = steepest_step(y, np.zeros(3), 2.0, LpGeometry(p))
        np.testing.assert_array_equal(x, y)


def test_steepest_step_matches_numeric_argmin():
    rng = np.random.default_rng(5)
    for p in P_VALUES:
        geom = LpGeometry(p)
        for k in range(4):
            d = int(rng.integers(2, 6))
            y = rng.standard_normal(d)
            g = rng.standard_normal(d)
            L = float(rng.uniform(0.3, 3.0))
            x = steepest_step(y, g, L, geom)
            x_num = numeric_steepest_step(y, g, L, p, seed=k)
            scale = max(1.0, float(np.linalg.norm(x)))
            assert np.linalg.norm(x - x_num) <= 1e-6 * scale
            v = subproblem_value(y, g, L, geom, x)
            v_num = subproblem_value(y, g, L, geom, x_num)
            assert v <= v_num + 1e-6 * max(1.0, abs(v))


def test_steepest_step_first_order_condition():
    # grad_i phi(x) = g_i + 2L ||x-y||_p^{2-p} |x_i-y_i|^{p-2} (x_i-y_i) = 0
    rng = np.random.default_rng(17)
    for p in [2.0, 2.5, 3.0, 4.0, 8.0]:
        geom = LpGeometry(p)
        for _ in range(5):
            y = rng.standard_normal(4)
            g = rng.standard_normal(4)
            L = float(rng.uniform(0.5, 2.0))
            x = steepest_step(y, g, L, geom)
            z = x - y
            n = lp_norm(z, p)
            resid = g + 2 * L * n ** (2 - p) * np.abs(z) ** (p - 2) * z
            assert np.linalg.norm(resid) <= 1e-9 * max(1.0, np.linalg.norm(g))


def test_steepest_step_beats_random_perturbations():
    rng = np.random.default_rng(23)
    for p in P_VALUES:
        geom = LpGeometry(p)
        y = rng.standard_normal(6)
        g = rng.standard_normal(6)
        L = 1.3
        x = steepest_step(y, g, L, geom)
        v = subproblem_value(y, g, L, geom, x)
        for scale in [1e-4, 1e-2, 1.0]:
            pert = x + scale * rng.standard_normal((2000, 6))
            diff = pert - y
            vals = diff @ g + L * np.array([lp_norm(row, p) for row in diff]) ** 2
            assert vals.min() >= v - 1e-10 * max(1.0, abs(v))


def test_subproblem_value_direct():
    geom = LpGeometry(3)
    y = np.array([1.0, 0.0])
    g = np.array([2.0, -1.0])
    x = np.array([0.0, 1.0])
    expect = g @ (x - y) + 2.0 * lp_norm(x - y, 3) ** 2
    assert subproblem_value(y, g, 2.0, geom, x) == pytest.approx(expect, rel=1e-15)


# ------------------------------------------------------------ lp Hessian

def test_lp_sq_hessian_p2_identity():
    H = lp_sq_hessian(np.array([0.3, -2.0, 1.0]), 2.0)
    np.testing.assert_allclose(H, 2 * np.eye(3), atol=1e-12)


def test_lp_sq_hessian_matches_finite_differences():
    rng = np.random.default_rng(29)
    for p in [2.0, 3.0, 4.0]:
        for _ in range(5):
            d = int(rng.integers(2, 6))
            z = rng.standard_normal(d)
            z[np.abs(z) < 0.2] += 0.5  # keep away from kinks at 0
            H = lp_sq_hessian(z, p)
            H_fd = fd_hessian(lambda w: lp_norm(w, p) ** 2, z, h=1e-4)
            assert np.max(np.abs(H - H_fd)) <= 1e-5 * max(1.0, np.abs(H).max())


def test_lp_sq_hessian_split_pieces_psd_and_sum():
    rng = np.random.default_rng(31)
    for p in [2.0, 3.0, 4.0]:
        for _ in range(10):
            z = rng.standard_normal(5)
            z[np.abs(z) < 1e-3] = 0.1
            M1, M2 = lp_sq_hessian_split(z, p)
            H = lp_sq_hessian(z, p)
            np.testing.assert_allclose(M1 + M2, H, rtol=1e-10, atol=1e-12)
            for M in (M1, M2):
                w = np.linalg.eigvalsh(M)
                assert w.min() >= -1e-10 * max(1.0, w.max())
            # the Hessian dominates the rank-one piece
            w = np.linalg.eigvalsh(H - M2)
            assert w.min() >= -1e-10 * max(1.0, abs(w).max())


def test_lp_sq_hessian_norm_lower_bound_witness():
    # v = z itself certifies ||H||_p >= 2 / d^{(p-2)/2}
    rng = np.random.default_rng(37)
    for p in [2.0, 3.0, 4.0]:
        for d in [2, 5, 10]:
            z = rng.standard_normal(d)
            H = lp_sq_hessian(z, p)
            bound = 2.0 / d ** ((p - 2.0) / 2.0)
            ratio = lp_norm(H @ z, p) / lp_norm(z, p)
            assert ratio >= bound - 1e-8


def test_lp_sq_hessian_rejects_bad_inputs():
    with pytest.raises(ValueError):
        lp_sq_hessian(np.zeros(3), 3.0)
    with pytest.raises(ValueError):
        lp_sq_hessian(np.ones(3), math.inf)
    with pytest.raises(ValueError):
        lp_sq_hessian(np.ones(3), 1.5)
