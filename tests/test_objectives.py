"""Objective oracles: values, gradients, smoothness metadata, serialization."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp
from scipy.special import softmax as scipy_softmax

from hasd.geometry import LpGeometry, lp_norm
from hasd.objectives import (LogSumExpAffine, Quadratic, SmoothObjective,
                             SmoothnessUnavailable, SymmetricSoftmax,
                             _BOUND_BLOCK_BYTES, _logsumexp, _softmax,
                             convert_smoothness, load_instance,
                             make_logsumexp_instance, save_instance,
                             smoothness_bound, solve_reference)
from oracles import (fd_gradient, fd_hessian, lbfgsb_reference,
                     sampled_smoothness)


# ------------------------------------------------------------- quadratic

def test_quadratic_value_gradient():
    obj = Quadratic(np.array([1.0, 4.0]), center=np.array([1.0, -1.0]), offset=0.5)
    x = np.array([2.0, 1.0])
    assert obj.value(x) == pytest.approx(0.5 * (1 + 4 * 4) + 0.5, rel=1e-15)
    np.testing.assert_allclose(obj.gradient(x), [1.0, 8.0], rtol=1e-15)
    xs, fs = obj.reference_optimum
    np.testing.assert_allclose(xs, [1.0, -1.0])
    assert fs == 0.5


def test_quadratic_smoothness_is_diag_operator_norm():
    h = np.array([1.0, 2.0, 3.0])
    obj = Quadratic(h)
    assert obj.smoothness_for(LpGeometry(2)) == pytest.approx(3.0)
    assert obj.smoothness_for(LpGeometry(math.inf)) == pytest.approx(6.0)
    # p = 4 -> ||h||_{p/(p-2)} = ||h||_2
    assert obj.smoothness_for(LpGeometry(4)) == pytest.approx(float(np.linalg.norm(h)))


def test_quadratic_smoothness_bound_is_tight_upper_bound():
    # the declared constant really bounds gradient-difference ratios
    rng = np.random.default_rng(0)
    h = np.array([0.5, 2.0, 5.0, 1.0])
    obj = Quadratic(h)
    for p in [2.0, 3.0, 4.0, math.inf]:
        geom = LpGeometry(p)
        L = obj.smoothness_for(geom)
        worst = 0.0
        for _ in range(200):
            u = rng.standard_normal(4)
            v = rng.standard_normal(4)
            worst = max(worst, lp_norm(obj.gradient(u) - obj.gradient(v), geom.p_dual)
                        / lp_norm(u - v, geom.p))
        assert worst <= L * (1 + 1e-12)
        # tight: some pair comes within a dimension-free factor
        assert worst >= 0.2 * L


def test_quadratic_rejects_negative_curvature():
    with pytest.raises(ValueError):
        Quadratic(np.array([1.0, -0.1]))


_MAKERS = {"quadratic": lambda: Quadratic(np.ones(3)),
           "softmax": lambda: SymmetricSoftmax(3),
           "logsumexp": lambda: make_logsumexp_instance(5, 3, 0.1, seed=0)}


@pytest.mark.parametrize("kind, oracle", [
    pytest.param(kind, oracle, id="%s-%s" % (kind, oracle))
    for kind in _MAKERS for oracle in ("value", "gradient", "hessian")
    if oracle != "hessian" or kind == "logsumexp"])
def test_every_oracle_refuses_a_point_of_the_wrong_shape(kind, oracle):
    with pytest.raises(ValueError, match="expected shape"):
        getattr(_MAKERS[kind](), oracle)(np.zeros(4))


# ------------------------------------------------------ symmetric softmax

def test_softmax_value_at_origin():
    # d = 3, alpha = 1: f(0) = log(6)
    obj = SymmetricSoftmax(3, alpha=1.0)
    assert obj.value(np.zeros(3)) == pytest.approx(math.log(6.0), rel=1e-15)
    xs, fs = obj.reference_optimum
    np.testing.assert_array_equal(xs, np.zeros(3))
    assert fs == pytest.approx(math.log(6.0), rel=1e-15)


def test_softmax_gradient_matches_finite_differences():
    obj = SymmetricSoftmax(4, alpha=0.7)
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.standard_normal(4)
        np.testing.assert_allclose(obj.gradient(x), fd_gradient(obj.value, x),
                                   rtol=1e-6, atol=1e-8)


def test_softmax_gradient_odd_and_bounded():
    obj = SymmetricSoftmax(5, alpha=0.3)
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.standard_normal(5) * 3
        g = obj.gradient(x)
        np.testing.assert_allclose(obj.gradient(-x), -g, atol=1e-14)
        assert np.all(np.abs(g) <= 1.0)
        assert lp_norm(g, 1) <= 1.0 + 1e-12


def test_softmax_stable_far_from_origin():
    obj = SymmetricSoftmax(4, alpha=0.5)
    x = np.array([4000.0, -3000.0, 2.0, 0.0])
    v = obj.value(x)
    g = obj.gradient(x)
    assert np.isfinite(v) and v == pytest.approx(4000.0, rel=1e-6)
    assert np.all(np.isfinite(g))


def test_softmax_smoothness_constant():
    obj = SymmetricSoftmax(6, alpha=0.1)
    L, geom = obj.smoothness
    assert L == pytest.approx(10.0) and math.isinf(geom.p)
    # empirical gradient-difference ratios never exceed 1/alpha
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(300):
        u = rng.standard_normal(6) * 0.05
        v = u + rng.standard_normal(6) * 10 ** rng.uniform(-5, -1)
        worst = max(worst, lp_norm(obj.gradient(u) - obj.gradient(v), 1)
                    / lp_norm(u - v, math.inf))
    assert worst <= 10.0 * (1 + 1e-9)
    # the all-ones direction at the origin attains the constant in the limit
    eps = 1e-5
    attained = lp_norm(obj.gradient(eps * np.ones(6)), 1) / eps
    assert 0.999 * L <= attained <= L * (1 + 1e-9)


# ------------------------------------------------------------- logsumexp

def test_logsumexp_instance_deterministic_and_bernoulli():
    a = make_logsumexp_instance(40, 12, 1e-4, seed=5)
    b = make_logsumexp_instance(40, 12, 1e-4, seed=5)
    np.testing.assert_array_equal(a.A, b.A)
    np.testing.assert_array_equal(a.b, b.b)
    assert set(np.unique(a.A)) <= {0.0, 1.0}
    density = a.A.mean()
    assert 0.6 < density < 0.95
    c = make_logsumexp_instance(40, 12, 1e-4, seed=6)
    assert not np.array_equal(a.A, c.A)


def test_logsumexp_gradient_matches_finite_differences():
    obj = make_logsumexp_instance(15, 6, 1e-3, seed=7)
    rng = np.random.default_rng(8)
    for _ in range(5):
        x = rng.standard_normal(6)
        np.testing.assert_allclose(obj.gradient(x), fd_gradient(obj.value, x),
                                   rtol=1e-5, atol=1e-7)


def test_logsumexp_hessian_matches_finite_differences():
    obj = make_logsumexp_instance(10, 4, 1e-2, seed=9)
    x = np.random.default_rng(10).standard_normal(4) * 0.5
    np.testing.assert_allclose(obj.hessian(x), fd_hessian(obj.value, x, h=1e-4),
                               atol=2e-6)


def test_logsumexp_value_stable_at_large_inputs():
    obj = make_logsumexp_instance(20, 5, 0.0, seed=11)
    x = np.full(5, 500.0)
    assert np.isfinite(obj.value(x))
    assert np.all(np.isfinite(obj.gradient(x)))


def test_logsumexp_mu_zero_unbounded_below():
    # all row sums positive, so f decreases without bound along -ones
    obj = make_logsumexp_instance(30, 8, 0.0, seed=12)
    assert np.all(obj.A.sum(axis=1) > 0)
    vals = [obj.value(-c * np.ones(8)) for c in (0.0, 10.0, 100.0)]
    assert vals[2] < vals[1] < vals[0]
    assert vals[2] < vals[0] - 50
    assert obj.certifies_unbounded(-np.ones(8))
    assert not obj.certifies_unbounded(np.zeros(8))
    assert not obj.certifies_unbounded(np.ones(8))
    for bad in (math.nan, math.inf, -math.inf):  # no certificate from these
        assert not obj.certifies_unbounded(np.full(8, bad))
    # a row with a_k . x = 0 leaves f bounded along x
    flat = LogSumExpAffine(np.array([[1.0, 1.0], [1.0, -1.0]]), np.zeros(2))
    assert not flat.certifies_unbounded(np.array([-1.0, -1.0]))
    assert flat.certifies_unbounded(np.array([-1.0, -0.5]))
    regularized = make_logsumexp_instance(30, 8, 1e-6, seed=12)
    assert not regularized.certifies_unbounded(-np.ones(8))


def _one_shot_certifies(obj, x):
    # certifies_unbounded before it took |A| in blocks of rows
    slack = (obj.dim + 2) * float(np.finfo(float).eps)
    with np.errstate(all="ignore"):
        worst = obj.A.dot(x) + slack * np.abs(obj.A).dot(np.abs(x))
    return bool(worst.max() < 0.0)


@pytest.mark.parametrize("zero_row", [None, 0, 1000, 1999])
def test_certifies_unbounded_holds_nothing_of_the_size_of_A(zero_row):
    # 2000 x 500 takes eight blocks of rows, the last overlapping the one
    # before; a zero row (a_k . x = 0) anywhere must void the certificate
    A, b = _one_shot_instance(2000, 500, 4)
    if zero_row is not None:
        A[zero_row] = 0.0
    obj = LogSumExpAffine(A, b)
    rng = np.random.default_rng(5)
    points = [-np.ones(500), np.ones(500), np.zeros(500),
              -rng.uniform(0.5, 1.5, 500), rng.standard_normal(500)]
    one_x = -np.ones(500)
    one_x[7] = 1e4  # rows with a_k7 = 1 turn positive
    points.append(one_x)
    verdicts = []
    for x in points:
        tracemalloc.start()
        try:
            got = obj.certifies_unbounded(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < A.nbytes / 4
        assert got == _one_shot_certifies(obj, x)
        verdicts.append(got)
    assert verdicts == [zero_row is None, False, False, zero_row is None,
                        False, False]


def test_logsumexp_smoothness_upper_holds_empirically():
    obj = make_logsumexp_instance(25, 6, 1e-2, seed=13)
    for p in [2.0, 4.0, math.inf]:
        geom = LpGeometry(p)
        bound = obj.smoothness_upper(geom)
        est = sampled_smoothness(obj, geom, num_pairs=300, seed=14)
        assert est <= bound * (1 + 1e-9)


def test_logsumexp_convexity_probe():
    obj = make_logsumexp_instance(20, 5, 1e-3, seed=15)
    rng = np.random.default_rng(16)
    for _ in range(50):
        u = rng.standard_normal(5)
        v = rng.standard_normal(5)
        lam = rng.uniform()
        mid = obj.value(lam * u + (1 - lam) * v)
        assert mid <= lam * obj.value(u) + (1 - lam) * obj.value(v) + 1e-10


# The one-shot formulas that built an instance and its analytic bound before
# both were made to hold nothing of A's size but A.  The in-place draw and
# the blocked bound must give their bytes.

def _one_shot_instance(n, d, seed):
    rng = np.random.default_rng(seed)
    A = (rng.random((n, d)) < 0.8).astype(float)
    return A, rng.standard_normal(n)


def _one_shot_bound(obj, geom):
    d, p = obj.dim, geom.p
    via_inf = float(np.abs(obj.A).sum(axis=1).max() ** 2) + obj.mu * d
    l2 = float((obj.A * obj.A).sum(axis=1).max()) + obj.mu
    scale = d if math.isinf(p) else d ** (1.0 - 2.0 / p)
    return min(via_inf, l2 * scale)


def _block_rows(d):
    # rows of d doubles in a 1 MiB block; the shapes below are fixed by it,
    # so another block size fails test_bound_block_is_one_mib instead of
    # growing them (or leaving them within one block)
    return (1 << 20) // (8 * d)


def test_bound_block_is_one_mib():
    assert _BOUND_BLOCK_BYTES == 1 << 20


def _assert_bound_bits(obj):
    for p in [2.0, 3.0, 4.0, math.inf]:
        geom = LpGeometry(p)
        got, want = obj.smoothness_upper(geom), _one_shot_bound(obj, geom)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (p, got, want)


@pytest.mark.parametrize("n,d", [
    (1, 1), (24, 8), (200, 50), (257, 3),
    (2 * _block_rows(50) + 7, 50),    # three blocks, the last one short
    (3 * _block_rows(1000), 1000),    # exactly three blocks
    (_block_rows(1000) + 1, 1000),    # one row past a block
])
@pytest.mark.parametrize("seed", [0, 1, 9])
def test_logsumexp_instance_and_bound_match_one_shot_formulas(n, d, seed):
    A, b = _one_shot_instance(n, d, seed)
    obj = make_logsumexp_instance(n, d, 1e-2, seed, declare_smoothness=True)
    assert obj.A.tobytes() == A.tobytes()
    assert obj.b.tobytes() == b.tobytes()
    _assert_bound_bits(obj)
    L, geom = obj.smoothness
    assert math.isinf(geom.p)
    assert np.float64(L).tobytes() == np.float64(
        _one_shot_bound(obj, geom)).tobytes()


@pytest.mark.parametrize("n,d", [(1, 5), (2, 300), (40, 9),
                                 (2 * _block_rows(200) + 1, 200),
                                 (3, 200_000)])  # a row wider than a block
@pytest.mark.parametrize("order", ["C", "F"])
def test_logsumexp_bound_matches_one_shot_formula_on_signed_entries(n, d, order):
    # negative entries, a wide spread of magnitudes, and both layouts the
    # constructor keeps without a copy (numpy sums a row of a Fortran-ordered
    # array in another order than a row of a C-ordered one)
    rng = np.random.default_rng(n + d)
    A = rng.standard_normal((n, d)) * np.exp(rng.uniform(-5, 5, (n, d)))
    obj = LogSumExpAffine(np.asarray(A, order=order), rng.standard_normal(n),
                          mu=0.3)
    assert obj.A.flags[order + "_CONTIGUOUS"]
    _assert_bound_bits(obj)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("row", [0, _block_rows(7) + 3, 2 * _block_rows(7) + 4])
def test_logsumexp_bound_of_non_finite_entry_is_one_shot_value(bad, row):
    A = np.random.default_rng(2).standard_normal((2 * _block_rows(7) + 5, 7))
    A[row, 3] = bad
    obj = LogSumExpAffine(A, np.zeros(A.shape[0]), mu=1e-2)
    for p in [2.0, 4.0, math.inf]:
        got = obj.smoothness_upper(LpGeometry(p))
        if math.isnan(bad):
            assert math.isnan(got)
        else:
            assert got == math.inf
    _assert_bound_bits(obj)


def test_logsumexp_instance_holds_nothing_else_of_the_size_of_A():
    # tracemalloc sees numpy's data buffers: the one-shot formulas peaked
    # at 2.1 A.nbytes (the draw, its mask and the cast, then |A| and A*A)
    tracemalloc.start()
    try:
        obj = make_logsumexp_instance(2000, 500, 1e-2, 3,
                                      declare_smoothness=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * obj.A.nbytes


def test_logsumexp_instance_too_large_to_allocate_is_a_value_error():
    # 8e18 bytes lie beyond any address space: refused before a page is touched
    with pytest.raises(ValueError, match=r"1000000000 x 1000000000 .*"
                       r"8000000000000000000 bytes"):
        make_logsumexp_instance(10**9, 10**9, 1e-2, 0)
    # 8e20 bytes overflow numpy's index type: numpy refuses them with its
    # own ValueError, which names neither n nor d
    with pytest.raises(ValueError, match=r"10000000000 x 10000000000 .*"
                       r"800000000000000000000 bytes"):
        make_logsumexp_instance(10**10, 10**10, 1e-2, 0)


@pytest.mark.parametrize("n,d,name", [(0, 3, "n"), (-1, 3, "n"), (4, 0, "d"),
                                      (4, -2, "d")])
def test_logsumexp_instance_needs_n_and_d_of_at_least_one(n, d, name):
    with pytest.raises(ValueError, match="^%s must be at least 1" % name):
        make_logsumexp_instance(n, d, 1e-2, 0)


# --------------------------------------------------- smoothness utilities

def test_convert_smoothness():
    assert convert_smoothness(3.0, 4.0, 2.0, 100) == 3.0  # downward: free
    assert convert_smoothness(1.0, 2.0, 4.0, 16) == pytest.approx(4.0)
    assert convert_smoothness(1.0, 2.0, math.inf, 16) == pytest.approx(16.0)
    with pytest.raises(ValueError):
        convert_smoothness(1.0, 1.0, 2.0, 4)
    for L in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="need L > 0 and d > 0"):
            convert_smoothness(L, 2, 4, 10)


def test_smoothness_bound_dispatch():
    q = Quadratic(np.array([1.0, 2.0]))
    assert smoothness_bound(q, LpGeometry(2)) == pytest.approx(2.0)
    s = SymmetricSoftmax(3, alpha=0.25)
    assert smoothness_bound(s, LpGeometry(4)) == pytest.approx(4.0)
    lse = make_logsumexp_instance(10, 4, 0.0, seed=17)
    est1 = smoothness_bound(lse, LpGeometry(math.inf))
    est2 = smoothness_bound(lse, LpGeometry(math.inf))
    assert est1 == est2 > 0  # estimator is seeded, hence reproducible
    declared = make_logsumexp_instance(10, 4, 0.0, seed=17, declare_smoothness=True)
    L_inf = smoothness_bound(declared, LpGeometry(math.inf))
    assert L_inf == pytest.approx(declared.smoothness_upper(LpGeometry(math.inf)))
    with pytest.raises(SmoothnessUnavailable):
        smoothness_bound(SmoothObjective(3), LpGeometry(2))


@pytest.mark.parametrize("declare", [False, True])
def test_a_constant_logsumexp_has_no_smoothness_bound(declare):
    # an all-zero A at mu = 0, sampled or declared (smoothness_upper = 0):
    # the refusal names the objective and the cause
    obj = make_logsumexp_instance(2, 1, 0.0, 1689, declare_smoothness=declare)
    assert not obj.A.any()
    for p in (2.0, math.inf):
        with pytest.raises(SmoothnessUnavailable,
                           match="LogSumExpAffine objective is constant"):
            smoothness_bound(obj, LpGeometry(p))


def test_an_affine_logsumexp_has_no_sampled_smoothness_bound():
    # of make_logsumexp_instance(2, 1, 0, seed), seeds 0-199, 131 draw equal
    # rows: f is affine, and 12 of them (A = 0) constant.  Sampled pairs
    # would read rounding noise as L (1.98e-10 at seed 2); the refusal
    # names the objective and the cause, and a declared L stands (any L > 0
    # is valid for an affine f)
    geom = LpGeometry(math.inf)
    counts = dict.fromkeys(("constant", "affine", "sampled"), 0)
    for seed in range(200):
        obj = make_logsumexp_instance(2, 1, 0.0, seed)
        if obj.A[0, 0] != obj.A[1, 0]:
            assert 0.37 < smoothness_bound(obj, geom) < 0.375, seed
            counts["sampled"] += 1
            continue
        kind = "affine" if obj.A.any() else "constant"
        with pytest.raises(SmoothnessUnavailable,
                           match="LogSumExpAffine objective is " + kind):
            smoothness_bound(obj, geom)
        counts[kind] += 1
        if kind == "affine":
            obj = make_logsumexp_instance(2, 1, 0.0, seed,
                                          declare_smoothness=True)
            assert smoothness_bound(obj, geom) == obj.smoothness[0] > 0
    assert counts == {"constant": 12, "affine": 119, "sampled": 69}
    # equal rows in more columns; one entry apart, or mu > 0, is not affine
    A = np.tile([1.0, 0.0, 2.0, -1.0], (3, 1))
    b = np.array([0.5, -1.0, 2.0])
    with pytest.raises(SmoothnessUnavailable, match="is affine"):
        smoothness_bound(LogSumExpAffine(A, b), geom)
    assert smoothness_bound(LogSumExpAffine(A, b, mu=1e-3), geom) > 0
    A[2, 3] = -1.5
    assert smoothness_bound(LogSumExpAffine(A, b), geom) > 0


def test_solve_reference_reaches_tolerance():
    obj = make_logsumexp_instance(25, 6, 1e-2, seed=18)
    xs, fs = solve_reference(obj)
    assert float(np.linalg.norm(obj.gradient(xs))) <= 1e-10
    assert fs <= obj.value(np.zeros(6))
    assert obj.reference_optimum[1] == fs


# the bench's exact references (n = 200, d = 50) and the checker's
# LogSumExp cells (n = 24, d = 8)
@pytest.mark.parametrize("n,d,mu,seed",
                         [(200, 50, mu, seed) for mu in (1e-6, 1e-4, 1e-2)
                          for seed in (0, 1, 2)]
                         + [(24, 8, 1e-2, seed) for seed in range(8)])
def test_solve_reference_matches_lbfgsb_oracle(n, d, mu, seed):
    want_x, want_f = lbfgsb_reference(make_logsumexp_instance(n, d, mu, seed))
    x, f = solve_reference(make_logsumexp_instance(n, d, mu, seed))
    assert abs(f - want_f) <= 1e-12 * abs(want_f)
    assert np.linalg.norm(x - want_x) <= 1e-8 * np.linalg.norm(want_x)


# beyond the bench and the checker: n < d, a far optimum at mu = 1e-8, a
# single affine piece, and a tall instance
@pytest.mark.parametrize("n,d,mu,seed", [(50, 100, 1e-4, 0), (200, 50, 1e-8, 0),
                                         (1, 4, 1e-3, 0), (500, 20, 1e-3, 3)])
def test_newton_reference_matches_lbfgsb_oracle_on_other_shapes(n, d, mu, seed):
    want_x, want_f = lbfgsb_reference(make_logsumexp_instance(n, d, mu, seed))
    x, f = solve_reference(make_logsumexp_instance(n, d, mu, seed))
    assert abs(f - want_f) <= 1e-12 * abs(want_f)
    assert np.linalg.norm(x - want_x) <= 1e-8 * np.linalg.norm(want_x)


def _stacked_regression(d=64, s=3.0):
    """A and b of a stacked regression instance [A; -A] at logit scale s."""
    rng = np.random.default_rng(d)
    A = rng.standard_normal((2 * d, d))
    b = A @ rng.standard_normal(d) + 0.1 * rng.standard_normal(2 * d)
    return s * np.vstack([A, -A]), s * np.concatenate([b, -b])


def test_solve_reference_does_not_stall_on_sharp_logits():
    # at logit scale 3 the softmax at the origin sits on two rows, so the
    # Hessian there is singular to rounding, and a halved Newton step stalls
    # at ||grad||_2 = 19.44

    def build():
        return LogSumExpAffine(*_stacked_regression())

    want_x, want_f = lbfgsb_reference(build())
    obj = build()
    x, f = solve_reference(obj)
    assert float(np.linalg.norm(obj.gradient(x))) <= 1e-10
    assert abs(f - want_f) <= 1e-12 * abs(want_f)
    assert np.linalg.norm(x - want_x) <= 1e-8 * np.linalg.norm(want_x)


def _count_gradient_points(obj):
    """Make obj record the bytes of every point its gradient is called at."""
    points = []

    def counted(x, gradient=obj.gradient):
        points.append(np.asarray(x).tobytes())
        return gradient(x)

    obj.gradient = counted
    return points


@pytest.mark.parametrize("mu", [1e-6, 1e-4, 1e-2])
def test_solve_reference_differentiates_no_point_twice(mu):
    # the gradient of an accepted trial point serves the next Newton step,
    # and a backtracking stops once its trial point rounds back to x
    obj = make_logsumexp_instance(200, 50, mu, seed=0)
    points = _count_gradient_points(obj)
    solve_reference(obj)
    calls, distinct = len(points), len(set(points))
    assert distinct == calls


@pytest.mark.parametrize("mu", [1e-8, 1e-6])
def test_solve_reference_differentiates_no_point_twice_at_seed_1(mu):
    # here backtracking trials land on points an earlier Newton step
    # already tried (1,336 calls at 1,327 points at mu = 1e-8 when such a
    # trial was differentiated again)
    obj = make_logsumexp_instance(200, 50, mu, seed=1)
    points = _count_gradient_points(obj)
    solve_reference(obj)
    assert len(set(points)) == len(points)


def test_solve_reference_refuses_unbounded_objective_at_once():
    # every gradient call of the Newton loop goes through the certificate,
    # so the first iterate on the ray refuses mu = 0
    for seed in (0, 1, 2):
        obj = make_logsumexp_instance(200, 50, 0.0, seed=seed)
        points = _count_gradient_points(obj)
        with pytest.raises(RuntimeError, match="unbounded below"):
            solve_reference(obj)
        assert len(points) <= 10


def test_runtime_needs_no_scipy(tmp_path):
    # numpy is the only runtime dependency: with scipy unimportable the
    # package imports, the checker runs, the bench's farthest reference
    # (||x*|| ~ 4.9e6 at mu = 1e-6) and the stacked regression's solve
    # from an instance file, and mu = 0 is still refused (seeds 0 and 1),
    # each within the minute
    import hasd
    env = {**os.environ,
           "PYTHONPATH": str(Path(hasd.__file__).resolve().parent.parent)}
    code = ("import sys; sys.modules['scipy'] = None; import hasd.cli; "
            "sys.exit(hasd.cli.main(sys.argv[1:]) if sys.argv[1:] else 0)")

    def cli(*argv):
        return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    assert cli().returncode == 0
    assert cli("check-invariants", "--p", "2,inf", "--seeds", "0",
               "--iters", "10").returncode == 0
    gen = ["gen-instance", "--n", "200", "--d", "50", "--seed", "0",
           "--solve-reference", "--out"]
    assert cli(*gen, str(tmp_path / "ref.json"), "--mu", "1e-6").returncode == 0
    assert "ref_optimum" in json.loads((tmp_path / "ref.json").read_text())
    A, b = _stacked_regression()
    inst = tmp_path / "stacked.json"
    inst.write_text(json.dumps({"kind": "logsumexp", "A": A.tolist(),
                                "b": b.tolist()}))
    assert cli("gen-instance", "--instance", str(inst), "--solve-reference",
               "--out", str(tmp_path / "stacked_ref.json")).returncode == 0
    assert "ref_optimum" in json.loads(
        (tmp_path / "stacked_ref.json").read_text())
    for seed in ("0", "1"):
        gen[gen.index("--seed") + 1] = seed
        refused = cli(*gen, str(tmp_path / "none.json"), "--mu", "0")
        assert refused.returncode == 2, refused.stderr
        assert refused.stderr.startswith("error: no reference optimum")
        assert not (tmp_path / "none.json").exists()


def test_solve_reference_rejects_unbounded_objective():
    # mu = 0 with positive rows is unbounded below.  Left to its budget the
    # solve runs off to |x| ~ 1e35 (200,003 gradient calls on seed 1),
    # where the rounding floor alone would excuse ||grad|| ~ 6; an iterate
    # with a_k . x < 0 on every row certifies the ray and stops it early
    for seed in (0, 1, 2):
        obj = make_logsumexp_instance(200, 50, 0.0, seed=seed)
        calls = []

        def counted(x, gradient=obj.gradient):
            calls.append(None)
            return gradient(x)

        obj.gradient = counted
        with pytest.raises(RuntimeError, match="unbounded below"):
            solve_reference(obj)
        assert len(calls) <= 2000
        assert obj.reference_optimum is None


def test_dimension_checks():
    obj = SymmetricSoftmax(4)
    with pytest.raises(ValueError):
        obj.value(np.zeros(5))
    with pytest.raises(ValueError):
        obj.gradient(np.zeros(3))
    with pytest.raises(ValueError):  # no rows: log of an empty sum
        LogSumExpAffine(np.zeros((0, 3)), np.zeros(0))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            LogSumExpAffine(np.ones((2, 3)), np.zeros(2), mu=bad)
        with pytest.raises(ValueError):
            SymmetricSoftmax(4, alpha=bad)


# ----------------------------------------------------------- persistence

def test_instance_round_trip(tmp_path):
    rng = np.random.default_rng(19)
    obj = make_logsumexp_instance(12, 5, 1e-4, seed=20, declare_smoothness=True)
    solve_reference(obj)
    path = tmp_path / "inst.json"
    save_instance(obj, path)
    loaded = load_instance(str(path))
    for _ in range(5):
        x = rng.standard_normal(5)
        assert loaded.value(x) == pytest.approx(obj.value(x), rel=1e-15)
        np.testing.assert_allclose(loaded.gradient(x), obj.gradient(x), rtol=1e-15)
    assert loaded.smoothness[0] == obj.smoothness[0]
    assert loaded.reference_optimum[1] == obj.reference_optimum[1]
    # document is valid JSON with the expected fields
    doc = json.loads(path.read_text())
    assert doc["kind"] == "logsumexp" and doc["mu"] == 1e-4


def test_load_instance_checks_reference_shape(tmp_path):
    doc = save_instance(Quadratic(np.ones(4)))
    doc["ref_optimum"] = {"x": [0.5], "f": 0.0}
    with pytest.raises(ValueError, match="dimension 1, expected 4"):
        load_instance(doc)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="dimension 1, expected 4"):
        load_instance(str(path))


def test_instance_round_trip_regenerates_from_seed(tmp_path):
    obj = make_logsumexp_instance(12, 5, 0.0, seed=21)
    doc = save_instance(obj)
    del doc["A"], doc["b"]
    regen = load_instance(doc)
    np.testing.assert_array_equal(regen.A, obj.A)
    np.testing.assert_array_equal(regen.b, obj.b)


def test_instance_round_trip_other_kinds(tmp_path):
    q = Quadratic(np.array([1.0, 3.0]), center=np.array([0.5, -0.5]), offset=1.0)
    s = SymmetricSoftmax(7, alpha=0.4)
    for obj in (q, s):
        doc = save_instance(obj)
        loaded = load_instance(doc)
        x = np.random.default_rng(22).standard_normal(obj.dim)
        assert loaded.value(x) == pytest.approx(obj.value(x), rel=1e-15)


# ------------------------------------------- numpy kernels against scipy

def assert_same(got, want):
    """Equal bit for bit up to NaN payloads: same type, shape and values."""
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    same = (got == want) | (np.isnan(got) & np.isnan(want))
    assert same.all(), (got[~same], want[~same])


def affine_rows(rng, count):
    """count rows A @ x - b of random lengths, with x scaled over 1e-3..1e3."""
    rows = []
    while len(rows) < count:
        n, d = int(rng.integers(1, 300)), int(rng.integers(1, 40))
        A = (rng.random((n, d)) < 0.8).astype(float)
        b = rng.standard_normal(n)
        X = rng.standard_normal((d, 250)) * 10.0 ** rng.uniform(-3, 3, 250)
        rows.extend(np.ascontiguousarray((A @ X - b[:, None]).T))
    return rows[:count]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kernels_match_scipy_on_random_affine_rows():
    rng = np.random.default_rng(20240928)
    for z in affine_rows(rng, 10000):
        assert_same(_logsumexp(z), scipy_logsumexp(z))
        assert_same(_softmax(z), scipy_softmax(z))


TIES_AND_SPREADS = [
    [2.5],
    [-1e300],
    [3.0, 3.0, 1.0],
    [4.0, 4.0, 4.0, 4.0],
    [0.0, -0.0, -1.0],
    [-0.0, 0.0, -1.0],   # the max is found first at -0.0
    [-0.0, -0.0],
    [700.0, -700.0, 0.0],
    [-700.0, -700.0, -745.0],
    [709.5, 709.5, 0.0],
    [-1e-300, -2e-300],
    [1.7e308, 1.7976931348623157e308],
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("z", TIES_AND_SPREADS)
def test_kernels_match_scipy_on_ties_and_extreme_spreads(z):
    z = np.array(z)
    assert_same(_logsumexp(z), scipy_logsumexp(z))
    assert_same(_softmax(z), scipy_softmax(z))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kernels_match_scipy_near_exp_range_limits():
    rng = np.random.default_rng(7)
    for _ in range(500):
        z = rng.uniform(-700.0, 700.0, int(rng.integers(1, 50)))
        z[rng.random(z.size) < 0.2] = z.max()  # ties at the top
        assert_same(_logsumexp(z), scipy_logsumexp(z))
        assert_same(_softmax(z), scipy_softmax(z))


NON_FINITE = [
    [np.inf, 1.0],
    [np.inf, np.inf, 0.0],
    [-np.inf, 1.0],
    [-np.inf, 2.0, 2.0],
    [-np.inf],
    [-np.inf, -np.inf, -np.inf],
    [np.nan, 1.0],
    [1.0, np.nan, -np.inf],
    [np.inf, -np.inf],
    [np.inf, np.nan],
]


@pytest.mark.parametrize("z", NON_FINITE)
def test_kernels_match_scipy_on_non_finite_entries(z):
    z = np.array(z)
    with warnings.catch_warnings(record=True) as scipy_warned:
        warnings.simplefilter("always")
        want = scipy_logsumexp(z)
    with warnings.catch_warnings(record=True) as kernel_warned:
        warnings.simplefilter("always")
        got = _logsumexp(z)
    assert_same(got, want)
    if not any(issubclass(w.category, RuntimeWarning) for w in scipy_warned):
        assert not [w for w in kernel_warned
                    if issubclass(w.category, RuntimeWarning)]
    with np.errstate(all="ignore"):
        assert_same(_softmax(z), scipy_softmax(z))


def test_oracles_equal_scipy_formulas_bit_for_bit():
    rng = np.random.default_rng(5)
    for seed, mu in ((0, 0.0), (1, 1e-2), (2, 1.0)):
        obj = make_logsumexp_instance(40, 7, mu, seed=seed)
        A, b = obj.A, obj.b
        for scale in (1e-3, 1.0, 30.0):
            x = scale * rng.standard_normal(7)
            z = A @ x - b
            w = scipy_softmax(z)
            Aw = A.T @ w
            assert obj.value(x) == (float(scipy_logsumexp(z))
                                    + 0.5 * mu * float(x @ x))
            assert_same(obj.gradient(x), A.T @ w + mu * x)
            assert_same(obj.hessian(x), A.T @ (A * w[:, None])
                        - np.outer(Aw, Aw) + mu * np.eye(7))
    for alpha in (0.05, 1.0):
        obj = SymmetricSoftmax(5, alpha=alpha)
        for scale in (1e-3, 1.0, 30.0):
            x = scale * rng.standard_normal(5)
            u = np.concatenate([x, -x]) / alpha
            w = scipy_softmax(u)
            g = w[:5] - w[5:]
            assert obj.value(x) == alpha * float(scipy_logsumexp(u))
            assert_same(obj.gradient(x), g)


# ------------------------------------- the memoized LogSumExp affine map

def unmemoized_oracles(A, b, mu, x):
    """value, gradient and Hessian by the pre-memo formulas, each with its
    own product A @ x."""
    x = np.asarray(x, dtype=float)
    value = float(_logsumexp(A @ x - b)) + 0.5 * mu * float(x @ x)
    w = _softmax(A @ x - b)
    grad = A.T @ w + mu * x
    Aw = A.T @ w
    hess = A.T @ (A * w[:, None]) - np.outer(Aw, Aw) + mu * np.eye(x.size)
    return value, grad, hess


def assert_oracle(obj, which, x):
    """obj's oracle `which` at x equals the pre-memo formula bit for bit."""
    k = ("value", "gradient", "hessian").index(which)
    want = unmemoized_oracles(obj.A, obj.b, obj.mu, x)[k]
    assert_same(getattr(obj, which)(x), want)


def test_memoized_oracles_equal_unmemoized_formulas_in_any_call_order():
    rng = np.random.default_rng(31)
    for mu in (0.0, 1e-2):
        obj = make_logsumexp_instance(30, 6, mu, seed=3)
        x, y = rng.standard_normal(6), rng.standard_normal(6)
        for which in ("gradient", "value", "value", "hessian", "gradient",
                      "gradient"):
            assert_oracle(obj, which, x)  # each call after one at x
        for which in ("value", "gradient", "hessian", "value", "gradient"):
            assert_oracle(obj, which, x)  # points alternate: every call misses
            assert_oracle(obj, which, y)


def test_memoized_oracles_see_a_point_mutated_in_place():
    obj = make_logsumexp_instance(30, 6, 1e-2, seed=4)
    x = np.random.default_rng(32).standard_normal(6)
    for which in ("value", "gradient", "hessian"):
        obj.gradient(x)
        x[2] += 0.5  # same array object, new point
        assert_oracle(obj, which, x)
        obj.value(x)
        x *= -1.0
        assert_oracle(obj, which, x)


def test_memoized_oracles_on_strided_views_and_degenerate_shapes():
    rng = np.random.default_rng(33)
    obj = make_logsumexp_instance(25, 7, 1e-3, seed=5)
    big = rng.standard_normal(21)
    for x in (big[::3], big[::-3], big[3:10]):
        for which in ("gradient", "value", "hessian"):
            assert_oracle(obj, which, x)
        assert_oracle(obj, "value", x.copy())  # equal bytes, other object
    for n, d in ((1, 1), (1, 4), (5, 1)):
        A = rng.uniform(0.5, 2.0, (n, d))
        obj = LogSumExpAffine(A, rng.standard_normal(n), mu=0.3)
        x = rng.standard_normal(d)
        for which in ("value", "gradient", "hessian", "value"):
            assert_oracle(obj, which, x)
    # a strided A is stored as a contiguous copy, whose products are BLAS gemv
    wide = rng.standard_normal((10, 14))
    obj = LogSumExpAffine(wide[:, ::2], rng.standard_normal(10), mu=0.1)
    assert obj.A.flags.c_contiguous
    np.testing.assert_array_equal(obj.A, wide[:, ::2])
    for which in ("value", "gradient", "hessian"):
        assert_oracle(obj, which, rng.standard_normal(7))


def test_memoized_oracles_across_scales_and_non_finite_points():
    rng = np.random.default_rng(34)
    obj = make_logsumexp_instance(40, 8, 1e-2, seed=6)
    points = [10.0 ** e * rng.standard_normal(8) for e in np.linspace(-3, 3, 13)]
    for bad in (math.inf, -math.inf, math.nan):
        for i in (0, 5):
            x = rng.standard_normal(8)
            x[i] = bad
            points.append(x)
    with np.errstate(all="ignore"):
        for x in points:
            for which in ("value", "gradient", "value", "hessian"):
                assert_oracle(obj, which, x)


def test_softmax_value_after_gradient_at_one_point_maps_it_once(monkeypatch):
    # SymmetricSoftmax keeps [x, -x] / alpha of the last point, as
    # LogSumExpAffine keeps its logits
    obj = SymmetricSoftmax(6, alpha=0.5)
    x = np.random.default_rng(36).standard_normal(6)
    want_value = SymmetricSoftmax(6, alpha=0.5).value(x)
    want_grad = SymmetricSoftmax(6, alpha=0.5).gradient(x)
    maps = []
    concatenate = np.concatenate
    monkeypatch.setattr(np, "concatenate",
                        lambda *a, **k: maps.append(1) or concatenate(*a, **k))
    grad = obj.gradient(x)
    assert len(maps) == 1
    value = obj.value(x)
    assert len(maps) == 1  # no second map
    assert value == want_value and grad.tobytes() == want_grad.tobytes()
    x[0] += 1.0  # mutated in place: new bytes, a new point
    assert obj.value(x) == SymmetricSoftmax(6, alpha=0.5).value(x)
    assert len(maps) == 3  # this map and the fresh instance's


def test_value_after_gradient_at_one_point_maps_it_once():
    class CountingMatrix(np.ndarray):
        """Counts the matrix-vector products taken with it or its transpose."""

        products = 0

        def dot(self, other, *args):
            CountingMatrix.products += 1
            return np.asarray(self).dot(other, *args)

        def __matmul__(self, other):
            CountingMatrix.products += 1
            return np.asarray(self) @ other

    obj = make_logsumexp_instance(20, 5, 1e-2, seed=7)
    # the constructor's np.asarray drops a subclass, so the counting view
    # replaces A together with the transpose the oracles keep of it
    obj.A = obj.A.view(CountingMatrix)
    obj._AT = obj.A.T
    x = np.random.default_rng(35).standard_normal(5)
    obj.gradient(x)
    after_gradient = CountingMatrix.products
    assert after_gradient == 2  # A x, then A^T w
    obj.value(x)
    assert CountingMatrix.products == after_gradient  # no second A x
    obj.gradient(x)
    assert CountingMatrix.products == after_gradient + 1  # only A^T w
    obj.value(x + 1.0)
    assert CountingMatrix.products == after_gradient + 2  # a new point


def test_quadratic_value_after_gradient_at_one_point_maps_it_once():
    # Quadratic keeps x - center of the last point through the same _at as
    # the other two objectives
    def make():
        return Quadratic([1.0, 2.0, 3.0], center=[0.5, -1.0, 2.0], offset=0.25)

    obj, fresh = make(), make()
    maps = []
    mapped = obj._map
    obj._map = lambda x: maps.append(1) or mapped(x)
    x = np.array([0.3, 0.1, -2.0])
    grad = obj.gradient(x)
    value = obj.value(x)
    assert len(maps) == 1  # value read gradient's map
    d = x - obj.center
    assert value == 0.5 * float(obj.h @ (d * d)) + 0.25 == fresh.value(x)
    assert grad.tobytes() == (obj.h * d).tobytes()
    x[1] += 1.0  # mutated in place: new bytes, a new point
    assert obj.value(x) == fresh.value(x)
    assert len(maps) == 2
    assert obj.gradient(x).tobytes() == fresh.gradient(x).tobytes()
    assert len(maps) == 2
