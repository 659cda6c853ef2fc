"""Objective oracles: values, gradients, smoothness metadata, serialization."""

import json
import math
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp
from scipy.special import softmax as scipy_softmax

from hasd.geometry import LpGeometry, lp_norm
from hasd.objectives import (LogSumExpAffine, Quadratic, SmoothObjective,
                             SmoothnessUnavailable, SymmetricSoftmax,
                             _logsumexp, _softmax, convert_smoothness,
                             empirical_smoothness, load_instance,
                             make_logsumexp_instance, save_instance,
                             smoothness_bound, solve_reference)
from oracles import fd_gradient, fd_hessian


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


def test_softmax_hessian_matches_finite_differences():
    obj = SymmetricSoftmax(3, alpha=0.9)
    x = np.array([0.4, -0.2, 0.1])
    np.testing.assert_allclose(obj.hessian(x), fd_hessian(obj.value, x, h=1e-4),
                               atol=1e-6)


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


def test_logsumexp_smoothness_upper_holds_empirically():
    obj = make_logsumexp_instance(25, 6, 1e-2, seed=13)
    for p in [2.0, 4.0, math.inf]:
        geom = LpGeometry(p)
        bound = obj.smoothness_upper(geom)
        est = empirical_smoothness(obj, geom, num_pairs=300, seed=14, safety=1.0)
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


# --------------------------------------------------- smoothness utilities

def test_convert_smoothness():
    assert convert_smoothness(3.0, 4.0, 2.0, 100) == 3.0  # downward: free
    assert convert_smoothness(1.0, 2.0, 4.0, 16) == pytest.approx(4.0)
    assert convert_smoothness(1.0, 2.0, math.inf, 16) == pytest.approx(16.0)
    with pytest.raises(ValueError):
        convert_smoothness(1.0, 1.0, 2.0, 4)


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


def test_solve_reference_reaches_tolerance():
    obj = make_logsumexp_instance(25, 6, 1e-2, seed=18)
    xs, fs = solve_reference(obj)
    assert float(np.linalg.norm(obj.gradient(xs))) <= 1e-10
    assert fs <= obj.value(np.zeros(6))
    assert obj.reference_optimum[1] == fs


def test_dimension_checks():
    obj = SymmetricSoftmax(4)
    with pytest.raises(ValueError):
        obj.value(np.zeros(5))
    with pytest.raises(ValueError):
        obj.gradient(np.zeros(3))
    with pytest.raises(ValueError):  # no rows: log of an empty sum
        LogSumExpAffine(np.zeros((0, 3)), np.zeros(0))


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
            assert_same(obj.hessian(x), (np.diag(w[:5] + w[5:])
                                         - np.outer(g, g)) / alpha)
