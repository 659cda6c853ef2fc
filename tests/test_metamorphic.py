"""Equivalent problems give equivalent runs, for hasd and the four baselines.

Scaling f and L by a power of two scales every gradient, norm and step
length exactly, so the runs are bit-identical.  A signed permutation of
the coordinates permutes every iterate; only the order of the sums in the
norms and matrix products changes, so the final points agree to rounding.
"""

import math

import numpy as np
import pytest

from hasd.geometry import LpGeometry
from hasd.harness import run_method
from hasd.objectives import (LogSumExpAffine, Quadratic, SmoothObjective,
                             make_logsumexp_instance, smoothness_bound)

METHODS = ("hasd", "gd", "agd", "lc", "sd_p")
ITERS = 60


class Scaled(SmoothObjective):
    """c * f for an objective f."""

    def __init__(self, obj, c: float):
        super().__init__(obj.dim)
        self.obj, self.c = obj, c

    def value(self, x) -> float:
        return self.c * self.obj.value(x)

    def gradient(self, x):
        return self.c * self.obj.gradient(x)


def _quadratic():
    rng = np.random.default_rng(7)
    obj = Quadratic(rng.uniform(0.5, 4.0, 6), center=rng.standard_normal(6))
    obj.reference_optimum = None  # no eps stop: the runs take every step
    return obj, 3.0 * rng.standard_normal(6)


def _logsumexp(mu):
    return make_logsumexp_instance(40, 10, mu, seed=3), np.zeros(10)


PROBLEMS = {"quadratic": _quadratic, "lse mu=0": lambda: _logsumexp(0.0),
            "lse mu=1e-2": lambda: _logsumexp(1e-2)}


def _stepsize(method: str, L: float) -> float:
    """run_experiment's untuned stepsize: a scale of 1/L for hasd and lc,
    the literal alpha = 1/L for the others."""
    return 1.0 if method in ("hasd", "lc") else 1.0 / L


@pytest.mark.parametrize("p", [2.0, math.inf])
@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_scaling_f_and_L_by_a_power_of_two_gives_the_same_run(problem, p):
    obj, x0 = PROBLEMS[problem]()
    geom = LpGeometry(p)
    L = smoothness_bound(obj, geom)
    for c in (4.0, 0.125):
        for m in METHODS:
            base = run_method(m, obj, x0, geom, L, ITERS, _stepsize(m, L))
            scaled = run_method(m, Scaled(obj, c), x0, geom, c * L, ITERS,
                                _stepsize(m, c * L))
            label = (problem, p, c, m)
            assert scaled.final_x.tobytes() == base.final_x.tobytes(), label
            assert scaled.grad_calls == base.grad_calls, label
            assert len(scaled.traces) == len(base.traces) == ITERS + 1, label
            for a, b in zip(base.traces, scaled.traces):
                assert (c * a.f, a.theta, a.search_calls) == (
                    b.f, b.theta, b.search_calls), (label, a.iter)


def _signed_permutation(obj, x0, rng):
    """The problem in coordinates x' = s * x[perm], and the map x -> x'."""
    perm = rng.permutation(obj.dim)
    s = rng.choice([-1.0, 1.0], obj.dim)
    if isinstance(obj, Quadratic):
        moved = Quadratic(obj.h[perm], center=s * obj.center[perm])
        moved.reference_optimum = None
    else:
        moved = LogSumExpAffine(obj.A[:, perm] * s, obj.b, obj.mu)
    return moved, (lambda x: s * x[perm])


@pytest.mark.parametrize("p", [2.0, 4.0, math.inf])
@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_a_signed_permutation_of_the_coordinates_gives_the_same_run(problem,
                                                                     p):
    obj, x0 = PROBLEMS[problem]()
    geom = LpGeometry(p)
    L = smoothness_bound(obj, geom)
    moved, to_moved = _signed_permutation(obj, x0, np.random.default_rng(11))
    for m in METHODS:
        base = run_method(m, obj, x0, geom, L, ITERS, _stepsize(m, L))
        perm = run_method(m, moved, to_moved(x0), geom, L, ITERS,
                          _stepsize(m, L))
        want = to_moved(base.final_x)
        scale = max(1.0, float(np.abs(want).max()))
        assert np.abs(perm.final_x - want).max() <= 1e-12 * scale, (
            problem, p, m)
        assert perm.grad_calls == base.grad_calls, (problem, p, m)
