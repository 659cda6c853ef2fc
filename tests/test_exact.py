"""HASD and the baselines on a quadratic against exact transcriptions.

At p in {2, inf} every quantity a HASD run on a quadratic with rational
data computes is rational, except the gain's square roots; the oracle
(oracles.exact_hasd_quadratic) takes the float run's bisection midpoints
and computes the rest exactly, so it shows whether the float run takes
the decisions exact arithmetic takes.  oracles.exact_baseline_quadratic
does the same for gd, agd, lc and sd_p, taking the float run's sign
pattern at p = inf.
"""

import math

import numpy as np
import pytest

from hasd.baselines import BaselineConfig, agd_run, gd_run, lc_run, sdp_run
from hasd.core import HasdConfig, run
from hasd.geometry import LpGeometry
from hasd.objectives import Quadratic

from oracles import exact_baseline_quadratic, exact_hasd_quadratic

ITERS = 20
# the largest relative distances from the exact run over these six runs:
# f 3.0e-15, A 4.8e-16, and the final x 1.2e-16 (in the max norm)
REL_TOL = 1e-14


def _instance(seed):
    """Integer h in [1, 9], and centre and x0 on a grid of quarters."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(3, 7))
    h = rng.integers(1, 10, d).astype(float)
    center = rng.integers(-8, 9, d) / 4.0
    x0 = rng.integers(-8, 9, d) / 4.0
    return h, center, x0


@pytest.mark.parametrize("p", [2.0, math.inf])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_float_run_takes_the_exact_runs_decisions(seed, p):
    h, center, x0 = _instance(seed)
    obj = Quadratic(h, center)
    obj.reference_optimum = None  # no stop at eps: every run takes ITERS steps
    geom = LpGeometry(p)
    rep = run(obj, x0, HasdConfig(L=obj.smoothness_for(geom), geom=geom,
                                  max_iters=ITERS))
    exact = exact_hasd_quadratic(h, center, x0, p, ITERS)
    assert len(rep.traces) == len(exact) == ITERS + 1
    assert [tr.theta for tr in rep.traces] == [row["theta"] for row in exact]
    for tr, row in zip(rep.traces, exact):
        f, A = float(row["f"]), float(row["A"])
        assert abs(tr.f - f) <= REL_TOL * abs(f), (tr.iter, tr.f, f)
        assert abs((tr.A or 0.0) - A) <= REL_TOL * A, (tr.iter, tr.A, A)
    x = np.array([float(v) for v in exact[-1]["x"]])
    assert np.max(np.abs(rep.final_x - x)) <= REL_TOL * np.max(np.abs(x))
    for row in exact[1:]:
        for name in ("window", "recurrence", "progress", "potential",
                     "growth"):
            assert row[name] <= 0, (name, row[name])


BASELINE_ITERS = 40
# the largest distance from the exact run, as a share of f(x_0) - f*, over
# seeds 0-39 at both stepsizes: 9.8e-17 at p = 2 and 1.1e-16 at p = inf
BASELINE_TOL = 1e-15
_RUNNERS = {"gd": gd_run, "agd": agd_run, "lc": lc_run, "sd_p": sdp_run}


def _step_signs(method, obj, x0, cfg):
    """sign(g) at each step of the float run: with rows off, a baseline's
    first cfg.iters gradient calls are the ones its steps take."""
    calls = []
    gradient = obj.gradient

    def recorded(x):
        calls.append(gradient(x))
        return calls[-1]

    obj.gradient = recorded
    _RUNNERS[method](obj, x0, cfg, rows=False)
    return [np.sign(g) for g in calls[:cfg.iters]]


@pytest.mark.parametrize("method,p", [("gd", 2.0), ("agd", 2.0), ("lc", 2.0),
                                      ("lc", math.inf), ("sd_p", math.inf)])
@pytest.mark.parametrize("seed", range(8))
def test_baseline_runs_stay_within_their_exact_runs(seed, method, p):
    # at alpha = 1/L and at the largest power of two below it, every row's
    # f stays within BASELINE_TOL (f(x_0) - f*) of the exact run's
    h, center, x0 = _instance(seed)
    geom = LpGeometry(p)
    L = Quadratic(h, center).smoothness_for(geom)
    for alpha in (1.0 / L, 2.0 ** -math.ceil(math.log2(L))):
        cfg = BaselineConfig(alpha, BASELINE_ITERS, geom)
        signs = _step_signs(method, Quadratic(h, center), x0, cfg)
        rep = _RUNNERS[method](Quadratic(h, center), x0, cfg)
        exact = exact_baseline_quadratic(method, h, center, x0, p, alpha,
                                         BASELINE_ITERS, signs)
        assert len(rep.traces) == len(exact) == BASELINE_ITERS + 1
        scale = float(exact[0]["f"])  # f(x_0) - f*, as f* = 0
        for tr, row in zip(rep.traces, exact):
            assert abs(tr.f - float(row["f"])) <= BASELINE_TOL * scale, (
                alpha, tr.iter, tr.f, float(row["f"]))
