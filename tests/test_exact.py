"""HASD on a quadratic against its exact-arithmetic transcription.

At p in {2, inf} every quantity a HASD run on a quadratic with rational
data computes is rational, except the gain's square roots; the oracle
(oracles.exact_hasd_quadratic) takes the float run's bisection midpoints
and computes the rest exactly, so it shows whether the float run takes
the decisions exact arithmetic takes.
"""

import math

import numpy as np
import pytest

from hasd.core import HasdConfig, run
from hasd.geometry import LpGeometry
from hasd.objectives import Quadratic

from oracles import exact_hasd_quadratic

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
