"""Properties of the steepest step and the norm ratio on generated inputs.

hypothesis draws gradients in d = 1-40 coordinates at scales 2^-150 to
2^150 under one fixed profile: derandomized, with no example database, so
every run of the suite tries the same examples.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hasd.core import _holder_lo, _norm_ratio
from hasd.geometry import LpGeometry, lp_norm, steepest_step

FIXED = settings(derandomize=True, database=None, deadline=None,
                 max_examples=800)

P_VALUES = (2.0, 3.0, 4.0, 8.0, math.inf)
_TINY = float(np.finfo(float).tiny)

_units = st.floats(-1.0, 1.0, allow_subnormal=False)


@st.composite
def scaled(draw, d):
    """d entries of [-1, 1], times 2^k for one k in [-150, 150]."""
    u = np.array(draw(st.lists(_units, min_size=d, max_size=d)))
    return np.ldexp(u, draw(st.integers(-150, 150)))


@st.composite
def step_cases(draw):
    """(g, unit offsets of y, L, p): g and L each at its own scale."""
    d = draw(st.integers(1, 40))
    g = draw(scaled(d))
    y_unit = np.array(draw(st.lists(_units, min_size=d, max_size=d)))
    L = math.ldexp(draw(st.floats(0.5, 2.0)), draw(st.integers(-150, 150)))
    return g, y_unit, L, draw(st.sampled_from(P_VALUES))


@FIXED
@given(step_cases())
def test_steepest_step_length_and_descent_identities(case):
    # x = argmin <g, x - y> + L ||x - y||_p^2 satisfies
    # ||x - y||_p = ||g||_{p*} / (2L) and <g, x - y> = -||g||_{p*}^2 / (2L);
    # y sits at the step's own scale, so x - y keeps its bits' worth
    g, y_unit, L, p = case
    geom = LpGeometry(p)
    dual = lp_norm(g, geom.p_dual)
    length = dual / (2.0 * L)
    y = length * y_unit
    u = steepest_step(y, g, L, geom) - y
    if dual == 0.0:
        assert not u.any()
        return
    assert math.isclose(lp_norm(u, p), length, rel_tol=1e-12, abs_tol=0.0)
    assert math.isclose(float(g @ u), -dual * length, rel_tol=1e-12,
                        abs_tol=0.0)


@FIXED
@given(st.integers(1, 40).flatmap(scaled), st.sampled_from(P_VALUES))
def test_norm_ratio_lies_in_holders_interval(g, p):
    # r = ||g||_2^2 / ||g||_{p*}^2 lies in [d^-(1-2/p), 1] (Hoelder) wherever
    # both squares are normal floats; the clamp moves it by rounding only
    d = g.size
    dual, l2 = lp_norm(g, LpGeometry(p).p_dual), lp_norm(g, 2.0)
    dual_sq, r = _norm_ratio(dual, l2, d, p)
    l2_sq = l2 * l2
    if not (_TINY <= dual_sq < math.inf and _TINY <= l2_sq < math.inf):
        assert math.isnan(r)
        return
    assert _holder_lo(d, p) <= r <= 1.0
    assert math.isclose(r, l2_sq / dual_sq, rel_tol=1e-13, abs_tol=0.0)
