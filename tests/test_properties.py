"""Properties of the steepest step, the norm ratio and HASD runs on
generated inputs.

hypothesis draws gradients in d = 1-40 coordinates at scales 2^-150 to
2^150, and quadratics and LogSumExp instances of shapes the invariant
checker never builds, under one fixed profile: derandomized, with no
example database, so every run of the suite tries the same examples.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hasd import core
from hasd.core import (INVARIANTS, CouplingSearchError, HasdConfig,
                       _holder_lo, _norm_ratio, find_coupling, iterate, run,
                       zeta_eval)
from hasd.geometry import LpGeometry, lp_norm, steepest_step
from hasd.objectives import (Quadratic, make_logsumexp_instance,
                             smoothness_bound)

from oracles import search_every_probe, signed_permutation

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


@st.composite
def quadratics(draw):
    """Quadratic(h, center) in d 1-12, h spread over up to six decades
    anywhere in [1e-6, 1e12], the centre on quarters in [-10, 10]."""
    d = draw(st.integers(1, 12))
    low = draw(st.floats(-6.0, 12.0))
    width = draw(st.floats(0.0, min(6.0, 12.0 - low)))
    exps = draw(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d))
    quarters = draw(st.lists(st.integers(-40, 40), min_size=d, max_size=d))
    return Quadratic(10.0 ** (low + width * np.array(exps)),
                     np.array(quarters) / 4.0)


@st.composite
def logsumexps(draw):
    """make_logsumexp_instance, n 2-30, d 1-10, mu in {1e-4, 1e-2, 1}, with
    its analytic bound declared."""
    return make_logsumexp_instance(draw(st.integers(2, 30)),
                                   draw(st.integers(1, 10)),
                                   draw(st.sampled_from((1e-4, 1e-2, 1.0))),
                                   draw(st.integers(0, 2**32 - 1)),
                                   declare_smoothness=True)


instances = st.one_of(quadratics(), logsumexps())
RUN_P = (2.0, 3.0, 4.0, math.inf)


def _certified(obj, p, iters):
    geom = LpGeometry(p)
    return HasdConfig(L=smoothness_bound(obj, geom), geom=geom,
                      max_iters=iters)


@settings(FIXED, max_examples=150)
@given(instances, st.sampled_from(RUN_P))
def test_a_run_at_the_certified_l_holds_every_invariant(obj, p):
    rep = run(obj, np.zeros(obj.dim), _certified(obj, p, 40))
    assert rep.invariants == dict.fromkeys(INVARIANTS, 0)


@settings(FIXED, max_examples=60)
@given(instances, st.sampled_from(RUN_P))
def test_find_coupling_measures_the_probes_a_full_search_measures(obj, p):
    # along a run, each search returns the theta, zeta and bits of a search
    # measuring every probe, two gradient calls fewer per probe it settles
    cfg = _certified(obj, p, 12)
    for state, tr in iterate(obj, np.zeros(obj.dim), cfg):
        if state.t < 1 or tr.converged:
            continue
        th, zeta, y, x, gx, calls, settled = search_every_probe(state, obj,
                                                                cfg)
        res = find_coupling(state, obj, cfg)
        assert (res.theta, res.zeta) == (th, zeta)
        assert res.y.tobytes() == y.tobytes()
        assert res.x_next.tobytes() == x.tobytes()
        assert res.grad_x_next.tobytes() == gx.tobytes()
        assert res.oracle_calls == calls - 2 * settled


def _traced_search(state, obj, cfg):
    """find_coupling at state, and each probe it made as [theta, measured]:
    _coupling_factor is called once a probe, and zeta_eval once a measured
    one (its own _coupling_factor call is not a probe)."""
    probes = []
    factor, measure = core._coupling_factor, core.zeta_eval

    def probe(theta, A_t, L):
        probes.append([theta, False])
        return factor(theta, A_t, L)

    def measured(theta, *args):
        n = len(probes)
        out = measure(theta, *args)
        del probes[n:]
        probes[-1][1] = True
        return out

    with mock.patch.object(core, "_coupling_factor", probe), \
            mock.patch.object(core, "zeta_eval", measured):
        try:
            result = find_coupling(state, obj, cfg)
        except CouplingSearchError as exc:
            result = exc
    return result, probes


# at p = 2 each search's first probe is theta = 1/2, and here c(1/2) is
# exactly 0.5, 1.0 and 2.0 in the first three searches: the third one's is
# measured at zeta = c r = 2.0, the window's edge, which a settle rule of
# c r_lo >= 2 would settle as above it
@settings(FIXED, max_examples=60)
@given(instances, st.sampled_from(RUN_P))
@example(Quadratic(np.array([1.0]), np.array([1.0])), 2.0)
def test_a_settled_probe_takes_its_measured_zetas_verdict(obj, p):
    # find_coupling settles a probe with no oracle call where c r_lo > 2
    # proves zeta > 2 or c < 1/2 proves zeta < 1/2; measured, every such
    # probe lies on the side of the window the bisection moved past
    cfg = _certified(obj, p, 12)
    for state, tr in iterate(obj, np.zeros(obj.dim), cfg):
        if state.t < 1 or tr.converged:
            continue
        result, probes = _traced_search(state, obj, cfg)
        for k, (theta, measured) in enumerate(probes):
            if measured:
                continue
            if k + 1 < len(probes):
                above = probes[k + 1][0] > theta  # the bracket's low end rose
            else:  # the search ended on this probe: its bracket says where
                above = theta == result.bracket[0]
            zeta = zeta_eval(theta, state, obj, cfg)[0]
            assert zeta is not None, (state.t, theta)
            assert zeta > 2.0 if above else zeta < 0.5, (state.t, theta, zeta)


# a zero first gradient entry, moved to the third coordinate by seed 0: an
# l_p norm that scaled by its first entry, not its largest, read 0 here
@settings(FIXED, max_examples=60)
@given(instances, st.sampled_from(RUN_P), st.integers(0, 2**32 - 1))
@example(Quadratic(np.array([1.0, 4.0, 0.5]), np.array([0.0, -2.0, 0.25])),
         4.0, 0)
def test_a_signed_permutation_of_a_generated_instance_gives_the_same_run(
        obj, p, seed):
    # the permuted run's iterates are the run's, permuted; only the order
    # of the sums in norms and products differs.  Both run at obj's L with
    # no reference, so neither stops at an eps that rounding could cross
    cfg = _certified(obj, p, 20)
    obj.reference_optimum = None
    moved, to_moved = signed_permutation(obj, np.random.default_rng(seed))
    base = run(obj, np.zeros(obj.dim), cfg)
    perm = run(moved, np.zeros(obj.dim), cfg)
    want = to_moved(base.final_x)
    scale = max(1.0, float(np.abs(want).max()))
    assert np.abs(perm.final_x - want).max() <= 1e-12 * scale
    assert perm.grad_calls == base.grad_calls
