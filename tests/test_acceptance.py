"""Acceptance gate: twelve end-to-end contracts, one test each.

Every test checks one shipped guarantee at its stated tolerance and
records a single PASS/FAIL verdict line; conftest.py echoes the lines in
the terminal summary.  Tolerances are part of the contract and must not
be loosened here.
"""

import math
import time

import numpy as np
import pytest

from hasd.core import HasdConfig, run, run_restarting
from hasd.geometry import (LpGeometry, lp_norm, lp_sq_hessian,
                           lp_sq_hessian_split, steepest_step,
                           subproblem_value)
from hasd.harness import check_invariants, run_bench
from hasd.objectives import (Quadratic, SymmetricSoftmax,
                             make_logsumexp_instance, smoothness_bound,
                             solve_reference)
from oracles import fd_hessian, numeric_steepest_step

VERDICTS = []


def _verdict(num: int, label: str, ok: bool, detail: str):
    line = "criterion %02d %s  %s (%s)" % (num, "PASS" if ok else "FAIL",
                                           label, detail)
    VERDICTS.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def matrix_report():
    # the default matrix: quadratic / symmetric softmax / regularized
    # LogSumExp per seed, each run under p in {2, 3, 4, inf}
    return check_invariants()


def _row_detail(*rows):
    return ", ".join("%s: %d samples, %d failed, worst %.2e"
                     % (r.name, r.samples, r.failures, r.worst) for r in rows)


def _rows_ok(*rows):
    return all(r.samples > 0 and r.failures == 0 for r in rows)


# ------------------------------------------------------------ criterion 1

def test_criterion_01_step_oracle_equivalence():
    p_values = (2.0, 2.5, 3.0, 4.0, 8.0, math.inf)
    rng = np.random.default_rng(20260819)
    worst_arg = worst_val = 0.0
    # CPU time of this thread: neither other processes nor BLAS worker
    # threads spinning beside it can push it past the limit
    t0 = time.thread_time()
    for k in range(100):
        p = p_values[k % len(p_values)]
        d = int(rng.integers(1, 6))
        y = 2.0 * rng.standard_normal(d)
        g = rng.standard_normal(d)
        while float(np.min(np.abs(g))) < 1e-3:
            # a zero gradient coordinate makes the argmin non-unique at
            # p = inf, which no generic solver can be held to
            g = rng.standard_normal(d)
        L = float(10.0 ** rng.uniform(-1.0, 1.0))
        geom = LpGeometry(p)
        x_ana = steepest_step(y, g, L, geom)
        x_num = numeric_steepest_step(y, g, L, p, seed=k)
        v_ana = subproblem_value(y, g, L, geom, x_ana)
        v_num = subproblem_value(y, g, L, geom, x_num)
        worst_arg = max(worst_arg, float(np.linalg.norm(x_num - x_ana))
                        / max(1.0, float(np.linalg.norm(x_ana))))
        worst_val = max(worst_val, abs(v_num - v_ana) / max(abs(v_ana), 1e-12))
    elapsed = time.thread_time() - t0
    ok = worst_arg <= 1e-6 and worst_val <= 1e-6 and elapsed < 10.0
    _verdict(1, "step oracle equivalence", ok,
             "100 instances, worst arg %.2e, worst value %.2e, %.1fs"
             % (worst_arg, worst_val, elapsed))


# --------------------------------------------------------- criteria 2 - 4

def test_criterion_02_descent_chain(matrix_report):
    r = matrix_report.row("progress")
    _verdict(2, "per-step descent chain", _rows_ok(r), _row_detail(r))


def test_criterion_03_potential_bound(matrix_report):
    r = matrix_report.row("potential")
    _verdict(3, "weighted value under model minimum", _rows_ok(r),
             _row_detail(r))


def test_criterion_04_weight_growth(matrix_report):
    r = matrix_report.row("growth")
    _verdict(4, "accumulated weight growth", _rows_ok(r), _row_detail(r))


# ------------------------------------------------------------ criterion 5

def _reference_instances():
    """Twelve instances with stored optima, across all objective kinds."""
    rng = np.random.default_rng(42)
    cells = []
    for d, p in ((3, 2.0), (4, math.inf), (5, 4.0), (6, 2.0), (8, 3.0)):
        h = rng.uniform(0.5, 4.0, d)
        center = rng.standard_normal(d)
        obj = Quadratic(h, center=center)
        x0 = center + rng.standard_normal(d)
        cells.append((obj, x0, LpGeometry(p)))
    for d, alpha in ((4, 1.0), (8, 0.5), (16, 2.0)):
        obj = SymmetricSoftmax(d, alpha=alpha)
        cells.append((obj, 0.8 * rng.standard_normal(d), LpGeometry(math.inf)))
    for seed, (n, d) in enumerate(((20, 4), (24, 6), (30, 8), (16, 5))):
        obj = make_logsumexp_instance(n, d, 1e-2, seed=seed,
                                      declare_smoothness=True)
        solve_reference(obj)
        cells.append((obj, rng.standard_normal(d), LpGeometry(math.inf)))
    return cells


def test_criterion_05_gap_certificate():
    cells = _reference_instances()
    worst = -math.inf
    runs = 0
    for obj, x0, geom in cells:
        L = smoothness_bound(obj, geom)
        x_star, _ = obj.reference_optimum
        R = float(np.linalg.norm(np.asarray(x0) - x_star))
        for T in (10, 50, 200):
            cfg = HasdConfig(L=L, geom=geom, max_iters=T)
            rep = run(obj, x0, cfg)
            cert = 324.0 * L * R * R / (rep.G_mean ** 2 * T * T)
            worst = max(worst, (rep.gap - cert) / cert)
            runs += 1
    ok = len(cells) >= 10 and worst <= 1e-8
    _verdict(5, "optimality gap certificate", ok,
             "%d instances x 3 budgets (%d runs), worst (gap-cert)/cert %.2e"
             % (len(cells), runs, worst))


# ------------------------------------------------------------ criterion 6

def test_criterion_06_softmax_gain_exactness():
    worst_gain = worst_window = 0.0
    counts_ok = True
    for d in (4, 16, 64):
        obj = SymmetricSoftmax(d)
        geom = LpGeometry(math.inf)
        cfg = HasdConfig(L=smoothness_bound(obj, geom), geom=geom,
                         max_iters=25)
        rep = run(obj, np.ones(d), cfg)
        worst_gain = max(worst_gain, abs(rep.G_mean - math.sqrt(d)))
        rows = [tr for tr in rep.traces if tr.rho is not None]
        counts_ok = counts_ok and len(rows) == 25
        for tr in rows:
            worst_window = max(worst_window, 0.5 - tr.rho * d,
                               tr.rho * d - 2.0)
    ok = counts_ok and worst_gain <= 1e-10 and worst_window <= 1e-12
    _verdict(6, "softmax gain exactness", ok,
             "d in {4, 16, 64}, worst |gain - sqrt(d)| %.2e, "
             "worst window excess %.2e" % (worst_gain, worst_window))


# ------------------------------------------------------------ criterion 7

def test_criterion_07_coupling_window_and_recurrence(matrix_report):
    rows = (matrix_report.row("window"), matrix_report.row("recurrence"))
    _verdict(7, "coupling window and weight recurrence", _rows_ok(*rows),
             _row_detail(*rows))


# ------------------------------------------------------------ criterion 8

def test_criterion_08_search_economy(matrix_report):
    r = matrix_report.row("search_economy")
    med = matrix_report.median_search_calls
    ok = _rows_ok(r) and med is not None and med <= 20.0
    _verdict(8, "coupling search call economy", ok,
             "%s, median %s calls" % (_row_detail(r), med))


# ------------------------------------------------------------ criterion 9

def test_criterion_09_restart_halving():
    rng = np.random.default_rng(7)
    worst_halving = -math.inf
    min_gain = math.inf
    lengths_ok = True
    rounds = 0
    for p in (2.0, math.inf):
        d = 6
        h = rng.uniform(1.0, 4.0, d)
        center = rng.standard_normal(d)
        obj = Quadratic(h, center=center)
        x0 = center + 2.0 * rng.standard_normal(d)
        geom = LpGeometry(p)
        L = smoothness_bound(obj, geom)
        mu = float(h.min())
        f_star = obj.reference_optimum[1]
        # strip the reference so every round runs its full mandated length;
        # gaps are measured post hoc against the known optimum
        obj.reference_optimum = None
        K = 4
        cfg = HasdConfig(L=L, geom=geom)
        rep = run_restarting(obj, x0, mu=mu, eps=1e-300, cfg=cfg,
                             G_hat=1.0, K=K)
        T = math.ceil(36.0 * math.sqrt(L / mu))
        lengths_ok = lengths_ok and rep.iters == K * T
        f_by_iter = {tr.iter: tr.f for tr in rep.traces}
        gaps = [f_by_iter[k * T] - f_star for k in range(K + 1)]
        for k in range(K):
            worst_halving = max(worst_halving,
                                (gaps[k + 1] - 0.5 * gaps[k])
                                / max(gaps[k], 1e-300))
        min_gain = min(min_gain, min(rep.restart_G))
        rounds += K
    ok = (lengths_ok and min(gaps) >= 0.0 and worst_halving <= 1e-9
          and min_gain >= 1.0 - 1e-12)
    _verdict(9, "restart halving", ok,
             "%d rounds over p in {2, inf}, worst (gap' - gap/2)/gap %.2e, "
             "min round gain %.6f" % (rounds, worst_halving, min_gain))


# ----------------------------------------------------------- criterion 10

def test_criterion_10_gradient_norm_decay(matrix_report):
    rows = (matrix_report.row("min_grad_cubic"),
            matrix_report.row("grad_conversion"))
    _verdict(10, "gradient norm decay and gap conversion", _rows_ok(*rows),
             _row_detail(*rows))


# ----------------------------------------------------------- criterion 11

def test_criterion_11_hessian_identities():
    worst_fd = worst_eig = worst_witness = 0.0
    for p in (2.0, 3.0, 4.0):
        for d in (2, 5, 10):
            rng = np.random.default_rng(int(10 * p) + d)
            bound = 2.0 / d ** ((p - 2.0) / 2.0)
            for _ in range(100):
                z = rng.standard_normal(d)
                # keep the FD probe clear of the |z_i|^{p-2} kink
                z[np.abs(z) < 0.2] += 0.5
                H = lp_sq_hessian(z, p)
                fd = fd_hessian(lambda w: lp_norm(w, p) ** 2, z)
                worst_fd = max(worst_fd, float(np.max(np.abs(H - fd))))
                m1, m2 = lp_sq_hessian_split(z, p)
                lo = min(float(np.linalg.eigvalsh(m1)[0]),
                         float(np.linalg.eigvalsh(m2)[0]))
                worst_eig = max(worst_eig, -lo)
                ratio = lp_norm(H @ z, p) / lp_norm(z, p)
                worst_witness = max(worst_witness, (bound - ratio) / bound)
    ok = worst_fd <= 1e-5 and worst_eig <= 1e-10 and worst_witness <= 1e-8
    _verdict(11, "squared-norm Hessian identities", ok,
             "900 points, worst FD gap %.2e, worst eig deficit %.2e, "
             "worst witness shortfall %.2e"
             % (worst_fd, worst_eig, worst_witness))


# ----------------------------------------------------------- criterion 12

def test_criterion_12_benchmark_ordering(tmp_path):
    t0 = time.monotonic()
    summary = run_bench(out_dir=str(tmp_path / "bench"))
    wall = time.monotonic() - t0
    below = within = total = 0
    bits = []
    for key, block in summary["mus"].items():
        methods = block["methods"]
        gap_h = methods["hasd"]["final_gap"]
        gap_l = methods["lc"]["final_gap"]
        gap_a = methods["agd"]["final_gap"]
        total += 1
        below += gap_h < gap_l
        within += gap_h <= 10.0 * gap_a
        bits.append("mu=%s: hasd %.1e, lc %.1e, agd %.1e"
                    % (key, gap_h, gap_l, gap_a))
    ok = total == 4 and below >= 3 and within == 4 and wall < 300.0
    _verdict(12, "benchmark ordering", ok,
             "below lc on %d/4, within 10x agd on %d/4, %.0fs; %s"
             % (below, within, wall, "; ".join(bits)))
