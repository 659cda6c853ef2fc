"""Harness tests: tuning, CSV emission, determinism, bench matrix, CLI."""

import csv
import inspect
import json
import math
import shutil
import warnings
from dataclasses import asdict, fields

import numpy as np
import pytest

from hasd.baselines import BaselineConfig, lc_run
from hasd.cli import build_parser, main
from hasd.core import (INVARIANTS, CouplingSearchError, HasdConfig,
                       NonFiniteProbeError, iterate, run)
from hasd.geometry import LpGeometry
from hasd.harness import (STEPSIZE_GRID, CheckRow, ExperimentConfig,
                          _reference_value, at_grid_edge, attach_reference,
                          check_invariants, config_hash,
                          default_invariant_matrix, default_x0,
                          make_objective, run_bench, run_experiment,
                          run_method, tune_method, write_json,
                          write_trace_csv)
from hasd.objectives import (Quadratic, SmoothnessUnavailable,
                             SymmetricSoftmax, load_instance,
                             make_logsumexp_instance, save_instance,
                             smoothness_bound, solve_reference)


def test_default_grid_has_31_entries_ending_at_one():
    assert len(STEPSIZE_GRID) == 31
    assert STEPSIZE_GRID[-1] == 1.0
    assert STEPSIZE_GRID[0] == 1e-10
    assert list(STEPSIZE_GRID) == sorted(STEPSIZE_GRID)
    # the {1, 2, 5} ladder
    assert 2e-7 in STEPSIZE_GRID and 5e-3 in STEPSIZE_GRID


def test_config_validation():
    # every refused setting names its key, range checks included
    for settings in ({"objective": "bogus"}, {"methods": ("hasd", "newton")},
                     {"methods": ()}, {"grid": ()}, {"grid": (0.1, -1.0)},
                     {"grid": (0.1, math.nan)}, {"grid": (0.1, math.inf)},
                     {"iters": 0}, {"n": 0}, {"d": 0}, {"p": 1.5},
                     {"alpha": 0.0}, {"mu": -1e-9}, {"out_dir": 3},
                     {"ref_path": 3}, {"check_invariants": 1},
                     {"stepsize": 0.0}, {"stepsize": -1.0}):
        (key,) = settings
        with pytest.raises(ValueError, match="^config key %r: " % key):
            ExperimentConfig(**settings)


def test_config_hash_ignores_output_location():
    a = ExperimentConfig(out_dir="here")
    b = ExperimentConfig(out_dir="there")
    assert config_hash(a.to_dict()) == config_hash(b.to_dict())
    c = ExperimentConfig(seed=1)
    assert config_hash(c.to_dict()) != config_hash(a.to_dict())


def test_config_hash_is_stable():
    # pinned digests: the canonical document must not drift between versions
    cfgs = [ExperimentConfig(),
            ExperimentConfig(objective="quadratic", d=5, p=4.0,
                             check_invariants=True, ref_path="ref.json",
                             instance_path="inst.json", out_dir="elsewhere"),
            ExperimentConfig(p=3.0, mu=1e-2, methods=("hasd", "sd_p"),
                             grid=(0.1, 0.5), stepsize=0.2)]
    assert [config_hash(c.to_dict()) for c in cfgs] == [
        "7d3b3f909f7f321e6380e25aba928028987a93bc1dae7f9154a260a2d2589866",
        "d759c3065bdc71549955f4c78a226ab17f08a993efa9e041c7ad45ce13a3dd9f",
        "2577365fadc9d7802289ec221e337615b6950b0eed6738f9ea40cc21190ae280"]


def test_default_x0_convention():
    soft = SymmetricSoftmax(6)
    assert np.array_equal(default_x0(soft), np.ones(6))
    quad = Quadratic(np.ones(4))
    assert np.array_equal(default_x0(quad), np.zeros(4))


def test_make_objective_kinds_and_instance_path(tmp_path):
    cfg = ExperimentConfig(objective="quadratic", d=5, seed=9)
    quad = make_objective(cfg)
    assert isinstance(quad, Quadratic) and quad.dim == 5

    obj = make_logsumexp_instance(12, 4, 0.1, seed=3)
    path = tmp_path / "inst.json"
    save_instance(obj, path)
    cfg2 = ExperimentConfig(instance_path=str(path))
    loaded = make_objective(cfg2)
    x = np.linspace(-1, 1, 4)
    assert loaded.value(x) == obj.value(x)


def test_attach_reference_checks_dimension(tmp_path):
    path = tmp_path / "ref.json"
    path.write_text(json.dumps({"x": [0.0, 0.0], "f": math.log(4.0)}))
    obj = SymmetricSoftmax(3)
    with pytest.raises(ValueError):
        attach_reference(obj, path)
    obj2 = SymmetricSoftmax(2)
    attach_reference(obj2, path)
    assert obj2.reference_optimum[1] == math.log(4.0)


def test_tune_gd_on_quadratic_selects_near_inverse_l():
    # isotropic curvature: alpha = 1/L zeroes the error in one step, so the
    # sweep must land exactly on the grid point 1/L = 0.5
    rng = np.random.default_rng(0)
    obj = Quadratic(2.0 * np.ones(4), center=rng.standard_normal(4))
    geom = LpGeometry(2.0)
    best, all_div, finals = tune_method("gd", obj, np.zeros(4), geom, 2.0,
                                        20, STEPSIZE_GRID)
    assert best == 0.5
    assert not all_div
    assert finals[0.5] <= min(finals.values()) + 1e-12


def test_tune_single_point_grid_returns_it():
    obj = Quadratic(np.ones(3))
    geom = LpGeometry(2.0)
    best, _, finals = tune_method("gd", obj, np.ones(3), geom, 1.0, 5, (0.3,))
    assert best == 0.3 and set(finals) == {0.3}


def test_tune_all_divergent_picks_smallest():
    obj = Quadratic(4.0 * np.ones(3), center=np.ones(3))
    geom = LpGeometry(2.0)
    # stepsizes far beyond 2/L = 0.5, large enough that the squared error
    # overflows to inf within the budget; the return value says so, and
    # nothing is warned
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        best, all_div, _ = tune_method("gd", obj, np.zeros(3), geom, 4.0,
                                       60, (100.0, 200.0, 500.0))
    assert all_div and best == 100.0


def test_tune_ranks_non_finite_probe_as_divergent():
    # hasd's gradient turns NaN beyond |x|_inf = 6 on the way to the center
    # at 10: the coupling search fails at a probe, and the sweep ranks it
    class NanFarOut(Quadratic):
        def gradient(self, x):
            g = super().gradient(x)
            return g if np.abs(x).max() <= 6.0 else g * math.nan

    obj = NanFarOut(np.ones(2), center=np.array([10.0, 0.0]))
    obj.reference_optimum = None
    best, all_div, finals = tune_method("hasd", obj, np.zeros(2),
                                        LpGeometry(2.0), 1.0, 5, (1.0,))
    assert all_div and best == 1.0 and finals == {1.0: math.inf}


def test_a_probe_whose_squared_norms_underflow_is_a_non_finite_probe():
    # from 1e-150 the run closes in on the quadratic's minimizer at 0 until
    # a probe's gradient, nonzero, has squared norms below the smallest
    # normal float (||g||_2 = 1.45e-154 here): zeta is NaN and the search
    # stops there with its rows attached, instead of reading a ratio from
    # subnormal squares or dividing by a zero one, and a sweep ranks it +inf
    obj = Quadratic([1.0, 2.0, 3.0])
    obj.reference_optimum = None
    x0 = np.array([1e-150, -2e-150, 3e-150])
    geom = LpGeometry(2.0)
    with pytest.raises(NonFiniteProbeError) as exc:
        run(obj, x0, HasdConfig(L=3.0, geom=geom, max_iters=400))
    assert "underflow" in str(exc.value)
    assert len(exc.value.traces) == 122  # row 0 and 121 steps
    _, all_div, finals = tune_method("hasd", obj, x0, geom, 3.0, 400, (1.0,))
    assert all_div and finals == {1.0: math.inf}


def test_tune_method_finals_equal_full_row_runs_bit_for_bit():
    # the quadratic's largest stepsize overflows: divergent points rank +inf
    cases = ((make_logsumexp_instance(20, 5, 1e-3, seed=8), LpGeometry(math.inf)),
             (Quadratic(4.0 * np.ones(5), center=np.ones(5)), LpGeometry(3.0)))
    x0 = np.random.default_rng(9).standard_normal(5)
    grid = (1e-4, 0.02, 0.5, 1.0, 50.0, 1e14)
    divergent = 0
    for obj, geom in cases:
        L = smoothness_bound(obj, geom)
        for method in ("hasd", "gd", "agd", "lc", "sd_p"):
            _, _, finals = tune_method(method, obj, x0, geom, L, 25, grid)
            for s in grid:
                with np.errstate(all="ignore"):
                    try:
                        f = run_method(method, obj, x0, geom, L, 25, s).final_f
                    except CouplingSearchError:
                        f = math.inf
                want = f if math.isfinite(f) else math.inf
                assert finals[s] == want, (method, s)
                divergent += want == math.inf
    assert divergent > 0


def test_tune_method_baseline_grid_run_values_only_its_final_point():
    class CountingValue(Quadratic):
        """Quadratic that counts its value calls."""

        def __init__(self, h):
            super().__init__(np.asarray(h, dtype=float))
            self.values = 0

        def value(self, x):
            self.values += 1
            return super().value(x)

    for method in ("gd", "agd", "lc", "sd_p", "hasd"):
        obj = CountingValue([1.0, 2.0, 3.0])
        if method == "hasd":
            obj.reference_optimum = None  # no gap checks inside the search
        tune_method(method, obj, np.ones(3), LpGeometry(2.0), 3.0, 12, (0.1,))
        assert obj.values == 1, method  # a full-row run values all 13 rows


def test_run_method_lc_stepsize_is_scale_on_coupling():
    obj = make_logsumexp_instance(10, 4, 0.1, seed=2)
    geom = LpGeometry(math.inf)
    L = 3.0
    via_harness = run_method("lc", obj, np.zeros(4), geom, L, 15, 0.5)
    direct = lc_run(obj, np.zeros(4),
                    BaselineConfig(0.5 / (2.0 * L), 15, geom=geom))
    np.testing.assert_array_equal(via_harness.final_x, direct.final_x)


def _small_cfg(tmp_path, name, **kw):
    base = dict(objective="logsumexp", n=16, d=5, mu=1e-2, seed=4,
                methods=("hasd", "gd"), p=math.inf, iters=12,
                out_dir=str(tmp_path / name))
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_experiment_outputs_and_determinism(tmp_path):
    cfg_a = _small_cfg(tmp_path, "a")
    cfg_b = _small_cfg(tmp_path, "b")
    sa = run_experiment(cfg_a)
    run_experiment(cfg_b)
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == ["gd_mu0.01.csv", "hasd_mu0.01.csv", "plot_data.csv",
                     "summary.json"]
    for n in names:
        assert (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
    assert sa["mus"]["0.01"]["ref_kind"] == "exact"


def test_trace_csv_schema(tmp_path):
    cfg = _small_cfg(tmp_path, "schema")
    summary = run_experiment(cfg)
    text = (tmp_path / "schema" / "hasd_mu0.01.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == "# config_hash=" + summary["config_hash"]
    assert lines[1] == ("iter,f,gap,grad_l2,grad_dual,rho,theta,zeta,"
                        "search_calls,A,B,G_running")
    # row 0 has no coupling columns; later rows have all twelve
    row0 = lines[2].split(",")
    assert len(row0) == 12 and row0[0] == "0"
    assert row0[5] == "" and row0[9] == ""
    last = lines[-1].split(",")
    assert len(last) == 12
    assert float(last[9]) > 0  # A
    # 17-significant-digit round trip: re-serializing reproduces the text
    for cell in last[1:]:
        if cell:
            assert "%.17g" % float(cell) == cell
    # baseline CSV leaves the coupling columns empty everywhere
    gd_lines = (tmp_path / "schema" / "gd_mu0.01.csv").read_text().splitlines()
    assert all(row.split(",")[5] == "" for row in gd_lines[2:])
    assert all(row.split(",")[8] == "" for row in gd_lines[2:])


def _trace_lines_field_by_field(traces, gaps):
    """Trace CSV rows with each of the twelve fields formatted by hand."""
    def fmt(v):
        return "" if v is None else "%.17g" % float(v)

    lines = []
    for tr, gap in zip(traces, gaps):
        lines.append(",".join([
            str(tr.iter), fmt(tr.f), fmt(gap), fmt(tr.grad_l2),
            fmt(tr.grad_dual), fmt(tr.rho), fmt(tr.theta), fmt(tr.zeta),
            "" if tr.search_calls is None else str(tr.search_calls),
            fmt(tr.A), fmt(tr.B), fmt(tr.G_running)]))
    return lines


def test_trace_csv_rows_follow_the_column_tuple(tmp_path):
    # HASD rows (row 0 without coupling cells), baseline rows (no gap,
    # no coupling cells), each with its own and with substituted gaps
    obj = make_logsumexp_instance(12, 4, 1e-2, seed=3, declare_smoothness=True)
    geom = LpGeometry(3.0)
    x0 = np.linspace(-1.0, 1.0, 4)
    hasd = run(obj, x0, HasdConfig(L=smoothness_bound(obj, geom), geom=geom,
                                   max_iters=6)).traces
    lc = lc_run(obj, x0, BaselineConfig(0.05, 6, geom=geom)).traces
    assert hasd[0].rho is None and hasd[-1].search_calls is not None
    assert lc[-1].gap is None and lc[-1].grad_dual is not None
    path = tmp_path / "trace.csv"
    for traces in (hasd, lc):
        for gaps in ([tr.gap for tr in traces],
                     [None] + [0.1 / 3 ** i for i in range(1, len(traces))]):
            write_trace_csv(path, traces, "h", gaps)
            lines = path.read_text().splitlines()
            assert lines[2:] == _trace_lines_field_by_field(traces, gaps)


def test_plot_data_long_format(tmp_path):
    cfg = _small_cfg(tmp_path, "plot")
    summary = run_experiment(cfg)
    lines = (tmp_path / "plot" / "plot_data.csv").read_text().splitlines()
    assert lines[1] == "mu,method,iter,log10_gap"
    mu, method, it, lg = lines[2].split(",")
    assert (mu, method, it) == ("0.01", "hasd", "0")
    # the header rows plus one row per (method, iteration)
    per_method = cfg.iters + 1
    assert len(lines) == 2 + len(cfg.methods) * per_method
    final = [ln for ln in lines if ln.startswith("0.01,hasd,%d," % cfg.iters)]
    gap = summary["mus"]["0.01"]["methods"]["hasd"]["final_gap"]
    assert float(final[0].split(",")[3]) == pytest.approx(math.log10(gap))


def test_bench_small_matrix_file_count(tmp_path, capsys):
    out = tmp_path / "bench"
    assert main(["bench", "--n", "16", "--d", "5", "--iters", "10",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    summary = _strict_load(out / "summary.json")
    csvs = sorted(p.name for p in out.iterdir() if p.name.endswith(".csv"))
    assert len(csvs) == 17  # 4 methods x 4 mus + plot_data
    assert "hasd_mu1e-06.csv" in csvs and "lc_mu0.0001.csv" in csvs
    assert (out / "summary.json").exists()
    assert set(summary["mus"]) == {"0", "1e-06", "0.0001", "0.01"}
    # the unbounded instance gets a best-found reference, the rest exact
    assert summary["mus"]["0"]["ref_kind"] == "best_found"
    assert summary["mus"]["0.01"]["ref_kind"] == "exact"
    for mu, block in summary["mus"].items():
        for m, entry in block["methods"].items():
            assert entry["final_gap"] > 0


def _best_found_case(mu):
    """(_reference_value's arguments at mu, the best value of each method's
    own and 4x-budget runs) on an instance with no attached reference."""
    obj = make_logsumexp_instance(16, 5, 1e-2, seed=0)
    geom = LpGeometry(math.inf)
    L = smoothness_bound(obj, geom)
    x0 = np.zeros(5)
    tuned = {"hasd": 1.0, "agd": 1.0 / L}
    reports = {m: run_method(m, obj, x0, geom, L, 10, s)
               for m, s in tuned.items()}
    best = {m: min(tr.f for tr in reports[m].traces
                   + run_method(m, obj, x0, geom, L, 40, s).traces)
            for m, s in tuned.items()}
    return (obj, mu, x0, geom, L, 10, tuned, reports), best


def _margined(best):
    return best - 1e-9 * (1.0 + abs(best))


def test_reference_value_falls_back_when_the_solve_fails(monkeypatch):
    # a mu > 0 instance whose reference solve raises takes the best value
    # any run found, the extended runs' included
    args, best = _best_found_case(1e-2)

    def unsolvable(obj):
        raise RuntimeError("no convergence")

    monkeypatch.setattr("hasd.harness.solve_reference", unsolvable)
    assert _reference_value(*args) == (_margined(min(best.values())),
                                       "best_found")


def test_reference_value_falls_back_when_the_solve_has_no_smoothness(
        monkeypatch):
    args, best = _best_found_case(1e-2)

    def unavailable(obj):
        raise SmoothnessUnavailable("reference solve needs a Hessian oracle")

    monkeypatch.setattr("hasd.harness.solve_reference", unavailable)
    assert _reference_value(*args) == (_margined(min(best.values())),
                                       "best_found")


def test_reference_value_skips_an_extended_run_whose_search_fails(
        monkeypatch):
    # hasd's 4x run fails its coupling search: agd's still counts, and
    # hasd's recorded run
    args, best = _best_found_case(0.0)
    own = min(tr.f for tr in args[-1]["hasd"].traces)

    def failing(method, *rest):
        if method == "hasd":
            raise CouplingSearchError((0.5, 0.5), 76)
        return run_method(method, *rest)

    monkeypatch.setattr("hasd.harness.run_method", failing)
    assert _reference_value(*args) == (_margined(min(own, best["agd"])),
                                       "best_found")


def test_symmetric_softmax_gain_is_sqrt_d(tmp_path):
    cfg = ExperimentConfig(objective="softmax", d=16, alpha=1.0,
                           methods=("hasd",), p=math.inf, iters=10,
                           out_dir=str(tmp_path / "gain"))
    summary = run_experiment(cfg)
    g = summary["mus"]["0"]["methods"]["hasd"]["G_mean"]
    assert abs(g - 4.0) <= 1e-10


def test_check_invariants_passes_on_small_matrix():
    report = check_invariants(seeds=(0,), p_values=(2.0, math.inf), iters=25)
    assert report.ok
    assert report.cells == 6
    assert report.median_search_calls is not None
    assert report.row("window").samples > 50
    assert report.row("progress").failures == 0
    text = report.render()
    assert "PASS" in text and "window" in text


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0, math.inf])
def test_g_running_lies_in_holders_interval_on_the_checkers_cells(p):
    # G_running is a mean of ||g||_{p*} / ||g||_2, which Hoelder puts in
    # [1, d^(1/2 - 1/p)]; every row of a HASD run over the checker's default
    # cells lands there to 1e-10
    geom = LpGeometry(p)
    rows = 0
    for obj, x0 in default_invariant_matrix():
        cap = obj.dim ** (0.5 - (0.0 if math.isinf(p) else 1.0 / p))
        cfg = HasdConfig(L=smoothness_bound(obj, geom), geom=geom,
                         max_iters=40)
        for tr in run(obj, x0, cfg).traces[1:]:
            assert 1.0 - 1e-10 <= tr.G_running <= cap + 1e-10, (p, tr.iter)
            rows += 1
    assert rows > 100


def test_window_check_reads_the_ratio_rho_0_was_read_from():
    # rho_0 is the clamped ratio r and the window check compares rho_t
    # with that same r, so the first step's window reads exactly 0; a
    # second, unclamped r rounded apart from it by up to 1.3e-15 here.  On
    # the default matrix and the benchmark's seeds 0-7, at L and half L
    for seeds in [(0, 1), tuple(range(8))]:
        for l_scale in (1.0, 0.5):
            report = check_invariants(seeds=seeds, l_scale=l_scale)
            row = report.row("window")
            assert row.samples > 0 and row.worst == 0.0, (seeds, l_scale)


def test_check_invariants_skips_without_reference():
    obj = make_logsumexp_instance(12, 4, 1e-2, seed=0, declare_smoothness=True)
    assert obj.reference_optimum is None
    report = check_invariants(cells=[(obj, np.ones(4))], p_values=(math.inf,),
                              iters=15)
    assert report.ok  # skips are not failures
    assert report.row("psi_at_opt").samples == 0
    assert report.row("psi_at_opt").skipped > 0
    assert report.row("certificate").skipped == 1
    assert report.row("window").samples > 0


def test_check_invariants_cell_started_at_its_optimum():
    # a stationary start takes no step: its search counts as done, and no
    # other row has a sample or a skip; with no step checked the report
    # does not pass
    quad = Quadratic(np.ones(3))
    report = check_invariants(cells=[(quad, np.zeros(3))],
                              p_values=(2.0, math.inf))
    assert not report.ok and report.cells == 2
    assert report.unchecked == list(INVARIANTS)
    assert report.median_search_calls is None
    for r in report.rows:
        expect = 2 if r.name == "coupling_search" else 0
        assert (r.samples, r.failures, r.skipped) == (expect, 0, 0), r.name


def test_check_invariants_cell_whose_first_step_lands_on_the_optimum():
    # at p = 2 and half of L = 1 the first step is x0 - grad f(x0) = x*: the
    # converged row carries no violations, and with no coupled step (T = 0)
    # there is no certificate to check; with no step checked the report
    # does not pass, and each unsampled invariant row shows as failed
    quad = Quadratic(np.ones(3))
    report = check_invariants(cells=[(quad, [1.0, -2.0, 0.5])],
                              p_values=(2.0,), l_scale=0.5)
    text = report.render()
    assert not report.ok and text.endswith("overall: FAIL")
    assert all(report.row(name).samples == 0 for name in INVARIANTS)
    assert all(line.endswith("FAIL") for line in text.splitlines()
               if line.split()[0] in INVARIANTS)
    assert report.row("coupling_search").samples == 1
    cert = report.row("certificate")
    assert (cert.samples, cert.skipped) == (0, 1)


def test_check_invariants_catches_violated_smoothness():
    report = check_invariants(seeds=(0,), p_values=(math.inf,), iters=25,
                              l_scale=0.5)
    assert not report.ok
    assert report.row("progress").failures > 0


def test_check_row_counts_a_nan_as_a_failure_and_keeps_it_worst():
    row = CheckRow("window", 1e-8)
    row.record(0.5)
    row.record(math.nan)
    row.record(2.0)
    row.record(0.0)
    assert row.samples == 4 and row.failures == 3
    assert math.isnan(row.worst)
    fresh = CheckRow("window", 1e-8)
    fresh.record(1e-9)
    assert fresh.failures == 0 and fresh.worst == 1e-9


def test_a_failed_coupling_search_is_a_failed_cell_not_an_exception(capsys):
    # at a millionth of the certified L the quadratic's probes overflow;
    # each such cell fails coupling_search, is named, and the rest still
    # run, with no numpy warning: the report says what overflowed
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = check_invariants(seeds=(0,), l_scale=1e-6)
        assert main(["check-invariants", "--l-scale", "1e-6", "--seeds",
                     "0"]) == 1
    assert caught == []
    seen = capsys.readouterr()
    assert seen.err == "" and seen.out == report.render() + "\n"
    assert not report.ok
    assert report.cells == 12
    row = report.row("coupling_search")
    assert row.samples == 12 and row.tol == 0.0
    assert row.failures == len(report.failed_searches) > 0
    assert any(line.startswith("p=2, Quadratic, seed 0: zeta is NaN")
               for line in report.failed_searches)
    assert "overall: FAIL" in seen.out
    assert "coupling search failed: p=2, Quadratic, seed 0:" in seen.out
    assert check_invariants(seeds=(0,), p_values=(2.0,)).row(
        "coupling_search").failures == 0


def test_cli_run_whose_search_fails_is_one_error_line(tmp_path, capsys):
    out = tmp_path / "big_step"
    rc = main(["run", "--objective", "quadratic", "--d", "5", "--stepsize",
               "1e8", "--methods", "hasd", "--iters", "50", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: method 'hasd' at mu=0: coupling search "
                          "failed: zeta is NaN")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_cli_run_whose_first_step_overflows_is_one_error_line(tmp_path,
                                                              capsys):
    # at a step scale of 1e200 the gradient at x_1 overflows: the first
    # step's typed error, not a_from_rho's, names what failed
    out = tmp_path / "huge_step"
    rc = main(["run", "--objective", "quadratic", "--d", "5", "--stepsize",
               "1e200", "--methods", "hasd", "--iters", "50", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: method 'hasd' at mu=0: coupling search "
                          "failed: first step: rho_0 = nan")
    assert err.count("\n") == 1 and not out.exists()


def test_cli_run_whose_step_square_overflows_exits_without_traceback(
        tmp_path, capsys):
    # ||x_1 - y||_p ** 2 overflowed into an OverflowError traceback and
    # exit 1, the CLI's code for an invariant failure
    out = tmp_path / "lse"
    rc = main(["run", "--objective", "logsumexp", "--n", "20", "--d", "5",
               "--mu", "0", "--stepsize", "1e300", "--methods", "hasd",
               "--iters", "50", "--out", str(out)])
    seen = capsys.readouterr()
    assert rc == 0 and seen.err == ""
    assert json.loads((out / "summary.json").read_text())[
        "mus"]["0"]["methods"]["hasd"]["iters"] == 50


def test_tune_ranks_a_grid_point_whose_first_step_overflows_inf(tmp_path,
                                                               capsys):
    # one overflowing grid point ranks +inf instead of aborting the sweep
    obj = make_objective(ExperimentConfig(objective="quadratic", d=5))
    geom = LpGeometry(math.inf)
    best, all_div, finals = tune_method("hasd", obj, default_x0(obj), geom,
                                        smoothness_bound(obj, geom), 130,
                                        (1.0, 1e200))
    assert (best, all_div, finals[1e200]) == (1.0, False, math.inf)
    assert main(["tune", "--objective", "quadratic", "--d", "5", "--grid",
                 "1,1e200", "--methods", "hasd", "--out", str(tmp_path)]) == 0
    seen = capsys.readouterr()
    assert seen.err == "" and "stepsize=1 " in seen.out
    assert _strict_load(tmp_path / "tune.json")["hasd"]["stepsize"] == 1.0


def test_check_invariants_at_an_overflowing_l_scale_fails_its_cells():
    # at 1e-160 of the certified L the first step's gradient overflows on
    # the quadratic and LogSumExp cells: each fails coupling_search with
    # the first step named, where a_from_rho's ValueError ended the command
    report = check_invariants(seeds=(0,), l_scale=1e-160)
    assert not report.ok and report.cells == 12
    assert report.row("coupling_search").failures == 8
    assert all("first step: rho_0 = nan" in line
               for line in report.failed_searches)


def test_check_invariants_reports_an_l2_norm_whose_square_overflows(capsys):
    # at 1e-160 of the certified L the p = 2 quadratic cell's first
    # gradient has a finite l2 norm whose square overflows: its failed
    # first step reports that norm, the dual norm at p = 2, not inf
    assert main(["check-invariants", "--seeds", "0", "--l-scale",
                 "1e-160"]) == 1
    seen = capsys.readouterr()
    assert seen.err == ""
    failed = [s for s in seen.out.splitlines()
              if "coupling search failed" in s]
    assert len(failed) == 8
    assert all("first step: rho_0 = nan" in s for s in failed)
    line, = [s for s in failed if "p=2, Quadratic" in s]
    assert ("||grad f(x_1)||_2 = 3.402406574642281e+160, ||.||_{p*} = "
            "3.402406574642281e+160" in line)


def test_check_invariants_fails_a_bound_that_underflows_to_zero(capsys):
    # at 1e-300 of the certified L the min_grad_cubic bound, 8748 L^2 R^2 /
    # (G^2 T^3), underflows to 0 on the cells that complete: a failed
    # sample, not a ZeroDivisionError
    report = check_invariants(seeds=(0,), l_scale=1e-300)
    cubic = report.row("min_grad_cubic")
    assert cubic.samples == cubic.failures == 4 and cubic.worst == math.inf
    assert main(["check-invariants", "--l-scale", "1e-300", "--seeds",
                 "0"]) == 1
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("l_scale", [1e150, 1e200])
def test_check_invariants_passes_a_value_under_a_bound_that_overflows(
        capsys, l_scale):
    # any L above the certified one is a valid smoothness constant, so every
    # check holds; at 1e150 of it the min_grad_cubic bound, 8748 L^2 R^2 /
    # (G^2 T^3), overflows to inf on some cells (at 1e200 on all), and a
    # finite min ||g||_{p*}^2 under it is a passing sample, not a NaN
    report = check_invariants(seeds=(0,), l_scale=l_scale)
    cubic = report.row("min_grad_cubic")
    assert cubic.samples == 12 and cubic.failures == 0 and cubic.worst == 0.0
    assert report.ok
    assert main(["check-invariants", "--seeds", "0", "--l-scale",
                 repr(l_scale)]) == 0
    assert capsys.readouterr().out == report.render() + "\n"


def test_check_invariants_rejects_empty_budget(capsys):
    with pytest.raises(ValueError):
        check_invariants(seeds=(0,), p_values=(2.0,), iters=0)
    assert main(["check-invariants", "--iters", "0"]) == 2
    capsys.readouterr()


def _empirical_lse_cell():
    obj = make_logsumexp_instance(40, 10, 1e-2, seed=0)  # sampled L
    solve_reference(obj)
    return obj, np.zeros(10)


@pytest.mark.parametrize("make_cell", [
    _empirical_lse_cell, lambda: default_invariant_matrix(seeds=(0,))[0]],
    ids=["logsumexp", "quadratic"])
def test_run_and_checker_agree_on_a_violated_cell(make_cell):
    # half the smoothness constant makes the progress inequality fail on
    # some steps; run's counters and the checker must see the same rows
    # and count the same failures
    obj, x0 = make_cell()
    geom = LpGeometry(math.inf)
    cfg = HasdConfig(L=smoothness_bound(obj, geom) * 0.5, geom=geom,
                     max_iters=40)
    report = check_invariants(cells=[(obj, x0)], p_values=(math.inf,),
                              iters=40, l_scale=0.5)
    rep = run(obj, x0, cfg)
    assert rep.invariants["progress"] > 0
    assert rep.invariants == {name: report.row(name).failures
                              for name in INVARIANTS}
    rows = [tr for _, tr in iterate(obj, x0, cfg)]
    assert len(rows) == len(rep.traces)
    for ran, iterated in zip(rep.traces, rows):
        assert asdict(ran) == asdict(iterated)


def test_cli_run_and_exit_codes(tmp_path, capsys):
    out = str(tmp_path / "cli_run")
    rc = main(["run", "--objective", "quadratic", "--d", "4", "--seed", "1",
               "--p", "2", "--iters", "8", "--methods", "hasd,gd",
               "--out", out])
    assert rc == 0
    seen = capsys.readouterr().out
    assert "hasd" in seen and "gd" in seen
    assert (tmp_path / "cli_run" / "summary.json").exists()


def test_cli_config_error_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"p": 1.5}))
    assert main(["run", "--config", str(cfg)]) == 2
    cfg.write_text(json.dumps({"no_such_key": 1}))
    assert main(["run", "--config", str(cfg)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("key,value", [
    ("iters", "5"), ("n", 2.5), ("d", None), ("seed", [1]), ("mu", [0.1]),
    ("mu", "nan"), ("alpha", {}), ("stepsize", "x"), ("p", [2]),
    ("p", "nan"), ("grid", 5), ("grid", [0.1, None]), ("methods", 3),
    ("objective", None), ("out_dir", 5), ("ref_path", 5),
    ("instance_path", [1]), ("check_invariants", "no")])
def test_cli_config_value_of_the_wrong_type_is_exit_2(tmp_path, capsys, key,
                                                      value):
    # config file values go through ExperimentConfig's converters: one line
    # naming the key, not a TypeError traceback, and no output
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"objective": "quadratic", "d": 3, "iters": 3,
                               "methods": ["gd"], key: value}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config key %r" % key)
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_config_values_convert_as_instance_values_do(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 6, "d": 3, "mu": "0.1", "p": "inf",
                               "iters": 3, "methods": ["gd"],
                               "stepsize": None}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    config = json.loads((out / "summary.json").read_text())["config"]
    assert (config["mu"], config["p"], config["stepsize"]) == (0.1, "inf", None)
    capsys.readouterr()


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"objective": "quadratic", "d": 4, "seed": 2,
                               "p": 2, "iters": 6, "methods": ["gd"]}))
    out = str(tmp_path / "over")
    rc = main(["run", "--config", str(cfg), "--iters", "9", "--out", out])
    assert rc == 0
    summary = json.loads((tmp_path / "over" / "summary.json").read_text())
    assert summary["config"]["iters"] == 9
    assert summary["config"]["objective"] == "quadratic"
    capsys.readouterr()


def test_cli_check_invariants_exit_codes(capsys):
    rc_ok = main(["check-invariants", "--p", "2", "--seeds", "0",
                  "--iters", "12"])
    rc_bad = main(["check-invariants", "--p", "inf", "--seeds", "0",
                   "--iters", "20", "--l-scale", "0.5"])
    assert (rc_ok, rc_bad) == (0, 1)
    # half the certified L must still be caught (exit 1, not 0 or 2) on a
    # small matrix and on the default one
    assert main(["check-invariants", "--p", "2,inf", "--seeds", "0",
                 "--iters", "10", "--l-scale", "0.5"]) == 1
    assert main(["check-invariants", "--l-scale", "0.5"]) == 1
    capsys.readouterr()


def test_cli_gen_instance_roundtrip(tmp_path, capsys):
    path = str(tmp_path / "inst.json")
    rc = main(["gen-instance", "--objective", "logsumexp", "--n", "12",
               "--d", "4", "--mu", "0.01", "--seed", "7",
               "--solve-reference", "--out", path])
    assert rc == 0
    doc = json.loads((tmp_path / "inst.json").read_text())
    assert doc["kind"] == "logsumexp" and "ref_optimum" in doc
    out = str(tmp_path / "ref_run")
    rc = main(["run", "--instance", path, "--ref-optimum", path,
               "--p", "inf", "--iters", "6", "--methods", "hasd",
               "--out", out])
    assert rc == 0
    capsys.readouterr()


def test_cli_gen_instance_without_reference_optimum_is_exit_2(tmp_path, capsys):
    path = tmp_path / "inst.json"
    rc = main(["gen-instance", "--objective", "logsumexp", "--n", "200",
               "--d", "50", "--mu", "0", "--seed", "0",
               "--solve-reference", "--out", str(path)])
    assert rc == 2
    assert "no reference optimum" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("verb", ["gen-instance", "run"])
def test_cli_instance_too_large_to_allocate_is_exit_2(verb, tmp_path, capsys):
    # 10^9 x 10^9 doubles lie beyond any address space, so the request fails
    # before a page is touched; numpy refuses 10^10 x 10^10 before asking
    for size in ("1000000000", "10000000000"):
        out = tmp_path / "out"
        rc = main([verb, "--objective", "logsumexp", "--n", size, "--d", size,
                   "--mu", "0.01", "--seed", "0", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "%s x %s" % (size, size) in err
        assert not out.exists()


def test_cli_rejects_instance_with_negative_n(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"kind": "logsumexp", "n": -1, "d": 3,
                                "seed": 0}))
    out = tmp_path / "out"
    rc = main(["run", "--instance", str(inst), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: n must be at least 1, got -1\n"
    assert not out.exists()


def test_cli_rejects_a_reference_whose_f_is_not_the_value_at_x(tmp_path,
                                                              capsys):
    # f(center) is the offset, -1: a stored f of 0.5 would make every gap
    # -1.5 and stop a HASD run at its first iterate
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"kind": "quadratic", "h": [1, 1, 1],
                                "center": [0, 0, 0], "offset": -1,
                                "ref_optimum": {"x": [0, 0, 0], "f": 0.5}}))
    out = tmp_path / "out"
    assert main(["run", "--instance", str(inst), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: reference optimum key 'f': 0.5 is not the objective's value "
        "at x, -1.0\n")
    assert not out.exists()


@pytest.mark.parametrize("kind", ["logsumexp", "softmax", "quadratic"])
def test_gen_instance_reference_loads_back(tmp_path, capsys, kind):
    # a solved reference's f is the objective's value at its x, so the
    # stored file passes the check that refuses any other f
    path = tmp_path / "inst.json"
    assert main(["gen-instance", "--objective", kind, "--n", "20", "--d", "5",
                 "--mu", "0.01", "--seed", "3", "--solve-reference",
                 "--out", str(path)]) == 0
    obj = load_instance(str(path))
    x, f = obj.reference_optimum
    assert f == obj.value(x)
    out = tmp_path / "out"
    assert main(["run", "--instance", str(path), "--p", "2", "--iters", "5",
                 "--methods", "hasd", "--out", str(out)]) == 0
    capsys.readouterr()


def test_cli_rejects_instance_with_misshapen_reference(tmp_path, capsys):
    doc = save_instance(Quadratic(np.ones(4)))
    doc["ref_optimum"] = {"x": [0.5], "f": 0.0}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    rc = main(["run", "--instance", str(path), "--p", "2", "--iters", "4",
               "--methods", "hasd", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "dimension 1, expected 4" in capsys.readouterr().err


def test_cli_rejects_instance_missing_a_key(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"kind": "logsumexp", "n": 5, "d": 3}))
    rc = main(["run", "--instance", str(path), "--p", "2", "--iters", "4",
               "--methods", "hasd", "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'seed'" in err and "Traceback" not in err


def test_cli_rejects_reference_missing_f(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    save_instance(Quadratic(np.ones(4)), str(inst))
    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps({"x": [0.0] * 4}))
    rc = main(["run", "--instance", str(inst), "--ref-optimum", str(ref),
               "--p", "2", "--iters", "4", "--methods", "hasd",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'f'" in err and "Traceback" not in err


@pytest.mark.parametrize("instance,ref,named", [
    ([1, 2], None, "instance"),
    ({"smoothness": [1, 2]}, None, "smoothness entry"),
    ({"ref_optimum": [1, 2]}, None, "reference optimum"),
    ({}, [0.5], "reference document"),
], ids=["instance", "smoothness", "ref_optimum", "ref_file"])
def test_cli_rejects_json_that_is_not_an_object(tmp_path, capsys, instance,
                                                ref, named):
    # a part that should be a JSON object and is not is a configuration
    # error (exit 2, one line naming the part), not an invariant failure
    if isinstance(instance, dict):
        instance = {**save_instance(Quadratic(np.ones(4))), **instance}
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(instance))
    argv = ["run", "--instance", str(inst), "--p", "2", "--iters", "4",
            "--methods", "hasd", "--out", str(tmp_path / "out")]
    if ref is not None:
        (tmp_path / "ref.json").write_text(json.dumps(ref))
        argv += ["--ref-optimum", str(tmp_path / "ref.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: %s must be a JSON object, not list\n" % named)


_QUAD4 = save_instance(Quadratic(np.ones(4)))
_LSE = {"kind": "logsumexp", "A": [[1.0, 0.0], [0.0, 1.0]], "b": [0.0, 1.0]}
_NAN, _INF = float("nan"), float("inf")  # json writes NaN and Infinity


@pytest.mark.parametrize("instance,key", [
    ({**_QUAD4, "ref_optimum": {"x": [0, 0, 0, 0], "f": [1, 2]}}, "f"),
    ({**_QUAD4, "ref_optimum": {"x": {"a": 0}, "f": 0.0}}, "x"),
    ({**_QUAD4, "smoothness": {"L": [1], "p": 2}}, "L"),
    ({**_QUAD4, "smoothness": {"L": 1.0, "p": [2]}}, "p"),
    ({**_QUAD4, "offset": [0.5]}, "offset"),
    ({**_QUAD4, "h": {"a": 1}}, "h"),
    ({"kind": "logsumexp", "n": 5, "d": 3, "seed": 0, "mu": [0.1]}, "mu"),
    ({"kind": "logsumexp", "n": 5.0, "d": 3, "seed": 0}, "n"),
    ({"kind": "logsumexp", "n": 5, "d": [3], "seed": 0}, "d"),
    ({"kind": "logsumexp", "n": 5, "d": 3, "seed": 1.5}, "seed"),
    ({"kind": "logsumexp", "n": 5, "d": 3, "seed": None}, "seed"),
    ({"kind": "softmax", "d": "4"}, "d"),
    ({"kind": "softmax", "d": 4, "alpha": None}, "alpha"),
    ({**_QUAD4, "ref_optimum": {"x": [0, 0, 0, 0], "f": "nan"}}, "f"),
    ({**_QUAD4, "ref_optimum": {"x": [0, 0, 0, 0], "f": _INF}}, "f"),
    ({**_QUAD4, "ref_optimum": {"x": [0, _NAN, 0, 0], "f": 0.0}}, "x"),
    ({**_QUAD4, "smoothness": {"L": _INF, "p": 2}}, "L"),
    ({**_QUAD4, "smoothness": {"L": 1.0, "p": "nan"}}, "p"),
    ({**_QUAD4, "offset": _NAN}, "offset"),
    ({**_QUAD4, "h": [1, 1, _INF, 1]}, "h"),
    ({**_QUAD4, "center": [0, 0, 0, -_INF]}, "center"),
    ({"kind": "logsumexp", "n": 5, "d": 3, "seed": 0, "mu": _NAN}, "mu"),
    ({**_LSE, "A": [[1.0, _NAN], [0.0, 1.0]]}, "A"),
    ({**_LSE, "b": [0.0, _INF]}, "b"),
    ({"kind": "softmax", "d": 4, "alpha": _INF}, "alpha"),
], ids=["ref_f", "ref_x", "L", "p", "offset", "h", "mu", "n", "lse_d",
        "seed", "null_seed", "softmax_d", "alpha", "nan_ref_f", "inf_ref_f",
        "nan_ref_x", "inf_L", "nan_p", "nan_offset", "inf_h", "inf_center",
        "nan_mu", "nan_A", "inf_b", "inf_alpha"])
def test_cli_rejects_a_value_of_the_wrong_type(tmp_path, capsys, instance,
                                               key):
    # a wrong-typed or non-finite value is a configuration error (exit 2,
    # one line naming the key), not an invariant failure with a TypeError
    # traceback, nor a run whose every gap is NaN
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(instance))
    rc = main(["run", "--instance", str(inst), "--p", "2", "--iters", "4",
               "--methods", "hasd", "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "key %r" % key in err


@pytest.mark.parametrize("argv", [
    ["check-invariants", "--l-scale", "nan"],
    ["check-invariants", "--p", "2", "--seeds", "0", "--iters", "2",
     "--l-scale", "nan"],
    ["check-invariants", "--p", "2", "--seeds", "0", "--iters", "2",
     "--l-scale", "inf"],
    ["run", "--objective", "quadratic", "--d", "3", "--stepsize", "nan"],
    ["run", "--objective", "softmax", "--d", "3", "--alpha", "nan"],
    ["run", "--n", "6", "--d", "3", "--mu", "nan"],
    ["run", "--n", "6", "--d", "3", "--mu", "inf"],
    ["run", "--objective", "quadratic", "--d", "3", "--tune",
     "--grid", "0.5,nan"],
], ids=["l_scale_nan_default", "l_scale_nan", "l_scale_inf", "stepsize_nan",
        "alpha_nan", "mu_nan", "mu_inf", "grid_nan"])
def test_cli_refuses_a_non_finite_setting(tmp_path, capsys, argv):
    # NaN passes an `x <= 0` guard; every setting refuses it (and an
    # infinite L, step, mu or alpha) as a configuration error: exit 2 and
    # one line, not a NonFiniteProbeError traceback
    if argv[0] == "run":
        argv = argv + ["--iters", "4", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()  # nothing written before the error


def test_cli_tune_writes_json(tmp_path, capsys):
    out = str(tmp_path / "tuned")
    rc = main(["tune", "--objective", "quadratic", "--d", "3", "--seed", "5",
               "--p", "2", "--iters", "10", "--methods", "gd",
               "--grid", "0.1,0.5", "--out", out])
    assert rc == 0
    doc = json.loads((tmp_path / "tuned" / "tune.json").read_text())
    assert doc["gd"]["stepsize"] in (0.1, 0.5)
    capsys.readouterr()


def test_cli_tune_writes_json_under_a_config_files_out_dir(tmp_path,
                                                         monkeypatch, capsys):
    # as hasd run does; with no out_dir from a flag or a file, nothing
    monkeypatch.chdir(tmp_path)
    doc = {"objective": "quadratic", "d": 4, "iters": 5, "grid": [0.1, 1.0]}
    (tmp_path / "bare.json").write_text(json.dumps(doc))
    (tmp_path / "cfg.json").write_text(json.dumps(dict(doc,
                                                       out_dir="from_file")))
    assert main(["tune", "--config", "bare.json"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bare.json",
                                                          "cfg.json"]
    assert main(["tune", "--config", "cfg.json"]) == 0
    table = capsys.readouterr().out
    tuned = json.loads((tmp_path / "from_file" / "tune.json").read_text())
    assert list(tuned) == ["agd", "gd", "hasd", "lc"]  # sorted keys
    for m, entry in tuned.items():
        assert "%-5s stepsize=%-10g" % (m, entry["stepsize"]) in table
    assert main(["tune", "--config", "cfg.json", "--out", "flag"]) == 0
    assert (tmp_path / "flag" / "tune.json").exists()
    capsys.readouterr()


def _strict_load(path):
    """json.load that refuses NaN, Infinity and -Infinity literals."""
    def refuse(literal):
        raise ValueError("non-finite literal %s in %s" % (literal, path))
    with open(path) as fh:
        return json.load(fh, parse_constant=refuse)


def test_cli_outputs_are_strict_json_when_a_run_diverges(tmp_path, capsys):
    # gd at stepsize 10 on a quadratic with curvature up to 4 blows up: its
    # final f and gap are inf, written as the string "inf"
    out = tmp_path / "div"
    assert main(["run", "--objective", "quadratic", "--d", "5", "--stepsize",
                 "10", "--methods", "gd", "--iters", "200",
                 "--out", str(out)]) == 0
    entry = _strict_load(out / "summary.json")["mus"]["0"]["methods"]["gd"]
    assert entry["final_f"] == entry["final_gap"] == "inf"
    assert capsys.readouterr().err == ""
    tuned = tmp_path / "tuned"
    assert main(["tune", "--objective", "quadratic", "--d", "5",
                 "--methods", "gd", "--grid", "10,100",
                 "--out", str(tuned)]) == 0
    assert _strict_load(tuned / "tune.json")["gd"] == {
        "all_divergent": True, "at_grid_edge": True, "final_f": "inf",
        "stepsize": 10.0}
    # the one stderr line run and bench print for an all-divergent grid
    assert capsys.readouterr().err == (
        "every stepsize diverged for gd at mu=0; ran the smallest grid point\n")


def test_write_json_spells_non_finite_floats_as_config_p_does(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"a": [math.inf, -math.inf, math.nan, 1.5],
                      "b": {"c": (np.float64(math.inf), 2)}})
    assert _strict_load(path) == {"a": ["inf", "-inf", "nan", 1.5],
                                  "b": {"c": ["inf", 2]}}
    assert ExperimentConfig().to_dict()["p"] == "inf"


def test_bench_parser_defaults_are_experiment_config_defaults(tmp_path,
                                                              capsys):
    args = build_parser().parse_args(["bench"])
    for f in fields(ExperimentConfig):
        if f.name in ("n", "d", "seed", "p", "iters", "methods", "grid"):
            assert getattr(args, f.name) == f.default, f.name
    small = {"n": 8, "d": 3, "iters": 5, "grid": (0.5, 1.0),
             "methods": ("hasd", "gd")}
    argv = ["bench", "--n", "8", "--d", "3", "--iters", "5", "--grid",
            "0.5,1", "--methods", "hasd,gd", "--mus", "0.01"]
    assert main(argv + ["--out", str(tmp_path / "cli")]) == 0
    lib = run_bench(out_dir=str(tmp_path / "lib"), mu_values=(0.01,), **small)
    written = _strict_load(tmp_path / "cli" / "summary.json")
    assert written["config_hash"] == lib["config_hash"]
    capsys.readouterr()


def test_parser_defaults_are_the_library_calls_defaults():
    # each verb's defaults come from the call it makes, so they cannot drift
    lib = inspect.signature(check_invariants).parameters
    args = build_parser().parse_args(["check-invariants"])
    for name in ("p_values", "iters", "l_scale", "seeds"):
        assert getattr(args, name) == lib[name].default, name
    lib = inspect.signature(run_bench).parameters
    args = build_parser().parse_args(["bench"])
    assert args.out_dir == lib["out_dir"].default
    assert args.mus == lib["mu_values"].default


def test_check_invariants_refuses_an_empty_p_values_or_seeds(capsys):
    # neither is a PASS over 0 cells, nor is an empty cells list
    for settings in ({"p_values": ()}, {"seeds": ()}, {"cells": []}):
        (key,) = settings
        with pytest.raises(ValueError, match="config key %r: must be "
                                             "nonempty" % key):
            check_invariants(**settings)
    for flag in ("--p", "--seeds"):
        assert main(["check-invariants", flag, ""]) == 2
        seen = capsys.readouterr()
        assert seen.out == "" and seen.err.count("\n") == 1


@pytest.mark.parametrize("argv,key", [
    (["--seeds=-1"], "seeds"), (["--l-scale", "0"], "l_scale"),
    (["--p", "2,1"], "p_values"), (["--iters", "0"], "iters")],
    ids=["seeds", "l_scale", "p_values", "iters"])
def test_check_invariants_names_the_setting_it_refuses(capsys, argv, key):
    # refused before any cell runs: exit 2, one stderr line naming the key
    assert main(["check-invariants"] + argv) == 2
    seen = capsys.readouterr()
    assert seen.out == "" and seen.err.count("\n") == 1
    assert seen.err.startswith("error: config key %r: " % key)


def test_list_flags_skip_blank_entries(capsys):
    argv = ["check-invariants", "--seeds", "0", "--iters", "4", "--p"]
    assert main(argv + ["2,inf"]) == 0
    want = capsys.readouterr().out
    assert main(argv + ["2,inf,"]) == 0
    assert capsys.readouterr().out == want
    args = build_parser().parse_args(["bench", "--methods", " hasd,, gd ,",
                                      "--mus", ",0.01,", "--grid", "1,"])
    assert (args.methods, args.mus, args.grid) == (("hasd", "gd"), (0.01,),
                                                   (1.0,))


def test_cli_bench_with_no_mu_values_is_exit_2(tmp_path, capsys):
    # no mu, or a negative one, is refused before any instance is built
    out = tmp_path / "nomu"
    for mus, need in (("", "nonempty"), ("-1", "nonnegative")):
        assert main(["bench", "--mus", mus, "--n", "8", "--d", "3", "--iters",
                     "3", "--grid", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config key 'mu_values': must be " + need)
        assert err.count("\n") == 1
        assert not out.exists()
    with pytest.raises(ValueError, match="^config key 'mu_values': must be "
                                         "nonempty"):
        run_experiment(ExperimentConfig(out_dir=str(out)), mu_values=[])
    assert not out.exists()


def test_mu_values_convert_without_moving_the_config_hash(tmp_path):
    # pinned digest: integer and float mu lists hash as before conversion
    cfg = ExperimentConfig(n=6, d=3, iters=3, methods=("gd",),
                           out_dir=str(tmp_path))
    for mus in ([0, 1], (0.0, 1.0)):
        summary = run_experiment(cfg, mu_values=mus)
        assert summary["config"]["mu_values"] == [0.0, 1.0]
        assert summary["config_hash"] == (
            "ac1ff7b675d315dd8a8ba517b37532210935a107ac3809895426869190107ee0")


def test_cli_run_counting_invariant_failures_is_exit_1(tmp_path, capsys):
    # four times the theory step breaks the per-step invariants
    out = tmp_path / "viol"
    assert main(["run", "--objective", "quadratic", "--d", "5", "--stepsize",
                 "4", "--methods", "hasd", "--iters", "30",
                 "--check-invariants", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "invariant failures: 60\n"
    summary = _strict_load(out / "summary.json")
    assert summary["invariant_failures_total"] == 60


def test_cli_run_tuned_over_an_all_divergent_grid(tmp_path, capsys):
    # the fact is one stderr line per (method, mu), not a Python warning,
    # and the run still exits 0
    out = tmp_path / "div"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--objective", "quadratic", "--d", "3", "--tune",
                     "--grid", "100", "--methods", "gd", "--iters", "400",
                     "--out", str(out)]) == 0
    assert capsys.readouterr().err == (
        "every stepsize diverged for gd at mu=0; ran the smallest grid point\n")
    assert '"all_divergent": true' in (out / "summary.json").read_text()
    entry = _strict_load(out / "summary.json")["mus"]["0"]["methods"]["gd"]
    assert entry["all_divergent"] is True and entry["stepsize"] == 100.0
    # so does the bench, for the one mu whose grid diverges
    assert main(["bench", "--n", "8", "--d", "3", "--iters", "400", "--grid",
                 "100", "--methods", "gd", "--mus", "0,1",
                 "--out", str(tmp_path / "bench")]) == 0
    assert capsys.readouterr().err == (
        "every stepsize diverged for gd at mu=1; ran the smallest grid point\n")


def test_at_grid_edge_is_the_grids_smallest_or_largest_point():
    assert at_grid_edge(1.0, STEPSIZE_GRID)
    assert at_grid_edge(1e-10, STEPSIZE_GRID)
    assert not at_grid_edge(0.5, STEPSIZE_GRID)
    assert at_grid_edge(0.5, (0.5,))
    assert at_grid_edge(0.1, (0.5, 0.1, 0.2))  # an unsorted grid


def test_tuned_winners_at_a_grid_edge_are_flagged_and_printed(tmp_path,
                                                              capsys):
    # gd on a quadratic wins inside the grid, hasd at its top point; the
    # flag rides in summary.json and tune.json, one stdout line per edge
    # winner, and the config hash (so every CSV) does not move
    argv = ["--objective", "quadratic", "--d", "4", "--p", "2", "--iters",
            "20", "--methods", "gd,hasd", "--grid", "0.01,0.1,0.3,1,10"]
    assert main(["run", "--tune", "--out", str(tmp_path / "run")] + argv) == 0
    out = capsys.readouterr().out
    summary = _strict_load(tmp_path / "run" / "summary.json")
    entries = summary["mus"]["0"]["methods"]
    assert entries["gd"]["stepsize"] == 0.3
    assert entries["gd"]["at_grid_edge"] is False
    assert entries["hasd"]["stepsize"] == 1.0
    assert entries["hasd"]["at_grid_edge"] is False
    assert "grid's edge" not in out
    edge = ["--grid", "0.3,1"]
    assert main(["run", "--tune", "--out", str(tmp_path / "edge")]
                + argv + edge) == 0
    out = capsys.readouterr().out
    entries = _strict_load(tmp_path / "edge" / "summary.json")["mus"]["0"][
        "methods"]
    assert [entries[m]["at_grid_edge"] for m in ("gd", "hasd")] == [True, True]
    assert [line for line in out.splitlines() if "grid's edge" in line] == [
        "gd at mu=0: tuned stepsize 0.3 is at the grid's edge",
        "hasd at mu=0: tuned stepsize 1 is at the grid's edge"]
    assert main(["tune", "--out", str(tmp_path / "tune")] + argv + edge) == 0
    out = capsys.readouterr().out
    doc = _strict_load(tmp_path / "tune" / "tune.json")
    assert [doc[m]["at_grid_edge"] for m in ("gd", "hasd")] == [True, True]
    assert out.count("is at the grid's edge") == 2
    # an untuned run carries no flag
    assert main(["run", "--out", str(tmp_path / "plain")] + argv) == 0
    capsys.readouterr()
    plain = _strict_load(tmp_path / "plain" / "summary.json")
    assert all("at_grid_edge" not in e
               for e in plain["mus"]["0"]["methods"].values())


@pytest.mark.parametrize("argv", [
    ["run", "--objective", "logsumexp", "--n", "2", "--d", "1", "--mu", "0",
     "--seed", "1689", "--iters", "5"],
    ["tune", "--objective", "logsumexp", "--n", "2", "--d", "1", "--mu", "0",
     "--seed", "1689"],
    ["bench", "--n", "2", "--d", "1", "--seed", "1689", "--mus", "0"],
])
def test_cli_a_constant_objective_is_one_error_line(tmp_path, capsys, argv):
    # seed 1689 draws an all-zero 2 x 1 A: at mu = 0 the objective is
    # constant, which is a configuration error (exit 2, one line naming the
    # objective and the cause, no output directory), not a traceback
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "LogSumExpAffine objective is constant" in err
    assert not out.exists()


def test_cli_p2_rows_carry_one_l2_norm_and_zeta_is_c_theta(tmp_path, capsys):
    # at p = 2 the dual norm is the l2 norm, so grad_l2 and grad_dual are
    # one string, and r = 1, so each searched row's zeta = c(theta) * r is
    # c(theta) = 18 L (1 - theta)^2 A_prev / theta to the bit
    out = tmp_path / "p2"
    assert main(["run", "--p", "2", "--methods", "hasd", "--iters", "30",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    L = _strict_load(out / "summary.json")["mus"]["0"]["L"]
    with open(out / "hasd_mu0.csv") as fh:
        rows = list(csv.DictReader(line for line in fh
                                   if not line.startswith("#")))
    assert len(rows) == 31
    assert [r["iter"] for r in rows if r["grad_l2"] != r["grad_dual"]] == []
    searched = [(r, prev) for r, prev in zip(rows[1:], rows) if r["theta"]]
    assert len(searched) == 29
    bad = [r["iter"] for r, prev in searched
           if float(r["zeta"]) != 18.0 * L * (1.0 - float(r["theta"])) ** 2
           * float(prev["A"]) / float(r["theta"])]
    assert bad == []


@pytest.mark.parametrize("verb,settings,key", [
    ("run", {"objective": "quadratic", "mu": math.nan}, "mu"),
    ("run", {"objective": "logsumexp", "n": 6, "alpha": math.inf}, "alpha"),
    ("run", {"objective": "quadratic", "seed": -1}, "seed"),
    ("run", {"objective": "bogus"}, "objective"),
    ("run", {"objective": "quadratic", "p": 1}, "p"),
    ("tune", {"objective": "quadratic", "mu": math.nan}, "mu"),
    ("tune", {"objective": "softmax", "seed": -1}, "seed"),
    ("gen-instance", {"objective": "quadratic", "alpha": math.inf}, "alpha"),
    ("gen-instance", {"objective": "softmax", "seed": -1}, "seed"),
    ("run", {"objective": "logsumexp", "n": 6, "alpha": -1}, "alpha"),
    ("run", {"objective": "quadratic", "mu": -1}, "mu"),
    ("run", {"objective": "softmax", "mu": -1}, "mu"),
    ("run", {"objective": "quadratic", "stepsize": 0}, "stepsize"),
    ("run", {"objective": "quadratic", "stepsize": -1}, "stepsize"),
], ids=["run_mu_nan", "run_alpha_inf", "run_seed", "run_objective", "run_p",
        "tune_mu_nan", "tune_seed", "gen_alpha_inf", "gen_seed",
        "run_lse_alpha_negative", "run_quadratic_mu_negative",
        "run_softmax_mu_negative", "run_stepsize_zero",
        "run_stepsize_negative"])
def test_cli_flag_and_config_file_refuse_a_bad_setting_alike(
        tmp_path, capsys, verb, settings, key):
    # a setting converts in one place whatever its source: the same value as
    # a flag or in a --config file (gen-instance takes no file) is exit 2,
    # one line naming the key, and no output
    out = tmp_path / "out"
    base = [verb, "--d", "3", "--out", str(out)]
    if verb != "gen-instance":
        base += ["--iters", "3", "--methods", "gd"]
    flags = [tok for k, v in settings.items() for tok in ("--" + k, str(v))]
    errs = []
    argvs = [base + flags]
    if verb != "gen-instance":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings))
        argvs.append(base + ["--config", str(cfg)])
    for argv in argvs:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config key %r: " % key)
        assert err.count("\n") == 1
        assert not out.exists()
        errs.append(err)
    assert len(set(errs)) == 1


# every JSON value a malformed document may hold in place of a valid one
_MUTANTS = ("null", '"x"', '"nan"', "[]", "{}", "1.5", "-1", "1e400", "true")
_FUZZ_DOCS = {
    "lse_seeded": {"kind": "logsumexp", "n": 6, "d": 3, "seed": 1,
                   "mu": 0.01},
    "lse_affine": {"kind": "logsumexp", "A": [[1.0, 0.0], [0.0, 1.0],
                                              [1.0, 1.0]],
                   "b": [0.0, 1.0, 0.5], "mu": 0.01},
    "softmax": {"kind": "softmax", "d": 3, "alpha": 0.5},
    "quadratic": {"kind": "quadratic", "h": [1.0, 2.0, 3.0],
                  "center": [0.0, 1.0, 0.0], "offset": 0.5,
                  "smoothness": {"L": 3.0, "p": 2.0},
                  "ref_optimum": {"x": [0.0, 1.0, 0.0], "f": 0.5}},
    "reference": {"x": [0.0, 1.0, 0.0], "f": 0.5},
    "config": {"objective": "logsumexp", "n": 6, "d": 3, "mu": 0.01,
               "alpha": 1.0, "seed": 1, "methods": ["hasd", "gd"],
               "p": "inf", "iters": 3, "grid": [0.1, 0.5],
               "stepsize": None, "check_invariants": False,
               "ref_path": None, "instance_path": None},
}


def _refuse_constant(token):
    raise AssertionError("summary.json holds %s" % token)


def _key_paths(doc, prefix=()):
    """The path of every value in doc, nested objects' values included."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


def _fuzz_cases():
    """(document name, JSON text) for every single-value mutation of every
    document, and every single-key deletion."""
    marker = "\x00mutant"
    for name, doc in _FUZZ_DOCS.items():
        for path in _key_paths(doc):
            mutated = json.loads(json.dumps(doc))
            parent = mutated
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = marker
            text = json.dumps(mutated)
            for mutant in _MUTANTS:
                yield name, text.replace(json.dumps(marker), mutant)
            del parent[path[-1]]
            yield name, json.dumps(mutated)


def test_cli_survives_every_single_value_mutation(tmp_path, monkeypatch,
                                                  capsys):
    # each malformed document is a clean exit 2 that writes nothing, or a
    # run that exits 0 (1 only when it counts invariant failures), never a
    # traceback; paths such as "x" resolve inside tmp_path
    monkeypatch.chdir(tmp_path)
    quad = tmp_path / "quad.json"
    quad.write_text(json.dumps({k: v for k, v in _FUZZ_DOCS["quadratic"].items()
                                if k != "ref_optimum"}))
    cases = list(_fuzz_cases())
    assert len(cases) > 300
    doc_file, out = tmp_path / "doc.json", tmp_path / "out"
    for k, (name, text) in enumerate(cases):
        doc_file.write_text(text)
        if name == "config":
            argv = ["run", "--config", str(doc_file)]
        elif name == "reference":
            argv = ["run", "--instance", str(quad), "--ref-optimum",
                    str(doc_file), "--p", "2"]
        else:
            argv = ["run", "--instance", str(doc_file), "--p", "2"]
        if name != "config":
            argv += ["--iters", "3", "--methods", "hasd,gd"]
        rc = main(argv + ["--out", str(out)])
        capsys.readouterr()
        counts = name == "config" and '"check_invariants": true' in text
        assert rc in ((0, 1, 2) if counts else (0, 2)), (name, text)
        if rc == 2:
            assert not out.exists(), (name, text)
        else:  # strict JSON: no NaN or Infinity token
            json.loads((out / "summary.json").read_text(),
                       parse_constant=_refuse_constant)
            shutil.rmtree(out)
