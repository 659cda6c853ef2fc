"""Harness tests: tuning, CSV emission, determinism, bench matrix, CLI."""

import json
import math

import numpy as np
import pytest

from hasd.baselines import BaselineConfig, lc_run
from hasd.cli import main
from hasd.geometry import LpGeometry
from hasd.harness import (STEPSIZE_GRID, ExperimentConfig, attach_reference,
                          check_invariants, config_hash, default_x0,
                          make_objective, run_bench, run_experiment,
                          run_method, tune_method)
from hasd.objectives import (Quadratic, SymmetricSoftmax,
                             make_logsumexp_instance, save_instance)


def test_default_grid_has_31_entries_ending_at_one():
    assert len(STEPSIZE_GRID) == 31
    assert STEPSIZE_GRID[-1] == 1.0
    assert STEPSIZE_GRID[0] == 1e-10
    assert list(STEPSIZE_GRID) == sorted(STEPSIZE_GRID)
    # the {1, 2, 5} ladder
    assert 2e-7 in STEPSIZE_GRID and 5e-3 in STEPSIZE_GRID


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(objective="bogus")
    with pytest.raises(ValueError):
        ExperimentConfig(methods=("hasd", "newton"))
    with pytest.raises(ValueError):
        ExperimentConfig(grid=())
    with pytest.raises(ValueError):
        ExperimentConfig(grid=(0.1, -1.0))
    with pytest.raises(ValueError):
        ExperimentConfig(iters=0)
    with pytest.raises(ValueError):
        ExperimentConfig(p=1.5)


def test_config_hash_ignores_output_location():
    a = ExperimentConfig(out_dir="here")
    b = ExperimentConfig(out_dir="there")
    assert config_hash(a.to_dict()) == config_hash(b.to_dict())
    c = ExperimentConfig(seed=1)
    assert config_hash(c.to_dict()) != config_hash(a.to_dict())


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
    path.write_text(json.dumps({"x": [0.0, 0.0], "f": 1.0}))
    obj = SymmetricSoftmax(3)
    with pytest.raises(ValueError):
        attach_reference(obj, path)
    obj2 = SymmetricSoftmax(2)
    attach_reference(obj2, path)
    assert obj2.reference_optimum[1] == 1.0


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


def test_tune_all_divergent_warns_and_picks_smallest():
    obj = Quadratic(4.0 * np.ones(3), center=np.ones(3))
    geom = LpGeometry(2.0)
    # stepsizes far beyond 2/L = 0.5, large enough that the squared error
    # overflows to inf within the budget
    with pytest.warns(RuntimeWarning):
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
    with pytest.warns(RuntimeWarning, match="every stepsize diverged"):
        best, all_div, finals = tune_method("hasd", obj, np.zeros(2),
                                            LpGeometry(2.0), 1.0, 5, (1.0,))
    assert all_div and best == 1.0 and finals == {1.0: math.inf}


def test_run_method_lc_stepsize_is_scale_on_coupling():
    obj = make_logsumexp_instance(10, 4, 0.1, seed=2)
    geom = LpGeometry(math.inf)
    L = 3.0
    via_harness = run_method("lc", obj, np.zeros(4), geom, L, 15, 0.5)
    direct = lc_run(obj, np.zeros(4),
                    BaselineConfig("lc", 0.5 / (2.0 * L), 15, geom=geom))
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


def test_bench_small_matrix_file_count(tmp_path):
    out = tmp_path / "bench"
    summary = run_bench(n=16, d=5, iters=10, out_dir=str(out))
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


def test_check_invariants_catches_violated_smoothness():
    report = check_invariants(seeds=(0,), p_values=(math.inf,), iters=25,
                              l_scale=0.5)
    assert not report.ok
    assert report.row("progress").failures > 0


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
    capsys.readouterr()
    assert rc_ok == 0
    assert rc_bad == 1


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


def test_cli_tune_writes_json(tmp_path, capsys):
    out = str(tmp_path / "tuned")
    rc = main(["tune", "--objective", "quadratic", "--d", "3", "--seed", "5",
               "--p", "2", "--iters", "10", "--methods", "gd",
               "--grid", "0.1,0.5", "--out", out])
    assert rc == 0
    doc = json.loads((tmp_path / "tuned" / "tune.json").read_text())
    assert doc["gd"]["stepsize"] in (0.1, 0.5)
    capsys.readouterr()
