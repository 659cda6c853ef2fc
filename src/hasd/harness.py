"""Experiment orchestration: tuning, trace CSVs, the method bench, invariant checks.

Outputs are deterministic given the config: instances are seeded, tuning is
an exhaustive grid sweep, and no timestamps are written, so re-running a
config reproduces every file byte for byte.  Every output embeds the
sha256 hash of the canonical config JSON for provenance.
"""

import hashlib
import json
import math
import operator
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .baselines import BaselineConfig, agd_run, gd_run, lc_run, sdp_run
from .core import (INVARIANT_TOL, INVARIANTS, CouplingSearchError,
                   HasdConfig, _run, iterate, rate_bounds, run,
                   search_call_bound)
from .geometry import (LpGeometry, lp_norm, lp_sq_hessian, lp_sq_hessian_split,
                       steepest_step, subproblem_value)
from .objectives import (Quadratic, SmoothnessUnavailable, SymmetricSoftmax,
                         _field, _finite, _seed, attach_reference,
                         load_instance, make_logsumexp_instance,
                         smoothness_bound, solve_reference)

# the 31-point tuning ladder {1, 2, 5} x 10^{-10..-1} plus 1.0
STEPSIZE_GRID = tuple(c * 10.0 ** e for e in range(-10, 0)
                      for c in (1.0, 2.0, 5.0)) + (1.0,)

BENCH_MU_VALUES = (0.0, 1e-6, 1e-4, 1e-2)
BENCH_METHODS = ("hasd", "gd", "agd", "lc")
_ALL_METHODS = ("hasd", "gd", "agd", "lc", "sd_p")
_OBJECTIVES = ("logsumexp", "softmax", "quadratic")

TRACE_COLUMNS = ("iter", "f", "gap", "grad_l2", "grad_dual", "rho", "theta",
                 "zeta", "search_calls", "A", "B", "G_running")


def _typed(kind, optional=False):
    """Converter passing a value of the given type (or None, if optional)."""
    def convert(value):
        if not (isinstance(value, kind) or (optional and value is None)):
            raise TypeError("expected %s, got %r" % (kind.__name__, value))
        return value
    return convert


# the one converter of each ExperimentConfig field, the instance loader's
# where it has one: a value that does not convert is a ValueError naming
# its key (an integer path would otherwise be opened as a file descriptor)
_CONVERTERS = {
    "objective": _typed(str), "n": operator.index, "d": operator.index,
    "mu": _finite, "alpha": _finite,
    "seed": lambda v: _seed(operator.index(v)), "methods": tuple,
    "p": lambda v: LpGeometry(v).p,  # reads "inf", refuses NaN and p < 2
    "iters": operator.index, "grid": lambda v: tuple(map(_finite, v)),
    "stepsize": lambda v: None if v is None else _finite(v),
    "out_dir": _typed(str), "check_invariants": _typed(bool),
    "ref_path": _typed(str, True), "instance_path": _typed(str, True),
}


@dataclass
class ExperimentConfig:
    """Everything one experiment needs; hashable to a provenance id.

    Every setting, whether it comes from a flag, a --config file or a
    library call, is converted here and only here, by its entry in
    _CONVERTERS, then range-checked, whichever objective reads it; a value
    that does not convert, an alpha <= 0 or a mu < 0 is a ValueError
    beginning "config key <name>:".
    """

    objective: str = "logsumexp"
    n: int = 200
    d: int = 50
    mu: float = 0.0
    alpha: float = 1.0
    seed: int = 0
    methods: tuple = BENCH_METHODS
    p: float = math.inf
    iters: int = 130
    grid: tuple = STEPSIZE_GRID
    stepsize: float | None = None
    out_dir: str = "results"
    check_invariants: bool = False
    ref_path: str | None = None
    instance_path: str | None = None

    def __post_init__(self):
        for key, convert in _CONVERTERS.items():
            setattr(self, key, _field(vars(self), key, "config", convert))
        # every setting enters config_hash, read or not
        if self.alpha <= 0:
            raise ValueError("config key 'alpha': must be positive, got %r"
                             % (self.alpha,))
        if self.mu < 0:
            raise ValueError("config key 'mu': must be nonnegative, got %r"
                             % (self.mu,))
        if self.objective not in _OBJECTIVES:
            raise ValueError("objective must be one of %r" % (_OBJECTIVES,))
        bad = [m for m in self.methods if m not in _ALL_METHODS]
        if bad or not self.methods:
            raise ValueError("unknown methods %r (choose from %r)" % (bad, _ALL_METHODS))
        if not self.grid or min(self.grid) <= 0:
            raise ValueError("stepsize grid must be nonempty and positive")
        if self.iters < 1:
            raise ValueError("iteration budget must be at least 1")
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be positive")

    def to_dict(self) -> dict:
        """Canonical document for hashing; excludes out_dir, which names
        where results land but is no part of what the experiment is."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "out_dir"}
        doc["p"] = "inf" if math.isinf(self.p) else self.p
        return doc


def config_hash(doc: dict) -> str:
    """sha256 over the canonical (sorted, compact) JSON encoding."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def make_objective(cfg: ExperimentConfig, mu: float | None = None):
    """Build (or load) the objective an experiment runs on."""
    mu = cfg.mu if mu is None else mu
    if cfg.instance_path:
        obj = load_instance(cfg.instance_path)
    elif cfg.objective == "logsumexp":
        obj = make_logsumexp_instance(cfg.n, cfg.d, mu, cfg.seed)
    elif cfg.objective == "softmax":
        obj = SymmetricSoftmax(cfg.d, alpha=cfg.alpha)
    else:
        rng = np.random.default_rng(cfg.seed)
        obj = Quadratic(rng.uniform(0.5, 4.0, cfg.d),
                        center=rng.standard_normal(cfg.d))
    if cfg.ref_path:
        attach_reference(obj, cfg.ref_path)
    return obj


def default_x0(obj):
    """Canonical start: all-ones for the symmetric objective (whose optimum
    sits at the origin), the origin otherwise."""
    if isinstance(obj, SymmetricSoftmax):
        return np.ones(obj.dim)
    return np.zeros(obj.dim)


def run_method(method: str, obj, x0, geom: LpGeometry, L: float, iters: int,
               stepsize: float, all_rows: bool = True):
    """One report for one method.

    Stepsize semantics: gd and agd take the grid value as their literal
    stepsize alpha (their natural knob).  hasd and lc have no absolute
    stepsize; for them the grid value is a multiplicative scale on the
    theory coupling 1/L (hasd scales the steepest step, lc scales the
    alpha = 1/(2L) that drives both of its sequences).  sd_p takes alpha
    literally like gd.

    With all_rows off a run traces only its final iterate (final_x,
    final_f, iters and grad_calls stay exact): a baseline evaluates no
    gradient that only an unbuilt row would use, and hasd takes no f value,
    violation or row before its last point (its invariants are None), and
    does not go through core.run.
    """
    if method == "hasd":
        cfg = HasdConfig(L=L, geom=geom, max_iters=iters, step_scale=stepsize)
        return run(obj, x0, cfg) if all_rows else _run(obj, x0, cfg, rows=False)
    alpha = stepsize / (2.0 * L) if method == "lc" else stepsize
    bcfg = BaselineConfig(method, alpha, iters, geom=geom, all_rows=all_rows)
    runner = {"gd": gd_run, "agd": agd_run, "lc": lc_run, "sd_p": sdp_run}
    return runner[method](obj, x0, bcfg)


def tune_method(method: str, obj, x0, geom: LpGeometry, L: float, iters: int,
                grid) -> tuple[float, bool, dict]:
    """Sweep the grid, pick the stepsize with the smallest final value.

    Returns (best, all_divergent, final_values).  Divergent runs (non-finite
    final value, or a failed coupling search) rank as +inf; ties break
    toward the smaller stepsize.  If every point diverges the smallest grid
    point is returned with a warning.  Grid runs, hasd's included, trace
    only their final row, the one value ranked.
    """
    finals = {}
    for s in grid:
        with np.errstate(all="ignore"):
            try:
                rep = run_method(method, obj, x0, geom, L, iters, s,
                                 all_rows=False)
                f = float(rep.final_f)
            except CouplingSearchError:
                f = math.inf
        finals[s] = f if math.isfinite(f) else math.inf
    all_divergent = all(not math.isfinite(v) for v in finals.values())
    if all_divergent:
        warnings.warn("every stepsize diverged for %s; falling back to the "
                      "smallest grid point" % method, RuntimeWarning)
    best = min(grid, key=lambda s: (finals[s], s))
    return float(best), all_divergent, finals


def _fmt(v) -> str:
    # integers (iter, search_calls) print as str prints them
    return "" if v is None else "%.17g" % float(v)


def write_trace_csv(path, traces, cfg_hash: str, gaps=None):
    """Write one run's rows in the stable trace schema (17 significant digits)."""
    lines = ["# config_hash=%s" % cfg_hash, ",".join(TRACE_COLUMNS)]
    for i, tr in enumerate(traces):
        row = {c: getattr(tr, c) for c in TRACE_COLUMNS}
        if gaps is not None:
            row["gap"] = gaps[i]
        lines.append(",".join(_fmt(v) for v in row.values()))
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError("failed writing trace CSV %s: %s" % (path, exc)) from exc


def _reference_value(obj, mu: float, x0, geom, L, iters, tuned, reports):
    """Reference value used for the gap column of one (instance, mu) block.

    Attached or analytically solvable references are exact.  Otherwise
    (weakly regularized instances can be unbounded below) the reference is
    the best value seen by any method, including extended runs of the two
    accelerated methods at 4x the budget, minus a small positive margin.
    """
    if obj.reference_optimum is not None:
        return float(obj.reference_optimum[1]), "attached"
    if mu > 0:
        try:
            return float(solve_reference(obj)[1]), "exact"
        except (RuntimeError, SmoothnessUnavailable):
            pass
    best = min(min(tr.f for tr in rep.traces) for rep in reports.values())
    for m in ("hasd", "agd"):
        if m in reports:
            try:
                with np.errstate(all="ignore"):
                    ext = run_method(m, obj, x0, geom, L, 4 * iters, tuned[m])
                ext_best = min(tr.f for tr in ext.traces)
                if math.isfinite(ext_best):
                    best = min(best, ext_best)
            except CouplingSearchError:
                pass
    return best - 1e-9 * (1.0 + abs(best)), "best_found"


def run_experiment(cfg: ExperimentConfig, mu_values=None,
                   tune_first: bool = False) -> dict:
    """Run each configured method on each mu, writing one CSV per (method,
    mu), a plot-data file of log10(gap) vs iteration, and summary.json.

    Without tuning, hasd runs at scale 1 and baselines at 1/L.  Nothing is
    written, and no directory made, until every objective, method config and
    run has been built, so a configuration error, an empty mu_values among
    them, leaves no output behind; so does a recorded run whose coupling
    search fails, raised as a ValueError naming the method and mu.  Returns
    the summary dict (also written to disk).
    """
    if mu_values is None:
        mu_values = [cfg.mu]
    if len(mu_values) == 0:
        raise ValueError("mu_values is empty: there is no mu to run")
    if len(mu_values) > 1 and cfg.objective != "logsumexp":
        raise ValueError("a mu sweep needs the logsumexp objective")
    doc = cfg.to_dict()
    doc["mu_values"] = [float(m) for m in mu_values]
    doc["tuned"] = bool(tune_first)
    h = config_hash(doc)
    geom = LpGeometry(cfg.p)
    summary = {"config": doc, "config_hash": h, "mus": {}}
    plot_lines = ["# config_hash=%s" % h, "mu,method,iter,log10_gap"]
    csvs = []  # (file name, rows, gaps) of each recorded run
    invariant_failures = 0

    for mu in mu_values:
        obj = make_objective(cfg, mu=mu)
        L = smoothness_bound(obj, geom)
        x0 = default_x0(obj)
        tuned, reports, block = {}, {}, {"L": L, "methods": {}}
        for m in cfg.methods:
            if tune_first:
                best, all_div, _ = tune_method(m, obj, x0, geom, L,
                                               cfg.iters, cfg.grid)
            elif cfg.stepsize is not None:
                best, all_div = float(cfg.stepsize), False
            else:
                best = 1.0 if m in ("hasd", "lc") else 1.0 / L
                all_div = False
            tuned[m] = best
            with np.errstate(all="ignore"):
                try:
                    reports[m] = run_method(m, obj, x0, geom, L, cfg.iters,
                                            best)
                except CouplingSearchError as exc:
                    raise ValueError("method %r at mu=%g: coupling search "
                                     "failed: %s" % (m, mu, exc)) from exc
            if all_div:
                block["methods"][m] = {"all_divergent": True}
        f_ref, ref_kind = _reference_value(obj, mu, x0, geom, L, cfg.iters,
                                           tuned, reports)
        block["f_ref"] = f_ref
        block["ref_kind"] = ref_kind
        for m in cfg.methods:
            rep = reports[m]
            gaps = [tr.f - f_ref for tr in rep.traces]
            name = "%s_mu%g.csv" % (m, mu)
            csvs.append((name, rep.traces, gaps))
            for tr, gap in zip(rep.traces, gaps):
                plot_lines.append("%g,%s,%d,%s"
                                  % (mu, m, tr.iter,
                                     _fmt(math.log10(max(gap, 1e-300)))))
            entry = block["methods"].setdefault(m, {})
            entry.update({"stepsize": tuned[m], "final_f": rep.final_f,
                          "final_gap": gaps[-1], "iters": rep.iters,
                          "grad_calls": rep.grad_calls, "csv": name})
            if rep.G_mean is not None:
                entry["G_mean"] = rep.G_mean
            if cfg.check_invariants and rep.invariants is not None:
                entry["invariant_failures"] = rep.invariants
                invariant_failures += sum(rep.invariants.values())
        summary["mus"]["%g" % mu] = block

    if cfg.check_invariants:
        summary["invariant_failures_total"] = invariant_failures
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, traces, gaps in csvs:
        write_trace_csv(out / name, traces, h, gaps=gaps)
    try:
        (out / "plot_data.csv").write_text("\n".join(plot_lines) + "\n")
        (out / "summary.json").write_text(
            json.dumps(summary, indent=1, sort_keys=True) + "\n")
    except OSError as exc:
        raise OSError("failed writing experiment outputs under %s: %s"
                      % (out, exc)) from exc
    return summary


def run_bench(out_dir: str = "bench", mu_values=BENCH_MU_VALUES,
              **settings) -> dict:
    """The full comparison matrix: tuned stepsizes, all mu values.

    settings are ExperimentConfig fields, whose defaults are the bench's.
    The default budget of 130 iterations keeps every method in the regime
    the comparison is about (all four marching toward a distant or
    unbounded optimum on an equal footing); far larger budgets let momentum
    methods enter a local fast phase on the strongly regularized
    instances, which measures something else.
    """
    cfg = ExperimentConfig(out_dir=out_dir, **settings)
    return run_experiment(cfg, mu_values=list(mu_values), tune_first=True)


# --------------------------------------------------------------------------
# invariant checking
# --------------------------------------------------------------------------

@dataclass
class CheckRow:
    """Aggregate outcome of one named check across the matrix."""

    name: str
    tol: float
    samples: int = 0
    failures: int = 0
    skipped: int = 0
    worst: float = 0.0

    def record(self, violation: float):
        """Count one sample; a NaN fails and stays the worst."""
        self.samples += 1
        # a larger value, or the first NaN (x == x is False only for NaN)
        if not violation <= self.worst and self.worst == self.worst:
            self.worst = violation
        if not violation <= self.tol:
            self.failures += 1

    def skip(self):
        self.skipped += 1


@dataclass
class InvariantReport:
    """The check rows, and one line per cell whose coupling search failed
    (its p, objective and seed or cell index, and the search's message)."""

    rows: list = field(default_factory=list)
    cells: int = 0
    median_search_calls: float | None = None
    failed_searches: list = field(default_factory=list)

    def __post_init__(self):
        self._by_name = {r.name: r for r in self.rows}

    @property
    def ok(self) -> bool:
        return all(r.failures == 0 for r in self.rows)

    def row(self, name: str) -> CheckRow:
        return self._by_name[name]

    def render(self) -> str:
        head = "%-22s %8s %8s %8s %12s %10s  %s" % (
            "check", "samples", "failed", "skipped", "worst", "tol", "status")
        out = [head, "-" * len(head)]
        for r in self.rows:
            status = "FAIL" if r.failures else ("skip" if r.samples == 0 else "ok")
            out.append("%-22s %8d %8d %8d %12.3e %10.1e  %s" % (
                r.name, r.samples, r.failures, r.skipped, r.worst, r.tol, status))
        med = ("n/a" if self.median_search_calls is None
               else "%g" % self.median_search_calls)
        out.append("cells: %d   median search calls: %s   overall: %s"
                   % (self.cells, med, "PASS" if self.ok else "FAIL"))
        out.extend("coupling search failed: %s" % line
                   for line in self.failed_searches)
        return "\n".join(out)


_REL = INVARIANT_TOL

_CHECKS = (
    ("window", _REL), ("recurrence", _REL), ("progress", _REL),
    ("potential", _REL), ("growth", _REL), ("gain_range", 1e-10),
    ("coupling_search", 0.0), ("search_economy", 0.0), ("search_median", 20.0),
    ("psi_at_opt", _REL), ("v_distance", _REL), ("gap_model_bound", _REL),
    ("grad_conversion", _REL), ("certificate", _REL), ("min_grad_cubic", _REL),
    ("holder", _REL), ("step_optimality", 1e-8), ("step_beats_probes", 1e-10),
    ("hessian_fd", 1e-5), ("hessian_psd_split", 1e-10),
    ("hessian_witness", _REL),
)


def default_invariant_matrix(seeds=(0, 1)):
    """(objective, x0) cells: a quadratic, the symmetric smooth max, and a
    strongly regularized random instance per seed, all with references."""
    return [cell for seed in seeds for cell in _seed_cells(seed)]


def _seed_cells(seed: int):
    """The default matrix's three cells for one seed."""
    rng = np.random.default_rng(1000 + seed)
    quad = Quadratic(rng.uniform(0.5, 4.0, 6), center=rng.standard_normal(6))
    soft = SymmetricSoftmax(8, alpha=0.5)
    lse = make_logsumexp_instance(24, 8, 1e-2, seed=seed,
                                  declare_smoothness=True)
    solve_reference(lse)
    return [(quad, quad.center + 1.5 * rng.standard_normal(6)),
            (soft, rng.standard_normal(8)), (lse, rng.standard_normal(8))]


def _check_hasd_cell(obj, geom: LpGeometry, L: float, x0, iters: int,
                     report: InvariantReport, search_counts: list):
    """Run one instrumented optimization from the float array x0, checking
    every invariant against the live state after each accepted iteration.

    A failed coupling search ends the cell: it is recorded as a failure of
    the coupling_search row, the checks of the rows before it stand, and
    its message is returned (None when the run completed).
    """
    cfg = HasdConfig(L=L, geom=geom, max_iters=iters)
    ref = obj.reference_optimum
    row = report.row
    # bound once per cell: the loop below records up to 11 values a step
    invariants = [(name, row(name).record) for name in INVARIANTS]
    gain_range = row("gain_range").record
    economy = row("search_economy")
    ref_rows = [row(name) for name in ("psi_at_opt", "v_distance",
                                       "gap_model_bound", "grad_conversion")]
    psi_at_opt, v_distance, gap_model_bound, grad_conversion = (
        r.record for r in ref_rows)
    x_star, f_star, R = None, None, None
    if ref is not None:
        x_star = np.asarray(ref[0], dtype=float)
        f_star = float(ref[1])
        # np.linalg.norm's own formula for a 1-D float64 vector
        u = x0 - x_star
        R = math.sqrt(u.dot(u))
    d = obj.dim
    gain_cap = d ** (0.5 - (0.0 if math.isinf(geom.p) else 1.0 / geom.p))
    call_cap = None
    if R is not None and R > 0:
        call_cap = 2.0 * search_call_bound(geom.p, d, cfg.L, cfg.eps, R)

    min_dual_sq = math.inf
    try:
        for state, tr in iterate(obj, x0, cfg):
            if tr.iter == 0:  # the start point: no step taken yet
                continue
            min_dual_sq = min(min_dual_sq, tr.grad_dual ** 2)
            violations = tr.violations
            if violations is None:
                continue
            for name, record in invariants:
                record(violations[name])
            gain_range(max(1.0 - tr.G_running, tr.G_running - gain_cap, 0.0))
            if tr.iter >= 2:  # rows produced by an actual coupling search
                search_counts.append(tr.search_calls)
                if call_cap is None:
                    economy.skip()
                else:
                    economy.record(max(0.0, tr.search_calls - call_cap))
            if ref is None:
                for r in ref_rows:
                    r.skip()
                continue
            gap = tr.f - f_star
            psi_bound = 0.5 * R * R + tr.A * f_star
            psi_at_opt((state.psi(x_star) - psi_bound)
                       / max(abs(psi_bound), 1.0))
            u = state.v - x_star
            v_distance((math.sqrt(u.dot(u)) - R) / max(R, 1e-30))
            model_bound = R * R / (2.0 * tr.A)
            gap_model_bound((gap - model_bound) / max(model_bound, 1e-30))
            conv = 2.0 * cfg.L * max(gap, 0.0)
            grad_conversion((tr.grad_dual ** 2 - conv)
                            / max(tr.grad_dual ** 2, conv, 1e-20))
    except CouplingSearchError as exc:
        row("coupling_search").record(1.0)
        row("certificate").skip()
        row("min_grad_cubic").skip()
        return str(exc)
    row("coupling_search").record(0.0)
    if tr.iter == 0:  # stationary start: no step was taken
        return None

    T = state.t
    if ref is None or T == 0:
        row("certificate").skip()
        row("min_grad_cubic").skip()
        return None
    cert, cubic = rate_bounds(cfg.L, R, state.G_sum / T, T)
    row("certificate").record((tr.f - f_star - cert) / cert)
    if math.isfinite(min_dual_sq):
        row("min_grad_cubic").record((min_dual_sq - cubic) / cubic)
    return None


def _check_geometry(geom: LpGeometry, report: InvariantReport, seed: int):
    """Sampled checks of the norm toolbox in one geometry."""
    rng = np.random.default_rng(5000 + seed)
    p = geom.p
    for _ in range(20):
        d = int(rng.integers(2, 7))
        u = rng.standard_normal(d) * 10.0 ** rng.uniform(-2, 2)
        v = rng.standard_normal(d) * 10.0 ** rng.uniform(-2, 2)
        holder = lp_norm(u, p) * lp_norm(v, geom.p_dual)
        report.row("holder").record((abs(float(u @ v)) - holder)
                                    / max(holder, 1e-30))
        g = rng.standard_normal(d)
        y = rng.standard_normal(d)
        L = 10.0 ** rng.uniform(-1, 1)
        x = steepest_step(y, g, L, geom)
        delta = x - y
        base = subproblem_value(y, g, L, geom, x)
        if math.isinf(p):
            # 40 probes as one block, with the stream, points and bits of 40
            # draws of d and 40 subproblem_value calls: a stack of 1 x d
            # products is 40 dot products, as g @ (x - y) is one, and
            # float_power squares as a float's ** does
            cand = delta * (1.0 + 1e-4 * rng.standard_normal((40, d)))
            steps = (y + cand) - y
            vals = ((steps[:, None, :] @ g)[:, 0]
                    + L * np.float_power(lp_norm(steps, p, -1), 2.0))
            worst = max(0.0, float(np.maximum.reduce(base - vals)))
            report.row("step_beats_probes").record(worst / max(abs(base), 1e-12))
        else:
            nd = lp_norm(delta, p)
            resid = g + 2.0 * L * nd ** (2.0 - p) * np.sign(delta) * np.abs(delta) ** (p - 1.0)
            report.row("step_optimality").record(
                float(np.max(np.abs(resid))) / max(float(np.max(np.abs(g))), 1e-30))
    if not math.isinf(p) and p <= 4.0:
        for d in (2, 5, 10):
            for _ in range(5):
                z = rng.standard_normal(d)
                z[np.abs(z) < 0.2] += 0.5
                H = lp_sq_hessian(z, p)
                fd = _fd_hessian_of_norm_sq(z, p)
                report.row("hessian_fd").record(float(np.max(np.abs(H - fd))))
                M1, M2 = lp_sq_hessian_split(z, p)
                lo = min(float(np.linalg.eigvalsh(M1)[0]),
                         float(np.linalg.eigvalsh(M2)[0]))
                report.row("hessian_psd_split").record(max(0.0, -lo))
                ratio = lp_norm(H @ z, p) / lp_norm(z, p)
                bound = 2.0 / d ** ((p - 2.0) / 2.0)
                report.row("hessian_witness").record((bound - ratio) / bound)


def _fd_hessian_of_norm_sq(z, p, h=1e-4):
    """Central second differences of ||.||_p^2 at z.

    The 4 d^2 stencil points are one (4 d^2, d) block whose row norms are
    taken in one lp_norm call and squared as a float's ** squares, so each
    entry is the bits of a loop over (i, j) evaluating one point at a time.
    Point (i, j) steps coordinate i and then coordinate j, so at i = j it
    moves by two rounded steps of h.
    """
    d = z.size
    k = np.arange(d * d)
    i, j = np.divmod(k, d)
    stencil = np.empty((4, d * d, d))
    for block, (hi, hj) in zip(stencil, ((h, h), (h, -h), (-h, h), (-h, -h))):
        block[:] = z
        block[k, i] += hi
        block[k, j] += hj
    f = np.float_power(lp_norm(stencil, p, -1), 2.0)
    fpp, fpm, fmp, fmm = f.reshape(4, d, d)
    return (fpp - fpm - fmp + fmm) / (4.0 * h * h)


def check_invariants(cells=None, p_values=(2.0, 3.0, 4.0, math.inf),
                     iters: int = 40, l_scale: float = 1.0,
                     seeds=(0, 1)) -> InvariantReport:
    """Run every invariant over the (p x objective x seed) matrix.

    l_scale multiplies the smoothness constant handed to the optimizer
    (values below 1 deliberately violate the declared smoothness, which the
    progress check must catch).  A cell whose coupling search fails counts
    as a failure of the coupling_search row and is named in the report;
    the other cells still run.  Returns a report whose .ok drives the
    process exit code.  Raises ValueError when iters < 1.
    """
    if iters < 1:
        raise ValueError("iteration budget must be at least 1")
    report = InvariantReport(rows=[CheckRow(name, tol) for name, tol in _CHECKS])
    if cells is None:
        labelled = [(cell, "seed %d" % seed)
                    for seed in seeds for cell in _seed_cells(seed)]
    else:
        labelled = [(cell, "cell %d" % k) for k, cell in enumerate(cells)]
    search_counts = []
    for k, p in enumerate(p_values):
        geom = LpGeometry(p)
        _check_geometry(geom, report, seed=k)
        for (obj, x0), label in labelled:
            L = smoothness_bound(obj, geom) * l_scale
            failed = _check_hasd_cell(obj, geom, L, np.asarray(x0, dtype=float),
                                      iters, report, search_counts)
            if failed is not None:
                report.failed_searches.append("p=%g, %s, %s: %s" % (
                    p, type(obj).__name__, label, failed))
            report.cells += 1
    if search_counts:
        report.median_search_calls = float(np.median(search_counts))
        report.row("search_median").record(report.median_search_calls)
    return report
