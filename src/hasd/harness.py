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
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .baselines import BaselineConfig, agd_run, gd_run, lc_run, sdp_run
from .core import (INVARIANT_TOL, INVARIANTS, REFERENCE_CHECKS,
                   CouplingSearchError, HasdConfig, _run, rate_bounds, run)
from .geometry import LpGeometry
from .objectives import (Quadratic, SmoothnessUnavailable, SymmetricSoftmax,
                         _field, _finite, _seed, attach_reference,
                         load_instance, make_logsumexp_instance,
                         smoothness_bound, solve_reference)

# the 31-point tuning ladder {1, 2, 5} x 10^{-10..-1} plus 1.0
STEPSIZE_GRID = tuple(c * 10.0 ** e for e in range(-10, 0)
                      for c in (1.0, 2.0, 5.0)) + (1.0,)

_ALL_METHODS = ("hasd", "gd", "agd", "lc", "sd_p")
_OBJECTIVES = ("logsumexp", "softmax", "quadratic")

TRACE_COLUMNS = ("iter", "f", "gap", "grad_l2", "grad_dual", "rho", "theta",
                 "zeta", "search_calls", "A", "B", "G_running")


def _checked(ok, need: str, convert=None):
    """Converter returning convert(value), or value, if ok holds for it."""
    def check(value):
        x = value if convert is None else convert(value)
        if not ok(x):
            raise ValueError("must be %s, got %r" % (need, x))
        return x
    return check


def _one_of(names):
    return _checked(lambda v: v in names, "one of " + ", ".join(names))


def _each(convert):
    """Converter of a nonempty sequence to a tuple, entry by entry."""
    return _checked(bool, "nonempty", lambda v: tuple(map(convert, v)))


_positive = _checked(lambda x: x > 0, "positive", _finite)
_count = _checked(lambda k: k >= 1, "at least 1", operator.index)
_path = _checked(lambda v: v is None or isinstance(v, str), "a string or null")

# the one converter and range check of each ExperimentConfig field (so an
# integer path is refused, not opened as a file descriptor)
_CONVERTERS = {
    "objective": _one_of(_OBJECTIVES), "n": _count, "d": _count,
    "mu": _checked(lambda x: x >= 0, "nonnegative", _finite),
    "alpha": _positive, "seed": lambda v: _seed(operator.index(v)),
    "methods": _each(_one_of(_ALL_METHODS)),
    "p": lambda v: LpGeometry(v).p,  # reads "inf", refuses NaN and p < 2
    "iters": _count, "grid": _each(_positive),
    "stepsize": lambda v: None if v is None else _positive(v),
    "out_dir": _checked(lambda v: isinstance(v, str), "a string"),
    "check_invariants": _checked(lambda v: isinstance(v, bool), "a bool"),
    "ref_path": _path, "instance_path": _path,
}


@dataclass
class ExperimentConfig:
    """Everything one experiment needs; hashable to a provenance id.

    Every setting, from a flag, a --config file or a library call, is
    converted and range-checked here and only here, by its entry in
    _CONVERTERS, read or not (each enters config_hash); a value that fails
    is a ValueError beginning "config key <name>:".
    """

    objective: str = "logsumexp"
    n: int = 200
    d: int = 50
    mu: float = 0.0
    alpha: float = 1.0
    seed: int = 0
    methods: tuple = ("hasd", "gd", "agd", "lc")
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

    def to_dict(self) -> dict:
        """Canonical document for hashing; excludes out_dir, which names
        where results land but is no part of what the experiment is."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "out_dir"}
        doc["p"] = _strict_json(self.p)
        return doc


def _strict_json(doc):
    """doc with each non-finite float in it as "inf", "-inf" or "nan"."""
    if isinstance(doc, dict):
        return {k: _strict_json(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_strict_json(v) for v in doc]
    if isinstance(doc, float) and not math.isfinite(doc):
        return str(float(doc))
    return doc


def write_json(path, doc):
    """Write doc as strict JSON (see _strict_json), indented, keys sorted."""
    Path(path).write_text(json.dumps(_strict_json(doc), indent=1,
                                     sort_keys=True, allow_nan=False) + "\n")


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


@np.errstate(all="ignore")  # a divergent run overflows; its report says so
def run_method(method: str, obj, x0, geom: LpGeometry, L: float, iters: int,
               stepsize: float, rows: bool = True):
    """One report for one method, run in geom (each row's ||grad f||_{p*}
    too): tuning, recorded runs and the checker's cells build a run's
    config and silence numpy here and nowhere else.

    Stepsize semantics: gd and agd take the grid value as their literal
    stepsize alpha (their natural knob).  hasd and lc have no absolute
    stepsize; for them the grid value is a multiplicative scale on the
    theory coupling 1/L (hasd scales the steepest step, lc scales the
    alpha = 1/(2L) that drives both of its sequences).  sd_p takes alpha
    literally like gd.

    With rows off a run traces only its final iterate (final_x, final_f,
    iters and grad_calls stay exact): a baseline evaluates no gradient that
    only an unbuilt row would use, and hasd takes no f value, violation or
    row before its last point (its invariants are None).  A rows-off hasd
    run calls core._run, not core.run: perfbench's tracer checks every
    core.run span against the rows of the report it returns.
    """
    if method == "hasd":
        cfg = HasdConfig(L=L, geom=geom, max_iters=iters, step_scale=stepsize)
        return run(obj, x0, cfg) if rows else _run(obj, x0, cfg, rows=False)
    alpha = stepsize / (2.0 * L) if method == "lc" else stepsize
    runner = {"gd": gd_run, "agd": agd_run, "lc": lc_run, "sd_p": sdp_run}
    return runner[method](obj, x0, BaselineConfig(alpha, iters, geom), rows)


def tune_method(method: str, obj, x0, geom: LpGeometry, L: float, iters: int,
                grid) -> tuple[float, bool, dict]:
    """Sweep the grid, pick the stepsize with the smallest final value.

    Returns (best, all_divergent, final_values).  Divergent runs (non-finite
    final value, or a failed coupling search) rank as +inf; ties break
    toward the smaller stepsize.  If every point diverges the smallest grid
    point is returned and all_divergent is True.  Grid runs, hasd's
    included, trace only their final row, the one value ranked.
    """
    finals = {}
    for s in grid:
        try:
            f = float(run_method(method, obj, x0, geom, L, iters, s,
                                 rows=False).final_f)
        except CouplingSearchError:
            f = math.inf
        finals[s] = f if math.isfinite(f) else math.inf
    all_divergent = all(not math.isfinite(v) for v in finals.values())
    best = min(grid, key=lambda s: (finals[s], s))
    return float(best), all_divergent, finals


def at_grid_edge(stepsize: float, grid) -> bool:
    """Whether a tuned stepsize is the grid's smallest or largest point: a
    winner there may lie outside the grid."""
    return stepsize in (min(grid), max(grid))


def _fmt(v) -> str:
    # integers (iter, search_calls) print as str prints them
    return "" if v is None else "%.17g" % float(v)


def write_trace_csv(path, traces, cfg_hash: str):
    """Write one run's rows in the stable trace schema (17 significant
    digits)."""
    lines = ["# config_hash=%s" % cfg_hash, ",".join(TRACE_COLUMNS)]
    for tr in traces:
        lines.append(",".join(_fmt(getattr(tr, c)) for c in TRACE_COLUMNS))
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError("failed writing trace CSV %s: %s" % (path, exc)) from exc


def _reference_value(obj, x0, geom, L, iters, tuned, reports):
    """Reference value used for the gap column of one (instance, mu) block.

    Attached or analytically solvable references are exact, and so is the
    solve of an objective whose own mu is positive.  Otherwise
    (weakly regularized instances can be unbounded below) the reference is
    the best value seen by any method, including extended runs of the two
    accelerated methods at 4x the budget, minus a small positive margin.
    """
    if obj.reference_optimum is not None:
        return float(obj.reference_optimum[1]), "attached"
    if obj.mu > 0:
        try:
            return float(solve_reference(obj)[1]), "exact"
        except (RuntimeError, SmoothnessUnavailable):
            pass
    best = min(min(tr.f for tr in rep.traces) for rep in reports.values())
    for m in ("hasd", "agd"):
        if m in reports:
            try:
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
    Each recorded row's gap is set once, to its f minus the block's
    reference value, and all three read it from the row.

    A block, its CSVs and plot rows are labelled with its objective's mu
    (obj.mu: a loaded LogSumExp instance's own, 0 for quadratic and
    softmax), and where that differs from the configured mu the hashed
    config names it as its mu and mu_values.  A sweep of more than one mu
    over an instance file is a "config key 'mu_values':" ValueError.

    Without tuning, hasd runs at scale 1 and baselines at 1/L.  Nothing is
    written, and no directory made, until every objective, method config and
    run has been built, so a configuration error, an empty mu_values among
    them, leaves no output behind; so does a recorded run whose coupling
    search fails, raised as a ValueError naming the method and mu.  Returns
    the summary dict, written to disk by write_json (a diverged run's
    non-finite final_f and final_gap as strings).
    """
    mu_values = _field({"mu_values": [cfg.mu] if mu_values is None
                        else mu_values}, "mu_values", "config",
                       _each(_CONVERTERS["mu"]))
    if len(mu_values) > 1 and cfg.instance_path:
        raise ValueError("config key 'mu_values': an instance file has its "
                         "own mu, so it takes one run, not a sweep of %d"
                         % len(mu_values))
    if len(mu_values) > 1 and cfg.objective != "logsumexp":
        raise ValueError("a mu sweep needs the logsumexp objective")
    doc = cfg.to_dict()
    doc["mu_values"] = list(mu_values)
    doc["tuned"] = bool(tune_first)
    geom = LpGeometry(cfg.p)
    mus = {}
    plot_lines = ["mu,method,iter,log10_gap"]
    csvs = []  # (file name, rows) of each recorded run
    invariant_failures = 0

    for mu in mu_values:
        obj = make_objective(cfg, mu=mu)
        if obj.mu != mu:
            mu = obj.mu
            doc.update(mu=mu, mu_values=[mu])
        L = smoothness_bound(obj, geom)
        x0 = default_x0(obj)
        tuned, reports, block = {}, {}, {"L": L, "methods": {}}
        for m in cfg.methods:
            entry = block["methods"][m] = {}
            if tune_first:
                best, all_div, _ = tune_method(m, obj, x0, geom, L,
                                               cfg.iters, cfg.grid)
                entry["at_grid_edge"] = at_grid_edge(best, cfg.grid)
                if all_div:
                    entry["all_divergent"] = True
            elif cfg.stepsize is not None:
                best = float(cfg.stepsize)
            else:
                best = 1.0 if m in ("hasd", "lc") else 1.0 / L
            tuned[m] = best
            try:
                reports[m] = run_method(m, obj, x0, geom, L, cfg.iters, best)
            except CouplingSearchError as exc:
                raise ValueError("method %r at mu=%g: coupling search "
                                 "failed: %s" % (m, mu, exc)) from exc
        f_ref, ref_kind = _reference_value(obj, x0, geom, L, cfg.iters,
                                           tuned, reports)
        block["f_ref"] = f_ref
        block["ref_kind"] = ref_kind
        for m in cfg.methods:
            rep = reports[m]
            name = "%s_mu%g.csv" % (m, mu)
            csvs.append((name, rep.traces))
            for tr in rep.traces:
                tr.gap = tr.f - f_ref
                plot_lines.append("%g,%s,%d,%s"
                                  % (mu, m, tr.iter,
                                     _fmt(math.log10(max(tr.gap, 1e-300)))))
            entry = block["methods"][m]
            entry.update({"stepsize": tuned[m], "final_f": rep.final_f,
                          "final_gap": rep.gap, "iters": rep.iters,
                          "grad_calls": rep.grad_calls, "csv": name})
            if rep.G_mean is not None:
                entry["G_mean"] = rep.G_mean
            if cfg.check_invariants and rep.invariants is not None:
                entry["invariant_failures"] = rep.invariants
                invariant_failures += sum(rep.invariants.values())
        mus["%g" % mu] = block

    h = config_hash(doc)
    summary = {"config": doc, "config_hash": h, "mus": mus}
    if cfg.check_invariants:
        summary["invariant_failures_total"] = invariant_failures
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, traces in csvs:
        write_trace_csv(out / name, traces, h)
    try:
        (out / "plot_data.csv").write_text(
            "\n".join(["# config_hash=%s" % h] + plot_lines) + "\n")
        write_json(out / "summary.json", summary)
    except OSError as exc:
        raise OSError("failed writing experiment outputs under %s: %s"
                      % (out, exc)) from exc
    return summary


def run_bench(out_dir: str = "bench", mu_values=(0.0, 1e-6, 1e-4, 1e-2),
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
    return run_experiment(cfg, mu_values=mu_values, tune_first=True)


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
    (its p, objective and seed or cell index, and the search's message).

    It passes when no row failed and each per-step invariant (INVARIANTS)
    has at least one sample: a matrix whose cells take no step checks
    nothing, and an invariant row with no sample is shown as failed.
    """

    rows: list = field(default_factory=list)
    cells: int = 0
    median_search_calls: float | None = None
    failed_searches: list = field(default_factory=list)

    def __post_init__(self):
        self._by_name = {r.name: r for r in self.rows}

    @property
    def unchecked(self) -> list:
        """The names of the INVARIANTS rows with no sample."""
        return [name for name in INVARIANTS if self.row(name).samples == 0]

    @property
    def ok(self) -> bool:
        return all(r.failures == 0 for r in self.rows) and not self.unchecked

    def row(self, name: str) -> CheckRow:
        return self._by_name[name]

    def render(self) -> str:
        head = "%-22s %8s %8s %8s %12s %10s  %s" % (
            "check", "samples", "failed", "skipped", "worst", "tol", "status")
        out = [head, "-" * len(head)]
        unchecked = self.unchecked
        for r in self.rows:
            status = ("FAIL" if r.failures or r.name in unchecked
                      else "skip" if r.samples == 0 else "ok")
            out.append("%-22s %8d %8d %8d %12.3e %10.1e  %s" % (
                r.name, r.samples, r.failures, r.skipped, r.worst, r.tol, status))
        med = ("n/a" if self.median_search_calls is None
               else "%g" % self.median_search_calls)
        out.append("cells: %d   median search calls: %s   overall: %s"
                   % (self.cells, med, "PASS" if self.ok else "FAIL"))
        out.extend("coupling search failed: %s" % line
                   for line in self.failed_searches)
        return "\n".join(out)


_CHECKS = (tuple((name, INVARIANT_TOL) for name in INVARIANTS)
           + (("coupling_search", 0.0), ("search_median", 20.0))
           + tuple((name, INVARIANT_TOL) for name in REFERENCE_CHECKS
                   + ("certificate", "min_grad_cubic")))


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
    """Run hasd at step scale 1 from the float array x0 through run_method
    (a violated L can overflow; the checks say so) and record each folded
    row's violations (REFERENCE_CHECKS skip without a reference), its
    search calls from t = 2 on, and the end-of-run bounds rate_bounds
    gives from the report's R, G_mean and iters.  A
    failed coupling search fails the coupling_search row, the rows built
    before it (the error's traces) stand, and its message is returned.
    """
    row = report.row
    try:
        rep = run_method("hasd", obj, x0, geom, L, iters, 1.0)
        traces, failed = rep.traces, None
    except CouplingSearchError as exc:
        traces, failed = exc.traces, str(exc)
    ref_names = () if obj.reference_optimum is None else REFERENCE_CHECKS
    # bound once per cell: the loop below records up to 9 values a step
    records = [(name, row(name).record) for name in INVARIANTS + ref_names]
    skips = [] if ref_names else [row(name).skip for name in REFERENCE_CHECKS]
    for tr in traces[1:]:  # row 0 is the start point: no step taken yet
        if tr.violations is None:
            continue
        for name, record in records:
            record(tr.violations[name])
        if tr.iter >= 2:  # rows produced by an actual coupling search
            search_counts.append(tr.search_calls)
        for skip in skips:
            skip()
    row("coupling_search").record(float(failed is not None))
    if failed is None and traces[-1].iter == 0:  # stationary start
        return None
    if failed is not None or rep.R is None or not rep.G_mean:  # no ref or step
        row("certificate").skip()
        row("min_grad_cubic").skip()
        return failed
    cert, cubic = rate_bounds(L, rep.R, rep.G_mean, rep.iters)
    row("certificate").record(_excess(rep.gap, cert))
    min_dual_sq = min([math.inf] + [tr.grad_dual * tr.grad_dual
                                    for tr in traces[1:]])
    if math.isfinite(min_dual_sq):
        row("min_grad_cubic").record(_excess(min_dual_sq, cubic))
    return None


def _excess(value: float, bound: float) -> float:
    """(value - bound) / bound; a bound that underflowed to 0 fails (inf),
    and a finite value under one that overflowed to inf passes (-1, the
    limit)."""
    if bound == math.inf and math.isfinite(value):
        return -1.0
    return (value - bound) / bound if bound else math.inf


def check_invariants(cells=None, p_values=(2.0, 3.0, 4.0, math.inf),
                     iters: int = 40, l_scale: float = 1.0,
                     seeds=(0, 1)) -> InvariantReport:
    """Run every invariant over the (p x objective x seed) matrix.

    l_scale multiplies the smoothness constant handed to the optimizer
    (values below 1 deliberately violate the declared smoothness, which the
    progress check must catch).  A cell whose coupling search fails counts
    as a failure of the coupling_search row and is named in the report;
    the other cells still run.  Returns a report whose .ok drives the
    process exit code.  A setting that fails to convert, an empty cells,
    p_values or seeds among them, is a "config key <name>:" ValueError.
    """
    cells, p_values, iters, l_scale, seeds = (
        _field({key: value}, key, "config", convert) for key, value, convert in (
            ("cells", cells, lambda v: None if v is None else _each(tuple)(v)),
            ("p_values", p_values, _each(_CONVERTERS["p"])),
            ("iters", iters, _count), ("l_scale", l_scale, _positive),
            ("seeds", seeds, _each(_CONVERTERS["seed"]))))
    report = InvariantReport(rows=[CheckRow(name, tol) for name, tol in _CHECKS])
    if cells is None:
        labelled = [(cell, "seed %d" % seed)
                    for seed in seeds for cell in _seed_cells(seed)]
    else:
        labelled = [(cell, "cell %d" % k) for k, cell in enumerate(cells)]
    search_counts = []
    for p in p_values:
        geom = LpGeometry(p)
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
