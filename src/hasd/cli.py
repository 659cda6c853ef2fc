"""Command line interface: run, tune, bench, check-invariants, gen-instance.

Exit codes: 0 success, 1 invariant failure, 2 configuration error.
"""

import argparse
import inspect
import json
import sys
from pathlib import Path

from .geometry import LpGeometry
from .harness import (_ALL_METHODS, _OBJECTIVES, ExperimentConfig,
                      at_grid_edge, check_invariants, default_x0,
                      make_objective, run_bench, run_experiment, tune_method,
                      write_json)
from .objectives import (SmoothnessUnavailable, _object, save_instance,
                         smoothness_bound, solve_reference)


def _list_of(convert):
    """Argparse type of a comma separated list; blank entries are skipped."""
    def comma_list(text):
        return tuple(convert(t.strip()) for t in text.split(",") if t.strip())
    return comma_list


def _defaults(fn) -> dict:
    """The default of each of fn's parameters that has one."""
    return {name: par.default
            for name, par in inspect.signature(fn).parameters.items()
            if par.default is not par.empty}


# ExperimentConfig's fields (flag destinations) and defaults (the bench's)
_CFG_DEFAULTS = _defaults(ExperimentConfig)


def _instance_flags(sp, with_config=True):
    if with_config:
        sp.add_argument("--config", metavar="FILE",
                        help="JSON file mirroring ExperimentConfig; "
                             "explicit flags override its entries")
    sp.add_argument("--objective", help=", ".join(_OBJECTIVES))
    sp.add_argument("--n", type=int, help="number of affine pieces (logsumexp)")
    sp.add_argument("--d", type=int, help="dimension")
    sp.add_argument("--mu", type=float, help="l2 regularization weight")
    sp.add_argument("--alpha", type=float, help="softmax temperature")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--instance", dest="instance_path", metavar="FILE",
                    help="load a stored instance instead of generating one")
    sp.add_argument("--ref-optimum", dest="ref_path", metavar="FILE",
                    help="JSON file with a stored reference optimum (x, f)")


def _method_flags(sp, out_help=None):
    """--p, --iters, --methods, --grid and --out, each None unless given."""
    sp.add_argument("--p", type=float, help='geometry exponent ("inf" ok)')
    sp.add_argument("--iters", type=int)
    sp.add_argument("--methods", type=_list_of(str),
                    help="comma separated: " + ",".join(_ALL_METHODS))
    sp.add_argument("--grid", type=_list_of(float))
    sp.add_argument("--out", dest="out_dir", help=out_help)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hasd",
        description="Steepest-descent acceleration experiments: run methods, "
                    "tune stepsizes, reproduce the comparison bench, and "
                    "check the per-iteration invariants.")
    sub = ap.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser("run", help="run the configured methods once each")
    _instance_flags(run_p)
    _method_flags(run_p)
    run_p.add_argument("--stepsize", type=float,
                       help="fixed stepsize for every method (default: theory)")
    run_p.add_argument("--tune", action="store_true",
                       help="grid-tune each method before the recorded run")
    run_p.add_argument("--check-invariants", dest="check_invariants",
                       action="store_true", default=None,
                       help="count invariant violations during the runs")

    tune_p = sub.add_parser("tune", help="report the best grid stepsize per method")
    _instance_flags(tune_p)
    _method_flags(tune_p, out_help="also write tune.json under this directory")

    bench = _defaults(run_bench)
    sizes = len(_CFG_DEFAULTS["methods"]), len(bench["mu_values"])
    bench_p = sub.add_parser("bench", help="full tuned comparison matrix "
                             "(%d methods x %d mu values)" % sizes)
    for name in ("n", "d", "seed"):
        bench_p.add_argument("--" + name, type=int)
    bench_p.add_argument("--mus", type=_list_of(float))
    _method_flags(bench_p)
    bench_p.set_defaults(**dict(_CFG_DEFAULTS, out_dir=bench["out_dir"]),
                         mus=bench["mu_values"])

    chk = sub.add_parser("check-invariants",
                         help="run every invariant over the default matrix")
    chk.add_argument("--p", type=_list_of(float), dest="p_values",
                     help='comma separated exponents, e.g. "2,4,inf"')
    chk.add_argument("--seeds", type=_list_of(int))
    chk.add_argument("--iters", type=int)
    chk.add_argument("--l-scale", dest="l_scale", type=float,
                     help="scale on the smoothness constant handed to the "
                          "optimizer (values < 1 violate it on purpose)")
    chk.set_defaults(**_defaults(check_invariants))

    gen = sub.add_parser("gen-instance", help="generate and store an instance")
    _instance_flags(gen, with_config=False)
    gen.add_argument("--solve-reference", dest="solve_ref", action="store_true",
                     help="attach a high-accuracy reference optimum")
    gen.add_argument("--out", required=True, metavar="FILE")
    return ap


def _given(args) -> dict:
    """The settings a --config file and the flags give, flags winning."""
    doc = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            doc = _object(json.load(fh), "config file")
        unknown = set(doc) - set(_CFG_DEFAULTS)
        if unknown:
            raise ValueError("unknown config keys: %s" % ", ".join(sorted(unknown)))
        ExperimentConfig(**doc)  # the file's values convert, overridden or not
    return dict(doc, **{name: val for name, val in vars(args).items()
                        if name in _CFG_DEFAULTS and val is not None})


def _report_tuning(summary):
    """One stdout line per tuned (method, mu) whose stepsize is a grid edge,
    one stderr line per (method, mu) whose every grid point diverged."""
    for mu, block in sorted(summary["mus"].items(), key=lambda kv: float(kv[0])):
        for m, entry in sorted(block["methods"].items()):
            if entry.get("at_grid_edge"):
                print("%s at mu=%s: tuned stepsize %g is at the grid's edge"
                      % (m, mu, entry["stepsize"]))
            if entry.get("all_divergent"):
                print("every stepsize diverged for %s at mu=%s; ran the "
                      "smallest grid point" % (m, mu), file=sys.stderr)


def cmd_run(args) -> int:
    cfg = ExperimentConfig(**_given(args))
    summary = run_experiment(cfg, tune_first=args.tune)
    for mu, block in sorted(summary["mus"].items(), key=lambda kv: float(kv[0])):
        for m, entry in sorted(block["methods"].items()):
            print("mu=%-8s %-5s stepsize=%-8g final_f=%.10g gap=%.4e  -> %s"
                  % (mu, m, entry["stepsize"], entry["final_f"],
                     entry["final_gap"], entry["csv"]))
    _report_tuning(summary)
    print("outputs in %s (config %s)" % (cfg.out_dir, summary["config_hash"][:12]))
    fails = summary.get("invariant_failures_total", 0)
    if fails:
        print("invariant failures: %d" % fails, file=sys.stderr)
        return 1
    return 0


def cmd_tune(args) -> int:
    given = _given(args)
    cfg = ExperimentConfig(**given)
    obj = make_objective(cfg)
    geom = LpGeometry(cfg.p)
    L = smoothness_bound(obj, geom)
    x0 = default_x0(obj)
    result = {}
    for m in cfg.methods:
        best, all_div, finals = tune_method(m, obj, x0, geom, L, cfg.iters,
                                            cfg.grid)
        result[m] = {"stepsize": best, "all_divergent": all_div,
                     "at_grid_edge": at_grid_edge(best, cfg.grid),
                     "final_f": finals[best]}
        flag = "  (all grid points diverged)" if all_div else ""
        print("%-5s stepsize=%-10g final_f=%.10g%s"
              % (m, best, finals[best], flag))
    _report_tuning({"mus": {"%g" % cfg.mu: {"methods": result}}})
    if "out_dir" in given:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "tune.json", result)
    return 0


def cmd_bench(args) -> int:
    summary = run_bench(mu_values=args.mus, **_given(args))
    for mu, block in sorted(summary["mus"].items(), key=lambda kv: float(kv[0])):
        gaps = ["%s=%.3e" % (m, block["methods"][m]["final_gap"])
                for m in summary["config"]["methods"]]
        print("  ".join(["mu=%-8s" % mu] + gaps))
    print("bench written to %s" % args.out_dir)
    _report_tuning(summary)
    return 0


def cmd_check_invariants(args) -> int:
    report = check_invariants(p_values=args.p_values, iters=args.iters,
                              l_scale=args.l_scale, seeds=args.seeds)
    print(report.render())
    return 0 if report.ok else 1


def cmd_gen_instance(args) -> int:
    obj = make_objective(ExperimentConfig(**_given(args)))
    if args.solve_ref:
        try:
            solve_reference(obj)
        except RuntimeError as exc:  # e.g. an objective unbounded below
            raise ValueError("no reference optimum: %s" % exc) from exc
    save_instance(obj, args.out)
    ref = " (with reference optimum)" if obj.reference_optimum is not None else ""
    print("wrote %s instance d=%d to %s%s"
          % (type(obj).__name__, obj.dim, args.out, ref))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": cmd_run, "tune": cmd_tune, "bench": cmd_bench,
                "check-invariants": cmd_check_invariants,
                "gen-instance": cmd_gen_instance}
    try:
        return handlers[args.verb](args)
    except (ValueError, OSError, SmoothnessUnavailable) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
