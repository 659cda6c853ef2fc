"""Command line interface: run, tune, bench, check-invariants, gen-instance.

Exit codes: 0 success, 1 invariant failure, 2 configuration error.
"""

import argparse
import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

from .geometry import LpGeometry
from .harness import (_OBJECTIVES, BENCH_MU_VALUES, ExperimentConfig,
                      check_invariants, default_x0, make_objective,
                      run_experiment, tune_method, write_json)
from .objectives import (_object, save_instance, smoothness_bound,
                         solve_reference)


def _parse_float_list(text: str):
    return tuple(float(tok) for tok in str(text).split(",") if tok.strip())


def _parse_name_list(text: str):
    return tuple(tok.strip() for tok in str(text).split(",") if tok.strip())


# ExperimentConfig's fields, which flag destinations map straight onto,
# and their defaults, which are the bench's settings
_CFG_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


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


def _method_flags(sp, out_help=None, **defaults):
    """--p, --iters, --methods, --grid and --out, defaulting to defaults or
    to None, which leaves a --config file's entry or the field's default."""
    sp.add_argument("--p", type=float, default=defaults.get("p"),
                    help='geometry exponent ("inf" ok)')
    sp.add_argument("--iters", type=int, default=defaults.get("iters"))
    sp.add_argument("--methods", type=_parse_name_list,
                    default=defaults.get("methods"),
                    help="comma separated: hasd,gd,agd,lc,sd_p")
    sp.add_argument("--grid", type=_parse_float_list,
                    default=defaults.get("grid"))
    sp.add_argument("--out", dest="out_dir", default=defaults.get("out_dir"),
                    help=out_help)


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
                       action="store_true",
                       help="count invariant violations during the runs")

    tune_p = sub.add_parser("tune", help="report the best grid stepsize per method")
    _instance_flags(tune_p)
    _method_flags(tune_p, out_help="also write tune.json under this directory")

    bench_p = sub.add_parser("bench", help="full tuned comparison matrix "
                                           "(4 methods x 4 mu values)")
    for name in ("n", "d", "seed"):
        bench_p.add_argument("--" + name, type=int, default=_CFG_DEFAULTS[name])
    bench_p.add_argument("--mus", type=_parse_float_list,
                         default=BENCH_MU_VALUES)
    _method_flags(bench_p, **dict(_CFG_DEFAULTS, out_dir="bench"))

    chk = sub.add_parser("check-invariants",
                         help="run every invariant over the default matrix")
    chk.add_argument("--p", type=lambda s: tuple(float(t) for t in s.split(",")),
                     default=(2.0, 3.0, 4.0, math.inf), dest="p_values",
                     help='comma separated exponents, e.g. "2,4,inf"')
    chk.add_argument("--seeds", type=lambda s: tuple(int(t) for t in s.split(",")),
                     default=(0, 1))
    chk.add_argument("--iters", type=int, default=40)
    chk.add_argument("--l-scale", dest="l_scale", type=float, default=1.0,
                     help="scale on the smoothness constant handed to the "
                          "optimizer (values < 1 violate it on purpose)")

    gen = sub.add_parser("gen-instance", help="generate and store an instance")
    _instance_flags(gen, with_config=False)
    gen.add_argument("--solve-reference", dest="solve_ref", action="store_true",
                     help="attach a high-accuracy reference optimum")
    gen.add_argument("--out", required=True, metavar="FILE")
    return ap


def _config_from_args(args) -> ExperimentConfig:
    doc = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            doc = _object(json.load(fh), "config file")
        unknown = set(doc) - set(_CFG_DEFAULTS)
        if unknown:
            raise ValueError("unknown config keys: %s" % ", ".join(sorted(unknown)))
    flags = {name: val for name, val in vars(args).items()
             if name in _CFG_DEFAULTS and val is not None and val is not False}
    # the file's values convert on their own first, those a flag overrides too
    return replace(ExperimentConfig(**doc), **flags)


def cmd_run(args) -> int:
    cfg = _config_from_args(args)
    summary = run_experiment(cfg, tune_first=bool(getattr(args, "tune", False)))
    for mu, block in sorted(summary["mus"].items(), key=lambda kv: float(kv[0])):
        for m, entry in sorted(block["methods"].items()):
            print("mu=%-8s %-5s stepsize=%-8g final_f=%.10g gap=%.4e  -> %s"
                  % (mu, m, entry["stepsize"], entry["final_f"],
                     entry["final_gap"], entry["csv"]))
    print("outputs in %s (config %s)" % (cfg.out_dir, summary["config_hash"][:12]))
    fails = summary.get("invariant_failures_total", 0)
    if fails:
        print("invariant failures: %d" % fails, file=sys.stderr)
        return 1
    return 0


def cmd_tune(args) -> int:
    cfg = _config_from_args(args)
    obj = make_objective(cfg)
    geom = LpGeometry(cfg.p)
    L = smoothness_bound(obj, geom)
    x0 = default_x0(obj)
    result = {}
    for m in cfg.methods:
        best, all_div, finals = tune_method(m, obj, x0, geom, L, cfg.iters,
                                            cfg.grid)
        result[m] = {"stepsize": best, "all_divergent": all_div,
                     "final_f": finals[best]}
        flag = "  (all grid points diverged)" if all_div else ""
        print("%-5s stepsize=%-10g final_f=%.10g%s"
              % (m, best, finals[best], flag))
    if getattr(args, "out_dir", None):
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "tune.json", result)
    return 0


def cmd_bench(args) -> int:
    cfg = _config_from_args(args)
    summary = run_experiment(cfg, mu_values=list(args.mus), tune_first=True)
    for mu, block in sorted(summary["mus"].items(), key=lambda kv: float(kv[0])):
        parts = ["mu=%-8s" % mu]
        for m in cfg.methods:
            parts.append("%s=%.3e" % (m, block["methods"][m]["final_gap"]))
        print("  ".join(parts))
    print("bench written to %s" % cfg.out_dir)
    return 0


def cmd_check_invariants(args) -> int:
    report = check_invariants(p_values=args.p_values, iters=args.iters,
                              l_scale=args.l_scale, seeds=args.seeds)
    print(report.render())
    return 0 if report.ok else 1


def cmd_gen_instance(args) -> int:
    obj = make_objective(_config_from_args(args))
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
    ap = build_parser()
    args = ap.parse_args(argv)
    handlers = {"run": cmd_run, "tune": cmd_tune, "bench": cmd_bench,
                "check-invariants": cmd_check_invariants,
                "gen-instance": cmd_gen_instance}
    try:
        return handlers[args.verb](args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
