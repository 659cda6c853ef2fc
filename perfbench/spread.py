#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the run-to-run spread.

    python3 perfbench/spread.py --workload solve_large --seeds 0-9 --out perfbench/measured

Runs ``perfbench/run.py`` once per seed, one process after another, with
the run length from BENCHMARK.json (or --seconds).  With --trace 0 it
writes spread-<workload>.json: every end-to-end metric's values, median,
quartiles (statistics.quantiles(values, n=4)) and interquartile range as a
share of the median, beside the metric's bound.  With --trace 1 it writes
per_layer-<workload>.md: the per-layer table of each traced run, with the
tracing overhead.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import OUT_DIR

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str):
    """'0-9' or '0,3,5-7' to a list of seeds."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("seed %d failed (%d):\n%s%s"
                           % (seed, proc.returncode, proc.stdout, proc.stderr))
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    record = json.loads((OUT_DIR / ("result-%s-seed%d-trace%d.json"
                                    % (workload, seed, trace))).read_text())
    return {"seed": seed, "env": env, "result": json.loads(lines[-1]),
            "record": record}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-9"))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=str(HERE / "measured"))
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    runs = []
    for seed in args.seeds:
        runs.append(run_once(args.workload, seed, args.seconds, args.trace))
        res = runs[-1]["result"]
        print("seed %d: correct=%s attempted=%d failed=%d %s"
              % (seed, res["correct"], res["attempted"], res["failed"],
                 " ".join("%s=%.6g" % (k, v["value"])
                          for k, v in res["metrics"].items()
                          if not k.startswith(("objectives", "geometry",
                                               "core", "baselines", "harness",
                                               "cli")))),
              flush=True)

    if args.trace == 0:
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        summary = {"workload": args.workload, "seconds": args.seconds,
                   "seeds": args.seeds, "env": runs[0]["env"],
                   "correct": all(r["result"]["correct"] for r in runs),
                   "metrics": {}}
        for name, bound in bounds.items():
            s = spread([r["result"]["metrics"][name]["value"] for r in runs])
            s["bound"] = bound
            summary["metrics"][name] = s
            print("%-16s median %-12.6g IQR/median %.4f  (bound %g)"
                  % (name, s["median"], s["iqr_over_median"], bound))
        path = out / ("spread-%s.json" % args.workload)
        path.write_text(json.dumps(summary, indent=1) + "\n")
    else:
        names = [m["name"] for m in bench["per_layer"]]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        head = "| metric | unit | " + " | ".join("seed %d" % r["seed"] for r in runs) + " |"
        lines = ["# Per-layer metrics, %s (traced run, per traced body)"
                 % args.workload, "",
                 "Environment: `%s`" % json.dumps(runs[0]["env"], sort_keys=True),
                 "", head, "|" + " --- |" * (len(runs) + 2)]
        for name in names:
            vals = " | ".join("%.6g" % r["result"]["metrics"][name]["value"]
                              for r in runs)
            lines.append("| %s | %s | %s |" % (name, units[name], vals))
        lines += ["", "Every span, per traced body (calls; inclusive and self "
                  "seconds), seed %d:" % runs[0]["seed"], "",
                  "| span | calls | s | self_s |", "| --- | --- | --- | --- |"]
        for name, sp in runs[0]["record"]["spans"].items():
            lines.append("| %s | %.6g | %.6g | %.6g |"
                         % (name, sp["calls"], sp["s"], sp["self_s"]))
        path = out / ("per_layer-%s.md" % args.workload)
        path.write_text("\n".join(lines) + "\n")
    print("wrote %s" % path)
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
