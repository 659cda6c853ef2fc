#!/usr/bin/env python3
"""Record the values the benchmark's correctness checks compare against.

    python3 perfbench/record.py --bench-seeds 0-9 --solve-seeds 0-19

Runs ``bench_default`` and ``solve_large`` at their default sizes for the
given seeds and writes the tuned stepsizes and final values to
perfbench/expected.json (merging with what is there).  Seeds without a
recorded entry are still checked for finite, nonnegative gaps, zero
invariant violations and descent; only the comparison with recorded
values is skipped for them.  Re-record only when a change is meant to
alter the iterates, and say so with the change.
"""

import argparse
import json
import sys

from run import SRC, check_origin, pin_blas_threads
from spread import parse_seeds
from workloads import EXPECTED_PATH, BenchDefault, SolveLarge


def record_bench(seed: int) -> dict:
    w = BenchDefault()
    st = w.setup(seed)
    code, _ = w.body(st)
    if code != 0:
        raise RuntimeError("hasd bench exited %d for seed %d" % (code, seed))
    with open(st["out"] / "summary.json") as fh:
        summary = json.load(fh)
    return {mu: {m: {"stepsize": e["stepsize"], "final_f": e["final_f"]}
                 for m, e in block["methods"].items()}
            for mu, block in summary["mus"].items()}


def record_solve(seed: int) -> dict:
    w = SolveLarge()
    st = w.setup(seed)
    rep = w.body(st)
    return {"final_f": rep.final_f}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench-seeds", type=parse_seeds, default=[])
    ap.add_argument("--solve-seeds", type=parse_seeds, default=[])
    args = ap.parse_args(argv)
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    check_origin()
    doc = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    for name, seeds, fn in (("bench_default", args.bench_seeds, record_bench),
                            ("solve_large", args.solve_seeds, record_solve)):
        entry = doc.setdefault(name, {"seeds": {}})
        for seed in seeds:
            entry["seeds"][str(seed)] = fn(seed)
            print("recorded %s seed %d" % (name, seed), flush=True)
    EXPECTED_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
