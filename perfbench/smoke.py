#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

For every workload, traced and untraced, it runs the real command with
tiny --params and checks that the last line is the result object with
exactly the contract's keys, that every metric BENCHMARK.json names is
emitted with its unit, and that all checks pass.  It then hands
solve_large and bench_default a deliberately wrong recorded value and
checks that the run fails (failed > 0, nonzero exit).  Last, it runs the
command in a directory holding only BENCHMARK.json and perfbench/, where
it must exit nonzero without printing a result.  Temporary files go under
.perfbench_out/smoke/.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_out" / "smoke"

TINY = {
    "bench_default": {"extra_argv": ["--n", "16", "--d", "4", "--iters", "8",
                                     "--mus", "0,0.01", "--grid", "0.5,1"]},
    "solve_large": {"n": 40, "d": 10, "iters": 10},
    "invariants_matrix": {"seeds_per_run": 1, "iters": 8},
}

# recorded values that cannot be right, keyed like perfbench/expected.json
WRONG = {
    "solve_large": {"seeds": {"0": {"final_f": 123.0}}},
    "bench_default": {"seeds": {"0": {"0.01": {"hasd": {"stepsize": 0.5,
                                                        "final_f": -1.0}}}}},
}


def run(workload, trace=0, expected=None, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "0", "--seconds", "0.2",
           "--trace", str(trace), "--params", json.dumps(TINY[workload])]
    if expected is not None:
        cmd += ["--expected", str(expected)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines and lines[-1].startswith("{")
                  else None)


def require(cond, *what):
    if not cond:
        raise AssertionError(" ".join(str(w) for w in what))


def check_result(workload, trace, proc, res, spec):
    where = "%s trace=%d" % (workload, trace)
    require(proc.returncode == 0,
            "%s exited %d:\n%s" % (where, proc.returncode, proc.stderr))
    require(res is not None, "%s printed no result" % where)
    require(set(res) == {"correct", "attempted", "failed", "metrics"}, where)
    require(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, where)
    want = spec["per_layer" if trace else "end_to_end"]
    require(set(res["metrics"]) == {m["name"] for m in want}, where)
    for m in want:
        got = res["metrics"][m["name"]]
        require(set(got) == {"value", "unit"}, (where, m["name"]))
        require(got["unit"] == m["unit"], (where, m["name"], got["unit"]))
        require(isinstance(got["value"], (int, float)), (where, m["name"]))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    WORK_DIR.mkdir(parents=True)

    for workload in TINY:
        for trace in (0, 1):
            proc, res = run(workload, trace)
            check_result(workload, trace, proc, res, spec)
            print("ok   %s trace=%d: %d metrics, %d checked operations"
                  % (workload, trace, len(res["metrics"]), res["attempted"]))

    wrong = WORK_DIR / "wrong_expected.json"
    wrong.write_text(json.dumps(WRONG))
    for workload in WRONG:
        proc, res = run(workload, expected=wrong)
        require(res is not None and not res["correct"], workload)
        require(res["failed"] > 0 and proc.returncode != 0, workload)
        print("ok   %s with a wrong recorded value: fail_ratio %d/%d"
              % (workload, res["failed"], res["attempted"]))

    bare = WORK_DIR / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, res = run("solve_large", cwd=bare)
    require(proc.returncode != 0 and res is None, "ran without the program")
    print("ok   without src/: exit %d, no result printed" % proc.returncode)
    shutil.rmtree(WORK_DIR)
    return 0


if __name__ == "__main__":
    sys.exit(main())
