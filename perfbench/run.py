#!/usr/bin/env python3
"""hasd benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload bench_default --seed 0 --seconds 20 --trace 0

Runs one workload in a closed loop (one caller, single process) for at
least --seconds seconds and prints, as the last line of standard output,
one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mb, hasd_grad_calls; the two times scaled to a reference machine
speed sampled while they run, see speed.py); with --trace 1 they are the
per-layer ones, from bodies run with the tracer installed, alternated
with untraced bodies so that the tracing overhead is measured in the same
run.  The environment is printed (and written with the full result
under .perfbench_out/) on every run.  See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Sampler
from workloads import EXPECTED_PATH, OUT_DIR, ROOT, WORKLOADS

SRC = ROOT / "src"

# fresh processes timed per run for setup_s; the median is reported
SETUP_SAMPLES = 5
# one BLAS thread: a second one would run on the other vCPU, whose
# contention the single-threaded speed samples do not see
MAX_BLAS_THREADS = 1
# seconds between speed samples while a body or a set-up runs
BODY_INTERVAL = 0.05
SETUP_INTERVAL = 0.02
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> int:
    """Pin BLAS to one thread before numpy is imported."""
    n = min(MAX_BLAS_THREADS, os.cpu_count() or 1)
    for var in _THREAD_VARS:
        os.environ[var] = str(n)
    return n


def check_origin():
    """Refuse to measure a hasd that is not this checkout's src/hasd."""
    import hasd
    origin = Path(hasd.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError("hasd was imported from %s, not from %s" % (origin, SRC))


def environment(threads: int, sizes: dict) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (AttributeError, KeyError, TypeError):
        blas = None
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "blas_threads": threads,
            "blas_thread_vars": {v: os.environ.get(v) for v in _THREAD_VARS},
            "l3_cache": l3, "machine": platform.machine(),
            "processor": platform.processor() or None, "sizes": sizes}


def setup_probe(args) -> int:
    """Child-process mode: time import plus instance construction once,
    sampling speed with the pure-Python chunk, which imports nothing."""
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload](**json.loads(args.params))
    sampler = Sampler("python", SETUP_INTERVAL)
    with sampler:
        workload.setup(args.seed)
    check_origin()
    print(json.dumps({"setup_s": sampler.normalised_s, "raw_s": sampler.raw_s}))
    return 0


def measure_setup(args) -> list:
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--params", args.params]
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + proc.stderr)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def load_expected(args) -> dict | None:
    """Recorded values for this workload and seed, if any.

    The recorded file applies to the default sizes only; with --params the
    checks that need no recorded values still run unless --expected names
    a file made for those sizes.
    """
    if args.expected is None and json.loads(args.params):
        return None
    path = Path(args.expected) if args.expected else EXPECTED_PATH
    with open(path) as fh:
        doc = json.load(fh)
    return doc.get(args.workload, {}).get("seeds", {}).get(str(args.seed))


def run(args, threads: int) -> int:
    workload = WORKLOADS[args.workload](**json.loads(args.params))
    expected = load_expected(args)
    setup_samples = measure_setup(args)

    sys.path.insert(0, str(SRC))
    st = workload.setup(args.seed)
    check_origin()
    env = environment(threads, workload.sizes(st))
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    ops, walls, raw_walls, traced_walls, traced_results = [], [], [], [], []
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    start = time.perf_counter()
    while True:
        if tracer is None:
            sampler = Sampler(workload.speed_kind, BODY_INTERVAL)
            with sampler:
                result = workload.body(st)
            walls.append(sampler.normalised_s)
            raw_walls.append(sampler.raw_s)
        else:
            t0 = time.perf_counter()
            result = workload.body(st)
            raw_walls.append(time.perf_counter() - t0)
        ops += workload.check(st, result, expected)
        if tracer is not None:
            tracer.install()
            try:
                t0 = time.perf_counter()
                traced = workload.body(st)
                traced_walls.append(time.perf_counter() - t0)
            finally:
                tracer.uninstall()
            traced_results.append(traced)
            ops += workload.check(st, traced, expected)
        if time.perf_counter() - start >= args.seconds:
            break

    mismatches = []
    if tracer is None:
        metrics = {
            # mean body time over the run, at the reference speed
            "wall_s": (statistics.fmean(walls), "s"),
            "setup_s": (statistics.median(s["setup_s"] for s in setup_samples),
                        "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
            "hasd_grad_calls": (workload.grad_calls(st, result), "count"),
        }
    else:
        mismatches = tracer.mismatches + workload.reconcile(st, tracer,
                                                            traced_results)
        ops.append((not mismatches, "trace reconciliation: "
                    + "; ".join(mismatches)))
        metrics = tracer.per_layer(len(traced_walls))
        traced_wall = statistics.fmean(traced_walls)
        wall = statistics.fmean(raw_walls)
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.untraced_wall_s"] = (wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - wall, "s")
        metrics["trace.reconcile_mismatches"] = (len(mismatches), "count")

    failed = [msg for ok, msg in ops if not ok]
    for msg in failed:
        print("check failed: %s" % msg, file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "params": json.loads(args.params),
        "env": env, "bodies": len(raw_walls), "walls_s": walls,
        "raw_walls_s": raw_walls,
        "traced_walls_s": traced_walls, "setup_samples_s": setup_samples,
        "fail_ratio": len(failed) / len(ops), "failures": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if tracer is not None:
        record["wrapped_sites"] = tracer.sites
        record["spans"] = tracer.spans(len(traced_walls))
        record["mismatches"] = mismatches
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / ("result-%s-seed%d-trace%d.json"
                      % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print("%s seed %d: %d bodies, %d checked operations, fail_ratio %g"
          % (args.workload, args.seed, len(raw_walls), len(ops),
             len(failed) / len(ops)))
    for name, (value, unit) in metrics.items():
        print("  %-40s %14.6g %s" % (name, value, unit))
    print("  %-40s %14.6g %s" % ("fail_ratio", len(failed) / len(ops), "ratio"))
    if tracer is None:
        print("  %-40s %14.6g %s" % ("wall_s unscaled", statistics.fmean(raw_walls), "s"))
        print("  %-40s %14.6g %s" % ("setup_s unscaled", statistics.median(
            s["raw_s"] for s in setup_samples), "s"))
    print(json.dumps({
        "correct": not failed, "attempted": len(ops), "failed": len(failed),
        "metrics": record["metrics"]}), flush=True)
    return 0 if not failed else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--params", default="{}",
                    help="JSON object of workload size overrides (smoke tests)")
    ap.add_argument("--expected", default=None,
                    help="JSON file of recorded values to check against")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.seconds is None and not args.setup_probe:
        ap.error("--seconds is required")
    threads = pin_blas_threads()
    if args.setup_probe:
        return setup_probe(args)
    return run(args, threads)


if __name__ == "__main__":
    sys.exit(main())
