"""The three benchmark workloads: set-up, timed body, correctness checks.

Every workload reaches hasd only through its public API (``hasd.cli.main``
or ``hasd.core.run``), looked up on the module at call time so that the
tracer's wrappers are the ones called in a traced body.  Nothing here
imports numpy or hasd at module level: ``setup`` is what the benchmark
times as set-up, and it starts with the import.

Each ``check`` returns one (ok, message) pair per checked operation; the
run's ``attempted`` and ``failed`` counts (and fail_ratio) come from them.
Checks compare with tolerances, not byte digests, so ULP-level drift of
the arithmetic does not count as a failure.
"""

import contextlib
import io
import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# relative tolerance on recorded final values and stepsizes; looser than
# the 1e-12 the roadmap allows for final gaps, far tighter than any real
# change in the iterates
REL_TOL = 1e-9


def _close(a, b) -> bool:
    return math.isclose(float(a), float(b), rel_tol=REL_TOL, abs_tol=0.0)


def _quiet_main(argv):
    """hasd.cli.main with its stdout captured; returns (code, text)."""
    import hasd.cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = hasd.cli.main(list(argv))
    return code, buf.getvalue()


class BenchDefault:
    """``hasd bench`` at its defaults: the product's headline command."""

    name = "bench_default"
    # calibration chunk for the speed samples (speed.py): the tuning sweep
    # is Python-level dispatch around tiny oracles
    speed_kind = "interpreter"

    def __init__(self, extra_argv=()):
        self.extra_argv = tuple(extra_argv)

    def setup(self, seed: int) -> dict:
        import hasd.cli
        out = OUT_DIR / ("bench-%d" % seed)
        argv = ["bench", "--seed", str(seed), "--out", str(out)]
        argv += list(self.extra_argv)
        args = hasd.cli.build_parser().parse_args(argv)
        (out / "summary.json").unlink(missing_ok=True)
        return {"argv": argv, "out": out, "args": args}

    def sizes(self, st) -> dict:
        a = st["args"]
        return {"n": a.n, "d": a.d, "iters": a.iters, "p": str(a.p),
                "mus": list(a.mus), "methods": list(a.methods),
                "grid_points": len(a.grid)}

    def body(self, st):
        return _quiet_main(st["argv"])

    def check(self, st, result, expected) -> list:
        """Checks the summary.json this body wrote, and removes it so that
        the next body's check cannot read it."""
        st.pop("summary", None)
        code, _ = result
        ops = [(code == 0, "hasd bench exited %r" % code)]
        path = st["out"] / "summary.json"
        if code != 0 or not path.exists():
            ops.append((False, "hasd bench wrote no %s" % path))
            return ops
        with open(path) as fh:
            summary = json.load(fh)
        path.unlink()
        a = st["args"]
        for mu in a.mus:
            block = summary["mus"].get("%g" % mu, {"methods": {}})
            for m in a.methods:
                entry = block["methods"].get(m)
                where = "mu=%g %s" % (mu, m)
                if entry is None or "final_gap" not in entry:
                    ops.append((False, "%s: no result" % where))
                    continue
                gap = entry["final_gap"]
                bad = []
                if not (math.isfinite(gap) and gap >= 0.0):
                    bad.append("final_gap %r is not finite and >= 0" % gap)
                want = (expected or {}).get("%g" % mu, {}).get(m)
                if want is not None:
                    if not _close(entry["stepsize"], want["stepsize"]):
                        bad.append("stepsize %r, recorded %r"
                                   % (entry["stepsize"], want["stepsize"]))
                    if not _close(entry["final_f"], want["final_f"]):
                        bad.append("final_f %r, recorded %r"
                                   % (entry["final_f"], want["final_f"]))
                ops.append((not bad, "%s: %s" % (where, "; ".join(bad))))
        st["summary"] = summary
        return ops

    def grad_calls(self, st, result) -> int:
        """0 when the last body's check found no summary (a failed run)."""
        summary = st.get("summary", {"mus": {}})
        return sum(block["methods"]["hasd"]["grad_calls"]
                   for block in summary["mus"].values()
                   if "hasd" in block["methods"])

    def reconcile(self, st, tracer, results) -> list:
        a = st["args"]
        bodies = len(results)
        want = len(a.grid) * len(a.methods) * len(a.mus) * bodies
        got = tracer.counters["grid_runs"]
        if got != want:
            return ["harness.tune_method.grid_runs %d != %d grid points x "
                    "%d methods x %d mus x %d bodies"
                    % (got, len(a.grid), len(a.methods), len(a.mus), bodies)]
        return []


class SolveLarge:
    """Library ``core.run`` on a large LogSumExp instance at p = 4."""

    name = "solve_large"
    # gradient matvecs over a 32 MB matrix: memory traffic
    speed_kind = "memory"
    mu = 1e-2
    p = 4.0

    def __init__(self, n=4000, d=1000, iters=100):
        self.n, self.d, self.iters = n, d, iters

    def setup(self, seed: int) -> dict:
        import numpy as np

        import hasd
        obj = hasd.make_logsumexp_instance(n=self.n, d=self.d, mu=self.mu,
                                           seed=seed, declare_smoothness=True)
        geom = hasd.LpGeometry(self.p)
        L = hasd.smoothness_bound(obj, geom)
        cfg = hasd.HasdConfig(L=L, geom=geom, max_iters=self.iters)
        return {"obj": obj, "x0": np.zeros(obj.dim), "cfg": cfg, "L": L}

    def sizes(self, st) -> dict:
        return {"n": self.n, "d": self.d, "mu": self.mu, "p": self.p,
                "iters": self.iters, "L": st["L"],
                "A_bytes": int(st["obj"].A.nbytes)}

    def body(self, st):
        import hasd.core
        return hasd.core.run(st["obj"], st["x0"], st["cfg"])

    def check(self, st, rep, expected) -> list:
        if "f0" not in st:
            st["f0"] = float(st["obj"].value(st["x0"]))
        bad = []
        fails = {k: v for k, v in rep.invariants.items() if v}
        if fails:
            bad.append("invariant violations %r" % fails)
        if rep.iters != self.iters:
            bad.append("stopped after %d of %d iterations" % (rep.iters, self.iters))
        if not rep.final_f < st["f0"]:
            bad.append("final_f %r not below f(x0) %r" % (rep.final_f, st["f0"]))
        if expected is not None and not _close(rep.final_f, expected["final_f"]):
            bad.append("final_f %r, recorded %r" % (rep.final_f, expected["final_f"]))
        return [(not bad, "; ".join(bad))]

    def grad_calls(self, st, rep) -> int:
        return rep.grad_calls

    def reconcile(self, st, tracer, results) -> list:
        out = []
        grads = tracer.stats["objectives.gradient"].calls
        want = sum(rep.grad_calls for rep in results)
        if grads != want:
            out.append("objectives.gradient.calls %d != hasd_grad_calls %d"
                       % (grads, want))
        searches = tracer.stats["core.find_coupling"].calls
        want = sum(rep.iters - 1 for rep in results)
        if searches != want:
            out.append("core.find_coupling.calls %d != iterations - 1 = %d"
                       % (searches, want))
        return out


class InvariantsMatrix:
    """``hasd check-invariants`` over all four p values with references."""

    name = "invariants_matrix"
    # tiny oracles and per-step bookkeeping: Python-level dispatch
    speed_kind = "interpreter"

    def __init__(self, seeds_per_run=8, iters=40):
        self.seeds_per_run = seeds_per_run
        self.iters = iters

    def setup(self, seed: int) -> dict:
        import hasd.cli
        import hasd.harness
        seeds = [seed * self.seeds_per_run + i for i in range(self.seeds_per_run)]
        cells = hasd.harness.default_invariant_matrix(seeds)
        argv = ["check-invariants", "--seeds", ",".join(map(str, seeds)),
                "--iters", str(self.iters)]
        args = hasd.cli.build_parser().parse_args(argv)
        return {"seeds": seeds, "cells": cells, "argv": argv, "args": args}

    def sizes(self, st) -> dict:
        return {"seeds": st["seeds"], "cells_per_p": len(st["cells"]),
                "dims": sorted({obj.dim for obj, _ in st["cells"]}),
                "p_values": [str(p) for p in st["args"].p_values],
                "iters": self.iters}

    def body(self, st):
        return _quiet_main(st["argv"])

    def check(self, st, result, expected) -> list:
        code, text = result
        ok = code == 0 and "overall: PASS" in text
        if "grad_calls" not in st:
            st["grad_calls"] = self.count_grad_calls(st)
        return [(ok, "check-invariants exited %r:\n%s" % (code, text))]

    def count_grad_calls(self, st) -> int:
        """Gradient calls of the checker's own HASD runs: every gradient
        call of one traced body but the reference solves'.  The body is
        deterministic, so one untimed traced body per run gives the count
        of every timed one."""
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            self.body(st)
        finally:
            tracer.uninstall()
        return (tracer.stats["objectives.gradient"].calls
                - tracer.counters["reference_grads"])

    def grad_calls(self, st, result) -> int:
        return st["grad_calls"]

    def reconcile(self, st, tracer, results) -> list:
        steps = tracer.stats["core.step"].calls
        searches = tracer.stats["core.find_coupling"].calls
        if steps != searches:
            return ["core.find_coupling.calls %d != core.step.calls %d"
                    % (searches, steps)]
        return []


WORKLOADS = {w.name: w for w in (BenchDefault, SolveLarge, InvariantsMatrix)}
