"""Per-layer tracing of the hasd package, installed from outside.

The tracer replaces the public functions of each hasd module with timing
wrappers for the duration of one traced workload body and restores the
originals afterwards; nothing inside ``src/`` knows about it.  Because
``harness``, ``core`` and ``baselines`` bind names such as ``run``,
``steepest_step`` and ``gd_run`` with ``from ... import``, a wrapper is
installed in every hasd module that holds the original object, and the
objective oracles are wrapped at class level.  ``install`` then proves
coverage: no hasd module may still reference an unwrapped target.

Spans are aggregated in memory as they close (count, inclusive time, self
time, and per-call durations where percentiles are reported).  Self time
is a span's duration minus the time covered by its child spans.
"""

import functools
import importlib
import math
import os
import sys
import time
from array import array

# (module, attribute) pairs wrapped as plain functions, with the span name
FUNCTION_TARGETS = (
    ("hasd.objectives", "solve_reference", "objectives.solve_reference"),
    ("hasd.objectives", "smoothness_bound", "objectives.smoothness_bound"),
    ("hasd.geometry", "steepest_step", "geometry.steepest_step"),
    ("hasd.geometry", "lp_norm", "geometry.lp_norm"),
    ("hasd.core", "run", "core.run"),
    ("hasd.core", "step", "core.step"),
    ("hasd.core", "find_coupling", "core.find_coupling"),
    ("hasd.baselines", "gd_run", "baselines.gd_run"),
    ("hasd.baselines", "agd_run", "baselines.agd_run"),
    ("hasd.baselines", "lc_run", "baselines.lc_run"),
    ("hasd.baselines", "sdp_run", "baselines.sdp_run"),
    ("hasd.harness", "run_experiment", "harness.run_experiment"),
    ("hasd.harness", "tune_method", "harness.tune_method"),
    ("hasd.harness", "run_method", "harness.run_method"),
    ("hasd.harness", "write_trace_csv", "harness.write_trace_csv"),
    ("hasd.harness", "check_invariants", "harness.check_invariants"),
    ("hasd.cli", "main", "cli.main"),
)

# objective classes whose value/gradient oracles are wrapped at class level
ORACLE_CLASSES = ("LogSumExpAffine", "Quadratic", "SymmetricSoftmax")

# spans whose per-call durations are kept for percentiles
_KEEP_DURATIONS = ("objectives.value", "objectives.gradient",
                   "geometry.steepest_step", "geometry.lp_norm", "core.step")

_BASELINES = ("baselines.gd_run", "baselines.agd_run", "baselines.lc_run",
              "baselines.sdp_run")


class CoverageError(RuntimeError):
    """A traced target is missing, or some hasd module escaped wrapping."""


class _Stat:
    __slots__ = ("calls", "total", "self_total", "durs", "self_durs")

    def __init__(self, keep: bool):
        self.calls = 0
        self.total = 0.0
        self.self_total = 0.0
        self.durs = array("d") if keep else None
        self.self_durs = array("d") if keep else None


class _Frame:
    __slots__ = ("name", "child", "grad", "search")

    def __init__(self, name):
        self.name = name
        self.child = 0.0
        self.grad = 0
        self.search = 0


class Tracer:
    """In-memory span aggregation plus the counters that need return values."""

    def __init__(self):
        self.stats = {}
        self._stack = []
        self._runs = []  # open core.run frames, innermost last
        self._patched = []  # (owner, attribute, original) for uninstall
        self.sites = {}  # span name -> every binding the wrapper replaced
        self.counters = {
            "search_probes": 0, "search_probes_max": 0, "search_accepts": 0,
            "search_early": 0, "search_errors": 0,
            "run_invariants": 0,
            "grid_runs": 0, "grid_divergent": 0,
            "run_method_outside": 0, "run_method_outside_s": 0.0,
            "csv_bytes": 0, "reference_grads": 0,
        }
        self.mismatches = []

    # ------------------------------------------------------------------
    # span recording

    def _stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = _Stat(name in _KEEP_DURATIONS)
        return st

    def wrap(self, name, fn, hook=None, is_run=False):
        """Return fn wrapped in a span named name.

        hook(frame, parent_name, duration, result, exc, args) runs after the
        span closes, with result None and exc set when fn raised.  A span
        with is_run set also collects the oracle calls and searches made
        beneath it (see _on_gradient and _on_search).
        """
        st = self._stat(name)
        stack = self._stack
        runs = self._runs
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1].name if stack else None
            frame = _Frame(name)
            stack.append(frame)
            if is_run:
                runs.append(frame)
            out = exc = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as err:
                exc = err
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                if is_run:
                    runs.pop()
                if stack:
                    stack[-1].child += dur
                own = dur - frame.child
                st.calls += 1
                st.total += dur
                st.self_total += own
                if st.durs is not None:
                    st.durs.append(dur)
                    st.self_durs.append(own)
                if hook is not None:
                    hook(frame, parent, dur, out, exc, args)

        return traced

    # ------------------------------------------------------------------
    # hooks that read return values

    def _on_gradient(self, frame, parent, dur, out, exc, args):
        if self._runs:
            self._runs[-1].grad += 1
        if parent == "objectives.solve_reference":
            self.counters["reference_grads"] += 1

    def _on_search(self, frame, parent, dur, out, exc, args):
        c = self.counters
        if self._runs:
            self._runs[-1].search += 1
        if exc is not None:
            calls = getattr(exc, "calls", 0)
            c["search_errors"] += 1
        else:
            calls = out.oracle_calls
            if out.early_converged:
                c["search_early"] += 1
            else:
                c["search_accepts"] += 1
        probes = calls // 2
        c["search_probes"] += probes
        c["search_probes_max"] = max(c["search_probes_max"], probes)

    def _on_tune(self, frame, parent, dur, out, exc, args):
        if exc is None:
            finals = out[2]
            self.counters["grid_divergent"] += sum(
                1 for v in finals.values() if not math.isfinite(v))

    def _on_run_method(self, frame, parent, dur, out, exc, args):
        c = self.counters
        if parent == "harness.tune_method":
            c["grid_runs"] += 1
        else:
            c["run_method_outside"] += 1
            c["run_method_outside_s"] += dur

    def _on_csv(self, frame, parent, dur, out, exc, args):
        if exc is None:
            self.counters["csv_bytes"] += os.path.getsize(args[0])

    def _on_run(self, frame, parent, dur, out, exc, args):
        """Reconcile the oracle calls and searches traced under one core.run
        span with the RunReport it returned."""
        if exc is not None:
            return
        self.counters["run_invariants"] += sum(out.invariants.values())
        searches = max(len(out.traces) - 2, 0)
        if frame.grad != out.grad_calls or frame.search != searches:
            self.mismatches.append(
                "core.run: traced %d gradient calls and %d searches, "
                "report says %d and %d"
                % (frame.grad, frame.search, out.grad_calls, searches))

    # ------------------------------------------------------------------
    # installation

    def install(self):
        """Wrap every target in every hasd module that binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for mod_name, _, _ in FUNCTION_TARGETS:
            importlib.import_module(mod_name)
        modules = {k: m for k, m in sys.modules.items()
                   if k == "hasd" or k.startswith("hasd.")}
        self.sites = {}
        hooks = {
            "core.find_coupling": self._on_search,
            "harness.tune_method": self._on_tune,
            "harness.run_method": self._on_run_method,
            "harness.write_trace_csv": self._on_csv,
            "core.run": self._on_run,
        }
        originals = []
        for mod_name, attr, span in FUNCTION_TARGETS:
            if mod_name not in modules:
                raise CoverageError("module %s is not imported" % mod_name)
            orig = getattr(modules[mod_name], attr)
            wrapper = self.wrap(span, orig, hooks.get(span),
                                is_run=(span == "core.run"))
            sites = self.sites[span] = []
            for mod_key, mod in modules.items():
                for name, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, name, wrapper)
                        self._patched.append((mod, name, orig))
                        sites.append("%s.%s" % (mod_key, name))
            if not sites:
                raise CoverageError("no module binds %s.%s" % (mod_name, attr))
            originals.append(orig)
        objectives = modules["hasd.objectives"]
        for cls_name in ORACLE_CLASSES:
            cls = getattr(objectives, cls_name)
            for meth, span, hook in (("value", "objectives.value", None),
                                     ("gradient", "objectives.gradient",
                                      self._on_gradient)):
                orig = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(span, orig, hook))
                self._patched.append((cls, meth, orig))
                self.sites.setdefault(span, []).append(
                    "hasd.objectives.%s.%s" % (cls_name, meth))
                originals.append(orig)
        self._prove_coverage(modules, originals)

    @staticmethod
    def _prove_coverage(modules, originals):
        ids = {id(o) for o in originals}
        for mod_name, mod in modules.items():
            for name, val in vars(mod).items():
                if id(val) in ids:
                    raise CoverageError("%s.%s escaped wrapping" % (mod_name, name))
                if isinstance(val, type):
                    for meth, member in vars(val).items():
                        if id(member) in ids:
                            raise CoverageError("%s.%s.%s escaped wrapping"
                                                % (mod_name, name, meth))

    def uninstall(self):
        for owner, name, orig in reversed(self._patched):
            setattr(owner, name, orig)
        self._patched = []

    # ------------------------------------------------------------------
    # reporting

    def spans(self, bodies: int) -> dict:
        """Every span's calls, inclusive and self seconds, per traced body."""
        n = max(bodies, 1)
        return {name: {"calls": st.calls / n, "s": st.total / n,
                       "self_s": st.self_total / n}
                for name, st in sorted(self.stats.items())}

    def per_layer(self, bodies: int) -> dict:
        """Per-layer metrics, per traced body: {name: (value, unit)}.

        A layer that a workload never enters reads 0 calls and 0 s.
        """
        n = max(bodies, 1)
        c = self.counters
        out = {}

        def st(name):
            return self.stats.get(name) or _Stat(name in _KEEP_DURATIONS)

        def pct(values, q):
            if not values:
                return 0.0
            s = sorted(values)
            return s[min(len(s) - 1, int(math.ceil(q * len(s))) - 1)] * 1e6

        for name in ("objectives.value", "objectives.gradient"):
            s = st(name)
            out[name + ".calls"] = (s.calls / n, "count")
            out[name + ".us_p50"] = (pct(s.durs, 0.50), "us")
            out[name + ".us_p99"] = (pct(s.durs, 0.99), "us")
            out[name + ".self_s"] = (s.self_total / n, "s")
        s = st("objectives.solve_reference")
        out["objectives.solve_reference.calls"] = (s.calls / n, "count")
        out["objectives.solve_reference.s"] = (s.total / n, "s")
        out["objectives.smoothness_bound.s"] = (
            st("objectives.smoothness_bound").total / n, "s")
        for name in ("geometry.steepest_step", "geometry.lp_norm"):
            s = st(name)
            out[name + ".calls"] = (s.calls / n, "count")
            out[name + ".us_p50"] = (pct(s.durs, 0.50), "us")
            out[name + ".self_s"] = (s.self_total / n, "s")
        s = st("core.run")
        out["core.run.calls"] = (s.calls / n, "count")
        out["core.run.self_s"] = (s.self_total / n, "s")
        out["core.run.invariant_violations"] = (c["run_invariants"] / n, "count")
        s = st("core.step")
        out["core.step.calls"] = (s.calls / n, "count")
        out["core.step.self_us_p50"] = (pct(s.self_durs, 0.50), "us")
        out["core.step.us_p99"] = (pct(s.durs, 0.99), "us")
        s = st("core.find_coupling")
        searches = s.calls
        out["core.find_coupling.calls"] = (searches / n, "count")
        out["core.find_coupling.self_s"] = (s.self_total / n, "s")
        out["core.find_coupling.probes_mean"] = (
            c["search_probes"] / searches if searches else 0.0, "count")
        out["core.find_coupling.probes_max"] = (c["search_probes_max"], "count")
        out["core.find_coupling.accept_ratio"] = (
            c["search_accepts"] / c["search_probes"] if c["search_probes"] else 0.0,
            "ratio")
        out["core.find_coupling.early_exits"] = (c["search_early"] / n, "count")
        out["core.find_coupling.errors"] = (c["search_errors"] / n, "count")
        out["baselines.runs"] = (sum(st(b).calls for b in _BASELINES) / n, "count")
        out["baselines.self_s"] = (
            sum(st(b).self_total for b in _BASELINES) / n, "s")
        s = st("harness.tune_method")
        out["harness.tune_method.calls"] = (s.calls / n, "count")
        out["harness.tune_method.s"] = (s.total / n, "s")
        out["harness.tune_method.grid_runs"] = (c["grid_runs"] / n, "count")
        out["harness.tune_method.divergent_ratio"] = (
            c["grid_divergent"] / c["grid_runs"] if c["grid_runs"] else 0.0, "ratio")
        out["harness.run_method.calls"] = (c["run_method_outside"] / n, "count")
        out["harness.run_method.s"] = (c["run_method_outside_s"] / n, "s")
        out["harness.run_experiment.self_s"] = (
            st("harness.run_experiment").self_total / n, "s")
        out["harness.write_trace_csv.s"] = (
            st("harness.write_trace_csv").total / n, "s")
        out["harness.write_trace_csv.bytes"] = (c["csv_bytes"] / n, "bytes")
        out["harness.check_invariants.self_s"] = (
            st("harness.check_invariants").self_total / n, "s")
        out["cli.main.self_s"] = (st("cli.main").self_total / n, "s")
        return out
