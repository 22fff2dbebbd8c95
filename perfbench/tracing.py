"""Per-layer tracing for the benchmark's traced run.

The tracer wraps public functions and methods of discenv's modules from
outside the library, for the length of one operation, and keeps one span
(name, start, end, parent) per wrapped call in memory.  The timed runs
never install it.  A wrapped name that no longer exists (a renamed or
removed internal such as ``envelope._objective``) is recorded as missing;
the metrics that need it are reported missing and the run carries on.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

import numpy as np

_clock = time.perf_counter


def _points(args, out):
    return np.size(args[1])


def _pairs(args, out):
    return np.shape(args[1])[0] * len(args[0].samples)


def _feasible(args, out):
    return int(bool(out[1]))


# (span name, module, attribute path, patch every reference in discenv,
#  counter of the call).  Kernel functions are patched only on the
# dispatch module, so calls made inside a kernel do not count twice.
TARGETS = (
    ("kernels.eval_poly", "discenv.kernels", "eval_poly", False, _points),
    ("kernels.lognorm", "discenv.kernels", "lognorm", False, None),
    ("kernels.fs_density", "discenv.kernels", "fs_density", False, _points),
    ("discs.grid_build", "discenv.discs", "BoundaryGrid.__post_init__", True, None),
    ("discs.grid_build", "discenv.discs", "AreaQuadrature.__post_init__", True, None),
    ("discs.grid_build", "discenv.discs", "validation_grid", True, None),
    ("discs.min_norm_on_grid", "discenv.discs", "AnalyticDiscLift.min_norm_on_grid", True, None),
    ("discs.riesz_area_term", "discenv.discs", "riesz_area_term", True, None),
    ("projective.tube.clearance", "discenv.projective", "Tube.clearance_many", True, _pairs),
    ("projective.affine_ball.clearance", "discenv.projective", "AffineBall.clearance_many", True, None),
    ("functionals.sz_interior_jensen", "discenv.functionals", "sz_interior_jensen", True, None),
    ("functionals.omega_direct", "discenv.functionals", "omega_functional_direct", True, None),
    ("functionals.omega_lifted", "discenv.functionals", "omega_functional_lifted", True, None),
    ("envelope.minimize", "discenv.envelope", "minimize", True, None),
    ("envelope.objective", "discenv.envelope", "_objective", True, None),
    ("envelope.evaluate_witness", "discenv.envelope", "evaluate_witness", True, _feasible),
    ("envelope.candidate_library", "discenv.envelope", "CandidateLibrary.__init__", True, None),
    ("envelope.candidate_library", "discenv.envelope", "CandidateLibrary.lower_bound", True, None),
    ("hull.hull_test", "discenv.hull", "hull_test", True, None),
    ("cli.main", "discenv.cli", "main", True, None),
)

# (metric, unit, better, span name, field); every value is per operation
# except the derived fields us_per_call and ratio (count / calls).
SPAN_METRICS = (
    ("kernels.eval_poly.calls", "count", "lower", "kernels.eval_poly", "calls"),
    ("kernels.eval_poly.s", "s", "lower", "kernels.eval_poly", "s"),
    ("kernels.eval_poly.points", "count", "lower", "kernels.eval_poly", "count"),
    ("kernels.lognorm.s", "s", "lower", "kernels.lognorm", "s"),
    ("kernels.fs_density.s", "s", "lower", "kernels.fs_density", "s"),
    ("kernels.fs_density.points", "count", "lower", "kernels.fs_density", "count"),
    ("discs.grid_builds", "count", "lower", "discs.grid_build", "calls"),
    ("discs.grid_build.s", "s", "lower", "discs.grid_build", "s"),
    ("discs.min_norm_on_grid.s", "s", "lower", "discs.min_norm_on_grid", "s"),
    ("discs.riesz_area_term.calls", "count", "lower", "discs.riesz_area_term", "calls"),
    ("discs.riesz_area_term.s", "s", "lower", "discs.riesz_area_term", "s"),
    ("projective.tube.clearance.calls", "count", "lower", "projective.tube.clearance", "calls"),
    ("projective.tube.clearance.s", "s", "lower", "projective.tube.clearance", "s"),
    ("projective.tube.clearance.pairs", "count", "lower", "projective.tube.clearance", "count"),
    ("projective.affine_ball.clearance.s", "s", "lower", "projective.affine_ball.clearance", "s"),
    ("functionals.sz_interior_jensen.calls", "count", "lower", "functionals.sz_interior_jensen", "calls"),
    ("functionals.sz_interior_jensen.s", "s", "lower", "functionals.sz_interior_jensen", "s"),
    ("functionals.omega_direct.s", "s", "lower", "functionals.omega_direct", "s"),
    ("functionals.omega_lifted.s", "s", "lower", "functionals.omega_lifted", "s"),
    ("envelope.minimize.s", "s", "lower", "envelope.minimize", "s"),
    ("envelope.objective.calls", "count", "lower", "envelope.objective", "calls"),
    ("envelope.objective.self_s", "s", "lower", "envelope.objective", "self_s"),
    ("envelope.objective.us_per_call", "us", "lower", "envelope.objective", "us_per_call"),
    ("envelope.evaluate_witness.calls", "count", "lower", "envelope.evaluate_witness", "calls"),
    ("envelope.evaluate_witness.s", "s", "lower", "envelope.evaluate_witness", "s"),
    ("envelope.witness_feasible_ratio", "ratio", "higher", "envelope.evaluate_witness", "ratio"),
    ("envelope.candidate_library.s", "s", "lower", "envelope.candidate_library", "s"),
    ("hull.hull_test.s", "s", "lower", "hull.hull_test", "s"),
    ("cli.main.s", "s", "lower", "cli.main", "s"),
    ("cli.self_s", "s", "lower", "cli.main", "self_s"),
)

# metrics the benchmark computes from the operations' outputs (means over
# the traced operations that produce them, 0 where none does)
OUTPUT_METRICS = (
    ("envelope.gap", "1", "lower"),
    ("hull.cert_margin", "1", "higher"),
    ("cli.artifact_bytes", "bytes", "lower"),
)

OVERHEAD_METRIC = ("trace.overhead_s", "s", "lower")


def _resolve(module_name, path):
    """(owner, attribute, original) for 'func' or 'Class.method'."""
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    attr = parts[-1]
    if isinstance(owner, type):
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Spans of wrapped discenv calls.  The wrappers are in place only
    while call() runs an operation."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index]
        self.counts: dict = defaultdict(int)
        self.missing: dict = {}  # span name -> reason
        self.uncounted: dict = {}  # span name -> reason its counter failed
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original, wrapper)
        for name, module, path, every_ref, counter in TARGETS:
            try:
                owner, attr, orig = _resolve(module, path)
            except (ImportError, AttributeError, KeyError) as e:
                self.missing[name] = f"{module}.{path} not found ({e!r})"
                continue
            wrapper = self._wrap(name, orig, counter)
            if isinstance(owner, type) or not every_ref:
                self._patches.append((owner, attr, orig, wrapper))
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "discenv" or mod_name.startswith("discenv."):
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._patches.append((mod, key, orig, wrapper))

    def _wrap(self, name, fn, counter):
        spans, stack, counts, uncounted = self.spans, self._stack, self.counts, self.uncounted

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = _clock()
                stack.pop()
            if counter is not None:
                try:
                    counts[name] += counter(args, out)
                except (TypeError, IndexError, AttributeError) as e:
                    uncounted.setdefault(name, f"cannot count {name} calls ({e!r})")
            return out

        return traced

    def call(self, name, fn, *args):
        """Run fn(*args) under a root span with the wrappers installed."""
        for owner, attr, _orig, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            return self._wrap(name, fn, None)(*args)
        finally:
            for owner, attr, orig, _wrapper in self._patches:
                setattr(owner, attr, orig)

    def aggregate(self) -> dict:
        """span name -> {'calls', 's', 'self_s', 'count'} totals."""
        child = [0.0] * len(self.spans)
        for _name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        agg: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, t0, t1, _parent) in enumerate(self.spans):
            a = agg[name]
            a["calls"] += 1
            a["s"] += t1 - t0
            a["self_s"] += t1 - t0 - child[i]
        for name, n in self.counts.items():
            agg[name]["count"] = n
        return agg

    def metrics(self, n_ops: int) -> tuple[dict, list]:
        """Per-operation span metrics and the list of missing ones."""
        agg = self.aggregate()
        out, missing = {}, []
        for metric, unit, _better, span, field in SPAN_METRICS:
            reason = self.missing.get(span)
            if reason is None and field in ("count", "ratio"):
                reason = self.uncounted.get(span)
            if reason is not None:
                missing.append(f"{metric}: {reason}")
                continue
            a = agg.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0})
            if field == "us_per_call":
                value = 1e6 * a["s"] / a["calls"] if a["calls"] else 0.0
            elif field == "ratio":
                value = a.get("count", 0) / a["calls"] if a["calls"] else 0.0
            else:
                value = a.get(field, 0) / n_ops
            out[metric] = {"value": value, "unit": unit}
        return out, missing

    def save(self, path):
        """Write the spans as arrays (names, name index, start, end, parent)."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        np.savez(path, names=np.array(names),
                 name=np.array([index[s[0]] for s in self.spans], dtype=np.int32),
                 start=np.array([s[1] for s in self.spans]),
                 end=np.array([s[2] for s in self.spans]),
                 parent=np.array([s[3] for s in self.spans], dtype=np.int64))
