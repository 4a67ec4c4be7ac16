"""Span tracing of spherecount's public functions, from outside the package.

The tracer replaces a function by a timing wrapper in the namespace where
its caller looks it up (``counting.build_mesh``, ``polynomials.evaluate``,
...), so no source file of the package changes.  Each wrapper pushes a
span on a stack; a span's self time is its duration minus the durations
of the wrapped spans directly inside it, both in process CPU time like the
end-to-end metrics.  A re-entrant call (``evaluate``
of a system calls ``evaluate`` of each row) runs inside its outer span and
is not counted again.

A wrapped name that no longer exists is recorded as missing and its
metrics read 0, so a refactor of the package degrades the per-layer report
instead of breaking the benchmark.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict

def _rows(args, kwargs, result):
    X = kwargs.get("X", args[1] if len(args) > 1 else None)
    return int(getattr(X, "shape", (0,))[0])


def _cells(args, kwargs, result):
    X = args[0]
    Y = kwargs.get("Y", args[1] if len(args) > 1 else None)
    return int(X.shape[0]) * int((X if Y is None else Y).shape[0])


def _mesh_points(args, kwargs, result):
    return int(result.count)


def _newton_steps(args, kwargs, result):
    return int(result.newton_steps)


# (module the caller looks the name up in, attribute, layer label, work
# counter); a counter maps (args, kwargs, result) to the work of one call
TARGETS = (
    ("spherecount.counting", "build_mesh", "mesh.build_mesh", _mesh_points),
    ("spherecount.condition", "build_mesh", "mesh.build_mesh", _mesh_points),
    ("spherecount.counting", "pairwise_angular", "mesh.pairwise_angular", _cells),
    ("spherecount.polynomials", "evaluate_many", "polynomials.evaluate_many", _rows),
    ("spherecount.polynomials", "jacobian_many", "polynomials.jacobian_many", _rows),
    ("spherecount.polynomials", "evaluate", "polynomials.evaluate", None),
    ("spherecount.polynomials", "jacobian", "polynomials.jacobian", None),
    ("spherecount.counting", "mu_many", "condition.mu_many", _rows),
    ("spherecount.condition", "kappa_many", "condition.kappa_many", _rows),
    ("spherecount.condition", "mu", "condition.mu", None),
    ("spherecount.counting", "chart_beta", "certification.chart_beta", None),
    ("spherecount.counting", "refine_zero", "certification.refine_zero", _newton_steps),
    ("spherecount.counting", "check_stop", "counting.check_stop", None),
)

# spans the benchmark opens itself around one op; their self time is the
# counting loop's own work (graph loops, union-find, masks, lifted gates)
COUNTING_ROOTS = ("counting.root_count", "counting.count_affine")


class _Frame:
    __slots__ = ("label", "start", "children")

    def __init__(self, label, start):
        self.label = label
        self.start = start
        self.children = 0.0


class Tracer:
    """Collects spans while ``active``; ``install``/``uninstall`` patch the package."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.active = False
        self.missing = []
        self._saved = []
        self._stack = []
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.work = defaultdict(int)
        self.mesh_events = []   # (start, t) of every build_mesh call
        self.refine_starts = []
        self.op_spans = []      # (label, start, end) of every op

    # -- patching ---------------------------------------------------------

    def install(self):
        self.missing = []
        for module_name, attr, label, counter in self.targets:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, label, counter))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, label, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if not tracer.active or (stack and stack[-1].label == label):
                return fn(*args, **kwargs)
            start = time.process_time()
            if label == "mesh.build_mesh":
                tracer.mesh_events.append((start, args[1] if len(args) > 1 else kwargs["t"]))
            elif label == "certification.refine_zero":
                tracer.refine_starts.append(start)
            stack.append(_Frame(label, start))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(stack.pop())
            tracer.calls[label] += 1
            if counter is not None:
                tracer.work[label] += counter(args, kwargs, result)
            return result

        return wrapper

    def _close(self, frame):
        duration = time.process_time() - frame.start
        self.self_s[frame.label] += duration - frame.children
        if self._stack:
            self._stack[-1].children += duration

    # -- spans the benchmark opens around each op ---------------------------

    def run_op(self, label, fn):
        """Run ``fn`` as one traced op under the root span ``label``."""
        start = time.process_time()
        self._stack.append(_Frame(label, start))
        self.active = True
        try:
            return fn()
        finally:
            self.active = False
            self._close(self._stack.pop())
            self.op_spans.append((label, start, time.process_time()))

    # -- derived figures ----------------------------------------------------

    def level_spans(self):
        """Seconds per refinement level, keyed by t.

        A level runs from its ``build_mesh`` call to the next level's, or to
        the op's first ``refine_zero`` call or end.  The levels of one op are
        its longest final run of ``build_mesh`` calls whose t rises by one,
        which leaves out the coarse probe grid ``count_affine`` builds first.
        """
        spans = defaultdict(list)
        for label, op_start, op_end in self.op_spans:
            if label not in COUNTING_ROOTS:
                continue
            events = [e for e in self.mesh_events if op_start <= e[0] <= op_end]
            first = len(events) - 1
            while first > 0 and events[first - 1][1] == events[first][1] - 1:
                first -= 1
            levels = events[first:] if events else []
            refines = [s for s in self.refine_starts if levels and s >= levels[-1][0]
                       and s <= op_end]
            stop = refines[0] if refines else op_end
            for (start, t), nxt in zip(levels, levels[1:] + [(stop, None)]):
                spans[t].append(nxt[0] - start)
        return spans


def layer_metrics(tracer, passes):
    """Per-layer figures per pass, from the spans of ``passes`` traced passes."""
    s, calls, work = tracer.self_s, tracer.calls, tracer.work
    spans = tracer.level_spans()

    def per_pass(value):
        return value / passes

    def level(t):
        return statistics.median(spans[t]) if spans.get(t) else 0.0

    mu_rows = work["condition.mu_many"]
    out = {
        "mesh.build_mesh.self_s": (per_pass(s["mesh.build_mesh"]), "s"),
        "mesh.build_mesh.calls": (per_pass(calls["mesh.build_mesh"]), "count"),
        "mesh.points": (per_pass(work["mesh.build_mesh"]), "count"),
        "mesh.pairwise_angular.self_s": (per_pass(s["mesh.pairwise_angular"]), "s"),
        "mesh.pairwise_angular.cells": (per_pass(work["mesh.pairwise_angular"]), "count"),
    }
    for name in ("evaluate_many", "jacobian_many"):
        label = f"polynomials.{name}"
        out[f"{label}.self_s"] = (per_pass(s[label]), "s")
        out[f"{label}.rows"] = (per_pass(work[label]), "count")
    for name in ("evaluate", "jacobian"):
        label = f"polynomials.{name}"
        out[f"{label}.self_s"] = (per_pass(s[label]), "s")
        out[f"{label}.calls"] = (per_pass(calls[label]), "count")
    for name in ("mu_many", "kappa_many"):
        label = f"condition.{name}"
        out[f"{label}.self_s"] = (per_pass(s[label]), "s")
        out[f"{label}.rows"] = (per_pass(work[label]), "count")
    out["condition.mu.calls"] = (per_pass(calls["condition.mu"]), "count")
    out["condition.useful_ratio"] = (
        calls["certification.chart_beta"] / mu_rows if mu_rows else 0.0, "ratio")
    for name in ("chart_beta", "refine_zero"):
        label = f"certification.{name}"
        out[f"{label}.self_s"] = (per_pass(s[label]), "s")
        out[f"{label}.calls"] = (per_pass(calls[label]), "count")
    out["certification.newton_steps"] = (
        per_pass(work["certification.refine_zero"]), "count")
    out["counting.levels"] = (per_pass(sum(len(v) for v in spans.values())), "count")
    out["counting.level_s.t8"] = (level(8), "s")
    out["counting.level_s.t9"] = (level(9), "s")
    out["counting.check_stop.self_s"] = (per_pass(s["counting.check_stop"]), "s")
    out["counting.self_s"] = (per_pass(sum(s[r] for r in COUNTING_ROOTS)), "s")
    out["trace.missing"] = (len(tracer.missing), "count")
    return out
