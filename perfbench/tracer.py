"""Outside-in span tracer for the matspectra layers.

The tracer replaces each traced function at every name a caller looks it
up under: each ``matspectra`` module global (and package attribute) bound
to the original function object is rebound to a wrapper for the duration
of a ``with Tracer():`` block and restored on exit. ``spectrum`` imports
``limit_ratio_batch`` by name, so the sweep calls
``spectrum.limit_ratio_batch``; patching ``asymptotics.limit_ratio_batch``
alone would miss every call. Metrics are named after the defining module.

Spans (id, name, parent, start, end) are kept in memory and analysed or
written out after the block. Worker threads whose own stack is empty
attribute their spans to the innermost span open on the thread that
created the tracer, which is the caller blocked on the pool.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

SPAN_LAYERS = (
    "cli.main",
    "cli._run_checks",
    "cli.render_svg",
    "model.load_operator",
    "model.validate",
    "schur.build_schur",
    "spectrum.essential_spectrum",
    "spectrum.regular_part",
    "spectrum.singular_part",
    "spectrum._fit_side",
    "spectrum._solve_at",
    "spectrum._companion_roots",
    "spectrum._polish_batch",
    "spectrum._refinement_targets",
    "spectrum._merge_sides",
    "spectrum._assign_branches",
    "spectrum._flag_singular",
    "spectrum.write_csv",
    "asymptotics.limit_points_at_infinity",
    "asymptotics.limit_ratio",
    "asymptotics.limit_ratio_batch",
    "asymptotics.check_assumptions",
    "expr.evaluate_array",
    "expr.differentiate",
    "expr.simplify",
)
"""Layers that get a span per call; each yields calls, busy_s and self_s."""

SEGMENT_CHECK = "spectrum._segment_needs_split"
"""Called ~10^5-10^6 times per sweep, so it is counted, not spanned."""

SKIP_LOGGER = "spectrum._log_skip"
SKIP_KINDS = ("LimitSkip", "PolishSkip", "RecheckSkip", "IdentitySkip")

EXTRA_METRICS = (
    f"{SEGMENT_CHECK}.calls",
    "asymptotics.limit_ratio_batch.lams",
    "asymptotics.limit_ratio_batch.failed",
    "spectrum._polish_batch.attempted",
    "spectrum._polish_batch.accepted",
    "spectrum._polish_batch.accept_ratio",
    "spectrum.singular_part.accounted",
    "cli._run_checks.concurrency",
    *(f"skips.{kind}" for kind in SKIP_KINDS),
    "trace.wall_s",
    "trace.overhead_s",
)


def per_layer_metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = [f"{layer}.{field}" for layer in SPAN_LAYERS
             for field in ("calls", "busy_s", "self_s")]
    return names + list(EXTRA_METRICS)


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".accounted", ".concurrency")):
        return "ratio"
    return "count"


def _package_modules() -> list:
    return [module for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == "matspectra" or name.startswith("matspectra."))]


def _original(layer: str):
    module_name, func_name = layer.split(".")
    return getattr(importlib.import_module(f"matspectra.{module_name}"),
                   func_name)


class Tracer:
    """Context manager that traces every listed layer while it is open."""

    def __init__(self):
        self.spans: list[tuple[int, str, int | None, float, float]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._owner = threading.get_ident()
        self._owner_stack: list[tuple[int, str]] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for layer in SPAN_LAYERS:
            original = _original(layer)
            wrappers[id(original)] = (original, self._span_wrapper(
                layer, original, _RESULT_HOOKS.get(layer)))
        segment = _original(SEGMENT_CHECK)
        wrappers[id(segment)] = (segment, self._count_wrapper(segment))
        skip = _original(SKIP_LOGGER)
        wrappers[id(skip)] = (skip, self._skip_wrapper(skip))
        try:
            for module in _package_modules():
                for attr, value in list(vars(module).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(module, attr, hit[1])
                        self._patched.append((module, attr, value))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- wrappers ---------------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, layer, fn, on_result):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][1] == layer:
                # Recursion through the module global: one span covers it.
                return fn(*args, **kwargs)
            if stack:
                parent = stack[-1][0]
            else:
                owner = self._owner_stack
                parent = owner[-1][0] if owner else None
            span_id = next(self._ids)
            stack.append((span_id, layer))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, layer, parent, start, end))
            if on_result is not None:
                self._add(on_result(args, kwargs, result))
            return result
        return traced

    def _count_wrapper(self, fn):
        key = f"{SEGMENT_CHECK}.calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with self._lock:
                self.counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _skip_wrapper(self, fn):
        @functools.wraps(fn)
        def counted(skips, kind, *args, **kwargs):
            with self._lock:
                self.counts[f"skips.{kind}"] += 1
            return fn(skips, kind, *args, **kwargs)
        return counted

    def _add(self, increments: dict) -> None:
        with self._lock:
            self.counts.update(increments)

    # -- analysis ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """calls/busy_s/self_s per span layer plus every counter."""
        return layer_metrics(self.spans, self.counts)

    def write_spans(self, path) -> None:
        """Write the spans as JSON: times in seconds from the first start."""
        base = min((s[3] for s in self.spans), default=0.0)
        rows = [[sid, name, parent, round(start - base, 9),
                 round(end - base, 9)]
                for sid, name, parent, start, end in sorted(self.spans)]
        payload = {"fields": ["id", "name", "parent", "start_s", "end_s"],
                   "spans": rows}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def _batch_counts(args, kwargs, result) -> dict:
    _values, status = result
    return {"asymptotics.limit_ratio_batch.lams": len(status),
            "asymptotics.limit_ratio_batch.failed":
                int((status != "ok").sum())}


def _polish_counts(args, kwargs, result) -> dict:
    accepted, _lam = result
    return {"spectrum._polish_batch.attempted": int(accepted.size),
            "spectrum._polish_batch.accepted": int(accepted.sum())}


_RESULT_HOOKS = {
    "asymptotics.limit_ratio_batch": _batch_counts,
    "spectrum._polish_batch": _polish_counts,
}


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, _name, parent, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _name, _parent, start, end in spans:
        clipped = [(max(s, start), min(e, end)) for s, e in children[sid]]
        out[sid] = (end - start) - _covered(
            [(s, e) for s, e in clipped if e > s])
    return out


def subtree_accounting(spans, selfs: dict[int, float],
                       root_layer: str) -> float:
    """(sum of self times in each root span's subtree) / (root busy time).

    Reads 1.0 when the traced children plus the root's own self time
    account for the root's busy time; 0.0 when the root never ran.
    """
    kids: dict[int, list[int]] = defaultdict(list)
    for sid, _name, parent, _start, _end in spans:
        if parent is not None:
            kids[parent].append(sid)
    busy = accounted = 0.0
    for sid, name, _parent, start, end in spans:
        if name != root_layer:
            continue
        busy += end - start
        todo = [sid]
        while todo:
            node = todo.pop()
            accounted += selfs[node]
            todo.extend(kids[node])
    return accounted / busy if busy > 0.0 else 0.0


def layer_metrics(spans, counts) -> dict[str, float]:
    selfs = self_times(spans)
    metrics: dict[str, float] = {}
    for layer in SPAN_LAYERS:
        metrics[f"{layer}.calls"] = 0
        metrics[f"{layer}.busy_s"] = 0.0
        metrics[f"{layer}.self_s"] = 0.0
    for sid, name, _parent, start, end in spans:
        metrics[f"{name}.calls"] += 1
        metrics[f"{name}.busy_s"] += end - start
        metrics[f"{name}.self_s"] += selfs[sid]
    for name in EXTRA_METRICS:
        metrics.setdefault(name, counts.get(name, 0))
    attempted = counts.get("spectrum._polish_batch.attempted", 0)
    metrics["spectrum._polish_batch.accept_ratio"] = (
        counts.get("spectrum._polish_batch.accepted", 0) / attempted
        if attempted else 0.0)
    checks = metrics["cli._run_checks.busy_s"]
    metrics["cli._run_checks.concurrency"] = (
        metrics["asymptotics.check_assumptions.busy_s"] / checks
        if checks > 0.0 else 0.0)
    metrics["spectrum.singular_part.accounted"] = subtree_accounting(
        spans, selfs, "spectrum.singular_part")
    return metrics
