"""Per-layer timing for the traced run, measured from outside the program.

Two sources, neither of which changes code under ``src/``:

* the spans the program already emits (``engine.execute``,
  ``index.*``, ``serve.*``), collected by a :class:`repro.obs.Tracer`;
* timing wrappers this module patches over public call sites of the TI
  pipeline while the traced run sets up or measures.  A wrapper keeps a
  total self time (its duration minus the wrapped calls nested inside
  it), not one span per call, so a scan called once per query adds two
  clock reads, not a span object.

The level-2 scan and the k-select are fused inside one call
(``scan_query_full`` / ``point_filter_full``), so ``scan`` covers both.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict

from repro import obs

# (stage, module, attribute).  A stage may have several call sites: the
# flat tier and the reference engine bind their own names, and each
# engine resolves the bound name at call time.
CALL_SITES = (
    ("join_plan", "repro.index.index", "Index.join_plan"),
    ("level1", "repro.core.ti_knn", "JoinPlan.level1_for"),
    ("center_rows", "repro.native.engine", "center_distance_rows"),
    ("center_rows", "repro.core.ti_knn", "center_distance_rows"),
    ("scan", "repro.native.engine", "scan_query_full"),
    ("scan", "repro.native.engine", "scan_query_partial"),
    ("scan", "repro.core.ti_knn", "point_filter_full"),
    ("scan", "repro.core.ti_knn", "point_filter_partial"),
    ("layout", "repro.native.engine", "flat_targets"),
    ("pack", "repro.core.result", "KNNResult.pack"),
    ("decide", "repro.sched", "decide"),
)

#: Stages that together make up a query's TI work; their sum over the
#: query wall time is ``trace.stage_share``.
TI_STAGES = ("join_plan", "level1", "center_rows", "scan", "pack")


def _resolve(module_name, attribute):
    """(owner, name, raw attribute) of a call site, or None if gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, name):
        return None
    return owner, name, inspect.getattr_static(owner, name)


class StageTimers:
    """Patch timing wrappers over :data:`CALL_SITES` while active.

    Use as a context manager; the originals are restored on exit.
    ``absent`` lists the stages none of whose call sites exist any more.
    """

    def __init__(self):
        self.self_s = defaultdict(float)
        #: Outermost wrapped time per enclosing span name, so a span's
        #: self time can exclude the stages that ran inside it.
        self.inside_span_s = defaultdict(float)
        self.layout_packs = 0
        self.absent = ()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched = []

    def __enter__(self):
        found = set()
        for stage, module_name, attribute in CALL_SITES:
            site = _resolve(module_name, attribute)
            if site is None:
                continue
            owner, name, raw = site
            found.add(stage)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(stage, raw.__func__))
            else:
                wrapped = self._wrap(stage, raw)
            setattr(owner, name, wrapped)
            self._patched.append((owner, name, raw))
        self.absent = tuple(sorted({stage for stage, _, _ in CALL_SITES}
                                   - found))
        return self

    def __exit__(self, exc_type, exc, tb):
        for owner, name, raw in reversed(self._patched):
            setattr(owner, name, raw)
        self._patched.clear()
        return False

    def _wrap(self, stage, fn):
        if stage == "layout":
            from repro.native.layout import cached_layouts
        else:
            cached_layouts = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            stack.append(0.0)
            layouts_before = cached_layouts() if cached_layouts else 0
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = stack.pop()
                # A new memo entry means this call packed a layout.
                packed = bool(cached_layouts
                              and cached_layouts() > layouts_before)
                span_name = None
                if stack:
                    stack[-1] += elapsed
                else:
                    tracer = obs.current_tracer()
                    current = tracer.current() if tracer else None
                    span_name = current.name if current else None
                with self._lock:
                    self.self_s[stage] += elapsed - nested
                    self.layout_packs += packed
                    if span_name is not None:
                        self.inside_span_s[span_name] += elapsed
        return wrapper


def span_summary(tracer, since=None):
    """Per span name: count, total and self time (s), and the spans.

    Self time is a span's duration minus the durations of its child
    spans.  ``since`` keeps only spans started at or after that
    ``time.perf_counter()`` reading (the tracer's clock).
    """
    spans = [span for span in tracer.finished_spans()
             if since is None or span.start_s >= since]
    child_s = defaultdict(float)
    for span in spans:
        if span.parent_id is not None:
            child_s[span.parent_id] += span.duration_s
    summary = {}
    for span in spans:
        entry = summary.setdefault(span.name, {
            "count": 0, "total_s": 0.0, "self_s": 0.0, "spans": []})
        entry["count"] += 1
        entry["total_s"] += span.duration_s
        entry["self_s"] += span.duration_s - child_s[span.span_id]
        entry["spans"].append(span)
    return summary
