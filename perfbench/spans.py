"""Span recorder for the traced benchmark run.

The benchmark measures the program from outside: in a traced run it
replaces the public functions each layer calls (module attributes and
class attributes under ``repro``) with wrappers that record a span per
call, plus counters taken at the same boundary.  Nothing under ``src/``
changes; :func:`instrument` restores every original on exit.

A span's *self* time is its duration minus the time its child spans
cover, so the self times of all spans under an operation's root span,
plus the root's own self time (the residual), add up to the
operation's wall time exactly.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = [
    "Span",
    "Recorder",
    "HighWaterMark",
    "instrument",
    "layer_totals",
    "chrome_trace",
    "write_chrome_trace",
]

_CLEAR_REFS = "/proc/self/clear_refs"
_STATUS = "/proc/self/status"
_MIB = 1024.0

#: Spans that cost instrumentation (cut evaluations around FM calls);
#: kept apart so they count as tracing overhead, not as a layer.
PROBE = "trace.probe"


class HighWaterMark:
    """Peak resident set size from ``VmHWM``, resettable through
    ``/proc/self/clear_refs`` (writing ``5`` resets the mark to the
    current RSS on Linux).

    ``reason`` is ``None`` when resets work; otherwise it says why the
    peaks are process-lifetime marks (or missing) instead.
    """

    def __init__(self) -> None:
        self.reason: str | None = None
        if self.read() is None:
            self.reason = f"{_STATUS} has no VmHWM"
            return
        try:
            with open(_CLEAR_REFS, "w") as fh:
                fh.write("5")
        except OSError as exc:
            self.reason = f"cannot reset VmHWM via {_CLEAR_REFS}: {exc}"

    @staticmethod
    def read() -> float | None:
        """Current ``VmHWM`` in MiB (``None`` when unavailable)."""
        try:
            with open(_STATUS) as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / _MIB
        except OSError:
            return None
        return None

    def reset(self) -> None:
        if self.reason is not None:
            return
        with open(_CLEAR_REFS, "w") as fh:
            fh.write("5")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    args: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory spans and per-layer counters of one traced run.

    Spans with ``rss=True`` reset ``VmHWM`` on entry and record their
    own peak in ``args["peak_rss_mib"]``; the peak seen so far is first
    folded into every enclosing RSS span, so nested resets never hide
    an outer peak.
    """

    def __init__(self, hwm: HighWaterMark | None = None) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, dict[str, float]] = {}
        self.hwm = hwm
        self._stack: list[Span] = []
        self._rss_open: list[Span] = []
        self.t0 = time.perf_counter()

    def count(self, layer: str, key: str, value: float = 1.0) -> None:
        bucket = self.counters.setdefault(layer, {})
        bucket[key] = bucket.get(key, 0.0) + float(value)

    def _fold_peak(self) -> None:
        peak = HighWaterMark.read()
        if peak is None:
            return
        for sp in self._rss_open:
            sp.args["peak_rss_mib"] = max(
                sp.args.get("peak_rss_mib", 0.0), peak
            )

    @contextlib.contextmanager
    def span(self, name: str, *, rss: bool = False) -> Iterator[Span]:
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), parent, name, 0.0)
        self.spans.append(sp)
        track = rss and self.hwm is not None and self.hwm.reason is None
        if track:
            self._fold_peak()
            self.hwm.reset()
            self._rss_open.append(sp)
        self._stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if track:
                self._fold_peak()
                self._rss_open.pop()


# ---------------------------------------------------------------------
# Wrappers.  ``before(args, kwargs)`` returns a state and
# ``after(rec, state, args, kwargs, result)`` records counters; both
# run inside a ``trace.probe`` child span so their cost shows as
# tracing overhead rather than as the layer's own time.
Before = Callable[[tuple, dict], Any]
After = Callable[[Recorder, Any, tuple, dict, Any], None]


def _traced(
    rec: Recorder,
    name: str,
    fn: Callable,
    before: Before | None,
    after: After | None,
    rss: bool,
) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name, rss=rss):
            state = None
            if before is not None:
                with rec.span(PROBE):
                    state = before(args, kwargs)
            out = fn(*args, **kwargs)
            if after is not None:
                with rec.span(PROBE):
                    after(rec, state, args, kwargs, out)
        return out

    return wrapper


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _cut_before(args, kwargs):
    from repro.graph.metrics import edge_cut

    return edge_cut(_arg(args, kwargs, 0, "g"), _arg(args, kwargs, 1, "part"))


def _cut_after(rec, cut0, args, kwargs, part):
    from repro.graph.metrics import edge_cut

    rec.count("graph.fm", "cut_before", cut0)
    rec.count("graph.fm", "cut_gain", cut0 - edge_cut(_arg(args, kwargs, 0, "g"), part))


def _shrink(rec, _, args, kwargs, lvl):
    fine = _arg(args, kwargs, 0, "g").num_vertices
    rec.count("graph.coarsen", "shrink_sum", lvl.graph.num_vertices / fine)


def _min_bisections(rec, _, args, kwargs, out):
    rec.count("graph.partition", "min_bisections", _arg(args, kwargs, 1, "nparts") - 1)


def _stage_hit(rec, _, args, kwargs, out):
    rec.count("pipeline.stage", "hits", out[2] in ("memory", "disk"))


def _nbytes(arrays: dict) -> int:
    return int(sum(a.nbytes for a in arrays.values()))


def _written(rec, _, args, kwargs, path):
    if path is not None:
        rec.count("pipeline.store_write", "bytes", _nbytes(_arg(args, kwargs, 3, "arrays")))


def _read(rec, _, args, kwargs, payload):
    if payload is not None:
        rec.count("pipeline.store_read", "bytes", _nbytes(payload.arrays))


def _dag_size(rec, _, args, kwargs, dag):
    rec.count("taskgraph.generate", "tasks", dag.num_tasks)
    rec.count("taskgraph.generate", "edges", dag.num_edges)


#: ``(module, attribute, span name, before, after, rss)``.  A dotted
#: attribute names a class attribute; a plain one is a module function
#: and is replaced in every ``repro`` module that binds the same
#: object, so re-exports (``repro.taskgraph.generate_task_graph``) and
#: ``from``-imports inside the program see the wrapper too.
PATCHES = (
    ("repro.pipeline.runner", "Pipeline.run", "pipeline.run", None, None, False),
    ("repro.pipeline.runner", "compile_plan", "pipeline.plan", None, None, False),
    ("repro.pipeline.scheduler", "execute_stage", "pipeline.stage", None, _stage_hit, False),
    ("repro.pipeline.store", "ArtifactStore.claim", "pipeline.claim", None, None, False),
    ("repro.pipeline.store", "ArtifactStore.disk_read", "pipeline.store_read", None, _read, False),
    ("repro.pipeline.store", "ArtifactStore.disk_write", "pipeline.store_write", None, _written, False),
    ("repro.pipeline.stages", "MeshStage.compute", "mesh.generate", None, None, True),
    ("repro.temporal.levels", "levels_from_depth", "temporal.levels", None, None, True),
    ("repro.partitioning.strategies", "make_decomposition", "partitioning.strategy", None, None, False),
    ("repro.mesh.dual", "mesh_to_dual_graph", "mesh.dual", None, None, True),
    ("repro.graph.partition", "partition_graph", "graph.partition", None, _min_bisections, True),
    ("repro.graph.bisect", "multilevel_bisect", "graph.bisect", None, None, False),
    ("repro.graph.coarsen", "coarsen_once", "graph.coarsen", None, _shrink, False),
    ("repro.graph.coarsen", "heavy_edge_matching", "graph.match", None, None, False),
    ("repro.graph.coarsen", "contract", "graph.contract", None, None, False),
    ("repro.graph.initial", "best_initial_bisection", "graph.initial", None, None, False),
    ("repro.graph.refine", "fm_refine", "graph.fm", _cut_before, _cut_after, False),
    ("repro.graph.refine", "rebalance", "graph.rebalance", None, None, False),
    ("repro.taskgraph.generation", "generate_task_graph", "taskgraph.generate", None, _dag_size, False),
    ("repro.taskgraph.dag", "TaskDAG.critical_path", "taskgraph.critical_path", None, None, False),
    ("repro.flusim.simulator", "simulate", "flusim.simulate", None, None, False),
    ("repro.flusim.metrics", "schedule_metrics", "flusim.metrics", None, None, False),
)


def rebind(orig: Callable, replacement: Callable) -> list[tuple[object, str, object]]:
    """Point every ``repro`` module attribute bound to ``orig`` at
    ``replacement`` (the defining module, re-exports and ``from``
    imports alike); returns the ``(module, name, orig)`` undo list."""
    undo = []
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                undo.append((mod, attr, orig))
                setattr(mod, attr, replacement)
    return undo


@contextlib.contextmanager
def instrument(rec: Recorder) -> Iterator[Recorder]:
    """Install every wrapper in :data:`PATCHES`; restore on exit."""
    undo: list[tuple[object, str, object]] = []
    try:
        for modname, attr, name, before, after, rss in PATCHES:
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                wrapped = _traced(rec, name, fn, before, after, rss)
                undo.append((cls, meth, raw))
                setattr(cls, meth, staticmethod(wrapped) if is_static else wrapped)
            else:
                orig = getattr(module, attr)
                undo += rebind(orig, _traced(rec, name, orig, before, after, rss))
        yield rec
    finally:
        for target, attr, orig in reversed(undo):
            setattr(target, attr, orig)


# ---------------------------------------------------------------------
@dataclass
class LayerTotal:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    #: Highest ``VmHWM`` seen inside the layer (RSS-tracked layers).
    peak_rss_mib: float = 0.0
    #: Self seconds under each root span (the operation's sections).
    by_root: dict[str, float] = field(default_factory=dict)


def layer_totals(rec: Recorder) -> dict[str, LayerTotal]:
    """Per span name: call count, inclusive and self seconds, and the
    self seconds spent under each root span."""
    child_time = [0.0] * len(rec.spans)
    root: list[str] = []
    for sp in rec.spans:  # parents are recorded before their children
        root.append(sp.name if sp.parent is None else root[sp.parent])
        if sp.parent is not None:
            child_time[sp.parent] += sp.duration
    out: dict[str, LayerTotal] = {}
    for sp in rec.spans:
        t = out.setdefault(sp.name, LayerTotal())
        own = sp.duration - child_time[sp.id]
        t.calls += 1
        t.total_s += sp.duration
        t.self_s += own
        t.peak_rss_mib = max(t.peak_rss_mib, sp.args.get("peak_rss_mib", 0.0))
        t.by_root[root[sp.id]] = t.by_root.get(root[sp.id], 0.0) + own
    return out


def chrome_trace(rec: Recorder, meta: dict[str, Any]) -> dict[str, Any]:
    """Chrome trace-event JSON (loads in https://ui.perfetto.dev);
    each event carries its span id and its parent's id in ``args``."""
    pid = os.getpid()
    events = [
        {
            "name": sp.name,
            "cat": sp.name.split(".")[0],
            "ph": "X",
            "ts": round((sp.start - rec.t0) * 1e6, 3),
            "dur": round(sp.duration * 1e6, 3),
            "pid": pid,
            "tid": 1,
            "args": {"id": sp.id, "parent": sp.parent, **sp.args},
        }
        for sp in rec.spans
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}


def write_chrome_trace(rec: Recorder, meta: dict[str, Any], path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(rec, meta), fh)
