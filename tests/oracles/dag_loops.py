"""Per-task loop implementations of the DAG and trace analytics.

These are the straightforward loop bodies that
:class:`repro.taskgraph.dag.TaskDAG` and :class:`repro.flusim.trace.Trace`
replaced with level-synchronous NumPy kernels.  The differential tests
require the kernels to reproduce them bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.flusim.trace import Trace
from repro.taskgraph.dag import TaskDAG

__all__ = [
    "topological_order_ref",
    "critical_path_ref",
    "width_profile_ref",
    "process_active_intervals_ref",
    "process_idle_time_ref",
    "total_process_idle_fraction_ref",
]


def topological_order_ref(dag: TaskDAG) -> np.ndarray:
    """A topological order (Kahn, one task at a time); raises on cycles."""
    n = dag.num_tasks
    indeg = dag.in_degrees()
    sx, sa = dag.successors_csr()
    out = np.empty(n, dtype=np.int64)
    head = 0
    tail = 0
    ready = np.flatnonzero(indeg == 0)
    out[: len(ready)] = ready
    tail = len(ready)
    while head < tail:
        v = out[head]
        head += 1
        for u in sa[sx[v] : sx[v + 1]]:
            indeg[u] -= 1
            if indeg[u] == 0:
                out[tail] = u
                tail += 1
    if tail != n:
        raise ValueError("task graph contains a cycle")
    return out


def critical_path_ref(dag: TaskDAG) -> tuple[float, np.ndarray]:
    """Critical-path length and bottom levels, one task at a time in
    reverse topological order."""
    order = topological_order_ref(dag)
    sx, sa = dag.successors_csr()
    cost = dag.tasks.cost
    bl = cost.astype(np.float64).copy()
    for v in order[::-1]:
        s = sa[sx[v] : sx[v + 1]]
        if len(s):
            bl[v] = cost[v] + bl[s].max()
    return (float(bl.max()) if len(bl) else 0.0), bl


def width_profile_ref(dag: TaskDAG) -> np.ndarray:
    """Number of tasks per DAG depth level."""
    order = topological_order_ref(dag)
    px, pa = dag.predecessors_csr()
    depth = np.zeros(dag.num_tasks, dtype=np.int64)
    for v in order:
        p = pa[px[v] : px[v + 1]]
        if len(p):
            depth[v] = depth[p].max() + 1
    return np.bincount(depth) if len(depth) else np.zeros(0, dtype=np.int64)


def process_active_intervals_ref(trace: Trace, p: int) -> np.ndarray:
    """Merged ``(k, 2)`` active intervals of process ``p``."""
    sel = np.flatnonzero(trace.process == p)
    if len(sel) == 0:
        return np.empty((0, 2))
    ivals = np.stack([trace.start[sel], trace.end[sel]], axis=1)
    ivals = ivals[np.argsort(ivals[:, 0], kind="stable")]
    merged = [list(ivals[0])]
    for s, e in ivals[1:]:
        if s <= merged[-1][1] + 1e-12:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    return np.array(merged)


def process_idle_time_ref(trace: Trace, p: int) -> float:
    """Idle time of process ``p`` inside [0, makespan]."""
    ivals = process_active_intervals_ref(trace, p)
    active = float((ivals[:, 1] - ivals[:, 0]).sum()) if len(ivals) else 0.0
    return trace.makespan - active


def total_process_idle_fraction_ref(trace: Trace) -> float:
    """Mean idle fraction of the composite processes."""
    if trace.makespan <= 0:
        return 0.0
    idle = np.array(
        [process_idle_time_ref(trace, p) for p in range(trace.num_processes)]
    )
    return float(idle.mean() / trace.makespan)
