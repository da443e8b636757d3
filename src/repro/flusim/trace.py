"""Execution traces and their analysis.

A trace records, per task: process, worker, start and end time — the
information behind every Gantt chart in the paper.  Analysis helpers
compute busy/idle profiles at worker, process ("composite resource",
Fig. 6) and subiteration granularity; composite-process idle times come
from one vectorized interval merge over all processes (nothing cached).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..taskgraph.dag import TaskDAG

__all__ = ["Trace", "trace_differences"]


def trace_differences(got: "Trace", want: "Trace") -> list[str]:
    """Compare two traces under the fast-vs-reference contract.

    Every per-task array must be **bit-identical** (same dtype, same
    values — no tolerance: the optimized engine performs the same
    IEEE operations as the oracle, so exact equality is the spec).
    Returns human-readable differences; empty means equal.
    """
    out: list[str] = []
    if len(got.start) != len(want.start):
        out.append(f"task count {len(got.start)} != {len(want.start)}")
        return out
    if got.num_processes != want.num_processes:
        out.append(
            f"num_processes {got.num_processes} != {want.num_processes}"
        )
    if got.cores_per_process != want.cores_per_process:
        out.append(
            f"cores_per_process {got.cores_per_process} "
            f"!= {want.cores_per_process}"
        )
    for f in ("process", "worker", "start", "end"):
        a = getattr(got, f)
        b = getattr(want, f)
        if a.dtype != b.dtype:
            out.append(f"{f} dtype {a.dtype} != {b.dtype}")
        elif not np.array_equal(a, b):
            bad = int(np.flatnonzero(a != b)[0])
            out.append(
                f"{f} differs first at task {bad}: {a[bad]!r} != {b[bad]!r}"
            )
    return out


@dataclass
class Trace:
    """The result of simulating (or replaying) a task graph.

    Parallel arrays indexed by task id.
    """

    process: np.ndarray  # (T,) int32
    worker: np.ndarray  # (T,) int32 — worker index within the process
    start: np.ndarray  # (T,) float64
    end: np.ndarray  # (T,) float64
    num_processes: int
    cores_per_process: int

    @property
    def makespan(self) -> float:
        """Completion time of the last task."""
        return float(self.end.max()) if len(self.end) else 0.0

    def busy_time_per_process(self) -> np.ndarray:
        """Total task time executed by each process."""
        out = np.zeros(self.num_processes, dtype=np.float64)
        np.add.at(out, self.process, self.end - self.start)
        return out

    def efficiency(self) -> float:
        """Parallel efficiency: busy core-time over available core-time."""
        span = self.makespan
        if span <= 0:
            return 1.0
        total = float((self.end - self.start).sum())
        return total / (span * self.num_processes * self.cores_per_process)

    def _merged_intervals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(process, start, end)`` of every merged active interval,
        by process then start.  A task opens an interval when it starts
        over 1e-12 after its process's running end (the running max of
        ends, as ``end >= start``), taken over (process, end) ranks so
        it never leaks between processes."""
        order = np.lexsort((self.start, self.process))
        proc, s, e = self.process[order], self.start[order], self.end[order]
        by_end = np.lexsort((e, proc))
        rank = np.empty(len(order), dtype=np.int64)
        rank[by_end] = np.arange(len(order))
        run_end = e[by_end][np.maximum.accumulate(rank)]
        cut = (proc[1:] != proc[:-1]) | (s[1:] > run_end[:-1] + 1e-12)
        heads = np.flatnonzero(np.r_[len(order) > 0, cut])
        tails = np.flatnonzero(np.r_[cut, len(order) > 0])
        return proc[heads], s[heads], run_end[tails]

    def process_active_intervals(self, p: int) -> np.ndarray:
        """Merged ``(k, 2)`` intervals during which process ``p`` has at
        least one task running (the paper's composite resource view)."""
        proc, lo, hi = self._merged_intervals()
        sel = proc == p
        return np.stack([lo[sel], hi[sel]], axis=1)

    def process_idle_times(self) -> np.ndarray:
        """Idle time of every composite process inside [0, makespan];
        each process's active time is summed on its own, in order."""
        proc, lo, hi = self._merged_intervals()
        bounds = np.searchsorted(proc, np.arange(self.num_processes + 1))
        span = hi - lo
        active = [span[a:b].sum() for a, b in zip(bounds[:-1], bounds[1:])]
        return self.makespan - np.array(active, dtype=np.float64)

    def process_idle_time(self, p: int) -> float:
        """Idle time of the composite process ``p`` inside the span
        [0, makespan]."""
        return float(self.process_idle_times()[p])

    def total_process_idle_fraction(self) -> float:
        """Mean idle fraction of composite processes (Fig. 6's
        quantity: idleness that persists even with unbounded cores)."""
        if self.makespan <= 0:
            return 0.0
        return float(self.process_idle_times().mean() / self.makespan)

    def work_by_process_subiteration(self, dag: TaskDAG) -> np.ndarray:
        """Executed work per (process, subiteration) — trace-level
        counterpart of Fig. 7b / 10b."""
        sub = dag.tasks.subiteration
        nsub = int(sub.max()) + 1 if len(sub) else 1
        out = np.zeros((self.num_processes, nsub), dtype=np.float64)
        np.add.at(out, (self.process, sub), self.end - self.start)
        return out

    def validate_against(self, dag: TaskDAG) -> None:
        """Check the trace is a valid schedule of ``dag``:
        dependencies respected, no worker overlap, tasks on their
        owning process."""
        if len(self.start) != dag.num_tasks:
            raise ValueError("trace/task count mismatch")
        if np.any(self.end < self.start - 1e-12):
            raise ValueError("negative task duration")
        if np.any(self.process != dag.tasks.process):
            raise ValueError("task executed on a foreign process")
        pred = dag.edges[:, 0]
        succ = dag.edges[:, 1]
        if np.any(self.start[succ] < self.end[pred] - 1e-9):
            raise ValueError("dependency violated")
        # No overlap on a (process, worker) pair.
        key = self.process.astype(np.int64) * (
            int(self.worker.max(initial=0)) + 1
        ) + self.worker
        order = np.lexsort((self.start, key))
        k = key[order]
        s = self.start[order]
        e = self.end[order]
        same = k[1:] == k[:-1]
        if np.any(s[1:][same] < e[:-1][same] - 1e-9):
            raise ValueError("worker executes two tasks at once")
