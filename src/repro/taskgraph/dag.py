"""Task DAG container and graph algorithms.

Holds the task table plus the dependency structure in CSR form (both
directions), and provides the DAG analytics the experiments need:
topological order, critical path, width profile.  All three run on one
level-synchronous kernel (:meth:`TaskDAG._waves`) that peels the sources
a wave at a time; bottom levels are filled wave by wave, last first, as
``cost[v] + max(bl[succ])`` — one IEEE add as in a per-task loop, so the
results are bit-identical to one.  A DAG caches its CSR arrays and
critical path on first use and assumes ``tasks``/``edges`` never change
afterwards: build a new :class:`TaskDAG` instead of editing one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .task import TaskArrays

__all__ = ["TaskDAG", "canonical_edges"]


def canonical_edges(edges: np.ndarray) -> np.ndarray:
    """Canonical form of an edge array: unique ``(pred, succ)`` rows in
    lexicographic order.  Two generators that emit the same dependency
    *set* in different orders produce equal canonical arrays — the
    comparison contract between the vectorized generator and the seed
    oracle in :mod:`repro.taskgraph.reference`."""
    edges = np.ascontiguousarray(edges, dtype=np.int64).reshape(-1, 2)
    if len(edges) == 0:
        return edges
    return np.unique(edges, axis=0)


def _csr_from_pairs(
    n: int, src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    xadj = np.zeros(n + 1, dtype=np.int64)
    np.add.at(xadj[1:], src, 1)
    np.cumsum(xadj, out=xadj)
    return xadj, dst


def _gather(xadj: np.ndarray, adj: np.ndarray, rows: np.ndarray):
    """The CSR rows ``rows`` concatenated, and each row's length."""
    lo, cnt = xadj[rows], xadj[rows + 1] - xadj[rows]
    idx = np.arange(cnt.sum()) + np.repeat(lo - np.cumsum(cnt) + cnt, cnt)
    return adj[idx], cnt


@dataclass
class TaskDAG:
    """A task graph: tasks plus dependency edges.

    ``edges`` is a ``(E, 2)`` array of ``(predecessor, successor)``
    pairs.  Successor/predecessor CSR adjacency is built lazily.
    """

    tasks: TaskArrays
    edges: np.ndarray
    _succ: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )
    _pred: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )
    _critical: tuple[float, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.edges = np.ascontiguousarray(self.edges, dtype=np.int64).reshape(
            -1, 2
        )

    @property
    def num_tasks(self) -> int:
        """Number of tasks."""
        return self.tasks.num_tasks

    @property
    def num_edges(self) -> int:
        """Number of dependency edges."""
        return len(self.edges)

    # ------------------------------------------------------------------
    def successors_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR adjacency predecessor → successors."""
        if self._succ is None:
            self._succ = _csr_from_pairs(
                self.num_tasks, self.edges[:, 0], self.edges[:, 1]
            )
        return self._succ

    def predecessors_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR adjacency successor → predecessors."""
        if self._pred is None:
            self._pred = _csr_from_pairs(
                self.num_tasks, self.edges[:, 1], self.edges[:, 0]
            )
        return self._pred

    def in_degrees(self) -> np.ndarray:
        """Number of predecessors per task."""
        deg = np.zeros(self.num_tasks, dtype=np.int64)
        if len(self.edges):
            np.add.at(deg, self.edges[:, 1], 1)
        return deg

    # ------------------------------------------------------------------
    def _waves(self) -> list[np.ndarray]:
        """Level-synchronous Kahn peel: the tasks as waves of ids.

        Wave 0 is every source; wave k holds the tasks whose last
        predecessor sat in wave k-1, so the wave index is the depth.
        One ``np.unique`` per wave decrements the remaining in-degrees
        of the gathered successor slices: O(frontier edges) a wave.
        """
        sx, sa = self.successors_csr()
        remaining = self.in_degrees()
        waves = [np.flatnonzero(remaining == 0)]
        while len(waves[-1]):
            succ = _gather(sx, sa, waves[-1])[0]
            nbr, k = np.unique(succ, return_counts=True)
            remaining[nbr] -= k
            waves.append(nbr[remaining[nbr] == 0])
        if sum(map(len, waves)) != self.num_tasks:
            raise ValueError("task graph contains a cycle")
        return waves[:-1]

    def topological_order(self) -> np.ndarray:
        """A topological order, sources first; raises on cycles."""
        return np.concatenate([np.empty(0, np.int64), *self._waves()])

    def critical_path(self) -> tuple[float, np.ndarray]:
        """Critical-path length and per-task *bottom levels*.

        The bottom level of a task is the longest cost-weighted path
        from the task (inclusive) to any sink — the classic HEFT
        upward-rank priority.  The critical-path length is the maximum
        bottom level, a lower bound on any schedule's makespan.  Both
        are computed once per DAG (bottom levels come back read-only).
        """
        if self._critical is None:
            sx, sa = self.successors_csr()
            cost = self.tasks.cost.astype(np.float64)
            bl = cost.copy()
            for wave in reversed(self._waves()):
                succ, cnt = _gather(sx, sa, wave)
                inner = cnt > 0  # sinks keep bl == cost
                bl[wave[inner]] = cost[wave[inner]] + np.maximum.reduceat(
                    bl[succ], (np.cumsum(cnt) - cnt)[inner]
                )
            bl.flags.writeable = False
            self._critical = (float(bl.max()) if len(bl) else 0.0), bl
        return self._critical

    def width_profile(self) -> np.ndarray:
        """Number of tasks per DAG depth level (parallelism profile)."""
        return np.array([len(w) for w in self._waves()], dtype=np.int64)

    def validate(self) -> None:
        """Raise on malformed edges or cycles."""
        if len(self.edges):
            if self.edges.min() < 0 or self.edges.max() >= self.num_tasks:
                raise ValueError("edge endpoint out of range")
            if np.any(self.edges[:, 0] == self.edges[:, 1]):
                raise ValueError("self-dependency")
        self.topological_order()

    def canonical_edges(self) -> np.ndarray:
        """The edge set in canonical form (see
        :func:`canonical_edges`)."""
        return canonical_edges(self.edges)

    def total_work(self) -> float:
        """Sum of all task costs (invariant across partitionings —
        'the total amount of work is independent of partitioning
        strategy', paper §VI)."""
        return float(self.tasks.cost.sum())
