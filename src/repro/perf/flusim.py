"""Microbenchmarks for the FLUSIM event loop.

Times the low-overhead engine (:func:`~repro.flusim.simulator.simulate`)
against the seed event loop kept verbatim in
:mod:`repro.flusim.reference`, on the Euler ``iterations=4`` task graph
of the shared graded benchmark mesh.  Three configurations cover the
engine's code paths:

* ``eager`` — the paper-default overhead-free run (array-backed FIFO,
  single core per process);
* ``eager_comm`` — the same with an α/β communication model
  (precomputed delays + READY events);
* ``cp`` — critical-path priority queue, multi-core (the heap-queue
  path).  Both engines share the DAG's cached bottom levels, so after
  the first repeat this row times the event loops only.

Every timed pair is also checked for bit-identical traces
(:func:`~repro.flusim.trace.trace_differences`), so the benchmark
doubles as a differential test.  The ``analytics`` row is absolute
throughput (tasks/s, with the CPU count): a cold critical path on a
fresh ``TaskDAG`` per repeat plus one schedule's idle merge.  Results
land in ``BENCH_flusim.json``.
"""

from __future__ import annotations

import os

from ..flusim import ClusterConfig, CommModel, simulate, simulate_ref
from ..flusim.trace import trace_differences
from ..taskgraph import TaskDAG, generate_task_graph
from .common import (
    best_of,
    compare_results,
    load_baseline,
    save_baseline,
    suite_result,
)
from .taskgraph import ITERATIONS, SIZES, bench_inputs

__all__ = [
    "bench_dag",
    "run_benchmarks",
    "run_suite",
    "format_report",
    "save_baseline",
    "load_baseline",
    "compare_results",
]

#: Benchmark configurations: (scheduler, cores per process, comm model).
CONFIGS = {
    "eager": ("eager", 1, None),
    "eager_comm": ("eager", 1, CommModel(latency=0.05, bandwidth=32.0)),
    "cp": ("cp", 4, None),
}


def bench_dag(size: str = "full", *, seed: int = 0):
    """The Euler ``iterations=4`` benchmark DAG at one size."""
    mesh, tau, decomp = bench_inputs(size, seed=seed)
    return generate_task_graph(
        mesh, tau, decomp, scheme="euler", iterations=ITERATIONS
    )


def _bench_config(dag, nproc: int, name: str, repeats: int) -> dict:
    scheduler, cores, comm = CONFIGS[name]
    cluster = ClusterConfig(nproc, cores)
    kwargs = dict(scheduler=scheduler, comm=comm)
    ref_s = best_of(lambda: simulate_ref(dag, cluster, **kwargs), repeats)
    fast_s = best_of(lambda: simulate(dag, cluster, **kwargs), repeats)
    got = simulate(dag, cluster, **kwargs)
    want = simulate_ref(dag, cluster, **kwargs)
    diffs = trace_differences(got, want)
    if diffs:
        raise AssertionError(
            f"fast engine diverged from reference ({name}): "
            + "; ".join(diffs[:3])
        )
    return {
        "ref_s": ref_s,
        "fast_s": fast_s,
        "speedup": ref_s / fast_s,
        "scheduler": scheduler,
        "cores": cores,
        "comm": comm is not None,
        "makespan": got.makespan,
    }


def _bench_analytics(dag, nproc: int, repeats: int) -> dict:
    trace = simulate(dag, ClusterConfig(nproc, 1))
    fast_s = best_of(
        lambda: (
            TaskDAG(dag.tasks, dag.edges).critical_path(),
            trace.total_process_idle_fraction(),
        ),
        repeats,
    )
    rate = dag.num_tasks / fast_s
    return {"fast_s": fast_s, "tasks_per_s": rate, "nproc": os.cpu_count()}


def run_benchmarks(
    *, size: str = "full", repeats: int = 3, seed: int = 0
) -> dict:
    """Run the simulator benchmark at one size (all configurations)."""
    dag = bench_dag(size, seed=seed)
    nproc = SIZES[size]["processes"]
    return {
        "size": size,
        "tasks": dag.num_tasks,
        "edges": dag.num_edges,
        "processes": nproc,
        "simulate": {
            name: _bench_config(dag, nproc, name, repeats)
            for name in CONFIGS
        },
        "analytics": _bench_analytics(dag, nproc, repeats),
    }


def run_suite(
    sizes: tuple[str, ...] = ("smoke", "full"),
    *,
    repeats: int = 3,
    seed: int = 0,
) -> dict:
    """Run the benchmark at several sizes, with environment metadata."""
    return suite_result(
        {s: run_benchmarks(size=s, repeats=repeats, seed=seed) for s in sizes}
    )


def format_report(result: dict) -> str:
    """Human-readable table for one suite result."""
    lines = []
    for size, case in result.get("cases", {}).items():
        lines.append(
            f"[{size}] {case['tasks']} tasks, {case['edges']} edges, "
            f"{case['processes']} processes"
        )
        for name, c in case["simulate"].items():
            lines.append(
                f"  simulate {name:10s}: ref {c['ref_s'] * 1e3:8.1f} ms -> "
                f"fast {c['fast_s'] * 1e3:8.1f} ms  ({c['speedup']:.2f}x)"
            )
        if a := case.get("analytics"):
            lines.append(
                f"  analytics (cold critical path + idle merge): "
                f"{a['tasks_per_s']:,.0f} tasks/s on {a['nproc']} CPU(s)"
            )
    return "\n".join(lines)
