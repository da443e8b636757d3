"""Microbenchmarks for the partitioner hot paths (HEM + FM).

The benchmark mesh is a strongly graded quadtree dual — the same shape
of input the paper's repartitioning loop sees — at two sizes:

* ``full``: ~100k vertices, the headline numbers recorded in
  ``BENCH_partitioner.json``;
* ``smoke``: ~46k vertices (the smallest graded depth range that still
  produces multiple temporal levels), fast enough for the
  ``perf_smoke`` pytest marker to re-measure on every run.

Each kernel is timed in two modes: single-constraint unit weights (the
classical SC workload) and the paper's MC_TL mode (binary temporal-
level indicator constraints), against the seed implementations kept
verbatim in :mod:`repro.graph.reference`.  The headline figure is the
combined HEM+FM speedup in MC_TL mode — the configuration the paper's
partitioner actually runs.

The ``recursive`` row is absolute throughput (vertices/s, with the CPU
count) of one serial 128-part MC_TL ``partition_graph``, whose many
small bisections exercise the matching tail, greedy growing and
rebalance that the ``hem`` row barely reaches.
"""

from __future__ import annotations

import os

import numpy as np

from ..graph.bisect import multilevel_bisect
from ..graph.coarsen import coarsen_once, heavy_edge_matching
from ..graph.csr import CSRGraph
from ..graph.metrics import edge_cut, imbalance
from ..graph.partition import partition_graph
from ..graph.reference import fm_refine_ref, heavy_edge_matching_ref
from ..graph.refine import fm_refine
from ..mesh.dual import mesh_to_dual_graph
from ..pipeline import MeshConfig, Pipeline, Scenario
from .common import (
    best_of,
    compare_results,
    load_baseline,
    save_baseline,
    suite_result,
)

__all__ = [
    "bench_graphs",
    "run_benchmarks",
    "run_suite",
    "format_report",
    "save_baseline",
    "load_baseline",
    "compare_results",
]

#: Benchmark sizes: quadtree depth bounds of the graded benchmark mesh.
SIZES = {
    "full": dict(max_depth=11, min_depth=5),
    "smoke": dict(max_depth=8, min_depth=4),
}


def bench_graphs(size: str = "full") -> tuple[CSRGraph, CSRGraph]:
    """Build the benchmark dual graph in both weight modes.

    Returns ``(g_sc, g_mc)``: the same graded quadtree dual with unit
    single-constraint weights and with MC_TL binary level-indicator
    weights (one constraint per refinement level).  The mesh comes
    from the pipeline's ``bench_graded`` builder, so repeated bench
    runs reuse it via the artifact store instead of regenerating it.
    """
    if size not in SIZES:
        raise ValueError(f"unknown benchmark size {size!r}")
    bounds = SIZES[size]
    rec = Pipeline().run(
        Scenario(
            mesh=MeshConfig(
                name="bench_graded",
                scale=bounds["max_depth"],
                min_depth=bounds["min_depth"],
            )
        ),
        through="mesh",
    )
    mesh = rec.mesh
    g_sc = mesh_to_dual_graph(mesh)
    lev = mesh.cell_depth - mesh.cell_depth.min()
    vwgt = np.zeros((g_sc.num_vertices, int(lev.max()) + 1))
    vwgt[np.arange(g_sc.num_vertices), lev] = 1.0
    return g_sc, g_sc.with_vwgt(vwgt)


def _projected_partition(g: CSRGraph, seed: int) -> np.ndarray:
    """A realistic FM input: bisect one coarsening level, project back.

    This is exactly the state FM sees inside the multilevel V-cycle —
    a good partition with a slightly ragged boundary.
    """
    lvl = coarsen_once(g, np.random.default_rng(seed))
    coarse_part = multilevel_bisect(
        lvl.graph, 0.5, np.random.default_rng(seed + 2)
    )
    return coarse_part[lvl.cmap].astype(np.int64)


def _bench_hem(g: CSRGraph, repeats: int, seed: int) -> dict:
    ref_s = best_of(
        lambda: heavy_edge_matching_ref(g, np.random.default_rng(seed)),
        repeats,
    )
    fast_s = best_of(
        lambda: heavy_edge_matching(g, np.random.default_rng(seed)),
        repeats,
    )
    match = heavy_edge_matching(g, np.random.default_rng(seed))
    assert np.array_equal(match[match], np.arange(g.num_vertices)), (
        "matching is not symmetric"
    )
    return {
        "ref_s": ref_s,
        "fast_s": fast_s,
        "speedup": ref_s / fast_s,
        "matched_frac": float(
            np.count_nonzero(match != np.arange(g.num_vertices))
            / max(1, g.num_vertices)
        ),
    }


def _bench_fm(g: CSRGraph, repeats: int, seed: int) -> dict:
    part0 = _projected_partition(g, seed)
    rng_seed = seed + 5

    def run_ref():
        p = part0.copy()
        fm_refine_ref(g, p, rng=np.random.default_rng(rng_seed))
        return p

    def run_fast():
        p = part0.copy()
        fm_refine(g, p, rng=np.random.default_rng(rng_seed))
        return p

    ref_s = best_of(run_ref, repeats)
    fast_s = best_of(run_fast, repeats)
    p_ref, p_fast = run_ref(), run_fast()
    return {
        "ref_s": ref_s,
        "fast_s": fast_s,
        "speedup": ref_s / fast_s,
        "initial_cut": edge_cut(g, part0),
        "ref_cut": edge_cut(g, p_ref),
        "fast_cut": edge_cut(g, p_fast),
        "ref_imbalance": float(imbalance(g, p_ref, 2).max()),
        "fast_imbalance": float(imbalance(g, p_fast, 2).max()),
    }


def _bench_kway(
    g: CSRGraph, nparts: int, repeats: int, seed: int, n_jobs: int
) -> dict:
    cpus = os.cpu_count() or 1
    # Even on a single CPU the comparison is worth recording: it
    # measures the pool/dispatch overhead the scale tier pays, instead
    # of silently skipping (CI ran on 1 CPU and the baseline carried
    # no numbers at all).  Workers are forced to 2 so the parallel leg
    # always exists; the skip reason survives only when the pool
    # genuinely cannot start.
    n_jobs = max(2, n_jobs)
    forced = cpus < 2
    serial_s = best_of(
        lambda: partition_graph(g, nparts, seed=seed, n_jobs=1), repeats
    )
    try:
        parallel_s = best_of(
            lambda: partition_graph(g, nparts, seed=seed, n_jobs=n_jobs),
            repeats,
        )
        rj = partition_graph(g, nparts, seed=seed, n_jobs=n_jobs)
    except OSError as exc:  # pragma: no cover - constrained sandboxes
        return {
            "skipped": True,
            "reason": f"worker pool failed to start: {exc}",
            "nparts": nparts,
            "n_jobs": n_jobs,
            "serial_s": serial_s,
        }
    r1 = partition_graph(g, nparts, seed=seed, n_jobs=1)
    return {
        "nparts": nparts,
        "n_jobs": n_jobs,
        "forced_workers": forced,
        "cpus": cpus,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "parallel_speedup": serial_s / parallel_s,
        "serial_cut": r1.cut,
        "parallel_cut": rj.cut,
        "serial_imbalance": float(r1.imbalance.max()),
        "parallel_imbalance": float(rj.imbalance.max()),
    }


def _bench_recursive(g: CSRGraph, nparts: int, repeats: int, seed: int) -> dict:
    fast_s = best_of(
        lambda: partition_graph(g, nparts, seed=seed, n_jobs=1), repeats
    )
    return {
        "nparts": nparts,
        "fast_s": fast_s,
        "vertices_per_s": g.num_vertices / fast_s,
        "nproc": os.cpu_count() or 1,
    }


def run_benchmarks(
    *,
    size: str = "full",
    repeats: int = 3,
    seed: int = 3,
    n_jobs: int = 2,
    kway_parts: int = 8,
) -> dict:
    """Run the HEM/FM/k-way benchmark suite at one size.

    Returns a JSON-serializable dict; the headline entry is
    ``combined.mc_tl.speedup`` — seed vs. fast wall-clock of one HEM
    plus one FM call on the MC_TL benchmark graph.
    """
    g_sc, g_mc = bench_graphs(size)
    hem_sc = _bench_hem(g_sc, repeats, seed)
    hem_mc = _bench_hem(g_mc, repeats, seed)
    fm_sc = _bench_fm(g_sc, repeats, seed)
    fm_mc = _bench_fm(g_mc, repeats, seed)

    def combined(hem: dict, fm: dict) -> dict:
        ref = hem["ref_s"] + fm["ref_s"]
        fast = hem["fast_s"] + fm["fast_s"]
        return {"ref_s": ref, "fast_s": fast, "speedup": ref / fast}

    return {
        "size": size,
        "mesh": {
            "vertices": g_sc.num_vertices,
            "edges": g_sc.num_edges,
            "mc_tl_constraints": g_mc.ncon,
        },
        "hem": {"sc": hem_sc, "mc_tl": hem_mc},
        "fm": {"sc": fm_sc, "mc_tl": fm_mc},
        "combined": {
            "sc": combined(hem_sc, fm_sc),
            "mc_tl": combined(hem_mc, fm_mc),
        },
        "kway": _bench_kway(g_mc, kway_parts, max(1, repeats - 1), seed, n_jobs),
        "recursive": _bench_recursive(g_mc, 128, max(1, repeats - 1), seed),
    }


def run_suite(
    sizes: tuple[str, ...] = ("smoke", "full"),
    *,
    repeats: int = 3,
    seed: int = 3,
    n_jobs: int = 2,
) -> dict:
    """Run the benchmark at several sizes, with environment metadata."""
    return suite_result(
        {
            s: run_benchmarks(size=s, repeats=repeats, seed=seed, n_jobs=n_jobs)
            for s in sizes
        }
    )


def format_report(result: dict) -> str:
    """Human-readable table for one suite result."""
    lines = []
    for size, case in result.get("cases", {}).items():
        m = case["mesh"]
        lines.append(
            f"[{size}] {m['vertices']} vertices, {m['edges']} edges, "
            f"{m['mc_tl_constraints']} MC_TL constraints"
        )
        for kernel in ("hem", "fm"):
            for mode in ("sc", "mc_tl"):
                c = case[kernel][mode]
                lines.append(
                    f"  {kernel.upper():3s} {mode:5s}: ref {c['ref_s']*1e3:8.1f} ms"
                    f" -> fast {c['fast_s']*1e3:8.1f} ms"
                    f"  ({c['speedup']:.2f}x)"
                )
        for mode in ("sc", "mc_tl"):
            c = case["combined"][mode]
            lines.append(
                f"  HEM+FM {mode:5s}: ref {c['ref_s']*1e3:8.1f} ms"
                f" -> fast {c['fast_s']*1e3:8.1f} ms  ({c['speedup']:.2f}x)"
            )
        k = case["kway"]
        if k.get("skipped"):
            lines.append(f"  k-way: skipped ({k['reason']})")
        else:
            forced = " [forced workers on 1 CPU]" if k.get("forced_workers") else ""
            lines.append(
                f"  {k['nparts']}-way: serial {k['serial_s']:.2f} s"
                f" vs n_jobs={k['n_jobs']} {k['parallel_s']:.2f} s"
                f" ({k['parallel_speedup']:.2f}x);"
                f" cut {k['serial_cut']:.0f} vs {k['parallel_cut']:.0f}"
                + forced
            )
        if r := case.get("recursive"):
            lines.append(
                f"  recursive {r['nparts']}-way MC_TL, serial: "
                f"{r['vertices_per_s']:,.0f} vertices/s on {r['nproc']} CPU(s)"
            )
    return "\n".join(lines)
