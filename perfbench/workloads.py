"""The benchmark's three workloads.

Each workload has a ``setup()`` (repeated by the runner; it returns a
fingerprint that must not change between repeats), a timed ``run()``
that returns an :class:`Op`, and a ``check()`` over that op's outputs.
Only the sections bracketed by ``clock.section(...)`` are timed;
fingerprinting and checks run between or after them.

Every call goes through the program's public entry points, looked up
on their module at call time, so the traced run's wrappers see them:
``Pipeline.run``, ``repro.taskgraph.generate_task_graph``,
``repro.flusim.simulate`` / ``schedule_metrics`` and
``repro.mesh.dual.mesh_to_dual_graph``.  Every workload runs serially
in this process (``n_jobs=1``; ``Pipeline.run`` drives the stage DAG
with one worker).
"""

from __future__ import annotations

import contextlib
import shutil
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import numpy as np

import repro.flusim as flusim
import repro.mesh.dual as dual
import repro.taskgraph as taskgraph
from repro.flusim import ClusterConfig, CommModel
from repro.graph.contracts import PartitionQualityWarning
from repro.pipeline import ArtifactStore, Pipeline, Scenario
from repro.temporal import operating_costs

from . import checks
from .spans import HighWaterMark, Recorder

__all__ = ["Op", "Clock", "WORKLOADS", "SIZES"]

STRATEGIES = ("SC_OC", "MC_TL")

#: FLUSIM replay clusters: (label, cores per process, scheduler, comm).
#: Fig 6 (eager, unbounded cores), eager and critical-path scheduling
#: on 4 cores, and eager on 4 cores with an alpha/beta network.
CLUSTERS = (
    ("eager_unbounded", None, "eager", None),
    ("eager_4", 4, "eager", None),
    ("cp_4", 4, "cp", None),
    ("eager_4_comm", 4, "eager", CommModel(latency=5.0, bandwidth=100.0)),
)


@dataclass
class Op:
    """One timed operation: its timed sections, peak RSS, work done,
    deterministic quality figures, a fingerprint that must repeat for
    the same seed, and the outputs the checks read."""

    parts: dict[str, float]
    peak_rss_mib: float
    cells: int
    tasks: int = 0
    quality: dict[str, float] = field(default_factory=dict)
    fingerprint: dict[str, Any] = field(default_factory=dict)
    outputs: Any = None
    #: Reference-kernel seconds around the operation (set by the runner).
    ref_s: float = 0.0

    @property
    def wall_s(self) -> float:
        return sum(self.parts.values())


class Clock:
    """Times named sections; under a recorder each section is also a
    root span, so the traced wall is exactly the timed wall."""

    def __init__(self, rec: Recorder | None = None) -> None:
        self.rec = rec
        self.parts: dict[str, float] = {}

    @contextlib.contextmanager
    def section(self, name: str) -> Iterator[None]:
        span = (
            self.rec.span(f"op.{name}")
            if self.rec is not None
            else contextlib.nullcontext()
        )
        with span:
            t0 = time.perf_counter()
            try:
                yield
            finally:
                self.parts[name] = (
                    self.parts.get(name, 0.0) + time.perf_counter() - t0
                )


@contextlib.contextmanager
def partition_warnings() -> Iterator[list]:
    """Collect the :class:`PartitionQualityWarning` s raised inside the
    block (the list fills when the block exits); other warnings are
    shown as usual."""
    quality: list = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield quality
    for w in caught:
        if isinstance(w.message, PartitionQualityWarning):
            quality.append(w)
        else:
            warnings.showwarning(
                w.message, w.category, w.filename, w.lineno
            )


def constraint_weights(strategy: str, tau: np.ndarray) -> np.ndarray:
    """``(n, ncon)`` vertex weights a strategy balances: operating
    cost for SC_OC, one indicator column per temporal level for
    MC_TL (paper section V)."""
    if strategy == "SC_OC":
        return operating_costs(tau)[:, None].astype(np.float64)
    return np.eye(int(tau.max()) + 1)[tau]


def max_imbalance(w: np.ndarray, domain: np.ndarray, nparts: int) -> float:
    """Worst per-constraint domain load over the mean load."""
    worst = 0.0
    for c in range(w.shape[1]):
        load = np.bincount(domain, weights=w[:, c], minlength=nparts)
        worst = max(worst, float(load.max() * nparts / load.sum()))
    return worst


def partition_quality(records: dict, fallbacks: int) -> dict[str, float]:
    """Cut faces summed over the decompositions, worst per-constraint
    imbalance, and the share of partition calls that degraded."""
    cut = 0
    worst = 0.0
    for strategy, rec in records.items():
        cut += checks.cut_faces(rec.mesh, rec.decomp.domain)[0]
        w = constraint_weights(strategy, rec.tau)
        worst = max(
            worst, max_imbalance(w, rec.decomp.domain, rec.decomp.num_domains)
        )
    return {
        "edge_cut": float(cut),
        "max_imbalance": worst,
        "fallback_frac": fallbacks / len(records),
    }


def _peak(hwm: HighWaterMark) -> float:
    peak = hwm.read()
    return float("nan") if peak is None else peak


# ---------------------------------------------------------------------
class Fig9Chain:
    """Paper Fig 9: SC_OC then MC_TL through the whole chain on the
    cylinder replica, against one fresh memory-only store per
    operation (MC_TL reuses the mesh/levels prefix)."""

    name = "fig9_chain"

    def __init__(
        self,
        seed: int,
        work_dir: Path,
        *,
        scale: int = 11,
        domains: int = 128,
        processes: int = 16,
        cores: int = 32,
    ) -> None:
        self.seed = seed
        self.scale = scale
        self.domains = domains
        self.processes = processes
        self.cores = cores
        self.reference: dict[str, str] = {}

    def scenario(self, strategy: str) -> Scenario:
        return Scenario.standard(
            "cylinder",
            self.domains,
            self.processes,
            self.cores,
            strategy,
            scale=self.scale,
            seed=self.seed,
        )

    def setup(self) -> dict[str, str]:
        """The mesh/levels prefix the checks compare every run to."""
        rec = Pipeline(ArtifactStore(None), n_jobs=1).run(
            self.scenario("SC_OC"), through="levels"
        )
        self.reference = checks.mesh_digests(rec.mesh, rec.tau)
        return self.reference

    def run(self, clock: Clock, hwm: HighWaterMark) -> Op:
        hwm.reset()
        pipe = Pipeline(ArtifactStore(None), n_jobs=1)
        records = {}
        fallbacks = 0
        for strategy in STRATEGIES:
            with partition_warnings() as degraded:
                with clock.section(strategy.lower()):
                    records[strategy] = pipe.run(self.scenario(strategy))
            fallbacks += bool(degraded)
        peak = _peak(hwm)
        sc, mc = records["SC_OC"], records["MC_TL"]
        quality = partition_quality(records, fallbacks)
        quality["makespan_ratio"] = sc.metrics.makespan / mc.metrics.makespan
        return Op(
            parts=dict(clock.parts),
            peak_rss_mib=peak,
            cells=sc.mesh.num_cells,
            tasks=sum(r.dag.num_tasks for r in records.values()),
            quality=quality,
            fingerprint={
                f"{s}.{k}": v
                for s, r in records.items()
                for k, v in (
                    ("domain", checks.digest(r.decomp.domain)),
                    ("edges", checks.digest(r.dag.edges)),
                    ("makespan", r.metrics.makespan),
                )
            },
            outputs=records,
        )

    def check(self, op: Op) -> list[str]:
        out = []
        for strategy, rec in op.outputs.items():
            tg = rec.scenario.taskgraph
            out += checks.check_labels(
                f"{strategy} partition", rec.mesh, rec.decomp.domain, self.domains
            )
            out += checks.check_dag(
                f"{strategy} task graph",
                rec.dag,
                rec.mesh,
                rec.tau,
                tg.scheme,
                tg.iterations,
            )
            out += checks.check_trace(
                f"{strategy} schedule", rec.trace, rec.dag, rec.metrics.makespan
            )
            out += checks.check_same(
                f"{strategy} mesh/levels vs set-up",
                checks.mesh_digests(rec.mesh, rec.tau),
                self.reference,
            )
        return out


# ---------------------------------------------------------------------
class FlusimReplay:
    """FLUSIM re-simulation of fixed partitions: SC_OC and MC_TL are
    partitioned in set-up; each operation expands the Heun task graph
    and simulates it on the four :data:`CLUSTERS`."""

    name = "flusim_replay"

    def __init__(
        self,
        seed: int,
        work_dir: Path,
        *,
        scale: int = 10,
        domains: int = 64,
        processes: int = 16,
        iterations: int = 8,
    ) -> None:
        self.seed = seed
        self.scale = scale
        self.domains = domains
        self.processes = processes
        self.iterations = iterations
        self.records: dict = {}
        self.quality: dict[str, float] = {}

    def setup(self) -> dict[str, str]:
        pipe = Pipeline(ArtifactStore(None), n_jobs=1)
        records = {}
        fallbacks = 0
        for strategy in STRATEGIES:
            scenario = Scenario.standard(
                "cylinder",
                self.domains,
                self.processes,
                4,
                strategy,
                scale=self.scale,
                seed=self.seed,
                scheme="heun",
                iterations=self.iterations,
            )
            with partition_warnings() as degraded:
                records[strategy] = pipe.run(scenario, through="partition")
            fallbacks += bool(degraded)
        self.records = records
        self.quality = partition_quality(records, fallbacks)
        rec = records["SC_OC"]
        return {
            **checks.mesh_digests(rec.mesh, rec.tau),
            **{
                f"{s}.domain": checks.digest(r.decomp.domain)
                for s, r in records.items()
            },
        }

    def run(self, clock: Clock, hwm: HighWaterMark) -> Op:
        hwm.reset()
        outputs = {}
        for strategy, rec in self.records.items():
            with clock.section(strategy.lower()):
                dag = taskgraph.generate_task_graph(
                    rec.mesh,
                    rec.tau,
                    rec.decomp,
                    scheme="heun",
                    iterations=self.iterations,
                )
                sims = []
                for label, cores, scheduler, comm in CLUSTERS:
                    cluster = ClusterConfig(rec.decomp.num_processes, cores)
                    trace = flusim.simulate(
                        dag, cluster, scheduler=scheduler, comm=comm, seed=self.seed
                    )
                    sims.append((label, trace, flusim.schedule_metrics(dag, trace)))
            outputs[strategy] = (dag, sims)
        peak = _peak(hwm)
        makespan = {
            s: sims[0][2].makespan for s, (_, sims) in outputs.items()
        }
        return Op(
            parts=dict(clock.parts),
            peak_rss_mib=peak,
            cells=self.records["SC_OC"].mesh.num_cells,
            tasks=sum(dag.num_tasks * len(sims) for dag, sims in outputs.values()),
            quality={
                **self.quality,
                "makespan_ratio": makespan["SC_OC"] / makespan["MC_TL"],
            },
            fingerprint={
                f"{s}.{label}": m.makespan
                for s, (dag, sims) in outputs.items()
                for label, _, m in sims
            }
            | {
                f"{s}.edges": checks.digest(dag.edges)
                for s, (dag, _) in outputs.items()
            },
            outputs=outputs,
        )

    def check(self, op: Op) -> list[str]:
        out = []
        for strategy, (dag, sims) in op.outputs.items():
            rec = self.records[strategy]
            out += checks.check_labels(
                f"{strategy} partition", rec.mesh, rec.decomp.domain, self.domains
            )
            out += checks.check_dag(
                f"{strategy} task graph",
                dag,
                rec.mesh,
                rec.tau,
                "heun",
                self.iterations,
            )
            for label, trace, metrics in sims:
                out += checks.check_trace(
                    f"{strategy} {label} schedule", trace, dag, metrics.makespan
                )
        return out


# ---------------------------------------------------------------------
class FrontColdWarm:
    """Mesh/levels front half through an on-disk store: a cold pass
    (compute + publish), a warm pass from a new store on the same
    root (disk hits only), then the dual graph with SC_OC and MC_TL
    vertex weights.  The mesh does not depend on the seed."""

    name = "front_cold_warm"

    def __init__(self, seed: int, work_dir: Path, *, scale: int = 13) -> None:
        self.seed = seed
        self.scale = scale
        self.root = work_dir / "front-store"
        self.reference: dict[str, str] = {}
        self.scenario = Scenario.standard(
            "cylinder", 1, 1, 1, scale=scale, seed=seed
        )

    def setup(self) -> dict[str, str]:
        """An in-memory build of the prefix the cold pass must
        reproduce bit for bit."""
        rec = Pipeline(ArtifactStore(None), n_jobs=1).run(
            self.scenario, through="levels"
        )
        self.reference = checks.mesh_digests(rec.mesh, rec.tau)
        return self.reference

    def run(self, clock: Clock, hwm: HighWaterMark) -> Op:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            hwm.reset()
            with clock.section("cold"):
                cold = Pipeline(ArtifactStore(self.root), n_jobs=1).run(
                    self.scenario, through="levels"
                )
            cold_digests = checks.mesh_digests(cold.mesh, cold.tau)
            cold_cache = {k: r.cache for k, r in cold.provenance.items()}
            del cold
            with clock.section("warm"):
                warm = Pipeline(ArtifactStore(self.root), n_jobs=1).run(
                    self.scenario, through="levels"
                )
            graphs = {}
            for strategy in STRATEGIES:
                with clock.section(strategy.lower()):
                    graphs[strategy] = dual.mesh_to_dual_graph(
                        warm.mesh, vwgt=constraint_weights(strategy, warm.tau)
                    )
            peak = _peak(hwm)
        finally:
            shutil.rmtree(self.root, ignore_errors=True)
        g = graphs["SC_OC"]
        return Op(
            parts=dict(clock.parts),
            peak_rss_mib=peak,
            cells=warm.mesh.num_cells,
            fingerprint={
                "xadj": checks.digest(g.xadj),
                "adjncy": checks.digest(g.adjncy),
            },
            outputs=(cold_digests, cold_cache, warm, graphs),
        )

    def check(self, op: Op) -> list[str]:
        cold_digests, cold_cache, warm, graphs = op.outputs
        out = checks.check_same("cold pass vs set-up", cold_digests, self.reference)
        out += checks.check_same(
            "warm pass vs cold pass",
            checks.mesh_digests(warm.mesh, warm.tau),
            cold_digests,
        )
        for stage, cache in cold_cache.items():
            if cache is not None:
                out.append(f"cold {stage} stage served from {cache!r}, not computed")
        for stage, rec in warm.provenance.items():
            if rec.cache != "disk":
                out.append(f"warm {stage} stage served from {rec.cache!r}, not 'disk'")
        mesh, tau = warm.mesh, warm.tau
        interior = int((mesh.face_cells[:, 1] >= 0).sum())
        for strategy, g in graphs.items():
            w = constraint_weights(strategy, tau)
            if g.num_vertices != mesh.num_cells or len(g.adjncy) != 2 * interior:
                out.append(
                    f"{strategy} dual: {g.num_vertices} vertices / "
                    f"{len(g.adjncy)} arcs for {mesh.num_cells} cells / "
                    f"{interior} interior faces"
                )
            if not np.allclose(g.vwgt.sum(axis=0), w.sum(axis=0), rtol=1e-6):
                out.append(f"{strategy} dual: vertex weight totals differ")
        sc, mc = graphs["SC_OC"], graphs["MC_TL"]
        if not (
            np.array_equal(sc.xadj, mc.xadj) and np.array_equal(sc.adjncy, mc.adjncy)
        ):
            out.append("SC_OC and MC_TL duals differ in structure")
        return out


WORKLOADS = {w.name: w for w in (Fig9Chain, FlusimReplay, FrontColdWarm)}

#: Workload sizes: ``full`` is the benchmark, ``tiny`` the self-tests.
SIZES = {
    "full": {name: {} for name in WORKLOADS},
    "tiny": {
        "fig9_chain": dict(scale=6, domains=8, processes=4, cores=4),
        "flusim_replay": dict(scale=6, domains=8, processes=4, iterations=2),
        "front_cold_warm": dict(scale=7),
    },
}
