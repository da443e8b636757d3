"""Run one workload for a fixed time and reduce it to metrics.

Untraced runs give the end-to-end metrics.  A traced run alternates an
untraced and a traced operation (at least one of each), reports the
per-layer metrics from the traced ones, and takes its tracing overhead
from the difference between the two kinds.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time
import traceback
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from . import checks, spans
from .workloads import SIZES, WORKLOADS, Clock, Op

__all__ = ["END_TO_END", "PER_LAYER", "Result", "run_workload"]

#: Set-up runs this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: (name, unit) of the gated end-to-end metrics every workload reports.
#: ``wall_ref`` is an operation's wall time over the reference kernel's
#: time measured around it (see :func:`reference_s`).
END_TO_END = (
    ("wall_ref", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)

#: Further end-to-end metrics, printed in the report (``n/a`` where a
#: metric does not apply) and exported from traced runs.  They are not
#: gated: raw seconds follow the host's speed, which drifts by more than
#: a regression bound from run to run; some metrics apply to one
#: workload only, and some are 0 by design (see README.md).
WORKLOAD_METRICS = (
    ("wall_s", "s"),
    ("cells_per_s", "1/s"),
    ("reference_s", "s"),
    ("sc_oc_s", "s"),
    ("mc_tl_s", "s"),
    ("tasks_per_s", "1/s"),
    ("cold_s", "s"),
    ("warm_s", "s"),
    ("makespan_ratio", "ratio"),
    ("edge_cut", "faces"),
    ("max_imbalance", "ratio"),
    ("fallback_frac", "frac"),
    ("failed_frac", "frac"),
)

#: (name, unit) of the per-layer metrics of a traced run.
PER_LAYER = (
    ("graph.match_s", "s"),
    ("graph.contract_s", "s"),
    ("graph.coarsen_self_s", "s"),
    ("graph.coarsen_levels", "count"),
    ("graph.coarsen_shrink", "ratio"),
    ("graph.initial_s", "s"),
    ("graph.fm_s", "s"),
    ("graph.fm_cut_gain", "frac"),
    ("graph.rebalance_s", "s"),
    ("graph.bisect_self_s", "s"),
    ("graph.partition_self_s", "s"),
    ("graph.bisect_calls", "count"),
    ("graph.bisect_waste", "count"),
    ("graph.partition_peak_rss_mib", "MiB"),
    ("graph.edge_cut", "faces"),
    ("graph.max_imbalance", "ratio"),
    ("graph.fallback_frac", "frac"),
    ("partitioning.strategy_self_s", "s"),
    ("mesh.generate_s", "s"),
    ("mesh.generate_peak_rss_mib", "MiB"),
    ("mesh.dual_s", "s"),
    ("mesh.dual_peak_rss_mib", "MiB"),
    ("temporal.levels_s", "s"),
    ("temporal.levels_peak_rss_mib", "MiB"),
    ("pipeline.run_self_s", "s"),
    ("pipeline.plan_s", "s"),
    ("pipeline.stage_self_s", "s"),
    ("pipeline.claim_s", "s"),
    ("pipeline.store_write_s", "s"),
    ("pipeline.store_write_bytes", "bytes"),
    ("pipeline.store_read_s", "s"),
    ("pipeline.store_read_bytes", "bytes"),
    ("pipeline.store_hit_ratio", "ratio"),
    ("taskgraph.generate_s", "s"),
    ("taskgraph.tasks", "count"),
    ("taskgraph.edges", "count"),
    ("taskgraph.critical_path_s", "s"),
    ("taskgraph.critical_path_calls", "count"),
    ("flusim.simulate_s", "s"),
    ("flusim.simulate_calls", "count"),
    ("flusim.metrics_self_s", "s"),
    ("flusim.makespan_ratio", "ratio"),
    ("flusim.tasks_per_s", "1/s"),
    ("op.sc_oc_s", "s"),
    ("op.mc_tl_s", "s"),
    ("op.cold_s", "s"),
    ("op.warm_s", "s"),
    ("trace.probe_s", "s"),
    ("trace.residual_frac", "frac"),
    ("trace.overhead_frac", "frac"),
)

#: Per-layer metrics that are a layer's self seconds per traced op.
_SELF_TIME = {
    "graph.match_s": "graph.match",
    "graph.contract_s": "graph.contract",
    "graph.coarsen_self_s": "graph.coarsen",
    "graph.initial_s": "graph.initial",
    "graph.fm_s": "graph.fm",
    "graph.rebalance_s": "graph.rebalance",
    "graph.bisect_self_s": "graph.bisect",
    "graph.partition_self_s": "graph.partition",
    "partitioning.strategy_self_s": "partitioning.strategy",
    "mesh.generate_s": "mesh.generate",
    "mesh.dual_s": "mesh.dual",
    "temporal.levels_s": "temporal.levels",
    "pipeline.run_self_s": "pipeline.run",
    "pipeline.plan_s": "pipeline.plan",
    "pipeline.stage_self_s": "pipeline.stage",
    "pipeline.claim_s": "pipeline.claim",
    "pipeline.store_write_s": "pipeline.store_write",
    "pipeline.store_read_s": "pipeline.store_read",
    "taskgraph.generate_s": "taskgraph.generate",
    "taskgraph.critical_path_s": "taskgraph.critical_path",
    "flusim.simulate_s": "flusim.simulate",
    "flusim.metrics_self_s": "flusim.metrics",
    "trace.probe_s": spans.PROBE,
}


@dataclass
class Result:
    workload: str
    seed: int
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed: int = 0
    setup_s: list[float] = field(default_factory=list)
    untraced: list[Op] = field(default_factory=list)
    traced: list[Op] = field(default_factory=list)
    hwm_reason: str | None = None
    recorder: spans.Recorder | None = None

    @property
    def correct(self) -> bool:
        return not self.failures and bool(self.untraced or self.traced)


def reference_s() -> float:
    """Median seconds of three runs of a fixed reference kernel: a NumPy
    sort, gather and scatter, zlib compression and an interpreted
    dict/list loop, the kinds of work the workloads spend their time
    in.  It does not call the program, so no change to the program can
    move it; measured around every operation, it tracks the host's
    current speed."""
    rng = np.random.default_rng(12345)
    a = rng.integers(0, 1 << 20, 1 << 19)
    items = list(range(1024))
    times = []
    for _ in range(3):
        table: dict[int, int] = {}
        t0 = time.perf_counter()
        for _ in range(2):
            np.bincount(a[np.argsort(a, kind="stable")] & 0xFFFF)
        zlib.compress(a[: 1 << 17].tobytes(), 6)
        for i in range(150_000):
            key = i & 1023
            table[key] = table.get(key, 0) + items[key]
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@contextlib.contextmanager
def forbid_default_store() -> Iterator[None]:
    """Make the process-wide artifact store unreachable: every store
    the benchmark uses is explicit, so a call into the default store
    is a defect of the benchmark or of the program."""
    import repro.pipeline.store as store_mod

    def refuse():
        raise RuntimeError("the benchmark must not use the default store")

    undo = spans.rebind(store_mod.default_store, refuse)
    try:
        yield
    finally:
        for mod, attr, orig in undo:
            setattr(mod, attr, orig)


def run_workload(
    name: str,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    work_dir: Path,
    size: str = "full",
) -> Result:
    """Set up ``name`` :data:`SETUP_REPEATS` times, then run operations
    until the next one would end past ``seconds`` (at least one; in a
    traced run at least one untraced and one traced)."""
    res = Result(name, seed)
    hwm = spans.HighWaterMark()
    res.hwm_reason = hwm.reason
    wl = WORKLOADS[name](seed, work_dir, **SIZES[size][name])
    if trace:
        res.recorder = spans.Recorder(hwm)
    with forbid_default_store():
        first = None
        for i in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            fp = wl.setup()
            res.setup_s.append(time.perf_counter() - t0)
            first = fp if first is None else first
            res.failures += checks.check_same(f"set-up repeat {i}", fp, first)

        costs: list[float] = []
        first_fp = None
        t_start = time.perf_counter()
        ref_before = reference_s()
        while True:
            traced = trace and len(res.traced) < len(res.untraced)
            t0 = time.perf_counter()
            res.attempted += 1
            op, errors = _one_op(wl, res.recorder if traced else None, hwm)
            ref_after = reference_s()
            if op is not None:
                op.ref_s = (ref_before + ref_after) / 2
                first_fp = op.fingerprint if first_fp is None else first_fp
                errors += checks.check_same(
                    "same-seed outputs vs the first operation",
                    op.fingerprint,
                    first_fp,
                )
                (res.traced if traced else res.untraced).append(op)
            ref_before = ref_after
            if errors:
                res.failed += 1
                res.failures += errors
            costs.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - t_start
            done = elapsed + statistics.median(costs) > seconds
            if trace:
                # One op of each kind, unless they keep failing.
                done = done and (
                    bool(res.traced and res.untraced) or res.attempted >= 4
                )
            if done:
                break
    return res


def _one_op(
    wl, rec: spans.Recorder | None, hwm: spans.HighWaterMark
) -> tuple[Op | None, list[str]]:
    """One operation and its checks; the outputs are dropped after."""
    try:
        if rec is None:
            op = wl.run(Clock(), hwm)
        else:
            with spans.instrument(rec):
                op = wl.run(Clock(rec), hwm)
        errors = wl.check(op)
    except Exception as exc:  # a failing operation is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return None, [f"operation raised {type(exc).__name__}: {exc}"]
    op.outputs = None
    return op, errors


# ---------------------------------------------------------------------
def end_to_end(res: Result) -> dict[str, tuple[float, str]]:
    ops = res.untraced
    med = lambda f: statistics.median([f(op) for op in ops])  # noqa: E731
    values = {
        "wall_ref": med(lambda op: op.wall_s / op.ref_s),
        "setup_s": statistics.median(res.setup_s),
        "peak_rss_mib": med(lambda op: op.peak_rss_mib),
    }
    return {k: (values[k], unit) for k, unit in END_TO_END}


def workload_metrics(res: Result) -> dict[str, float | None]:
    """The workload-specific end-to-end metrics (``None`` where a
    metric does not apply), from the untraced operations."""
    ops = res.untraced
    out: dict[str, float | None] = {k: None for k, _ in WORKLOAD_METRICS}
    out["wall_s"] = statistics.median([op.wall_s for op in ops])
    out["cells_per_s"] = statistics.median([op.cells / op.wall_s for op in ops])
    out["reference_s"] = statistics.median([op.ref_s for op in ops])
    if ops[0].tasks:
        out["tasks_per_s"] = statistics.median([op.tasks / op.wall_s for op in ops])
    for part in ("sc_oc", "mc_tl", "cold", "warm"):
        if part in ops[0].parts:
            out[f"{part}_s"] = statistics.median([op.parts[part] for op in ops])
    out.update(ops[0].quality)
    out["failed_frac"] = res.failed / res.attempted
    return out


def per_layer(res: Result) -> dict[str, tuple[float, str]]:
    rec = res.recorder
    n = len(res.traced)
    totals = spans.layer_totals(rec)
    counters = rec.counters

    def calls(layer: str) -> float:
        return totals[layer].calls if layer in totals else 0.0

    def counter(layer: str, key: str) -> float:
        return counters.get(layer, {}).get(key, 0.0)

    def peak(layer: str) -> float:
        return totals[layer].peak_rss_mib if layer in totals else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    values = {
        k: (totals[layer].self_s / n if layer in totals else 0.0)
        for k, layer in _SELF_TIME.items()
    }
    roots = [t for name, t in totals.items() if name.startswith("op.")]
    wall = sum(t.total_s for t in roots)
    extra = workload_metrics(res)
    values.update(
        {
            "graph.coarsen_levels": ratio(calls("graph.coarsen"), calls("graph.bisect")),
            "graph.coarsen_shrink": ratio(
                counter("graph.coarsen", "shrink_sum"), calls("graph.coarsen")
            ),
            "graph.fm_cut_gain": ratio(
                counter("graph.fm", "cut_gain"), counter("graph.fm", "cut_before")
            ),
            "graph.bisect_calls": calls("graph.bisect") / n,
            "graph.bisect_waste": (
                calls("graph.bisect") - counter("graph.partition", "min_bisections")
            )
            / n,
            "graph.partition_peak_rss_mib": peak("graph.partition"),
            "graph.edge_cut": extra["edge_cut"] or 0.0,
            "graph.max_imbalance": extra["max_imbalance"] or 0.0,
            "graph.fallback_frac": extra["fallback_frac"] or 0.0,
            "mesh.generate_peak_rss_mib": peak("mesh.generate"),
            "mesh.dual_peak_rss_mib": peak("mesh.dual"),
            "temporal.levels_peak_rss_mib": peak("temporal.levels"),
            "pipeline.store_write_bytes": counter("pipeline.store_write", "bytes") / n,
            "pipeline.store_read_bytes": counter("pipeline.store_read", "bytes") / n,
            "pipeline.store_hit_ratio": ratio(
                counter("pipeline.stage", "hits"), calls("pipeline.stage")
            ),
            "taskgraph.tasks": counter("taskgraph.generate", "tasks") / n,
            "taskgraph.edges": counter("taskgraph.generate", "edges") / n,
            "taskgraph.critical_path_calls": calls("taskgraph.critical_path") / n,
            "flusim.simulate_calls": calls("flusim.simulate") / n,
            "flusim.makespan_ratio": extra["makespan_ratio"] or 0.0,
            "flusim.tasks_per_s": extra["tasks_per_s"] or 0.0,
            **{f"op.{k}": extra[k] or 0.0 for k in ("sc_oc_s", "mc_tl_s", "cold_s", "warm_s")},
            "trace.residual_frac": ratio(sum(t.self_s for t in roots), wall),
            "trace.overhead_frac": statistics.median(
                [op.wall_s / op.ref_s for op in res.traced]
            )
            / statistics.median([op.wall_s / op.ref_s for op in res.untraced])
            - 1.0,
        }
    )
    return {k: (values[k], unit) for k, unit in PER_LAYER}


def layer_table(res: Result) -> str:
    """Self time, share, calls and ratios per layer of a traced run;
    the self times of all rows add up to the traced wall."""
    rec = res.recorder
    n = len(res.traced)
    totals = spans.layer_totals(rec)
    wall = sum(t.total_s for k, t in totals.items() if k.startswith("op."))
    c = rec.counters

    def get(layer: str, key: str) -> float:
        return c.get(layer, {}).get(key, 0.0)

    def peak(layer: str) -> str:
        t = totals.get(layer)
        return f"peak {t.peak_rss_mib:.0f} MiB" if t and t.peak_rss_mib else ""

    notes = {
        "graph.fm": "cut gain {:.1%}".format(
            get("graph.fm", "cut_gain") / get("graph.fm", "cut_before")
        )
        if get("graph.fm", "cut_before")
        else "",
        "graph.coarsen": "shrink {:.3f}/level".format(
            get("graph.coarsen", "shrink_sum") / totals["graph.coarsen"].calls
        )
        if "graph.coarsen" in totals
        else "",
        "graph.partition": peak("graph.partition"),
        "mesh.generate": peak("mesh.generate"),
        "mesh.dual": peak("mesh.dual"),
        "temporal.levels": peak("temporal.levels"),
        "pipeline.stage": "hit ratio {:.2f}".format(
            get("pipeline.stage", "hits") / totals["pipeline.stage"].calls
        )
        if "pipeline.stage" in totals
        else "",
        "pipeline.store_write": f"{get('pipeline.store_write', 'bytes') / n / 2**20:.1f} MiB/op",
        "pipeline.store_read": f"{get('pipeline.store_read', 'bytes') / n / 2**20:.1f} MiB/op",
        "taskgraph.generate": "{:.0f} tasks, {:.0f} edges /op".format(
            get("taskgraph.generate", "tasks") / n, get("taskgraph.generate", "edges") / n
        ),
    }
    sections = {k: t.total_s for k, t in totals.items() if k.startswith("op.")}
    lines = [
        f"{'layer':<24s} {'self_s/op':>10s} {'share':>7s} {'calls/op':>9s} "
        + "".join(f"{k[3:] + '%':>8s}" for k in sections)
        + "  ratios"
    ]
    for name, t in sorted(totals.items(), key=lambda kv: -kv[1].self_s):
        lines.append(
            f"{name:<24s} {t.self_s / n:10.4f} {100 * t.self_s / wall:6.2f}% "
            f"{t.calls / n:9.1f} "
            + "".join(
                f"{100 * t.by_root.get(k, 0.0) / w:7.2f}%" for k, w in sections.items()
            )
            + f"  {notes.get(name, '')}"
        )
    accounted = sum(t.self_s for t in totals.values())
    lines.append(
        f"{'sum of self times':<24s} {accounted / n:10.4f} "
        f"{100 * accounted / wall:6.2f}%  (traced wall {wall / n:.4f} s/op over "
        f"{n} traced op(s); the op.* rows are the residual; per-section "
        "columns are shares of that section's wall)"
    )
    return "\n".join(lines)
