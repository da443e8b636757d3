"""Tests of the benchmark itself, at the tiny size.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, runner, spans
from perfbench.workloads import SIZES, WORKLOADS, Clock

ROOT = Path(__file__).resolve().parent.parent


def _bench(*args: str, cwd: Path = ROOT, knobs: dict | None = None):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        env={**env, **(knobs or {})},
        capture_output=True,
        text=True,
        timeout=300,
    )


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _tiny(name: str, tmp_path: Path):
    wl = WORKLOADS[name](3, tmp_path, **SIZES["tiny"][name])
    wl.setup()
    hwm = spans.HighWaterMark()
    return wl, wl.run(Clock(), hwm)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        runner.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        runner.PER_LAYER
    )
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_prints_every_metric_with_its_unit(name, trace):
    p = _bench(
        "--workload", name, "--seed", "2", "--seconds", "0.5",
        "--trace", str(trace), "--size", "tiny",
    )
    assert p.returncode == 0, p.stderr
    out = _last_json(p.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= (2 if trace else 1)
    expected = runner.PER_LAYER if trace else runner.END_TO_END
    assert {k: v["unit"] for k, v in out["metrics"].items()} == dict(expected)
    assert all(np.isfinite(v["value"]) for v in out["metrics"].values())
    if not trace:
        # The workload-specific metrics are printed by name and unit.
        for metric, unit in runner.WORKLOAD_METRICS:
            assert any(
                line.split()[:1] == [metric]
                and (line.split()[-1] in (unit, "n/a"))
                for line in p.stdout.splitlines()
            ), metric
    else:
        trace_file = ROOT / ".bench_work" / "traces" / f"{name}-seed2.json"
        events = json.loads(trace_file.read_text())["traceEvents"]
        ids = {e["args"]["id"] for e in events}
        assert all(
            e["args"]["parent"] is None or e["args"]["parent"] in ids
            for e in events
        )


def test_shuffled_labels_fail_the_partition_check(tmp_path):
    wl, op = _tiny("fig9_chain", tmp_path)
    assert wl.check(op) == []
    rec = op.outputs["MC_TL"]
    rng = np.random.default_rng(0)
    rec.decomp.domain[:] = rng.permutation(rec.decomp.domain)
    errors = wl.check(op)
    assert any("MC_TL partition" in e and "not a partition" in e for e in errors)


def test_task_before_its_predecessor_fails_the_schedule_check(tmp_path):
    wl, op = _tiny("flusim_replay", tmp_path)
    assert wl.check(op) == []
    dag, sims = op.outputs["SC_OC"]
    trace = sims[1][1]
    pred, succ = dag.edges[0]
    shift = trace.end[pred] - trace.start[succ] + 1.0
    trace.start[succ] -= shift
    trace.end[succ] -= shift
    errors = wl.check(op)
    assert any("dependency violated" in e for e in errors)


def test_flipped_warm_element_fails_the_cold_warm_check(tmp_path):
    wl, op = _tiny("front_cold_warm", tmp_path)
    assert wl.check(op) == []
    warm = op.outputs[2]
    warm.mesh.cell_volumes[7] = np.nextafter(warm.mesh.cell_volumes[7], 1.0)
    errors = wl.check(op)
    assert errors == ["warm pass vs cold pass: cell_volumes differs"]
    assert not (tmp_path / "front-store").exists()


def test_same_seed_check_catches_a_changed_output():
    assert checks.check_same("x", {"a": "1", "b": 2.0}, {"a": "1", "b": 2.0}) == []
    assert checks.check_same("x", {"a": "1"}, {"a": "2"}) == ["x: a differs"]


def test_trace_self_times_tile_the_wall_and_originals_return(tmp_path):
    import repro.graph.bisect as bisect
    import repro.taskgraph as taskgraph

    before = (bisect.fm_refine, taskgraph.generate_task_graph)
    res = runner.run_workload(
        "fig9_chain", seed=1, seconds=0.1, trace=True, work_dir=tmp_path, size="tiny"
    )
    assert (bisect.fm_refine, taskgraph.generate_task_graph) == before
    assert res.correct and res.traced and res.untraced
    totals = spans.layer_totals(res.recorder)
    wall = sum(t.total_s for k, t in totals.items() if k.startswith("op."))
    assert sum(t.self_s for t in totals.values()) == pytest.approx(wall, rel=1e-9)
    layers = runner.per_layer(res)
    assert layers["graph.bisect_calls"][0] > 0
    assert layers["graph.bisect_waste"][0] >= 0
    assert 0 <= layers["trace.residual_frac"][0] < 0.05


def test_refuses_measurement_changing_knobs():
    p = _bench(
        "--workload", "fig9_chain", "--seconds", "0.1", "--size", "tiny",
        knobs={"REPRO_N_JOBS": "2"},
    )
    assert p.returncode == 2
    assert "REPRO_N_JOBS" in p.stderr and p.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    p = _bench("--workload", "fig9_chain", "--seconds", "0.1", cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout == ""
