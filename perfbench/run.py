#!/usr/bin/env python3
"""The repository benchmark: the paper's chain, end to end and layer
by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig9_chain --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics, prints the layer table and writes a Chrome trace-event file
(open it in https://ui.perfetto.dev) under ``.bench_work/traces/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_work"
WORKLOAD_NAMES = ("fig9_chain", "flusim_replay", "front_cold_warm")

#: Environment knobs that change what is measured (engine, kernel tier,
#: worker count, spill budget, store location/locking); the benchmark
#: refuses to run under any of them.
REFUSED_KNOBS = (
    "REPRO_COMPILED",
    "REPRO_HIERARCHY_BUDGET",
    "REPRO_N_JOBS",
    "REPRO_DUAL_ENGINE",
    "REPRO_MESH_ENGINE",
    "REPRO_EXECUTOR",
    "REPRO_ARTIFACTS",
    "REPRO_ARTIFACTS_BUDGET",
    "REPRO_SHARED_BACKEND",
    "REPRO_STORE_LOCKING",
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny shrinks every workload for the benchmark's own tests",
    )
    return p.parse_args(argv)


def environment(args: argparse.Namespace) -> dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "repro_env": {k: v for k, v in os.environ.items() if k.startswith("REPRO_")},
    }


def _fmt(value: float | None, unit: str) -> str:
    if value is None:
        return f"{'n/a':>16s}"
    return f"{value:16.6g} {unit}"


def report(res, trace: bool, env: dict) -> dict[str, dict[str, object]]:
    """Print the human-readable report of one workload; return its
    JSON metrics."""
    from perfbench import runner, spans

    print(f"== {res.workload} seed={res.seed}: {res.attempted} op(s), "
          f"{res.failed} failed, set-up x{len(res.setup_s)}")
    if res.hwm_reason:
        print(f"   peak RSS is the process-lifetime mark: {res.hwm_reason}")
    for msg in res.failures:
        print(f"   CHECK FAILED: {msg}")
    if not res.untraced:
        return {}
    if trace:
        metrics = runner.per_layer(res)
        print(runner.layer_table(res))
        for name in ("trace.residual_frac", "trace.overhead_frac"):
            print(f"   {name} = {metrics[name][0]:.4f}")
        path = WORK_DIR / "traces" / f"{res.workload}-seed{res.seed}.json"
        spans.write_chrome_trace(res.recorder, {**env, "workload": res.workload}, str(path))
        print(f"   chrome trace: {path.relative_to(ROOT)}")
    else:
        metrics = runner.end_to_end(res)
        extra = runner.workload_metrics(res)
        units = dict(runner.WORKLOAD_METRICS)
        for name, (value, unit) in metrics.items():
            print(f"   {name:<16s}{_fmt(value, unit)}")
        for name, value in extra.items():
            print(f"   {name:<16s}{_fmt(value, units[name])}")
        print(f"   ({len(res.untraced)} timed op(s); times are medians)")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    refused = [k for k in REFUSED_KNOBS if os.environ.get(k, "").strip()]
    if refused:
        print(f"refusing to run: {', '.join(refused)} change what is "
              "measured; unset them", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 3
    # Import the benchmark as a package from the checkout root (not as
    # loose modules from its own directory) and the program from src/.
    sys.path[:1] = [str(ROOT), str(ROOT / "src")]
    from perfbench import runner

    env = environment(args)
    print("# env " + json.dumps(env, sort_keys=True))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    correct = True
    metrics: dict[str, dict[str, object]] = {}
    for name in names:
        res = runner.run_workload(
            name,
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            work_dir=WORK_DIR,
            size=args.size,
        )
        got = report(res, bool(args.trace), env)
        if not got:
            print(f"{name}: no operation completed", file=sys.stderr)
            return 1
        attempted += res.attempted
        failed += res.failed
        correct = correct and res.correct
        if len(names) == 1:
            metrics = got
        else:
            metrics.update({f"{name}.{k}": v for k, v in got.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
