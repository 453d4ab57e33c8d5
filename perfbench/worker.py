"""Child process of the benchmark: runs one workload and writes a JSON record.

Modes:
  setup    import ``clocksync.experiments`` and resolve the workload's first
           config, then exit (timed from outside as ``setup_s``);
  measure  untraced: run seed-determined batches until ``--seconds`` pass;
  pass     one pass over the seed's first batch, untraced or (``--traced 1``)
           with the span wrappers installed, reporting per-layer figures;
  record   record the output fingerprints of every pool operation into
           ``fingerprints.json`` (refuses to overwrite a recorded workload).

The package is imported from ``src/`` of the checkout the benchmark sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import clocksync  # noqa: E402
from clocksync import experiments  # noqa: E402

if Path(clocksync.__file__).resolve().parent != SRC / "clocksync":
    sys.exit(f"clocksync imported from {clocksync.__file__}, not from {SRC}")

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Per-layer figures read off the spans: which of total time (s), self
# time (self_s) and call count (calls) each span name reports.
SPAN_METRICS = {
    "engine.run": ("s", "self_s"),
    "engine.broadcast": ("s", "calls"),
    "topology.out_neighbors": ("s", "calls"),
    "streams.substream": ("s", "calls"),
    "clock.read_local_time": ("s", "calls"),
    "clock.sample_delay": ("s", "calls"),
    "sync.process_message": ("s", "calls"),
    "engine.Trace.to_csv": ("s",),
    "analysis.metrics": ("s",),
    "analysis.fixed_point_residual": ("s",),
    "analysis.Metrics.to_csv": ("s",),
    "analysis.spectral_check": ("s",),
    "analysis.lyapunov_solve": ("s",),
    "analysis.rate_bound": ("s",),
    "topology.generate_geometric": ("s",),
    "topology.Network.save": ("s", "calls"),
    "topology.Network.load": ("s", "calls"),
    "experiments.run_single": ("calls",),
    "experiments.run_experiment": ("s",),
    "experiments.report": ("s",),
    "experiments.run_scaling": ("s",),
}
COUNTERS = ("engine.updates", "engine.ticks", "engine.trace_bytes",
            "engine.Trace.to_csv.bytes", "sync.first_messages")

COLD_COSTS = (
    "setup_s includes interpreter start and the imports; engine.run.s "
    "includes substream construction; analysis.spectral_check.s includes "
    "the first-call BLAS warm-up. Every CLI call pays all three, so none "
    "is warmed away.")


def layer_metrics(summary: dict, counters) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    out: dict[str, float] = {}
    for name, fields in SPAN_METRICS.items():
        span = summary.get(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        for f in fields:
            out[f"{name}.{f}"] = span[f]
    for key in COUNTERS:
        out[key] = counters[key]
    updates = counters["engine.updates"]
    attempts = counters["engine.out_arc_attempts"]
    pm_calls = out["sync.process_message.calls"]
    out["engine.us_per_update"] = (1e6 * out["engine.run.s"] / updates
                                   if updates else 0.0)
    out["engine.hear_ratio"] = (counters["engine.deliveries"] / attempts
                                if attempts else 0.0)
    out["sync.drift_update_ratio"] = (counters["sync.drift_updates"] / pm_calls
                                      if pm_calls else 0.0)
    return out


def run_batch(batch, workdir, expected):
    outcomes = [workloads.run_op(op, workdir, expected[op.key])
                for op in batch]
    return outcomes, sum(o.seconds for o in outcomes)


def measure(workload, seed, seconds, workdir) -> dict:
    expected = workloads.load_fingerprints(workload)
    outcomes = []
    start = time.perf_counter()
    for batch in workloads.batches(workload, seed):
        outcomes += run_batch(batch, workdir, expected)[0]
        if time.perf_counter() - start >= seconds:
            break
    op_seconds = sum(o.seconds for o in outcomes)
    requested = sum(o.op.requested_updates for o in outcomes)
    return {
        **_tally(outcomes),
        "requested_updates": requested,
        "op_seconds": op_seconds,
        "updates_per_s": requested / op_seconds,
        "output_bytes": sum(o.output_bytes for o in outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": [[o.op.key, o.seconds] for o in outcomes],
    }


def one_pass(workload, seed, traced, workdir, spans_path) -> dict:
    """One pass over the seed's first batch, with or without the wrappers."""
    expected = workloads.load_fingerprints(workload)
    batch = next(workloads.batches(workload, seed))
    metrics = {}
    if traced:
        tr = tracing.Tracer()
        with tracing.traced(tr):
            outcomes, wall = run_batch(batch, workdir, expected)
        tr.save(spans_path)
        metrics = layer_metrics(tr.summary(), tr.counters)
    else:
        outcomes, wall = run_batch(batch, workdir, expected)
    return {**_tally(outcomes), "wall_s": wall, "metrics": metrics,
            "ops": [[o.op.key, o.seconds] for o in outcomes]}


def _tally(outcomes) -> dict:
    failed = [o for o in outcomes if o.problems]
    return {"attempted": len(outcomes), "failed": len(failed),
            "problems": [f"{o.op.key}: {p}" for o in failed[:5]
                         for p in o.problems[:3]]}


def record(names, workdir) -> None:
    data = (json.loads(workloads.FINGERPRINTS.read_text())
            if workloads.FINGERPRINTS.exists() else {})
    for workload in names:
        if workload in data:
            sys.exit(f"{workload}: fingerprints already recorded; "
                     "they are never regenerated")
        ops = {}
        for s in range(workloads.POOL_SIZE):
            for op in workloads.batch(workload, s):
                got = workloads.run_op(op, workdir, None)
                if got.problems:
                    sys.exit(f"{op.key}: {got.problems}")
                ops[op.key] = got.fingerprint
            print(f"{workload} seed {s} recorded", file=sys.stderr)
        data[workload] = {"params": workloads.PARAMS[workload],
                          "pool_size": workloads.POOL_SIZE, "ops": ops}
        workloads.FINGERPRINTS.write_text(json.dumps(data, indent=1, sort_keys=True)
                                          + "\n")


def environment() -> dict:
    import networkx
    import scipy
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "openblas_threads": _openblas_threads(),
        "platform": platform.platform(),
        "cold_costs": COLD_COSTS,
    }


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _openblas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS bundled with numpy and scipy."""
    import ctypes
    import scipy
    found = {}
    for mod in (np, scipy):
        libs = Path(mod.__file__).parent.parent / f"{mod.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[lib.name] = fn()
                    break
    return found


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "pass", "record"))
    parser.add_argument("--workload", nargs="+", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path)
    args = parser.parse_args()
    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = args.workload[0]
    if args.mode == "setup":
        op = next(workloads.batches(workload, args.seed))[0]
        experiments.ExperimentConfig.from_dict(op.config)
        return
    if args.mode == "record":
        record(args.workload, args.workdir)
        return
    if args.mode == "measure":
        result = measure(workload, args.seed, args.seconds, args.workdir)
    else:
        spans = args.result.with_name(args.result.stem + "_spans.npz")
        result = one_pass(workload, args.seed, args.traced, args.workdir, spans)
    result["environment"] = environment()
    args.result.write_text(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
