"""Benchmark entry point for clocksync.

Untraced run (end-to-end metrics):
    python3 perfbench/run.py --workload variants-n10 --seed 0 --seconds 20 --trace 0
Traced run (per-layer metrics):
    python3 perfbench/run.py --workload variants-n10 --seed 0 --seconds 20 --trace 1
All workloads in one command (untraced or traced):
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  The package is imported from its ``src/``;
the workload runs in a child process (``worker.py``) so that its peak RSS
is its own.  Metric names and units come from ``BENCHMARK.json``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
WORKER = HERE / "worker.py"
OUT = HERE / "out"

SETUP_REPS = 5
RUN_TIMEOUT_S = 170.0
TIMING_KEYS = ("tracing.untraced_s", "tracing.traced_s", "tracing.overhead_s")


def _child(args: list[str], deadline: float) -> None:
    """Run the worker; its standard output goes to our standard error so
    that the result stays the last line of ours."""
    subprocess.run([sys.executable, str(WORKER), *args], check=True,
                   stdout=sys.stderr, timeout=max(1.0, deadline - time.perf_counter()))


def setup_seconds(base: list[str], deadline: float) -> list[float]:
    """Fresh interpreter -> import clocksync.experiments -> config resolved."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        _child(["--mode", "setup", *base], deadline)
        times.append(time.perf_counter() - t0)
    return times


def run_workload(spec: dict, workload: str, seed: int, seconds: int,
                 trace: bool, deadline: float) -> dict:
    workdir = OUT / "work"
    stem = f"{workload}_seed{seed}_trace{int(trace)}"
    base = ["--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]

    def worker(mode: str, *extra: str) -> dict:
        path = OUT / f"result_{stem}.json"
        path.unlink(missing_ok=True)
        _child(["--mode", mode, *base, "--result", str(path), *extra], deadline)
        return json.loads(path.read_text())

    if trace:
        record, values = trace_passes(spec, worker, seconds)
        declared = spec["per_layer"]
    else:
        setup = setup_seconds(base, deadline)
        record = worker("measure", "--seconds", str(seconds))
        values = {"setup_s": statistics.median(setup),
                  "updates_per_s": record["updates_per_s"],
                  "peak_rss_mb": record["peak_rss_mb"]}
        record["setup_runs_s"] = setup
        record["output_mb"] = record["output_bytes"] / 1e6
        record["ops_failed_frac"] = record["failed"] / record["attempted"]
        declared = spec["end_to_end"]
    mismatch = {m["name"] for m in declared} ^ set(values)
    if mismatch:
        raise RuntimeError(f"metrics not matching BENCHMARK.json: {sorted(mismatch)}")
    record["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in declared}
    (OUT / f"result_{stem}.json").write_text(json.dumps(record, indent=1))
    return record


def trace_passes(spec: dict, worker, seconds: int) -> tuple[dict, dict]:
    """Alternate untraced and traced passes over one batch, each in a fresh
    process so that both pay the same cold costs, until ``seconds`` pass.

    Per-layer times are medians over the traced passes; counts and ratios
    must repeat exactly, or the run counts as failed."""
    exact = {m["name"] for m in spec["per_layer"]
             if m["unit"] in ("count", "bytes", "ratio")}
    walls = {0: [], 1: []}
    passes, attempted, failed, problems = [], 0, 0, []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        for traced in (0, 1):
            rec = worker("pass", "--traced", str(traced))
            walls[traced].append(rec["wall_s"])
            attempted += rec["attempted"]
            failed += rec["failed"]
            problems += rec["problems"]
        passes.append(rec["metrics"])
    values = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    untraced, traced = statistics.median(walls[0]), statistics.median(walls[1])
    values.update(zip(TIMING_KEYS, (untraced, traced, traced - untraced)))
    unsteady = sorted(k for k in exact & set(passes[0])
                      if any(p[k] != passes[0][k] for p in passes))
    if unsteady:
        failed += 1
        problems.append(f"counts differ between passes: {unsteady}")
    record = {"attempted": attempted, "failed": failed, "problems": problems,
              "passes": len(passes), "pass_walls_s": walls,
              "ops": rec["ops"], "environment": rec["environment"]}
    return record, values


def report(workload: str, seed: int, record: dict) -> None:
    print(f"== {workload} (seed {seed}): {record['attempted']} operations, "
          f"{record['failed']} failed")
    for name, m in record["metrics"].items():
        print(f"{name:38s} {m['value']:>16.6g} {m['unit']}")
    if "output_mb" in record:
        print(f"{'output_mb':38s} {record['output_mb']:>16.6g} MB")
        print(f"{'ops_failed_frac':38s} {record['ops_failed_frac']:>16.6g} ratio")
    for problem in record["problems"]:
        print(f"FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "clocksync" / "__init__.py").is_file():
        print(f"error: no clocksync sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if not set(chosen) <= set(names):
        print(f"error: unknown workload {args.workload!r}; one of {names} or all",
              file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_TIMEOUT_S * len(chosen)
    OUT.mkdir(exist_ok=True)
    records = {}
    try:
        for workload in chosen:
            records[workload] = run_workload(spec, workload, args.seed,
                                             args.seconds, bool(args.trace),
                                             deadline)
            report(workload, args.seed, records[workload])
    except (subprocess.SubprocessError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(OUT / "work", ignore_errors=True)

    print(json.dumps({"environment": next(iter(records.values()))["environment"]}))
    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values())
    if len(chosen) == 1:
        metrics = records[chosen[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in records.items()
                   for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
