"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import dataclasses
import itertools
import json
import shutil
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from clocksync import engine, experiments, topology  # noqa: E402


def small(op, updates, **network):
    config = json.loads(json.dumps(op.config))
    config["updates"] = updates
    config["network"].update(network)
    requested = updates * len(workloads.PARAMS[op.workload].get("nodes", [1]))
    return dataclasses.replace(op, config=config, requested_updates=requested)


def test_self_time_of_nested_spans():
    tr = tracing.Tracer()
    root = tr.add_span("run", 0.0, 10.0)
    a = tr.add_span("broadcast", 1.0, 4.0, root)
    tr.add_span("sample_delay", 2.0, 3.0, a)
    tr.add_span("sample_delay", 3.0, 3.5, a)
    tr.add_span("broadcast", 5.0, 9.0, root)
    s = tr.summary()
    assert s["run"] == {"s": 10.0, "self_s": 3.0, "calls": 1}
    assert s["broadcast"] == {"s": 7.0, "self_s": 5.5, "calls": 2}
    assert s["sample_delay"] == {"s": 1.5, "self_s": 1.5, "calls": 2}


def test_wrappers_nest_spans_and_are_removed(tmp_path):
    originals = (engine.broadcast, engine.run, topology.Network.load,
                 vars(topology.Network)["load"], experiments.run_single)
    tr = tracing.Tracer()
    with tracing.traced(tr):
        assert engine.broadcast is not originals[0]
        op = small(workloads.batch("variants-n10", 0)[0], 300)
        workloads.run_op(op, tmp_path, None)
    assert (engine.broadcast, engine.run, topology.Network.load,
            vars(topology.Network)["load"], experiments.run_single) == originals
    s = tr.summary()
    assert s["experiments.run_single"]["calls"] == 1
    assert s["engine.run"]["calls"] == 1
    assert s["sync.process_message"]["calls"] == 300
    assert tr.counters["engine.updates"] == 300
    assert s["engine.run"]["self_s"] < s["engine.run"]["s"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_does_not_change_outputs(workload, tmp_path):
    op = small(workloads.batch(workload, 3)[0], 400, n=12)
    plain = workloads.run_op(op, tmp_path, None)
    with tracing.traced(tracing.Tracer()):
        traced = workloads.run_op(op, tmp_path, None)
    assert plain.problems == [] and traced.problems == []
    assert plain.fingerprint and traced.fingerprint == plain.fingerprint


def test_recorded_fingerprint_matches_and_mismatch_fails(tmp_path):
    op = workloads.batch("variants-n10", 5)[2]
    expected = workloads.load_fingerprints("variants-n10")[op.key]
    assert workloads.run_op(op, tmp_path, expected).problems == []
    wrong = dict(expected, trace="0" * 64)
    assert workloads.run_op(op, tmp_path, wrong).problems == [
        "fingerprint mismatch: trace"]


def test_perturbed_artifact_fails_the_check(tmp_path):
    op = small(workloads.batch("run-report-n200", 1)[0], 200, n=12)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(op.config))
    out = tmp_path / "out"
    for cmd in op.commands:
        subs = {workloads.CONFIG: str(config), workloads.OUTDIR: str(out)}
        assert experiments.main([subs.get(a, a) for a in cmd]) == 0
    expected, _ = workloads.artifact_fingerprint(out)
    assert set(expected) == {"trace_seed1.csv", "metrics_seed1.csv",
                             "network_seed1.json", "report.txt"}
    assert workloads.check_artifacts(op, out) == []

    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    trace = copy / "trace_seed1.csv"
    data = bytearray(trace.read_bytes())
    data[-3] = ord("7") if data[-3] != ord("7") else ord("8")
    trace.write_bytes(bytes(data))
    assert workloads.compare(expected, workloads.artifact_fingerprint(copy)[0]) == [
        "fingerprint mismatch: trace_seed1.csv"]

    metrics = copy / "metrics_seed1.csv"
    metrics.write_text(metrics.read_text().replace("\n1,", "\n1,nan,", 1))
    problems = workloads.check_artifacts(op, copy)
    assert problems == ["metrics_seed1.csv: non-finite value"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_configs(workload):
    def configs(seed):
        return [(op.key, op.config, op.commands) for b in
                itertools.islice(workloads.batches(workload, seed), 30)
                for op in b]
    assert configs(11) == configs(11)
    assert configs(11) != configs(12)
    keys = {op.key for b in itertools.islice(workloads.batches(workload, 4),
                                             workloads.POOL_SIZE) for op in b}
    assert keys == set(workloads.load_fingerprints(workload))


def test_declared_per_layer_metrics_match_the_worker():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["per_layer"]]
    empty = {name: {"s": 0.0, "self_s": 0.0, "calls": 0}
             for name in worker.SPAN_METRICS}
    produced = list(worker.layer_metrics(empty, Counter()))
    assert sorted(declared) == sorted(produced + list(run.TIMING_KEYS))
