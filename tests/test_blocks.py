"""Row blocks of the dense estimate views: the blocks, the metrics, the
strided trace CSV and the convergence flag against the dense (K, n)
formulas they replace, and the O(K) memory of the analysis and CSV paths."""

import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clocksync
from clocksync import analysis, engine, experiments
from clocksync.sync import OffsetA, OffsetB, SyncConfig
from clocksync.topology import GeometricSpec, generate_geometric

from conftest import networks


# ---------------------------------------------------------------------------
# The dense formulas: every (K, n) view materialised at once
# ---------------------------------------------------------------------------

def dense(trace, values, initial):
    """(K, n) matrix whose column m repeats node m's latest event value,
    or ``initial`` before its first update."""
    K = len(trace.t)
    last = np.zeros((K, trace.n), dtype=np.intp)
    last[np.arange(K), trace.receiver] = trace.k
    np.maximum.accumulate(last, axis=0, out=last)
    return np.concatenate(([initial], values))[last]


def dense_views(trace):
    return (dense(trace, trace.a_i, 1.0), dense(trace, trace.b_i, 0.0),
            dense(trace, trace.c_i, 0.0))


def dense_metrics(result):
    tr = result.trace
    a, b, _ = dense_views(tr)
    g = a * result.net.alphas()
    f = a * result.net.betas() + b
    vc = g * tr.t[:, None] + f
    return (g.max(axis=1) - g.min(axis=1), g.var(axis=1),
            f.max(axis=1) - f.min(axis=1), vc.max(axis=1) - vc.min(axis=1))


def dense_csv(trace, stride):
    """The trace CSV bytes written from the full columns."""
    n = trace.n
    header = ["k", "t_abs", "receiver", "sender"]
    header += [f"{v}_hat_{m}" for v in "abc" for m in range(n)]
    columns = [trace.k, trace.t, trace.receiver, trace.sender, *dense_views(trace)]
    fields = ["%d", "%.17g", "%d", "%d"] + ["%.17g"] * (3 * n)
    row_format = ",".join(fields) + "\r\n"
    rows = np.column_stack([col[::stride] for col in columns]).tolist()
    text = ",".join(header) + "\r\n" + "".join(row_format % tuple(r) for r in rows)
    return text.encode()


def dense_converged(result, rel=0.05):
    """Cauchy flag of every corrected offset and compensation column over
    the last decade of k."""
    tr = result.trace
    a, b, c = dense_views(tr)
    f = a * result.net.betas() + b

    def cauchy(series, scale):
        tail = series[len(series) // 10:]
        if len(tail) < 2:
            return False
        return bool(np.all(np.abs(tail - series[-1]) <= rel * max(scale, 1e-12)))

    f_scale = float(np.abs(f[-1]).max())
    c_scale = float(np.abs(c[-1]).max())
    return (all(cauchy(f[:, i], f_scale) for i in range(tr.n))
            and all(cauchy(c[:, i], c_scale) for i in range(tr.n)))


# ---------------------------------------------------------------------------
# Blocks against the dense formulas
# ---------------------------------------------------------------------------

def _check_blocks(result, stride, tmp_csv):
    tr = result.trace
    views = dense_views(tr)
    got = list(tr.blocks(stride))
    rows = np.arange(len(tr))
    covered = np.concatenate([rows[lo:hi:stride] for lo, hi, *_ in got]
                             or [rows[:0]])
    assert np.array_equal(covered, rows[::stride])
    for j, view in enumerate(views):
        parts = [block[2 + j] for block in got]
        stacked = np.concatenate(parts) if parts else np.empty((0, tr.n))
        assert stacked.tobytes() == view[::stride].tobytes()
    for j, name in enumerate(("a_hat", "b_hat", "c_hat")):
        prop = getattr(tr, name)
        assert prop.shape == views[j].shape
        assert prop.tobytes() == views[j].tobytes()
    for k in ({0, len(tr) // 2, len(tr) - 1} if len(tr) else ()):
        for got_row, view in zip(tr.row(k), views):
            assert got_row.tobytes() == view[k].tobytes()

    m = analysis.metrics(result)
    for got_series, want in zip((m.drift_spread, m.msd, m.offset_dispersion,
                                 m.vclock_gap), dense_metrics(result)):
        assert got_series.tobytes() == want.tobytes()

    tr.to_csv(tmp_csv, stride=stride)
    assert tmp_csv.read_bytes() == dense_csv(tr, stride)

    if len(tr):
        assert analysis.fixed_point_residual(result).converged == dense_converged(result)


class TestBlocksMatchDense:
    @settings(max_examples=120, deadline=None)
    @given(net=networks(), updates=st.integers(0, 70), stride=st.integers(1, 7),
           budget=st.integers(1, 20),
           offset=st.sampled_from([OffsetA(), OffsetB(0.5)]), seed=st.integers(0, 1000))
    def test_random_runs(self, tmp_path_factory, net, updates, stride, budget,
                         offset, seed):
        # an element budget of a few rows makes every run cross block edges
        with mock.patch.object(engine, "_BLOCK_ELEMENTS", budget):
            result = engine.run(net, SyncConfig(offset=offset),
                                max_updates=updates, seed=seed)
            _check_blocks(result, stride,
                          tmp_path_factory.mktemp("csv") / "trace.csv")

    @pytest.mark.parametrize("stride", [1, 3])
    def test_empty_run(self, tmp_path, stride):
        net = generate_geometric(GeometricSpec(5, 0.6, 0.1), seed=0)
        result = engine.run(net, SyncConfig(), max_updates=0, seed=0)
        assert len(result.trace) == 0
        with mock.patch.object(engine, "_BLOCK_ELEMENTS", 5):
            _check_blocks(result, stride, tmp_path / "trace.csv")
        assert result.trace.a_hat.shape == (0, 5)

    def test_nodes_that_never_update(self, tmp_path):
        # node 1 never receives; nodes 0 and 2 update across block edges
        tr = engine.Trace(n=3, t=np.arange(1.0, 8.0),
                          receiver=np.array([0, 2, 2, 0, 0, 2, 0]),
                          sender=np.array([1, 1, 0, 1, 2, 1, 2]),
                          t_send=np.arange(0.5, 7.0), tau_sent=np.arange(0.5, 7.0),
                          tau_recv=np.arange(1.0, 8.0),
                          a_i=np.linspace(0.9, 1.1, 7), b_i=np.linspace(-1, 1, 7),
                          c_i=np.linspace(2, 3, 7))
        views = dense_views(tr)
        for rows in (1, 2, 3):
            for stride in (1, 2, 5):
                with mock.patch.object(engine, "_BLOCK_ELEMENTS", 3 * rows):
                    parts = list(tr.blocks(stride))
                for j, view in enumerate(views):
                    got = np.concatenate([p[2 + j] for p in parts])
                    assert np.array_equal(got, view[::stride])
        assert np.all(views[0][:, 1] == 1.0) and np.all(views[2][:, 1] == 0.0)
        tr.to_csv(tmp_path / "t.csv", stride=2)
        assert (tmp_path / "t.csv").read_bytes() == dense_csv(tr, 2)

    def test_row_counts_from_the_end(self):
        net = generate_geometric(GeometricSpec(6, 0.6, 0.1), seed=2)
        tr = engine.run(net, SyncConfig(), max_updates=40, seed=2).trace
        for a, b in zip(tr.row(-1), tr.row(39)):
            assert np.array_equal(a, b)
        with pytest.raises(IndexError):
            tr.row(40)


# ---------------------------------------------------------------------------
# O(K) memory
# ---------------------------------------------------------------------------

DENSE_VIEWS = ("a_hat", "b_hat", "c_hat")


def test_analysis_and_csv_leave_the_dense_views_unbuilt(tmp_path):
    net = generate_geometric(GeometricSpec(8, 0.5, 0.1), seed=1)
    result = engine.run(net, SyncConfig(offset=OffsetA()), max_updates=600, seed=1)
    m = analysis.metrics(result)
    m.to_csv(tmp_path / "metrics.csv", stride=3)
    result.trace.to_csv(tmp_path / "trace.csv", stride=3)
    analysis.fixed_point_residual(result)
    analysis.offset_fixed_point(result)
    analysis.frozen_compensation_drift(result, 300)
    assert not set(DENSE_VIEWS) & set(vars(result.trace))
    assert not {"g_hat", "f_hat"} & set(vars(m))
    # the lazy views still give the dense corrected estimates
    g, f = analysis.corrected_estimates(result)
    assert np.array_equal(m.g_hat, g) and np.array_equal(m.f_hat, f)


# The child reads its peak RSS from VmHWM, the high-water mark of its own
# address space: ru_maxrss keeps the launching process's peak across exec,
# which under pytest is the test session's.
_PEAK_RSS_CHILD = """
import json, sys
from clocksync.experiments import main
code = main(["run", "--config", sys.argv[1], "--outdir", sys.argv[2]])
with open("/proc/self/status") as fh:
    hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"code": code, "max_rss_mb": hwm_kb / 1024}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/self/status")
def test_cli_run_peak_rss_is_o_of_k(tmp_path):
    # fig1b at n=100, 100k updates, stride 10: the dense (K, n) views would
    # take 80 MB each; the whole run must stay under 150 MB
    data = json.loads(json.dumps(experiments.PRESETS["fig1b"]))
    data["network"]["n"] = 100
    data.update(updates=100_000, seeds=[0], stride=10)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    src = Path(clocksync.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_CHILD, str(cfg_path), str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        timeout=300, check=True)
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["code"] == experiments.EXIT_OK
    assert report["max_rss_mb"] < 150.0
    lines = (tmp_path / "out" / "trace_seed0.csv").read_bytes().count(b"\n")
    assert lines == 1 + 10_000
