"""Row blocks of the dense estimate views: the blocks, the metrics, the
strided trace CSV and the convergence flag against the dense (K, n)
formulas they replace, and the O(K) memory of the analysis and CSV paths."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clocksync
from clocksync import analysis, engine, experiments
from clocksync.sync import DRIFT, FIRST, OFFSET, OffsetA, OffsetB, SyncConfig
from clocksync.topology import GeometricSpec, generate_geometric

from conftest import networks

#: the update code of a delivery that takes both steps
BOTH = DRIFT | OFFSET


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


def dense_corrected(result):
    """(K, n) corrected drifts ``g = a alpha`` and offsets ``f = a beta + b``."""
    a, b, _ = dense_views(result.trace)
    return a * result.net.alphas(), a * result.net.betas() + b


def dense_metrics(result):
    tr = result.trace
    g, f = dense_corrected(result)
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

def row_subsets(K, stride, extra=()):
    """Sorted row selections of a K-row trace: none, one row, every row,
    the written rows at ``stride``, the head rows ``run_scaling`` reads,
    rows that repeat, and ``extra``."""
    subsets = [np.arange(0), np.arange(K), np.arange(0, K, stride),
               np.arange(min(max(1, K // 100), K)), np.asarray(extra, dtype=np.intp)]
    subsets += [np.array([k]) for k in ({0, K // 2, K - 1} if K else ())]
    if K:
        subsets.append(np.array([0, 0, K // 2, K // 2, K - 1]))
    return subsets


def _check_rows(result, views, rows):
    """The blocks and the metrics at ``rows`` are the dense ones at those
    rows, byte for byte."""
    tr = result.trace
    got = list(tr.blocks(rows=rows))
    assert all(hi - lo <= max(1, engine._BLOCK_ELEMENTS // tr.n) for lo, hi, *_ in got)
    covered = np.concatenate([np.arange(lo, hi) for lo, hi, *_ in got] or [rows[:0]])
    assert np.array_equal(covered, np.arange(len(rows)))
    for j, view in enumerate(views):
        stacked = np.concatenate([block[2 + j] for block in got] or [view[:0]])
        assert stacked.tobytes() == view[rows].tobytes()
    m = analysis.metrics(result, rows)
    assert m.k.tobytes() == tr.k[rows].tobytes()
    assert m.t.tobytes() == tr.t[rows].tobytes()
    for got_series, want in zip((m.drift_spread, m.msd, m.offset_dispersion,
                                 m.vclock_gap), dense_metrics(result)):
        assert got_series.tobytes() == want[rows].tobytes()
    g, f = dense_corrected(result)
    assert m.g_hat.tobytes() == g[rows].tobytes()
    assert m.f_hat.tobytes() == f[rows].tobytes()


def _check_blocks(result, stride, tmp_csv, extra=()):
    tr = result.trace
    views = dense_views(tr)
    got = list(tr.blocks())
    rows = np.arange(len(tr))
    covered = np.concatenate([rows[lo:hi] for lo, hi, *_ in got] or [rows[:0]])
    assert np.array_equal(covered, rows)
    for j, view in enumerate(views):
        parts = [block[2 + j] for block in got]
        stacked = np.concatenate(parts) if parts else np.empty((0, tr.n))
        assert stacked.tobytes() == view.tobytes()
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
    for rows in row_subsets(len(tr), stride, extra):
        _check_rows(result, views, rows)

    tr.to_csv(tmp_csv, stride=stride)
    assert tmp_csv.read_bytes() == dense_csv(tr, stride)

    if len(tr):
        assert analysis.fixed_point_residual(result).converged == dense_converged(result)


class TestBlocksMatchDense:
    @settings(max_examples=120, deadline=None)
    @given(net=networks().map(lambda drawn: drawn[0]), updates=st.integers(0, 70),
           stride=st.one_of(st.integers(1, 7), st.just(100)), budget=st.integers(1, 20),
           offset=st.sampled_from([OffsetA(), OffsetB(0.5)]), seed=st.integers(0, 1000),
           data=st.data())
    def test_random_runs(self, tmp_path_factory, net, updates, stride, budget,
                         offset, seed, data):
        # an element budget of a few rows makes every run cross block edges
        with mock.patch.object(engine, "_BLOCK_ELEMENTS", budget):
            result = engine.run(net, SyncConfig(offset=offset),
                                max_updates=updates, seed=seed)
            K = len(result.trace)
            extra = sorted(data.draw(st.sets(st.integers(0, K - 1)) if K else st.just(())))
            _check_blocks(result, stride,
                          tmp_path_factory.mktemp("csv") / "trace.csv", extra)

    # chunks of 3 and of 100 events, with blocks of a few rows, and the default
    @pytest.mark.parametrize("budget", [48, 1600, 1 << 16])
    def test_long_run_at_large_strides(self, tmp_path, budget):
        # strides of many events per written row, and one past the run
        net = generate_geometric(GeometricSpec(6, 0.6, 0.1), seed=3)
        with mock.patch.object(engine, "_BLOCK_ELEMENTS", budget):
            result = engine.run(net, SyncConfig(offset=OffsetA()), max_updates=450, seed=3)
            views = dense_views(result.trace)
            for stride in (10, 100, 449, 450, 451):
                for rows in row_subsets(450, stride):
                    _check_rows(result, views, rows)
                result.trace.to_csv(tmp_path / "t.csv", stride=stride)
                assert (tmp_path / "t.csv").read_bytes() == dense_csv(result.trace, stride)

    @pytest.mark.parametrize("rows", [[-1], [3, 2], [0, 40], [40]])
    def test_rows_must_be_sorted_and_in_range(self, rows):
        net = generate_geometric(GeometricSpec(5, 0.6, 0.1), seed=0)
        result = engine.run(net, SyncConfig(), max_updates=40, seed=0)
        with pytest.raises(ValueError, match="rows must be sorted"):
            next(result.trace.blocks(rows=rows))
        with pytest.raises(ValueError, match="rows must be sorted"):
            analysis.metrics(result, rows)

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
        # arc rows: (0, 2) 0, (1, 0) 1, (1, 2) 2, (2, 0) 3
        tr = engine.Trace(n=3, t=np.arange(1.0, 8.0),
                          receiver=np.array([0, 2, 2, 0, 0, 2, 0]),
                          sender=np.array([1, 1, 0, 1, 2, 1, 2]),
                          t_send=np.arange(0.5, 7.0), tau_sent=np.arange(0.5, 7.0),
                          tau_recv=np.arange(1.0, 8.0),
                          arc=np.array([1, 2, 0, 1, 3, 2, 3]),
                          src=np.array([-1, -1, 0, -1, 2, -1, 5]),
                          code=np.array([FIRST, FIRST, FIRST, BOTH, FIRST, BOTH, BOTH],
                                        dtype=np.int8),
                          a_i=np.linspace(0.9, 1.1, 7), b_i=np.linspace(-1, 1, 7),
                          c_i=np.linspace(2, 3, 7))
        views = dense_views(tr)
        for rows in (1, 2, 3):
            with mock.patch.object(engine, "_BLOCK_ELEMENTS", 3 * rows):
                parts = list(tr.blocks())
            for j, view in enumerate(views):
                got = np.concatenate([p[2 + j] for p in parts])
                assert np.array_equal(got, view)
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
# The trace CSV at its edges
# ---------------------------------------------------------------------------

def _hand_trace(receiver, n=3):
    """A trace of ``len(receiver)`` updates at the given nodes, whose
    estimates include -0.0, 0.0 and values that need 17 digits."""
    K = len(receiver)
    values = np.array([-0.0, 0.1, 1 / 3, 0.0, -2.5e-300, 1e22, 2 / 3, -0.0])
    # each node's one in-arc comes from the next node, whose only out-arc
    # it is: the arc's row is its sender
    sender = np.array([(i + 1) % n for i in receiver], dtype=np.intp)
    code = np.full(K, BOTH, dtype=np.int8)
    code[np.unique(sender, return_index=True)[1]] = FIRST
    return engine.Trace(n=n, t=np.arange(1.0, K + 1) / 3,
                        receiver=np.array(receiver, dtype=np.intp), sender=sender,
                        t_send=np.zeros(K), tau_sent=np.zeros(K), tau_recv=np.zeros(K),
                        arc=sender, src=np.full(K, -1), code=code,
                        a_i=np.resize(values, K) + 1.0, b_i=np.resize(values, K),
                        c_i=np.resize(values[::-1], K))


# element budgets: a flush after every row, one row of n=3 (3n + 4 = 13),
# chunks of 3 and of 5 events with flushes of 3 and of 6 rows, and the default
_CSV_BUDGETS = [1, 13, 48, 80, 1 << 16]


class TestTraceCsvEdges:
    @pytest.mark.parametrize("budget", _CSV_BUDGETS)
    @pytest.mark.parametrize("K", [0, 1, 7])
    def test_stride_up_to_past_k(self, tmp_path, budget, K):
        # node 1 never updates; node 0's first event sets its b and c to -0.0
        tr = _hand_trace([0, 2, 2, 0, 0, 2, 0][:K])
        for stride in sorted({1, 2, 3, max(K, 1), K + 1, K + 5}):
            with mock.patch.object(engine, "_BLOCK_ELEMENTS", budget):
                tr.to_csv(tmp_path / "t.csv", stride=stride)
            got = (tmp_path / "t.csv").read_bytes()
            assert got == dense_csv(tr, stride)
            assert got.count(b"\r\n") == 1 + len(range(0, K, stride))

    def test_negative_zero_estimates(self, tmp_path):
        tr = _hand_trace([1, 1, 0, 1, 2, 2, 0, 1])
        tr.to_csv(tmp_path / "t.csv")
        got = (tmp_path / "t.csv").read_bytes()
        assert got == dense_csv(tr, 1)
        # the first row: b and c of node 1 are -0.0, the rest initial
        assert got.splitlines()[1].decode().split(",")[4:] == [
            "1", "1", "1", "0", "-0", "0", "0", "-0", "0"]

    @pytest.mark.parametrize("budget", _CSV_BUDGETS)
    def test_ten_nodes(self, tmp_path, budget):
        tr = _hand_trace([3, 0, 7, 7, 1, 3, 9, 0, 2, 5, 5, 4], n=10)
        for stride in (1, 4, 12):
            with mock.patch.object(engine, "_BLOCK_ELEMENTS", budget):
                tr.to_csv(tmp_path / "t.csv", stride=stride)
            assert (tmp_path / "t.csv").read_bytes() == dense_csv(tr, stride)


def test_stack_of_any_column_at_repeated_rows():
    # an event column other than the estimates, from a scalar and from
    # per-node initial values, at rows that repeat across block edges
    net = generate_geometric(GeometricSpec(6, 0.6, 0.1), seed=4)
    tr = engine.run(net, SyncConfig(), max_updates=90, seed=4).trace
    rows = np.array([0, 0, 1, 5, 5, 5, 6, 40, 41, 41, 89, 89])
    initial = np.linspace(-1.0, 1.0, tr.n)
    with mock.patch.object(engine, "_BLOCK_ELEMENTS", 6 * 2):
        got_scalar = tr.stack(tr.tau_recv, 0.5, rows)
        got_nodes = tr.stack(tr.tau_recv, initial, rows)
    assert got_scalar.tobytes() == dense(tr, tr.tau_recv, 0.5)[rows].tobytes()
    # the initial values differ per node, so fill the dense oracle node by node
    want = dense(tr, tr.tau_recv, np.nan)
    want = np.where(np.isnan(want), initial, want)
    assert got_nodes.tobytes() == want[rows].tobytes()


@pytest.mark.parametrize("budget", [1, 6, 13, 1 << 16])
def test_metrics_csv_across_write_blocks(tmp_path, budget):
    # a block of one row, of one and of two rows of six fields, and the
    # default: every row written once, in order, with its own format
    net = generate_geometric(GeometricSpec(6, 0.6, 0.1), seed=5)
    result = engine.run(net, SyncConfig(offset=OffsetA()), max_updates=50, seed=5)
    m = analysis.metrics(result, np.arange(0, 50, 3))
    with mock.patch.object(engine, "_BLOCK_ELEMENTS", budget):
        m.to_csv(tmp_path / "metrics.csv")
    lines = ["k,t_abs,drift_spread,msd,offset_dispersion,vclock_gap"]
    for k, *values in zip(m.k.tolist(), m.t, m.drift_spread, m.msd,
                          m.offset_dispersion, m.vclock_gap):
        lines.append(",".join([str(k)] + ["%.17g" % v for v in values]))
    assert (tmp_path / "metrics.csv").read_bytes() == "".join(
        line + "\r\n" for line in lines).encode()


# ---------------------------------------------------------------------------
# O(K) memory
# ---------------------------------------------------------------------------

DENSE_VIEWS = ("a_hat", "b_hat", "c_hat")


def test_analysis_and_csv_leave_the_dense_views_unbuilt(tmp_path):
    net = generate_geometric(GeometricSpec(8, 0.5, 0.1), seed=1)
    result = engine.run(net, SyncConfig(offset=OffsetA()), max_updates=600, seed=1)
    rows = np.arange(0, 600, 3)
    m = analysis.metrics(result, rows)
    m.to_csv(tmp_path / "metrics.csv")
    result.trace.to_csv(tmp_path / "trace.csv", stride=3)
    analysis.fixed_point_residual(result)
    analysis.offset_fixed_point(result)
    analysis.frozen_compensation_drift(result, 300)
    assert not set(DENSE_VIEWS) & set(vars(result.trace))
    assert not {"g_hat", "f_hat"} & set(vars(m))
    # the lazy views still give the dense corrected estimates
    g, f = dense_corrected(result)
    assert np.array_equal(m.g_hat, g[rows]) and np.array_equal(m.f_hat, f[rows])


def spy_fills(monkeypatch):
    """Record (columns, rows) of every ``Trace._fill`` call."""
    calls = []
    fill = engine.Trace._fill

    def recorded(self, values, carry, events, at, m):
        calls.append((len(values), m))
        return fill(self, values, carry, events, at, m)

    monkeypatch.setattr(engine.Trace, "_fill", recorded)
    return calls


def test_each_view_fills_only_its_own_column(monkeypatch):
    net = generate_geometric(GeometricSpec(8, 0.5, 0.1), seed=1)
    tr = engine.run(net, SyncConfig(), max_updates=600, seed=1).trace
    calls = spy_fills(monkeypatch)
    with mock.patch.object(engine, "_BLOCK_ELEMENTS", 8 * 50):
        for name in DENSE_VIEWS:
            calls.clear()
            getattr(tr, name)
            assert calls == [(1, 50)] * 12, name  # blocks of 50 rows


def test_fixed_point_residual_fills_only_the_last_decade(monkeypatch):
    net = generate_geometric(GeometricSpec(8, 0.5, 0.1), seed=1)
    result = engine.run(net, SyncConfig(offset=OffsetA()), max_updates=600, seed=1)
    calls = spy_fills(monkeypatch)
    analysis.fixed_point_residual(result)
    # the last row's (a, b, c), then (f, c) at rows 60..599 for the
    # Cauchy flag
    assert calls[0] == (3, 1)
    assert [cols for cols, _ in calls[1:]] == [2] * (len(calls) - 1)
    assert sum(m for _, m in calls[1:]) == 600 - 600 // 10


def test_trace_csv_holds_about_one_block(tmp_path):
    # fig1b at n=100, 20k updates, stride 1: 20k rows of 304 fields, about
    # 100 MB of text; the writer holds one block of it and one chunk of
    # formatted events
    data = json.loads(json.dumps(experiments.PRESETS["fig1b"]))
    data["network"]["n"] = 100
    data.update(updates=20_000, seeds=[0], stride=1)
    trace = experiments.run_single(experiments.ExperimentConfig.from_dict(data), 0).trace
    tracemalloc.start()
    try:
        trace.to_csv(tmp_path / "trace.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    with open(tmp_path / "trace.csv", "rb") as fh:
        assert sum(1 for _ in fh) == 1 + 20_000


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


_BACK_TO_BACK_CHILD = """
import json, resource, sys
from pathlib import Path
from clocksync.experiments import main
cfg, out = sys.argv[1], Path(sys.argv[2])
rows = []
for updates in sys.argv[3:]:
    code = main(["run", "--config", cfg, "--updates", updates, "--outdir", str(out)])
    mb = len((out / "trace_seed0.csv").read_bytes()) / 2**20
    rows.append([code, mb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024])
print(json.dumps(rows))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB on Linux; glibc's heap")
def test_back_to_back_runs_keep_no_freed_file_resident(tmp_path):
    # The caller reads each run's trace CSV: a mid-size one, a smaller one,
    # then a larger one.  glibc serves the smaller read from its heap and
    # keeps that block resident once freed, so unless each command returns
    # the free heap to the OS, the larger read comes on top of it and the
    # peak rises by the smaller file as well as by the growth of the file.
    data = json.loads(json.dumps(experiments.PRESETS["fig1b"]))
    data.update(seeds=[0], stride=1)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    src = Path(clocksync.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", _BACK_TO_BACK_CHILD, str(cfg_path), str(tmp_path / "out"),
         "16000", "14000", "20000"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        timeout=300, check=True)
    (c1, mid, peak_mid), (c2, small, _), (c3, big, peak_big) = json.loads(
        out.stdout.splitlines()[-1])
    assert c1 == c2 == c3 == experiments.EXIT_OK
    assert small < mid < big
    assert peak_big - peak_mid < big - mid + small / 2
