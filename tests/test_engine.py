"""Discrete-event engine: tick scheduling, delivery ordering, determinism
and the cross-variant common-noise property."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clocksync import engine
from clocksync.clock import ClockParams, DelayModel
from clocksync.sync import (
    DriftA,
    DriftB,
    DriftC,
    OffsetA,
    OffsetB,
    StepSchedule,
    SyncConfig,
)
from clocksync.topology import Arc, GeometricSpec, Network, generate_geometric

from conftest import make_line_network, networks, own_arcs
from sync_oracle import heap_run


class TestScheduleTicks:
    def test_times_strictly_increasing(self):
        net = generate_geometric(GeometricSpec(5, 0.6, 0.0), seed=0)
        ticks = list(itertools.islice(engine.schedule_ticks(net, 0), 500))
        times = [t for t, _ in ticks]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_merged_rate(self):
        # inter-tick gaps are Exp(mu_c); the mean over many ticks should
        # match 1/mu_c to within a few standard errors
        net = generate_geometric(GeometricSpec(5, 0.6, 0.0, mu=2.0), seed=0)
        n_ticks = 40000
        ticks = list(itertools.islice(engine.schedule_ticks(net, 1), n_ticks))
        mu_c = float(net.rates.sum())
        mean_gap = ticks[-1][0] / n_ticks
        assert mean_gap == pytest.approx(1.0 / mu_c, rel=0.02)

    def test_broadcaster_frequencies(self):
        net = make_line_network()
        net.rates = np.array([3.0, 1.0])
        ticks = itertools.islice(engine.schedule_ticks(net, 2), 40000)
        counts = np.bincount([j for _, j in ticks], minlength=2)
        freq = counts / counts.sum()
        assert freq[0] == pytest.approx(0.75, abs=0.01)


_CFGS = st.sampled_from([
    SyncConfig(),
    SyncConfig(drift=DriftA(3), offset=OffsetB(0.5)),
    SyncConfig(drift=DriftB(0.5), offset=None),
    SyncConfig(drift=DriftC(1), drop_t_terms=True),
    SyncConfig(freeze_compensation=True),
])


_STOPS = st.integers(0, 300)


def generated(spec, seed):
    """A generated network and its arcs as the test's own dict."""
    net = generate_geometric(spec, seed=seed)
    return net, own_arcs(net, spec.arc())


def assert_matches_heap(net, arcs, cfg, max_updates, seed):
    res = engine.run(net, cfg, max_updates=max_updates, seed=seed)
    ref = heap_run(net, arcs, cfg, max_updates=max_updates, seed=seed)
    tr = res.trace
    rows = list(zip(*(col.tolist() for col in (
        tr.t, tr.receiver, tr.sender, tr.t_send, tr.tau_sent, tr.tau_recv,
        tr.a_i, tr.b_i, tr.c_i))))
    assert rows == ref["rows"]
    assert res.updates == len(ref["rows"])
    assert res.nu.tolist() == ref["nu"]


class TestScheduleOracle:
    """The schedule and update loop against the event-heap reference."""

    @settings(max_examples=80, deadline=None)
    @given(drawn=networks(), cfg=_CFGS, updates=_STOPS,
           seed=st.integers(0, 2**32 - 1))
    def test_matches_heap_loop(self, drawn, cfg, updates, seed):
        assert_matches_heap(*drawn, cfg, updates, seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_ties(self, seed):
        # eta_sigma = 0: every delivery of a tick lands at the same time,
        # so only the insertion order separates them
        net, arcs = generated(GeometricSpec(8, 0.9, 0.0, eta_sigma=0.0,
                                            p_hear=1.0, delta_bar=1.5), seed)
        res = engine.run(net, SyncConfig(), max_updates=400, seed=seed)
        same = np.flatnonzero(np.diff(res.trace.t) == 0.0)
        assert len(same) > 100
        assert np.all(np.diff(res.trace.receiver)[same] > 0)
        assert_matches_heap(net, arcs, SyncConfig(), 400, seed)

    def test_snapshots_across_replay_chunks(self):
        # more than two replay chunks on four nodes: some deliveries carry
        # the estimates their sender held at the end of an earlier chunk
        net, arcs = generated(GeometricSpec(4, 0.9, 0.1), 5)
        cfg = SyncConfig(drift=DriftA(2), offset=OffsetB(0.5))
        chunk = engine._REPLAY_CHUNK
        assert_matches_heap(net, arcs, cfg, 2 * chunk + 500, 5)
        tr = engine.run(net, cfg, max_updates=2 * chunk + 500, seed=5).trace
        crossing = 0
        for k in range(chunk, len(tr)):
            held = np.flatnonzero((tr.receiver[:k] == tr.sender[k])
                                  & (tr.t[:k] < tr.t_send[k]))
            crossing += bool(len(held)) and held[-1] // chunk < k // chunk
        assert crossing > 0


class TestScheduleEdges:
    """Hand-built schedules against the event-heap reference: the hearing
    draws of a chunk come from one array kernel, and the delays of its
    heard messages from another, whose streams go on across chunks."""

    @staticmethod
    def hub(p_hear):
        # node 0 broadcasts rarely to every other node; nodes 2..11 tick
        # but have no out-arcs
        n = 12
        arc = Arc(1.0, p_hear, DelayModel(0.2, 0.05))
        arcs = {(0, i): arc for i in range(1, n)}
        arcs[(1, 0)] = arc
        rates = np.array([0.05] + [1.0] * (n - 1))
        clocks = [ClockParams(1.0 + 0.01 * k, 0.1 * k, 0.01) for k in range(n)]
        return Network(n, arcs, rates, clocks), arcs

    @pytest.mark.parametrize("seed", range(3))
    def test_sender_without_out_arcs(self, seed, monkeypatch):
        arc = Arc(1.0, 0.8, DelayModel(0.1, 0.02))
        arcs = {(0, 1): arc, (1, 0): arc}
        net = Network(3, arcs, np.ones(3),
                      [ClockParams(1.0), ClockParams(1.01, 0.1, 0.01),
                       ClockParams(0.99, -0.1, 0.01)])
        senders = []
        broadcast = engine.broadcast

        def recorded(net, j, *args):
            senders.append(j)
            return broadcast(net, j, *args)

        monkeypatch.setattr(engine, "broadcast", recorded)
        engine.run(net, SyncConfig(), max_updates=200, seed=seed)
        assert 2 in senders
        monkeypatch.undo()
        assert_matches_heap(net, arcs, SyncConfig(), 200, seed)

    @settings(max_examples=40, deadline=None)
    @given(drawn=networks(), updates=_STOPS, seed=st.integers(0, 2**32 - 1))
    def test_each_delivery_carries_its_arc_row(self, drawn, updates, seed):
        # broadcast's out-arc rows, carried through the sort, are the
        # rows a search of the table finds
        net = drawn[0]
        sched = engine.build_schedule(net, seed, updates)
        assert sched.arc.dtype == np.intp
        assert sched.arc.tolist() == net.table.rows(sched.sender, sched.receiver).tolist()

    @pytest.mark.parametrize("seed", range(3))
    def test_every_message_heard(self, seed):
        net, arcs = generated(GeometricSpec(7, 0.6, 0.3, p_hear=1.0), seed)
        assert_matches_heap(net, arcs, SyncConfig(), 300, seed)
        assert_matches_heap(net, arcs, SyncConfig(), 30, seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_mixed_delay_models(self, seed):
        # normal, uniform and sigma-0 jitter side by side, one model per
        # arc, some clamped at delta_min: long runs per arc, and a short
        # run with a few draws per arc
        models = [DelayModel(0.3, 0.1), DelayModel(0.2, 0.05, dist="uniform"),
                  DelayModel(0.25, 0.0), DelayModel(0.1, 0.2, 0.05),
                  DelayModel(0.1, 0.2, 0.05, dist="uniform")]
        n = 5
        arcs = {(j, i): Arc(1.0, 0.7, models[(j + 2 * i) % len(models)])
                for j in range(n) for i in range(n) if i != j}
        clocks = [ClockParams(1.0 + 0.01 * k, 0.1 * k, 0.01) for k in range(n)]
        net = Network(n, arcs, np.linspace(0.5, 1.5, n), clocks)
        assert_matches_heap(net, arcs, SyncConfig(), 3000, seed)
        assert_matches_heap(net, arcs, SyncConfig(), 40, seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_uniform_delays(self, seed):
        net, arcs = generated(GeometricSpec(12, 0.5, 0.2, eta_sigma=0.1,
                                            noise_dist="uniform"), seed)
        assert_matches_heap(net, arcs, SyncConfig(), 2000, seed)

    def test_first_heard_message_in_a_later_chunk(self, monkeypatch):
        (net, arcs), seed = self.hub(0.5), 7
        chunks, heard = [], []
        random, delays = engine.UniformStreams.random, engine.JitterStreams.delays
        ends = net.table.ends()

        def counted(self, counts):
            chunks.append(len(counts))
            return random(self, counts)

        def recorded(self, counts):
            heard.append({ends[r] for r in np.flatnonzero(counts).tolist()})
            return delays(self, counts)

        monkeypatch.setattr(engine.UniformStreams, "random", counted)
        monkeypatch.setattr(engine.JitterStreams, "delays", recorded)
        res = engine.run(net, SyncConfig(), max_updates=40, seed=seed)
        monkeypatch.undo()
        assert len(chunks) >= 3
        # one delay call per chunk, over every arc
        assert len(heard) == len(chunks)
        delivered = set(zip(res.trace.sender.tolist(), res.trace.receiver.tolist()))
        assert delivered <= set().union(*heard)
        # some arc that delivers heard nothing in the first chunk
        assert delivered & set().union(*heard[1:]) - heard[0]
        assert_matches_heap(net, arcs, SyncConfig(), 40, seed)


class TestRun:
    def test_requires_a_stopping_rule(self):
        net = make_line_network()
        with pytest.raises(TypeError):
            engine.run(net, SyncConfig())

    @pytest.mark.parametrize("kwargs, name", [
        ({"max_updates": -5}, "max_updates"),
        ({"max_updates": 2.5}, "max_updates"),
        ({"max_updates": True}, "max_updates"),
        ({"max_updates": 10, "seed": -1}, "seed"),
        ({"max_updates": 10, "seed": 2**32}, "seed"),
        ({"max_updates": 10, "seed": 1.0}, "seed"),
        ({"max_updates": 10, "seed": True}, "seed"),
    ], ids=["negative-cap", "float-cap", "bool-cap", "negative-seed",
            "seed-past-32-bits", "float-seed", "bool-seed"])
    def test_invalid_arguments_rejected(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            engine.run(make_line_network(), SyncConfig(), **kwargs)

    def test_numpy_integer_arguments(self):
        net = make_line_network()
        res = engine.run(net, SyncConfig(), max_updates=np.int64(50),
                         seed=np.uint32(2**32 - 1))
        ref = engine.run(net, SyncConfig(), max_updates=50, seed=2**32 - 1)
        assert np.array_equal(res.trace.a_i, ref.trace.a_i) and res.updates == 50

    def test_network_without_arcs(self):
        net = Network(2, {}, np.ones(2), make_line_network().clocks)
        with pytest.raises(ValueError, match="without arcs"):
            engine.run(net, SyncConfig(), max_updates=10)
        # zero updates are reached at once
        res = engine.run(net, SyncConfig(), max_updates=0)
        assert res.updates == 0 and res.silent_nodes == []

    def test_update_count_and_trace_shape(self):
        net = generate_geometric(GeometricSpec(6, 0.6, 0.0), seed=0)
        res = engine.run(net, SyncConfig(), max_updates=300, seed=0)
        assert res.updates == 300
        assert len(res.trace) == 300
        assert res.trace.a_hat.shape == (300, 6)
        assert res.trace.k[0] == 1 and res.trace.k[-1] == 300

    def test_nu_sums_to_update_count(self):
        net = generate_geometric(GeometricSpec(6, 0.6, 0.0), seed=1)
        res = engine.run(net, SyncConfig(), max_updates=500, seed=1)
        assert int(res.nu.sum()) == res.updates

    def test_delivery_never_precedes_send(self):
        net = generate_geometric(GeometricSpec(6, 0.6, 0.0), seed=2)
        res = engine.run(net, SyncConfig(), max_updates=500, seed=2)
        assert np.all(res.trace.t > res.trace.t_send)

    def test_initial_sample_noise_bookkeeping(self):
        # without reading noise and jitter the trace's columns are the
        # clocks' readings and the mean delay, exactly
        spec = GeometricSpec(6, 0.6, 0.0, eta_sigma=0.0, xi_sigma=0.0)
        net = generate_geometric(spec, seed=3)
        tr = engine.run(net, SyncConfig(), max_updates=200, seed=3).trace
        alpha, beta = net.alphas(), net.betas()
        j, i = tr.sender, tr.receiver
        assert np.all(tr.t > tr.t_send)
        assert np.array_equal(tr.tau_sent, alpha[j] * tr.t_send + beta[j])
        assert np.array_equal(tr.tau_recv, alpha[i] * tr.t + beta[i])
        assert np.array_equal(tr.t, tr.t_send + spec.delta_bar)


class TestDivergence:
    def test_non_finite_estimate_raises(self):
        net = generate_geometric(GeometricSpec(10, 0.5, 0.1), seed=0)
        cfg = SyncConfig(steps=StepSchedule(constant_step=50.0))
        with pytest.raises(FloatingPointError,
                           match=r"node \d+ .* iteration k=\d+"):
            engine.run(net, cfg, max_updates=2000, seed=0)


class TestTraceViews:
    @pytest.fixture(scope="class")
    def trace(self):
        net = generate_geometric(GeometricSpec(12, 0.4, 0.1), seed=9)
        return engine.run(net, SyncConfig(), max_updates=600, seed=9).trace

    def test_matches_loop_forward_fill(self, trace):
        # reference: copy every node's estimate after each update
        cur = {"a": [1.0] * trace.n, "b": [0.0] * trace.n, "c": [0.0] * trace.n}
        rows = {key: [] for key in cur}
        for r, i in enumerate(trace.receiver):
            for key, vals in (("a", trace.a_i), ("b", trace.b_i), ("c", trace.c_i)):
                cur[key][i] = vals[r]
                rows[key].append(list(cur[key]))
        assert np.array_equal(trace.a_hat, np.array(rows["a"]))
        assert np.array_equal(trace.b_hat, np.array(rows["b"]))
        assert np.array_equal(trace.c_hat, np.array(rows["c"]))

    def test_consecutive_rows_differ_only_at_receiver(self, trace):
        for view in (trace.a_hat, trace.b_hat, trace.c_hat):
            changed = view[1:] != view[:-1]
            others = changed.copy()
            others[np.arange(len(others)), trace.receiver[1:]] = False
            assert not others.any()

    def test_receiver_column_holds_recorded_value(self, trace):
        rows = np.arange(len(trace))
        assert np.array_equal(trace.a_hat[rows, trace.receiver], trace.a_i)
        assert np.array_equal(trace.b_hat[rows, trace.receiver], trace.b_i)
        assert np.array_equal(trace.c_hat[rows, trace.receiver], trace.c_i)

    def test_hand_built_events(self):
        tr = engine.Trace(n=3, t=np.array([1.0, 2.0, 3.0]),
                          receiver=np.array([1, 1, 2]), sender=np.array([0, 0, 1]),
                          t_send=np.array([0.5, 1.5, 2.5]),
                          tau_sent=np.array([0.5, 1.5, 2.5]),
                          tau_recv=np.array([1.0, 2.0, 3.0]),
                          a_i=np.array([5.0, 6.0, 7.0]), b_i=np.array([0.5, 0.6, 0.7]),
                          c_i=np.array([-1.0, -2.0, -3.0]))
        assert np.array_equal(tr.a_hat, [[1, 5, 1], [1, 6, 1], [1, 6, 7]])
        assert np.array_equal(tr.b_hat, [[0, 0.5, 0], [0, 0.6, 0], [0, 0.6, 0.7]])
        assert np.array_equal(tr.c_hat, [[0, -1, 0], [0, -2, 0], [0, -2, -3]])

    def test_initial_values_before_first_update(self, trace):
        firsts = []
        for m in range(trace.n):
            hits = np.flatnonzero(trace.receiver == m)
            first = hits[0] if len(hits) else len(trace)
            firsts.append(first)
            assert np.all(trace.a_hat[:first, m] == 1.0)
            assert np.all(trace.b_hat[:first, m] == 0.0)
            assert np.all(trace.c_hat[:first, m] == 0.0)
        assert max(firsts) >= 10  # the check covers some rows

    def test_views_are_cached(self, trace):
        assert trace.a_hat is trace.a_hat

    def test_empty_run_has_n_columns(self):
        net = generate_geometric(GeometricSpec(7, 0.5, 0.1), seed=0)
        res = engine.run(net, SyncConfig(), max_updates=0, seed=0)
        assert res.updates == 0
        for view in (res.trace.a_hat, res.trace.b_hat, res.trace.c_hat):
            assert view.shape == (0, 7) and view.dtype == np.float64

    def test_adjacency_matches_arc_scan(self):
        # arcs given in random order, not sorted by sender
        n = 15
        pairs = np.random.default_rng(3).integers(0, n, (80, 2)).tolist()
        arcs = {(j, i): Arc(1.0, 0.9, DelayModel(0.1)) for j, i in pairs if j != i}
        net = Network(n, arcs, np.ones(n), [ClockParams(1.0)] * n)
        for v in range(n):
            assert list(net.out_neighbors(v)) == sorted(
                i for (j, i) in arcs if j == v)


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        net = generate_geometric(GeometricSpec(8, 0.5, 0.1), seed=4)
        cfg = SyncConfig(drift=DriftA(5), offset=OffsetA())
        r1 = engine.run(net, cfg, max_updates=400, seed=4)
        r2 = engine.run(net, cfg, max_updates=400, seed=4)
        assert np.array_equal(r1.trace.t, r2.trace.t)
        assert np.array_equal(r1.trace.a_hat, r2.trace.a_hat)
        assert np.array_equal(r1.trace.b_hat, r2.trace.b_hat)

    def test_byte_identical_csv(self, tmp_path):
        net = generate_geometric(GeometricSpec(8, 0.5, 0.1), seed=5)
        cfg = SyncConfig()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        engine.run(net, cfg, max_updates=300, seed=5).trace.to_csv(p1)
        engine.run(net, cfg, max_updates=300, seed=5).trace.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_common_noise_across_variants(self):
        # different algorithms, same seed: identical tick times, identical
        # send times, identical readings -- only the estimates differ
        net = generate_geometric(GeometricSpec(8, 0.5, 0.1), seed=6)
        ra = engine.run(net, SyncConfig(drift=DriftA(1)), max_updates=400, seed=6)
        rb = engine.run(net, SyncConfig(drift=DriftB(0.5)), max_updates=400, seed=6)
        assert np.array_equal(ra.trace.t, rb.trace.t)
        assert np.array_equal(ra.trace.receiver, rb.trace.receiver)
        for col in ("t_send", "tau_sent", "tau_recv"):
            assert np.array_equal(getattr(ra.trace, col), getattr(rb.trace, col))

    def test_seed_changes_realization(self):
        net = generate_geometric(GeometricSpec(8, 0.5, 0.1), seed=7)
        r1 = engine.run(net, SyncConfig(), max_updates=200, seed=7)
        r2 = engine.run(net, SyncConfig(), max_updates=200, seed=8)
        assert not np.array_equal(r1.trace.t, r2.trace.t)


class TestTraceCsv:
    def test_stride_downsamples(self, tmp_path):
        net = make_line_network()
        res = engine.run(net, SyncConfig(), max_updates=100, seed=0)
        path = tmp_path / "t.csv"
        res.trace.to_csv(path, stride=10)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 10  # header plus every 10th row

    def test_header_names(self, tmp_path):
        net = make_line_network()
        res = engine.run(net, SyncConfig(), max_updates=10, seed=0)
        path = tmp_path / "t.csv"
        res.trace.to_csv(path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[:4] == ["k", "t_abs", "receiver", "sender"]
        assert "a_hat_0" in header and "c_hat_1" in header
