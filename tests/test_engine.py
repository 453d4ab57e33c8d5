"""Discrete-event engine: tick scheduling, delivery ordering, determinism
and the cross-variant common-noise property."""

import heapq
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clocksync import engine
from clocksync.clock import read_local_time, sample_delay
from clocksync.streams import substream, substreams
from clocksync.sync import (
    DriftA,
    DriftB,
    DriftC,
    OffsetA,
    OffsetB,
    StepSchedule,
    SyncConfig,
)
from clocksync.topology import GeometricSpec, Network, generate_geometric

from conftest import make_line_network, networks
from sync_oracle import OracleState


def heap_run(net, cfg, *, max_updates=None, horizon=None, seed=0) -> dict:
    """Reference simulator: an event heap keyed by (time, insertion) that
    draws every random number one at a time, when its event is handled.

    Each tick reads the sender's clock, draws hearing and then delay per
    out-arc in out-neighbour order, pushes the deliveries and then the
    next tick; each delivery reads the receiver's clock and updates it.
    """
    state = OracleState(net, cfg)
    arcs = list(net.arcs)
    read_rngs = substreams(seed, "read", range(net.n))
    hear_rngs = dict(zip(arcs, substreams(seed, "hear", arcs)))
    delay_rngs = dict(zip(arcs, substreams(seed, "jitter", arcs)))
    tick_rng = substream(seed, "ticks")
    mu_c = float(net.rates.sum())
    cum = np.cumsum(net.rates / mu_c)
    cum[-1] = 1.0
    tick_time = 0.0

    def next_tick():
        nonlocal tick_time
        tick_time += tick_rng.exponential(1.0 / mu_c)
        return tick_time, int(np.searchsorted(cum, tick_rng.random(), side="right"))

    heap, seq = [], itertools.count()
    t0, j0 = next_tick()
    heapq.heappush(heap, (t0, next(seq), j0, None))
    cap = max_updates if max_updates is not None else 1 << 62
    rows = []
    send_times = {key: [] for key in net.arcs}
    initials = {}
    while len(rows) < cap:
        t, _, node, data = heapq.heappop(heap)
        if horizon is not None and t > horizon:
            break
        if data is None:  # tick of `node`
            tau = read_local_time(net.clocks[node], t, read_rngs[node])
            msg = state.payload(node, tau)
            for i in net.out_neighbors(node):
                arc = net.arcs[(node, i)]
                if hear_rngs[(node, i)].random() < arc.p_hear:
                    d = sample_delay(arc.delay, delay_rngs[(node, i)])
                    heapq.heappush(heap, (t + d, next(seq), i, (msg, t)))
            tn, jn = next_tick()
            heapq.heappush(heap, (tn, next(seq), jn, None))
        else:  # delivery to `node`
            msg, t_send = data
            j, i = msg.sender, node
            tau_i = read_local_time(net.clocks[i], t, read_rngs[i])
            if state.process_message(i, msg, tau_i).first_message:
                cj, ci = net.clocks[j], net.clocks[i]
                delta_bar = net.arcs[(j, i)].delay.delta_bar
                initials[(j, i)] = engine.InitialSample(
                    t_send, t, msg.tau_sent, tau_i,
                    msg.tau_sent - (cj.alpha * t_send + cj.beta),
                    tau_i - (ci.alpha * t + ci.beta),
                    (t - t_send) - delta_bar, delta_bar)
            send_times[(j, i)].append(t_send)
            s = state.est[i]
            rows.append((t, i, j, s.a_hat, s.b_hat, s.c_hat))
    return {"rows": rows, "nu": state.nu, "send_times": send_times,
            "initials": initials}


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


_STOPS = st.one_of(
    st.tuples(st.integers(1, 300), st.none()),
    st.tuples(st.none(), st.floats(0.05, 40.0)),
    st.tuples(st.integers(1, 300), st.floats(0.05, 40.0)),
    st.tuples(st.just(0), st.none()),
    st.tuples(st.just(0), st.floats(0.05, 40.0)),
)


def assert_matches_heap(net, cfg, max_updates, horizon, seed):
    res = engine.run(net, cfg, max_updates=max_updates, horizon=horizon,
                     seed=seed)
    ref = heap_run(net, cfg, max_updates=max_updates, horizon=horizon,
                   seed=seed)
    tr = res.trace
    rows = list(zip(tr.t.tolist(), tr.receiver.tolist(), tr.sender.tolist(),
                    tr.a_i.tolist(), tr.b_i.tolist(), tr.c_i.tolist()))
    assert rows == ref["rows"]
    assert res.updates == len(ref["rows"])
    assert res.nu.tolist() == ref["nu"]
    assert list(res.send_times.items()) == list(ref["send_times"].items())
    assert list(res.initial_samples.items()) == list(ref["initials"].items())


class TestScheduleOracle:
    """The schedule and update loop against the event-heap reference."""

    @settings(max_examples=80, deadline=None)
    @given(net=networks(), cfg=_CFGS, stop=_STOPS,
           seed=st.integers(0, 2**32 - 1))
    def test_matches_heap_loop(self, net, cfg, stop, seed):
        assert_matches_heap(net, cfg, *stop, seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_ties(self, seed):
        # eta_sigma = 0: every delivery of a tick lands at the same time,
        # so only the insertion order separates them
        net = generate_geometric(GeometricSpec(8, 0.9, 0.0, eta_sigma=0.0,
                                               p_hear=1.0, delta_bar=1.5), seed=seed)
        res = engine.run(net, SyncConfig(), max_updates=400, seed=seed)
        same = np.flatnonzero(np.diff(res.trace.t) == 0.0)
        assert len(same) > 100
        assert np.all(np.diff(res.trace.receiver)[same] > 0)
        assert_matches_heap(net, SyncConfig(), 400, None, seed)


class TestRun:
    def test_requires_a_stopping_rule(self):
        net = make_line_network()
        with pytest.raises(ValueError):
            engine.run(net, SyncConfig())

    def test_network_without_arcs(self):
        net = Network(2, {}, np.ones(2), make_line_network().clocks)
        with pytest.raises(ValueError, match="without arcs"):
            engine.run(net, SyncConfig(), max_updates=10)
        res = engine.run(net, SyncConfig(), max_updates=10, horizon=20.0)
        assert res.updates == 0 and res.silent_nodes == []

    def test_update_count_and_trace_shape(self):
        net = generate_geometric(GeometricSpec(6, 0.6, 0.0), seed=0)
        res = engine.run(net, SyncConfig(), max_updates=300, seed=0)
        assert res.updates == 300
        assert len(res.trace) == 300
        assert res.trace.a_hat.shape == (300, 6)
        assert res.trace.k[0] == 1 and res.trace.k[-1] == 300

    def test_horizon_respected(self):
        net = generate_geometric(GeometricSpec(6, 0.6, 0.0), seed=0)
        res = engine.run(net, SyncConfig(), horizon=50.0, seed=0)
        assert res.updates > 0
        assert np.all(res.trace.t <= 50.0)

    def test_nu_sums_to_update_count(self):
        net = generate_geometric(GeometricSpec(6, 0.6, 0.0), seed=1)
        res = engine.run(net, SyncConfig(), max_updates=500, seed=1)
        assert int(res.nu.sum()) == res.updates

    def test_delivery_never_precedes_send(self):
        net = generate_geometric(GeometricSpec(6, 0.6, 0.0), seed=2)
        res = engine.run(net, SyncConfig(), max_updates=500, seed=2)
        for sample in res.initial_samples.values():
            assert sample.t_recv > sample.t_send

    def test_initial_sample_noise_bookkeeping(self):
        # the logged noise components must reconstruct the raw readings
        net = generate_geometric(GeometricSpec(6, 0.6, 0.0), seed=3)
        res = engine.run(net, SyncConfig(), max_updates=200, seed=3)
        for (j, i), s in res.initial_samples.items():
            cj, ci = net.clocks[j], net.clocks[i]
            assert s.tau_sender == pytest.approx(
                cj.alpha * s.t_send + cj.beta + s.xi_sender)
            assert s.tau_receiver == pytest.approx(
                ci.alpha * s.t_recv + ci.beta + s.xi_receiver)
            assert s.t_recv - s.t_send == pytest.approx(s.delta_bar + s.eta)


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
        res = engine.run(net, SyncConfig(), horizon=1e-3, seed=0)
        assert res.updates == 0
        for view in (res.trace.a_hat, res.trace.b_hat, res.trace.c_hat):
            assert view.shape == (0, 7) and view.dtype == np.float64

    def test_adjacency_matches_arc_scan(self):
        net = generate_geometric(GeometricSpec(15, 0.4, 0.2), seed=3)
        for v in range(net.n):
            assert list(net.out_neighbors(v)) == sorted(
                i for (j, i) in net.arcs if j == v)
            assert list(net.in_neighbors(v)) == sorted(
                j for (j, i) in net.arcs if i == v)


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
        assert ra.send_times == rb.send_times

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
