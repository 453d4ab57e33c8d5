"""Network construction, serialization, probabilities and expected matrices."""

import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import clocksync
from clocksync import engine, topology
from clocksync.clock import ClockParams, DelayModel
from clocksync.streams import substream
from clocksync.sync import SyncConfig
from clocksync.topology import (
    Arc,
    GeometricSpec,
    Network,
    _distances,
    _pairs_within,
    _source_components,
    centers,
    expected_laplacian,
    generate_geometric,
    mute_in_arcs,
    probability_profile,
    repair_connectivity,
)

from conftest import make_line_network, networks, own_arcs


def _arc(gamma=1.0, p=0.9):
    return Arc(gamma, p, DelayModel(0.1))


LAYOUTS = ["none", "random", "grid", "line"]


def _layout(layout, n, rng):
    """Node positions: none, uniform, on a 4 x 4 grid, or on one line; the
    grid and line put many pairs at exactly equal distances."""
    return {"none": None,
            "random": rng.random((n, 2)),
            "grid": rng.integers(0, 4, (n, 2)) / 4,
            "line": np.column_stack((rng.random(n), np.zeros(n)))}[layout]


class TestValidation:
    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            Arc(-1.0, 0.9, DelayModel(0.1))

    def test_p_hear_range(self):
        with pytest.raises(ValueError):
            Arc(1.0, 0.0, DelayModel(0.1))
        with pytest.raises(ValueError):
            Arc(1.0, 1.1, DelayModel(0.1))

    def test_self_arc_rejected(self):
        with pytest.raises(ValueError):
            Network(2, {(0, 0): _arc()}, np.ones(2),
                    [ClockParams(1.0), ClockParams(1.0)])

    def test_rate_shape(self):
        with pytest.raises(ValueError):
            Network(2, {}, np.ones(3),
                    [ClockParams(1.0), ClockParams(1.0)])

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError):
            Network(2, {}, np.array([1.0, 0.0]),
                    [ClockParams(1.0), ClockParams(1.0)])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("build", [
        lambda x: Arc(x, 0.9, DelayModel(0.1)),
        lambda x: Arc(1.0, x, DelayModel(0.1)),
        lambda x: DelayModel(x),
        lambda x: DelayModel(0.1, eta_sigma=x),
        lambda x: DelayModel(0.1, delta_min=x),
        lambda x: ClockParams(x),
        lambda x: ClockParams(1.0, beta=x),
        lambda x: ClockParams(1.0, xi_sigma=x),
        lambda x: Network(2, {}, np.array([1.0, x]), [ClockParams(1.0)] * 2),
    ], ids=["gamma", "p_hear", "delta_bar", "eta_sigma", "delta_min", "alpha",
            "beta", "xi_sigma", "rate"])
    def test_non_finite_rejected(self, build, value):
        # comparisons with NaN are false, so a check must fail on them
        with pytest.raises(ValueError):
            build(value)


@st.composite
def table_networks(draw):
    """Networks whose arcs differ in gamma, p_hear and delay: generated, or
    drawn arc by arc and repaired (repair adds arcs from its template),
    then saved and loaded back, and with one node's in-arcs muted or not.
    Draws ``(net, arcs)``, ``arcs`` being the test's own dict of the arcs
    the network should hold, in the order they were drawn."""
    n = draw(st.integers(2, 9))
    if draw(st.booleans()):
        spec = GeometricSpec(n, draw(st.floats(0.05, 0.8)), draw(st.floats(0.0, 1.0)))
        net = generate_geometric(spec, seed=draw(st.integers(0, 10_000)))
        arcs = own_arcs(net, spec.arc())
    else:
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = {pair: Arc(draw(st.sampled_from([0.0, 0.5, 1.0, 2.5])),
                          draw(st.floats(0.05, 1.0)),
                          DelayModel(draw(st.floats(0.01, 2.0)),
                                     draw(st.sampled_from([0.0, 0.05]))))
                for pair in draw(st.lists(st.sampled_from(pairs), unique=True))}
        positions = draw(st.sampled_from([None, np.random.default_rng(n).random((n, 2))]))
        rates = draw(st.lists(st.floats(0.2, 3.0), min_size=n, max_size=n))
        template = Arc(0.7, 0.6, DelayModel(0.3, 0.02))
        net = repair_connectivity(
            Network(n, arcs, np.array(rates), [ClockParams(1.0)] * n, positions),
            template)
        added = set(net.table.ends()) - set(arcs)
        assert len(net.table.ends()) == len(arcs) + len(added)
        arcs = arcs | dict.fromkeys(added, template)
    with tempfile.TemporaryDirectory() as tmp:
        net.save(Path(tmp) / "net.json")
        net = Network.load(Path(tmp) / "net.json")
    if draw(st.booleans()):
        node = draw(st.integers(0, n - 1))
        net = mute_in_arcs(net, node)
        arcs = {(j, i): replace(a, gamma=0.0) if i == node else a
                for (j, i), a in arcs.items()}
    return net, arcs


class TestArcTable:
    @settings(max_examples=200, deadline=None)
    @given(drawn=table_networks())
    def test_rows_are_the_sorted_arcs(self, drawn):
        net, arcs = drawn
        keys = sorted(arcs)
        table = net.table
        assert table.sender.dtype == table.receiver.dtype == np.intp
        assert table.gamma.dtype == table.p_hear.dtype == np.float64
        assert table.ends() == keys
        assert table.arc == [arcs[k] for k in keys]
        assert table.gamma.tolist() == [arcs[k].gamma for k in keys]
        assert table.p_hear.tolist() == [arcs[k].p_hear for k in keys]
        for j in range(net.n):
            out = [k for k in keys if k[0] == j]
            assert keys[table.start[j]:table.start[j + 1]] == out
            assert net.out_neighbors(j) == tuple(i for _, i in out)
        rows = np.arange(len(keys))[::-1]
        assert table.rows(table.sender[rows], table.receiver[rows]).tolist() == rows.tolist()

    @settings(max_examples=200, deadline=None)
    @given(drawn=table_networks(), data=st.data())
    def test_rows_reject_a_pair_that_is_not_an_arc(self, drawn, data):
        # a bare searchsorted would return a neighbouring row instead
        net, arcs = drawn
        n = net.n
        j, i = data.draw(st.tuples(st.integers(-2, n + 1), st.integers(-2, n + 1))
                         .filter(lambda pair: pair not in arcs))
        senders, receivers = np.array([*net.table.sender, j]), np.array([*net.table.receiver, i])
        with pytest.raises(ValueError, match=rf"\({j}, {i}\) is not an arc"):
            net.table.rows(senders, receivers)
        with pytest.raises(ValueError, match=rf"\({j}, {i}\) is not an arc"):
            net.table.rows(j, i)

    @settings(max_examples=200, deadline=None)
    @given(drawn=table_networks())
    def test_expected_matrices_match_a_dict_walk(self, drawn):
        # the oracle fills the matrices arc by arc, in the test's dict order
        net, arcs = drawn
        pi = net.rates / float(net.rates.sum())
        pi_arc = np.zeros((net.n, net.n))
        for (j, i), arc in arcs.items():
            pi_arc[i, j] = pi[j] * arc.p_hear
        lap = np.zeros((net.n, net.n))
        for (j, i), arc in arcs.items():
            lap[i, j] = arc.gamma * pi_arc[i, j]
        lap[np.diag_indices(net.n)] = -lap.sum(axis=1)
        profile = probability_profile(net)
        assert profile.pi_arc.tobytes() == pi_arc.tobytes()
        assert profile.n_bar == float(pi_arc.sum())
        assert profile.p.tobytes() == (pi_arc.sum(axis=1) / profile.n_bar).tobytes()
        assert expected_laplacian(net, profile).tobytes() == lap.tobytes()

    @pytest.mark.parametrize("arc, message", [
        ((0.5, 1), "integers"),
        ((0, 1.0), "integers"),
        ((2, 2), "self-arcs are not allowed"),
        ((0, 3), "arc endpoints out of range"),
        ((-1, 0), "arc endpoints out of range"),
        ((0, 1, 2), "integers"),
        ((1,), "integers"),
        (5, "integers"),
    ], ids=["float-sender", "float-receiver", "self-arc", "receiver-past-n",
            "negative-sender", "triple", "single", "not-a-pair"])
    def test_endpoints_checked(self, arc, message):
        with pytest.raises(ValueError, match=message):
            Network(3, {(1, 2): _arc(), arc: _arc()}, np.ones(3),
                    [ClockParams(1.0)] * 3)

    @pytest.mark.parametrize("sender, receiver, message", [
        ([1, 0.5], [2, 1], "arc endpoints must be pairs of integers"),
        ([1, 0], [2, 1.0], "arc endpoints must be pairs of integers"),
        ([1, True], [2, 0], "arc endpoints must be pairs of integers"),
        (np.array([1, 0]), np.array([True, False]), "arc endpoints must be pairs of integers"),
        ([1, 2], [2, 2], "self-arcs are not allowed"),
        ([1, 0], [2, 3], "arc endpoints out of range"),
        ([1, -1], [2, 0], "arc endpoints out of range"),
        ([1, 0, 1], [2, 1, 2], r"arc \(1, 2\) is listed more than once"),
        (np.array([0, 1, 0]), np.array([1, 2, 1]), r"arc \(0, 1\) is listed more than once"),
    ], ids=["float-sender", "float-receiver", "bool-sender", "bool-array", "self-arc",
            "receiver-past-n", "negative-sender", "duplicate", "duplicate-array"])
    @pytest.mark.parametrize("shared", [True, False], ids=["one-arc", "arc-per-row"])
    def test_columns_checked(self, sender, receiver, message, shared):
        # the messages the mapping path gives; only columns can repeat a pair
        arc = _arc() if shared else [_arc()] * len(sender)
        with pytest.raises(ValueError, match=message):
            Network(3, (sender, receiver, arc), np.ones(3), [ClockParams(1.0)] * 3)
        if "more than once" not in message:
            with pytest.raises(ValueError, match=message):
                Network(3, dict.fromkeys(zip(sender, receiver), _arc()), np.ones(3),
                        [ClockParams(1.0)] * 3)

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(ValueError, match="equal lengths"):
            Network(3, ([0, 1], [1, 2], [_arc()]), np.ones(3), [ClockParams(1.0)] * 3)

    @settings(max_examples=100, deadline=None)
    @given(drawn=table_networks(), data=st.data())
    def test_columns_give_the_mapping_table(self, drawn, data):
        # shuffled columns, with each row's arc or with one arc for all
        net, arcs = drawn
        ends = data.draw(st.permutations(list(arcs)))
        sender, receiver = (np.array([e[k] for e in ends], dtype=np.intp) for k in (0, 1))
        values = [arcs[e] for e in ends]
        for cols, want in (((sender, receiver, values), [arcs[k] for k in sorted(arcs)]),
                           ((sender.tolist(), receiver.tolist(), _arc()),
                            [_arc()] * len(arcs))):
            table = Network(net.n, cols, net.rates, net.clocks, net.positions).table
            assert table.ends() == sorted(arcs)
            assert table.arc == want
            assert table.gamma.tolist() == [a.gamma for a in want]
            assert table.p_hear.tolist() == [a.p_hear for a in want]
            assert table.start.tolist() == net.table.start.tolist()

    @pytest.mark.parametrize("positions", [np.ones((3, 3)), np.array([[0.0, 0.1]] * 2
                                                                    + [[np.nan, 0.2]])],
                             ids=["shape", "nan"])
    def test_positions_checked(self, positions):
        with pytest.raises(ValueError, match="positions"):
            Network(3, {}, np.ones(3), [ClockParams(1.0)] * 3, positions)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        net = generate_geometric(GeometricSpec(8, 0.5, 0.2), seed=3)
        path = tmp_path / "net.json"
        net.save(path)
        loaded = Network.load(path)
        assert loaded.to_dict() == net.to_dict()

    def test_bad_schema_version(self):
        with pytest.raises(ValueError):
            Network.from_dict({"schema_version": 999, "n": 2,
                               "nodes": [], "arcs": []})

    def test_one_arc_per_distinct_value(self):
        # 2 and 2.0, and 0.0 and -0.0, compare equal but are written apart
        data = generate_geometric(GeometricSpec(6, 0.6, 0.1), seed=0).to_dict()
        for rec, gamma in zip(data["arcs"], [2, 2.0, -0.0, 0.0, 2]):
            rec["gamma"] = gamma
        net = Network.from_dict(data)
        assert len(net.table.arc) > 5
        assert len({id(arc) for arc in net.table.arc}) == 5
        assert net.table.arc[0] is net.table.arc[4]
        assert (json.dumps(net.to_dict(), sort_keys=True)
                == json.dumps(data, sort_keys=True))

    @pytest.mark.parametrize("edit, field", [
        (lambda d: d["nodes"][1].update(rate="2.5"), "rate"),
        (lambda d: d["nodes"][1].update(alpha=True), "alpha"),
        (lambda d: d["nodes"][1].update(beta="0"), "beta"),
        (lambda d: d["nodes"][1].update(xi_sigma=False), "xi_sigma"),
        (lambda d: d["arcs"][1].update(gamma=True), "gamma"),
        # an equal int first: the bool still gets its own check
        (lambda d: [d["arcs"][0].update(gamma=1), d["arcs"][1].update(gamma=True)],
         "gamma"),
        (lambda d: d["arcs"][1].update(p_hear=True), "p_hear"),
        (lambda d: d["arcs"][1].update(delta_bar=True), "delta_bar"),
        (lambda d: d["arcs"][1].update(eta_sigma="0.05"), "eta_sigma"),
        (lambda d: d["arcs"][1].update(delta_min=False), "delta_min"),
        (lambda d: d["nodes"][1].update(position=[math.nan, 0.2]), "position"),
        (lambda d: d["nodes"][1].update(position=[0.2, math.inf]), "position"),
        (lambda d: d["nodes"][1].update(position=[0.2]), "position"),
        (lambda d: d["nodes"][1].update(position=[0.2, True]), "position"),
        (lambda d: d["nodes"][1].update(position="0.2, 0.3"), "position"),
        (lambda d: d["arcs"][1].update(gamma=[1]), "gamma"),
        (lambda d: d["arcs"][1].update(sender=[0]), "sender"),
    ], ids=["str-rate", "bool-alpha", "str-beta", "bool-xi_sigma", "bool-gamma",
            "bool-gamma-after-int", "bool-p_hear", "bool-delta_bar", "str-eta_sigma",
            "bool-delta_min", "nan-position", "inf-position", "short-position",
            "bool-position", "str-position", "list-gamma", "list-sender"])
    def test_from_dict_names_a_bad_field(self, edit, field):
        data = generate_geometric(GeometricSpec(6, 0.6, 0.1), seed=0).to_dict()
        edit(data)
        with pytest.raises(ValueError, match=field):
            Network.from_dict(data)


def _json_dump_bytes(net, path):
    """The oracle of :meth:`Network.save`: the bytes ``json.dump`` writes."""
    with open(path, "w") as fh:
        json.dump(net.to_dict(), fh, indent=1, sort_keys=True)
    return path.read_bytes()


def _assert_saved_as_json_dump(net, tmp_path):
    net.save(tmp_path / "net.json")
    assert (tmp_path / "net.json").read_bytes() == _json_dump_bytes(
        net, tmp_path / "oracle.json")


class TestSaveBytes:
    @settings(max_examples=60, deadline=None)
    @given(drawn=networks())
    def test_random_networks(self, tmp_path_factory, drawn):
        _assert_saved_as_json_dump(drawn[0], tmp_path_factory.mktemp("net"))

    def test_no_arcs(self, tmp_path):
        net = Network(3, {}, np.ones(3), [ClockParams(1.0)] * 3)
        _assert_saved_as_json_dump(net, tmp_path)
        assert '"arcs": []' in (tmp_path / "net.json").read_text()

    def test_arcs_sharing_one_arc(self, tmp_path):
        arc = _arc(0.5, 0.7)
        net = Network(3, dict.fromkeys([(0, 1), (1, 2), (2, 0), (0, 2)], arc),
                      np.ones(3), [ClockParams(1.0 + 0.01 * i, 0.1 * i) for i in range(3)],
                      np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]))
        assert len({id(a) for a in net.table.arc}) == 1
        _assert_saved_as_json_dump(net, tmp_path)

    def test_int_valued_records(self, tmp_path):
        data = generate_geometric(GeometricSpec(6, 0.6, 0.1), seed=0).to_dict()
        for rec, gamma in zip(data["arcs"], [2, 2.0, 3, 0, 1]):
            rec.update(gamma=gamma, p_hear=1, delta_bar=1)
        data["nodes"][0].update(rate=2, alpha=1, beta=0)
        net = Network.from_dict(data)
        _assert_saved_as_json_dump(net, tmp_path)
        assert json.loads((tmp_path / "net.json").read_text()) == data

    def test_numpy_floats_and_bools(self, tmp_path):
        arcs = {(0, 1): Arc(np.float64(0.5), True, DelayModel(np.float64(0.25))),
                (1, 0): Arc(True, np.float64(0.75), DelayModel(0.1, np.float64(0.0)))}
        clocks = [ClockParams(np.float64(1.01), np.float64(-0.5)), ClockParams(1.0)]
        net = Network(2, arcs, np.ones(2), clocks)
        _assert_saved_as_json_dump(net, tmp_path)
        text = (tmp_path / "net.json").read_text()
        assert "np.float64" not in text and "True" not in text and '"p_hear": true' in text

    def test_negative_zero_gamma(self, tmp_path):
        net = Network(2, {(0, 1): _arc(-0.0), (1, 0): _arc(0.0)}, np.ones(2),
                      [ClockParams(1.0)] * 2)
        _assert_saved_as_json_dump(net, tmp_path)
        assert '"gamma": -0.0' in (tmp_path / "net.json").read_text()

    def test_uniform_delays(self, tmp_path):
        spec = GeometricSpec(8, 0.6, 0.1, eta_sigma=0.05, noise_dist="uniform")
        _assert_saved_as_json_dump(generate_geometric(spec, seed=4), tmp_path)
        assert '"delay_dist": "uniform"' in (tmp_path / "net.json").read_text()

    def test_load_save_round_trip(self, tmp_path):
        net = generate_geometric(GeometricSpec(12, 0.4, 0.3), seed=7)
        net.save(tmp_path / "a.json")
        Network.load(tmp_path / "a.json").save(tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        _assert_saved_as_json_dump(Network.load(tmp_path / "a.json"), tmp_path)


class TestConnectivity:
    def test_line_has_center(self):
        # 0 -> 1 -> 2: only node 0 reaches everyone
        arcs = {(0, 1): _arc(), (1, 2): _arc()}
        net = Network(3, arcs, np.ones(3), [ClockParams(1.0)] * 3)
        assert centers(net) == [0]

    def test_disconnected_has_no_center(self):
        net = Network(3, {(0, 1): _arc()}, np.ones(3), [ClockParams(1.0)] * 3)
        assert centers(net) == []

    def test_cycle_all_centers(self):
        arcs = {(0, 1): _arc(), (1, 2): _arc(), (2, 0): _arc()}
        net = Network(3, arcs, np.ones(3), [ClockParams(1.0)] * 3)
        assert centers(net) == [0, 1, 2]

    def test_repair_identity_on_connected(self):
        arcs = {(0, 1): _arc(), (1, 2): _arc()}
        net = Network(3, arcs, np.ones(3), [ClockParams(1.0)] * 3)
        assert repair_connectivity(net, _arc()) is net

    def test_repair_connects(self):
        net = Network(4, {(0, 1): _arc(), (2, 3): _arc()},
                      np.ones(4), [ClockParams(1.0)] * 4)
        template = _arc(0.5, 0.7)
        fixed = repair_connectivity(net, template)
        assert centers(fixed) != []
        # minimal: merging two source components needs exactly one new arc;
        # the tie (2, 0) vs (0, 2) goes to the source listed first, [0]
        assert fixed.table.ends() == [(0, 1), (0, 2), (2, 3)]
        assert fixed.table.arc == [_arc(), template, _arc()]

    @staticmethod
    def reachability_sources(n, arcs):
        """Oracle: the transitive closure by repeated boolean squaring; a
        node's component is the nodes it reaches and is reached by, and a
        component is a source when only its own members reach it."""
        reach = np.eye(n, dtype=np.int64)
        for j, i in arcs:
            reach[j, i] = 1
        for _ in range(n.bit_length()):
            reach = (reach @ reach > 0).astype(np.int64)
        sources = []
        for v in range(n):
            into = reach[:, v] > 0
            members = np.flatnonzero(into & (reach[v] > 0)).tolist()
            if members[0] == v and into.sum() == len(members):
                sources.append(members)
        return sources

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12))
    def test_source_components_match_reachability(self, data, n):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        # a list in drawn order, so the arcs come in shuffled order
        arcs = data.draw(st.lists(st.sampled_from(pairs), unique=True)
                         if pairs else st.just([]))
        ends = np.array(arcs, dtype=np.intp).reshape(-1, 2)
        assert (_source_components(n, ends[:, 0], ends[:, 1])
                == self.reachability_sources(n, arcs))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(13, 40))
    def test_larger_source_components_match_reachability(self, data, n):
        # sparse enough to leave several components, deep enough to nest them
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = data.draw(st.lists(st.sampled_from(pairs), unique=True,
                                  min_size=n // 2, max_size=3 * n))
        ends = np.array(arcs, dtype=np.intp).reshape(-1, 2)
        assert (_source_components(n, ends[:, 0], ends[:, 1])
                == self.reachability_sources(n, arcs))

    @staticmethod
    def repair_loop(net):
        """Oracle: the arcs repair adds, by one ``np.linalg.norm`` per pair
        of nodes from two different sources, in the order for a, for b
        other than a, for u in a, for v in b; the first closest wins."""
        sender, receiver = net.table.sender, net.table.receiver
        added = []
        while len(sources := _source_components(net.n, sender, receiver)) > 1:
            pairs = [(u, v) for a in sources for b in sources if a is not b
                     for u in a for v in b]
            if net.positions is not None:
                d = [np.linalg.norm(net.positions[u] - net.positions[v])
                     for u, v in pairs]
            else:
                d = [u + v for u, v in pairs]
            u, v = pairs[int(np.argmin(d))]
            added.append((u, v))
            sender, receiver = np.append(sender, u), np.append(receiver, v)
        return added

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(2, 24), layout=st.sampled_from(LAYOUTS))
    def test_repair_matches_the_pair_loop(self, data, n, layout):
        # on the grid and line layouts the order of the pairs decides
        # between pairs at equal distances
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n))
        positions = _layout(layout, n, np.random.default_rng(data.draw(st.integers(0, 1000))))
        net = Network(n, dict.fromkeys(arcs, _arc()), np.ones(n),
                      [ClockParams(1.0)] * n, positions)
        template = _arc(0.5, 0.7)
        fixed = repair_connectivity(net, template)
        added = self.repair_loop(net)
        assert fixed.table.ends() == sorted(arcs + added)
        assert centers(fixed) != []

    def test_repair_ranks_near_ties_as_the_norm_does(self):
        # |p1 - p0| and |p2 - p1| round to the same value as sqrt(x*x + y*y)
        # but one ulp apart where the norm fuses the multiply-add, so the
        # pair chosen first depends on the rounding
        x, y = 0.8673335518424147, 0.12875967122785104
        pos = np.array([[0.0, 0.0], [x, y], [x + y, y + x]])
        net = Network(3, {}, np.ones(3), [ClockParams(1.0)] * 3, pos)
        assert repair_connectivity(net, _arc()).table.ends() == sorted(self.repair_loop(net))

    def test_repair_of_a_sparse_network_matches_the_pair_loop(self):
        # 60 nodes at radius 0.06 leave 36 source components
        net = generate_geometric(GeometricSpec(60, 0.06, 0.1), seed=4)
        arcs, _ = TestGenerate.pair_loop(60, 0.06, 0.1, 4)
        bare = Network(60, dict.fromkeys(arcs, _arc()), net.rates, net.clocks,
                       net.positions)
        added = self.repair_loop(bare)
        assert len(added) == 35
        assert net.table.ends() == sorted(arcs + added)

    @pytest.mark.parametrize("n, seed", [(30, 0), (60, 1)])
    def test_repair_of_a_network_without_arcs_matches_the_pair_loop(self, n, seed):
        # no pair is close: every node is a source, and the shells grow
        # from below the nearest pair's distance
        net = generate_geometric(GeometricSpec(n, 1e-4, 0.1), seed=seed)
        bare = Network(n, {}, net.rates, net.clocks, net.positions)
        added = self.repair_loop(bare)
        assert len(added) == n - 1
        assert net.table.ends() == sorted(added)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 60), layout=st.sampled_from(LAYOUTS[1:]),
           radius=st.one_of(st.floats(1e-3, 2.0), st.just(math.inf)))
    def test_pairs_within_match_every_pair(self, data, n, layout, radius):
        # a subset of the nodes, anywhere on the plane; on the grid many
        # pairs lie exactly at the radius
        positions = _layout(layout, n, np.random.default_rng(data.draw(st.integers(0, 1000))))
        positions = positions * data.draw(st.sampled_from([1.0, 3.0, 1e-3])) - 0.5
        nodes = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
        if layout == "grid" and data.draw(st.booleans()):
            radius = 0.25
        u, v, d = _pairs_within(positions, nodes, radius)
        want = [(a, b, np.linalg.norm(positions[a] - positions[b]))
                for a in nodes.tolist() for b in nodes.tolist()
                if a < b and np.linalg.norm(positions[a] - positions[b]) < radius]
        assert list(zip(u.tolist(), v.tolist(), d.tolist())) == want

    @pytest.mark.parametrize("n, radius, sources", [(400, 0.05, 64), (800, 0.035, 121)])
    def test_repair_finds_the_components_once(self, monkeypatch, n, radius, sources):
        # an arc added between two sources changes no component, so the
        # repair joins all the sources after one pass, not one per arc
        found = []

        def spy(*args):
            found.append(_source_components(*args))
            return found[-1]

        monkeypatch.setattr(topology, "_source_components", spy)
        generate_geometric(GeometricSpec(n, radius), seed=1)
        assert [len(f) for f in found] == [sources]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(2, 30),
           layout=st.sampled_from(LAYOUTS[1:]))
    def test_distances_are_the_norm_bit_for_bit(self, data, n, layout):
        positions = _layout(layout, n, np.random.default_rng(data.draw(st.integers(0, 1000))))
        node = st.integers(0, n - 1)
        ends = data.draw(st.lists(st.tuples(node, node), min_size=1, max_size=50))
        u, v = np.array(ends).T
        norm = [np.linalg.norm(positions[i] - positions[j]) for i, j in ends]
        assert _distances(positions, u, v).tolist() == norm

    # 5 000 nodes deep: a recursive depth-first pass would exceed the recursion limit
    def test_long_path_has_its_first_node_as_source(self):
        nodes = np.arange(5000)
        assert _source_components(5000, nodes[:-1], nodes[1:]) == [[0]]

    def test_long_cycle_is_one_component(self):
        nodes = np.arange(5000)
        assert _source_components(5000, nodes, np.roll(nodes, -1)) == [nodes.tolist()]

    def test_joined_cycles_give_the_upstream_cycle(self):
        # cycle 3 -> 4 -> 5 -> 3 reaches cycle 0 -> 1 -> 2 -> 0 by the arc 5 -> 1
        sender = np.array([1, 0, 2, 4, 3, 5, 5])
        receiver = np.array([2, 1, 0, 5, 4, 3, 1])
        assert _source_components(6, sender, receiver) == [[3, 4, 5]]

    def test_no_arcs_makes_every_node_a_source(self):
        none = np.empty(0, dtype=np.intp)
        assert _source_components(4, none, none) == [[0], [1], [2], [3]]


class TestGenerate:
    def test_basic_properties(self):
        net = generate_geometric(GeometricSpec(10, 0.5, 0.1), seed=0)
        assert net.n == 10
        assert centers(net) != []
        alphas = net.alphas()
        assert np.all((alphas >= 0.96) & (alphas <= 1.04))
        betas = net.betas()
        assert np.all((betas >= -0.2) & (betas <= 0.2))

    def test_noise_dist_shapes_the_delays(self, tmp_path):
        spec = GeometricSpec(8, 0.6, 0.1, delta_bar=0.1, delta_min=0.04,
                             eta_sigma=0.05, noise_dist="uniform")
        generate_geometric(spec, seed=3).save(tmp_path / "net.json")
        saved = json.loads((tmp_path / "net.json").read_text())
        assert {arc["delay_dist"] for arc in saved["arcs"]} == {"uniform"}
        net = Network.load(tmp_path / "net.json")
        tr = engine.run(net, SyncConfig(), max_updates=3000, seed=3).trace
        delay = tr.t - tr.t_send
        half = math.sqrt(3.0) * 0.05
        # the jitter is bounded, and the floor clamps the lower tail
        assert np.all(delay <= 0.1 + half + 1e-12)
        assert np.all(delay >= 0.04 - 1e-12)
        assert delay.max() > 0.1 + 0.9 * half
        assert np.mean(delay < 0.04 + 1e-12) > 0.05

    def test_deterministic(self):
        a = generate_geometric(GeometricSpec(10, 0.5, 0.1), seed=7)
        b = generate_geometric(GeometricSpec(10, 0.5, 0.1), seed=7)
        assert a.to_dict() == b.to_dict()

    def test_seed_changes_layout(self):
        a = generate_geometric(GeometricSpec(10, 0.5, 0.1), seed=1)
        b = generate_geometric(GeometricSpec(10, 0.5, 0.1), seed=2)
        assert a.to_dict() != b.to_dict()

    @staticmethod
    def pair_loop(n, radius, one_way_fraction, seed):
        """Reference: one exact norm per node pair, then the direction
        draws of the close pairs; returns the arcs and the next draws."""
        rng = substream(seed, "netgen")
        pos = rng.uniform(0.0, 1.0, size=(n, 2))
        arcs = []
        for u in range(n):
            for v in range(u + 1, n):
                if np.linalg.norm(pos[u] - pos[v]) < radius:
                    if rng.random() < one_way_fraction:
                        arcs.append((u, v) if rng.random() < 0.5 else (v, u))
                    else:
                        arcs += [(u, v), (v, u)]
        return arcs, rng.uniform(0.96, 1.04, size=n)

    def assert_matches_pair_loop(self, n, radius, one_way, seed):
        net = generate_geometric(GeometricSpec(n, radius, one_way), seed=seed)
        arcs, alphas = self.pair_loop(n, radius, one_way, seed)
        # the table's rows are the geometric arcs, and one repair arc for
        # each source component past the first
        ends = np.array(arcs, dtype=np.intp).reshape(-1, 2)
        sources = _source_components(n, ends[:, 0], ends[:, 1])
        added = set(net.table.ends()) - set(arcs)
        assert net.table.ends() == sorted(arcs + list(added))
        assert len(added) == len(sources) - 1
        assert np.array_equal(net.alphas(), alphas)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 40), radius=st.floats(0.05, 1.5),
           one_way=st.floats(0.0, 1.0), seed=st.integers(0, 10_000))
    # no close pair; every pair one-way or none; one pair of two nodes
    @example(n=40, radius=1e-3, one_way=0.5, seed=1)
    @example(n=30, radius=0.4, one_way=1.0, seed=2)
    @example(n=30, radius=0.4, one_way=0.0, seed=3)
    @example(n=2, radius=1.5, one_way=1.0, seed=4)
    @example(n=2, radius=1.5, one_way=0.0, seed=5)
    @example(n=2, radius=1e-3, one_way=0.5, seed=6)
    def test_matches_pair_loop(self, n, radius, one_way, seed):
        self.assert_matches_pair_loop(n, radius, one_way, seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_pair_on_the_radius(self, seed):
        # the radius equals one pair's exact distance, so that pair lies
        # on the boundary, where the rounding of the distance decides
        n = 12
        pos = substream(seed, "netgen").uniform(0.0, 1.0, size=(n, 2))
        for u, v in zip(*np.triu_indices(n, 1)):
            radius = float(np.linalg.norm(pos[u] - pos[v]))
            self.assert_matches_pair_loop(n, radius, 0.3, seed)

    @pytest.mark.parametrize("over", [
        {"n": 1},
        {"radius": 0.0},
        {"radius": -1.0},
        {"alpha_range": (1.04, 0.96)},
        {"beta_range": (0.2, -0.2)},
        {"alpha_range": (-0.1, 0.1)},
        {"alpha_range": (0.0, 0.0)},
    ], ids=["one-node", "zero-radius", "negative-radius", "reversed-alpha",
            "reversed-beta", "alpha-around-0", "alpha-at-0"])
    def test_spec_rejects_out_of_range(self, over):
        with pytest.raises(ValueError):
            GeometricSpec(**{"n": 5, "radius": 0.5, **over})
        with pytest.raises(ValueError):
            replace(GeometricSpec(5, 0.5), **over)

    @pytest.mark.parametrize("seed", [-1, 2**32, True],
                             ids=["negative", "past-max", "bool"])
    def test_seed_out_of_range_rejected(self, seed):
        # -1 would alias 2**32 - 1 and 2**32 would alias 0
        with pytest.raises(ValueError, match="seed"):
            generate_geometric(GeometricSpec(10, 0.5, 0.1), seed=seed)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(3, 20), seed=st.integers(0, 10_000))
    def test_always_repaired(self, n, seed):
        net = generate_geometric(GeometricSpec(n, 0.4, 0.2), seed=seed)
        assert centers(net) != []


class TestProbabilityProfile:
    def test_two_node_oracle(self):
        # equal rates: pi = [1/2, 1/2]; one arc 0->1 with p_hear = 0.8:
        # pi_arc[1,0] = 0.4, n_bar = 0.4, p = [0, 1]
        net = make_line_network(p_hear=0.8, two_way=False)
        prof = probability_profile(net)
        assert prof.pi == pytest.approx([0.5, 0.5])
        assert prof.pi_arc[1, 0] == pytest.approx(0.4)
        assert prof.n_bar == pytest.approx(0.4)
        assert prof.p == pytest.approx([0.0, 1.0])

    def test_pi_sums_to_one(self):
        net = generate_geometric(GeometricSpec(12, 0.5, 0.1), seed=5)
        prof = probability_profile(net)
        assert prof.pi.sum() == pytest.approx(1.0)
        assert prof.p.sum() == pytest.approx(1.0)
        assert prof.n_bar == pytest.approx(prof.pi_arc.sum())

    def test_unequal_rates(self):
        net = make_line_network(mu=1.0)
        net.rates = np.array([3.0, 1.0])
        prof = probability_profile(net)
        assert prof.pi == pytest.approx([0.75, 0.25])


class TestExpectedMatrices:
    def test_laplacian_row_sums_zero(self):
        net = generate_geometric(GeometricSpec(10, 0.5, 0.1), seed=2)
        lap = expected_laplacian(net, probability_profile(net))
        assert np.allclose(lap.sum(axis=1), 0.0)

    def test_two_node_oracle(self):
        # arc 0->1, gamma=2, p_hear=0.5, pi_0=1/2:
        # off-diagonal entry 2 * 0.5 * 0.5 = 0.5
        net = make_line_network(gamma=2.0, p_hear=0.5, two_way=False)
        lap = expected_laplacian(net, probability_profile(net))
        assert lap == pytest.approx(np.array([[0.0, 0.0], [0.5, -0.5]]))

    def test_mute_in_arcs(self):
        spec = GeometricSpec(8, 0.5, 0.1)
        net = generate_geometric(spec, seed=6)
        muted = mute_in_arcs(net, 3)
        expected = own_arcs(net, spec.arc(), muted=3)
        assert muted.table.ends() == list(expected)
        assert muted.table.arc == list(expected.values())
        assert muted.table.gamma.tolist() == [a.gamma for a in expected.values()]


# The child reads its peak RSS from VmHWM, the high-water mark of its own
# address space: ru_maxrss keeps the launching process's peak across exec.
_GENERATE_CHILD = """
import json, sys
from clocksync.topology import GeometricSpec, generate_geometric
net = generate_geometric(GeometricSpec(4000, 0.003), seed=0)
with open("/proc/self/status") as fh:
    hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"arcs": len(net.table.sender), "max_rss_mb": hwm_kb / 1024}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/self/status")
def test_nearly_empty_large_network_is_generated_in_small_memory():
    # 4 000 nodes at radius 0.003 leave about 3 800 source components; a
    # repair that listed every pair of nodes from two sources would take
    # gigabytes, the cells and the distance shells take tens of MB
    src = Path(clocksync.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", _GENERATE_CHILD],
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, timeout=300, check=True)
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["arcs"] > 3999
    assert report["max_rss_mb"] < 300.0


def test_every_module_imports_without_networkx():
    # the package asks no graph library: its own depth-first pass finds the source components
    child = ("import importlib, pkgutil, sys\n"
             "sys.modules['networkx'] = None\n"
             "import clocksync\n"
             "for mod in pkgutil.iter_modules(clocksync.__path__):\n"
             "    importlib.import_module('clocksync.' + mod.name)\n")
    src = Path(clocksync.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", child],
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def test_run_path_needs_no_scipy(tmp_path):
    # scipy is imported only by analysis.lyapunov_solve and experiments.report,
    # which run and scaling never call
    child = ("import sys\n"
             "sys.modules['scipy'] = None\n"
             "from clocksync import experiments\n"
             "loaded = [name for name, mod in sys.modules.items()\n"
             "          if name.startswith('scipy') and mod is not None]\n"
             "assert not loaded, loaded\n"
             "out = sys.argv[1]\n"
             "assert experiments.main(['run', '--preset', 'fig1b', '--updates', '2000',\n"
             "                         '--seeds', '0', '--outdir', out]) == 0\n"
             "assert experiments.main(['scaling', '--preset', 'fig1b', '--nodes', '10', '20',\n"
             "                         '--updates', '2000', '--outdir', out]) == 0\n")
    src = Path(clocksync.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", child, str(tmp_path)],
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
