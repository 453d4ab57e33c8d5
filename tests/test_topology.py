"""Network construction, serialization, probabilities and expected matrices."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clocksync.clock import ClockParams, DelayModel
from clocksync.streams import substream
from clocksync.topology import (
    Arc,
    GeometricSpec,
    Network,
    centers,
    expected_gamma_d,
    expected_laplacian,
    generate_geometric,
    has_spanning_tree,
    mute_in_arcs,
    probability_profile,
    repair_connectivity,
)

from conftest import make_line_network


def _arc(gamma=1.0, p=0.9):
    return Arc(gamma, p, DelayModel(0.1))


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


class TestConnectivity:
    def test_line_has_center(self):
        # 0 -> 1 -> 2: only node 0 reaches everyone
        arcs = {(0, 1): _arc(), (1, 2): _arc()}
        net = Network(3, arcs, np.ones(3), [ClockParams(1.0)] * 3)
        assert centers(net) == [0]
        assert has_spanning_tree(net)

    def test_disconnected_has_no_center(self):
        net = Network(3, {(0, 1): _arc()}, np.ones(3), [ClockParams(1.0)] * 3)
        assert centers(net) == []
        assert not has_spanning_tree(net)

    def test_cycle_all_centers(self):
        arcs = {(0, 1): _arc(), (1, 2): _arc(), (2, 0): _arc()}
        net = Network(3, arcs, np.ones(3), [ClockParams(1.0)] * 3)
        assert centers(net) == [0, 1, 2]

    def test_repair_identity_on_connected(self):
        arcs = {(0, 1): _arc(), (1, 2): _arc()}
        net = Network(3, arcs, np.ones(3), [ClockParams(1.0)] * 3)
        assert repair_connectivity(net) is net

    def test_repair_connects(self):
        net = Network(4, {(0, 1): _arc(), (2, 3): _arc()},
                      np.ones(4), [ClockParams(1.0)] * 4)
        fixed = repair_connectivity(net)
        assert has_spanning_tree(fixed)
        # minimal: merging two source components needs exactly one new arc
        assert len(fixed.arcs) == len(net.arcs) + 1


class TestGenerate:
    def test_basic_properties(self):
        net = generate_geometric(GeometricSpec(10, 0.5, 0.1), seed=0)
        assert net.n == 10
        assert has_spanning_tree(net)
        alphas = net.alphas()
        assert np.all((alphas >= 0.96) & (alphas <= 1.04))
        betas = net.betas()
        assert np.all((betas >= -0.2) & (betas <= 0.2))

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
        # repair appends arcs after the geometric ones
        assert list(net.arcs)[:len(arcs)] == arcs
        assert np.array_equal(net.alphas(), alphas)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 40), radius=st.floats(0.05, 1.5),
           one_way=st.floats(0.0, 1.0), seed=st.integers(0, 10_000))
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

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(3, 20), seed=st.integers(0, 10_000))
    def test_always_repaired(self, n, seed):
        net = generate_geometric(GeometricSpec(n, 0.4, 0.2), seed=seed)
        assert has_spanning_tree(net)


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

    def test_gamma_d_is_minus_diagonal(self):
        net = generate_geometric(GeometricSpec(10, 0.5, 0.1), seed=4)
        prof = probability_profile(net)
        lap = expected_laplacian(net, prof)
        gd = expected_gamma_d(net, prof)
        assert np.allclose(np.diag(gd), -np.diag(lap))

    def test_mute_in_arcs(self):
        net = generate_geometric(GeometricSpec(8, 0.5, 0.1), seed=6)
        muted = mute_in_arcs(net, 3)
        for (j, i), arc in muted.arcs.items():
            if i == 3:
                assert arc.gamma == 0.0
            else:
                assert arc.gamma == net.arcs[(j, i)].gamma
