"""Shared fixtures: small hand-built networks used across test modules."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.vendor.pretty import for_type_by_name

from clocksync.clock import ClockParams, DelayModel
from clocksync.topology import (
    Arc,
    GeometricSpec,
    Network,
    centers,
    generate_geometric,
    mute_in_arcs,
)


# a falsifying example prints a Network by its repr: hypothesis would print
# each constructor argument, and ``arcs`` is not kept as an attribute
for_type_by_name("clocksync.topology", "Network", lambda net, p, cycle: p.text(repr(net)))


def make_line_network(
    alphas=(1.0, 1.02),
    betas=(0.0, 0.1),
    *,
    p_hear=1.0,
    gamma=1.0,
    delta_bar=0.1,
    eta_sigma=0.0,
    xi_sigma=0.0,
    mu=1.0,
    two_way=True,
):
    """Two-node network, arcs 0->1 and (optionally) 1->0."""
    delay = DelayModel(delta_bar, eta_sigma, min(1e-6, delta_bar))
    arc = Arc(gamma, p_hear, delay)
    arcs = {(0, 1): arc}
    if two_way:
        arcs[(1, 0)] = arc
    clocks = [ClockParams(a, b, xi_sigma) for a, b in zip(alphas, betas)]
    return Network(2, arcs, np.full(2, mu), clocks)


@pytest.fixture
def line_net():
    return make_line_network()


@pytest.fixture
def triangle_net():
    """Three-node two-way triangle, uniform weights, no noise."""
    delay = DelayModel(0.1)
    arc = Arc(1.0, 0.9, delay)
    arcs = {}
    for u in range(3):
        for v in range(3):
            if u != v:
                arcs[(u, v)] = arc
    clocks = [ClockParams(1.0 + 0.01 * i, 0.05 * i) for i in range(3)]
    return Network(3, arcs, np.ones(3), clocks)


def own_arcs(net, arc, muted=None):
    """The arcs of ``net`` as a test's own dict, each valued ``arc`` (the
    arc its spec gave every linked pair), those into ``muted`` with weight
    0: oracles read their per-arc values from it, not from the table."""
    return {(j, i): replace(arc, gamma=0.0) if i == muted else arc
            for j, i in zip(net.table.sender.tolist(), net.table.receiver.tolist())}


@st.composite
def networks(draw):
    """Small random networks: 2-6 nodes, random rates, delay and noise
    (``eta_sigma = 0`` gives deliveries at equal times), hearing always or
    not, and optionally a muted reference node.  Draws ``(net, arcs)``,
    ``arcs`` being the dict the network was built from."""
    n = draw(st.integers(2, 6))
    radius, one_way = draw(st.floats(0.2, 1.0)), draw(st.floats(0.0, 0.6))
    seed = draw(st.integers(0, 10_000))
    spec = GeometricSpec(
        n, radius, one_way,
        p_hear=draw(st.one_of(st.just(1.0), st.floats(0.2, 1.0))),
        delta_bar=draw(st.sampled_from([0.05, 0.3, 2.0])),
        eta_sigma=draw(st.sampled_from([0.0, 0.0, 0.02, 0.3])),
        xi_sigma=draw(st.sampled_from([0.0, 0.05])),
        noise_dist=draw(st.sampled_from(["normal", "uniform"])))
    net = generate_geometric(spec, seed=seed)
    rates = draw(st.lists(st.floats(0.2, 3.0), min_size=n, max_size=n))
    arcs = own_arcs(net, spec.arc())
    net = Network(n, arcs, np.array(rates), net.clocks, net.positions)
    if draw(st.booleans()):
        muted = centers(net)[0]
        arcs = own_arcs(net, spec.arc(), muted)
        net = mute_in_arcs(net, muted)
    return net, arcs
