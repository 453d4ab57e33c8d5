"""Directed network construction and expected-matrix machinery.

Networks are modified geometric random graphs on the unit square: nodes
are connected when closer than a radius, a fraction of the two-way links
is made one-way, and the result is repaired so that a center node exists
from which every node is reachable along broadcast arcs.

An arc ``(j, i)`` means node j broadcasts to node i.  The expected update
matrix assembled here has weighted-Laplacian structure and drives all the
spectral diagnostics in :mod:`clocksync.analysis`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import networkx as nx
import numpy as np

from clocksync.clock import ClockParams, DelayModel
from clocksync.streams import substream

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Arc:
    """One directed communication link ``sender -> receiver``.

    Attributes:
        gamma: nonnegative update weight at the receiver (0 mutes the link).
        p_hear: probability the receiver hears a broadcast, in (0, 1].
        delay: delay model for this arc.
    """

    gamma: float
    p_hear: float
    delay: DelayModel

    def __post_init__(self) -> None:
        # each check is negated, so that NaN fails it
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError("arc weight gamma must be finite and nonnegative")
        if not 0.0 < self.p_hear <= 1.0:
            raise ValueError("p_hear must be in (0, 1]")


@dataclass
class Network:
    """Immutable-by-convention directed network with clock and rate data.

    ``arcs`` maps ``(j, i)`` (sender, receiver) to an :class:`Arc`.
    The sorted out- and in-adjacency is built once at construction, so
    the arc set must not change afterwards.
    """

    n: int
    arcs: dict[tuple[int, int], Arc]
    rates: np.ndarray
    clocks: list[ClockParams]
    positions: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one node")
        self.rates = np.asarray(self.rates, dtype=float)
        if self.rates.shape != (self.n,) or not np.all(
                (self.rates > 0.0) & (self.rates < math.inf)):
            raise ValueError("rates must be finite and positive, one per node")
        if len(self.clocks) != self.n:
            raise ValueError("need one ClockParams per node")
        out: list[list[int]] = [[] for _ in range(self.n)]
        inn: list[list[int]] = [[] for _ in range(self.n)]
        for (j, i) in sorted(self.arcs):
            if j == i:
                raise ValueError("self-arcs are not allowed")
            if not (0 <= j < self.n and 0 <= i < self.n):
                raise ValueError("arc endpoints out of range")
            out[j].append(i)
            inn[i].append(j)
        self._out = [tuple(nbrs) for nbrs in out]
        self._in = [tuple(nbrs) for nbrs in inn]

    def out_neighbors(self, j: int) -> tuple[int, ...]:
        """Receivers of node j's broadcasts, in increasing order."""
        return self._out[j]

    def in_neighbors(self, i: int) -> tuple[int, ...]:
        """Nodes whose broadcasts node i can hear, in increasing order."""
        return self._in[i]

    def alphas(self) -> np.ndarray:
        return np.array([c.alpha for c in self.clocks])

    def betas(self) -> np.ndarray:
        return np.array([c.beta for c in self.clocks])

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "n": self.n,
            "nodes": [
                {
                    "id": i,
                    "rate": float(self.rates[i]),
                    "alpha": c.alpha,
                    "beta": c.beta,
                    "xi_sigma": c.xi_sigma,
                    "dist": c.dist,
                    "position": (None if self.positions is None
                                 else [float(x) for x in self.positions[i]]),
                }
                for i, c in enumerate(self.clocks)
            ],
            "arcs": [
                {
                    "sender": j,
                    "receiver": i,
                    "gamma": a.gamma,
                    "p_hear": a.p_hear,
                    "delta_bar": a.delay.delta_bar,
                    "eta_sigma": a.delay.eta_sigma,
                    "delta_min": a.delay.delta_min,
                    "delay_dist": a.delay.dist,
                }
                for (j, i), a in sorted(self.arcs.items())
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Network":
        if data.get("schema_version") != SCHEMA_VERSION:
            raise ValueError("unsupported network schema version")
        n = data["n"]
        clocks = []
        rates = np.full(n, np.nan)  # a node missing from the list fails the check
        positions = []
        have_pos = True
        for node in sorted(data["nodes"], key=lambda d: d["id"]):
            clocks.append(ClockParams(node["alpha"], node["beta"],
                                      node["xi_sigma"], node.get("dist", "normal")))
            rates[node["id"]] = node["rate"]
            if node.get("position") is None:
                have_pos = False
            else:
                positions.append(node["position"])
        arcs = {}
        for rec in data["arcs"]:
            arcs[(rec["sender"], rec["receiver"])] = Arc(
                rec["gamma"], rec["p_hear"],
                DelayModel(rec["delta_bar"], rec["eta_sigma"],
                           rec["delta_min"], rec.get("delay_dist", "normal")))
        return cls(n, arcs, rates, clocks,
                   np.array(positions) if have_pos else None)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)

    @classmethod
    def load(cls, path) -> "Network":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class ProbabilityProfile:
    """Per-node broadcast/update probabilities of the gossip process.

    Attributes:
        pi: per-node broadcast probability mu_j / mu_c.
        pi_arc: (n, n) matrix, entry [i, j] = pi_j * p_hear(j, i) on arcs.
        n_bar: average number of updates per broadcast tick.
        p: per-node unconditional probability to update at an iteration.
    """

    pi: np.ndarray
    pi_arc: np.ndarray
    n_bar: float
    p: np.ndarray


def _digraph(net: Network) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(range(net.n))
    g.add_edges_from(net.arcs.keys())
    return g


def has_spanning_tree(net: Network) -> bool:
    """True iff some node reaches every other node along broadcast arcs."""
    return centers(net) != []


def centers(net: Network) -> list[int]:
    """Nodes from which all other nodes are reachable (broadcast roots).

    The condensation of the arc digraph has a spanning tree iff it has a
    unique source component; its members are exactly the centers.
    """
    g = _digraph(net)
    cond = nx.condensation(g)
    sources = [c for c in cond.nodes if cond.in_degree(c) == 0]
    if len(sources) != 1:
        return []
    return sorted(cond.nodes[sources[0]]["members"])


def repair_connectivity(net: Network, arc_template: Arc | None = None) -> Network:
    """Add the fewest arcs needed for a spanning tree to exist.

    Source components of the condensation are merged pairwise, each time
    joining the two geometrically closest nodes that belong to different
    source components (keeps the graph geometric).  Without positions the
    lowest-index representatives are joined.  Identity on already
    connected networks.
    """
    if arc_template is None:
        any_arc = next(iter(net.arcs.values()), None)
        arc_template = any_arc if any_arc is not None else Arc(
            1.0, 0.9, DelayModel(0.1))
    arcs = dict(net.arcs)
    while True:
        g = nx.DiGraph()
        g.add_nodes_from(range(net.n))
        g.add_edges_from(arcs.keys())
        cond = nx.condensation(g)
        sources = [sorted(cond.nodes[c]["members"])
                   for c in cond.nodes if cond.in_degree(c) == 0]
        if len(sources) <= 1:
            break
        best = None
        for a in range(len(sources)):
            for b in range(len(sources)):
                if a == b:
                    continue
                for u in sources[a]:
                    for v in sources[b]:
                        if net.positions is not None:
                            d = float(np.linalg.norm(
                                net.positions[u] - net.positions[v]))
                        else:
                            d = float(u + v)
                        if best is None or d < best[0]:
                            best = (d, u, v)
        _, u, v = best
        arcs[(u, v)] = arc_template
    if len(arcs) == len(net.arcs):
        return net
    return Network(net.n, arcs, net.rates, net.clocks, net.positions)


@dataclass(frozen=True)
class GeometricSpec:
    """Parameters of :func:`generate_geometric`, checked on construction.

    Every arc gets ``arc()`` (its delay floor is at most ``delta_bar``),
    every node the rate ``mu`` and a ``clock`` whose drift and offset are
    uniform in ``alpha_range`` and ``beta_range``; ``noise_dist`` shapes
    the reading noise only, the delays stay normal.
    """

    n: int
    radius: float
    one_way_fraction: float = 0.1
    p_hear: float = 0.9
    delta_bar: float = 0.1
    delta_min: float = 1e-6
    eta_sigma: float = 0.05
    xi_sigma: float = 0.05
    gamma: float = 1.0
    mu: float = 1.0
    alpha_range: tuple[float, float] = (0.96, 1.04)
    beta_range: tuple[float, float] = (-0.2, 0.2)
    noise_dist: str = "normal"

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if not self.radius > 0.0:
            raise ValueError("radius must be positive")
        if not 0.0 <= self.one_way_fraction <= 1.0:
            raise ValueError("one_way_fraction must be in [0, 1]")
        if not self.mu > 0.0:
            raise ValueError("mu must be positive")
        for name in ("alpha_range", "beta_range"):
            low, high = getattr(self, name)
            if not low <= high:
                raise ValueError(f"{name} must be (low, high) with low <= high")
        low, high = self.alpha_range
        if low <= 0.0 <= high:
            raise ValueError("alpha_range must not contain 0 (drifts are nonzero)")
        # the arc and clock types check the remaining values
        self.arc()
        self.clock(low, 0.0)

    def arc(self) -> Arc:
        """The arc every linked pair gets."""
        delay = DelayModel(self.delta_bar, self.eta_sigma,
                           min(self.delta_min, self.delta_bar))
        return Arc(self.gamma, self.p_hear, delay)

    def clock(self, alpha: float, beta: float) -> ClockParams:
        """One node's clock with the given drift and offset."""
        return ClockParams(alpha, beta, self.xi_sigma, self.noise_dist)


def generate_geometric(spec: GeometricSpec, seed: int) -> Network:
    """Generate a directed geometric random network on the unit square.

    Nodes are placed uniformly; pairs closer than ``spec.radius`` get
    two-way arcs; roughly ``spec.one_way_fraction`` of those pairs keep
    only one direction.  The result is repaired so a spanning tree exists
    (:func:`repair_connectivity` merges source components until one is
    left, so the repair always succeeds).
    """
    n, radius, one_way_fraction = spec.n, spec.radius, spec.one_way_fraction
    rng = substream(seed, "netgen")
    arc = spec.arc()
    pos = rng.uniform(0.0, 1.0, size=(n, 2))
    # pairs u < v in row order; a pair within rounding of the radius is
    # decided by the exact per-pair norm that defines the graph
    first, second = np.triu_indices(n, 1)
    diff = pos[first] - pos[second]
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    close = dist < radius
    for p in np.flatnonzero(np.abs(dist - radius) <= 1e-9 * radius):
        close[p] = np.linalg.norm(pos[first[p]] - pos[second[p]]) < radius
    arcs: dict[tuple[int, int], Arc] = {}
    for u, v in zip(first[close].tolist(), second[close].tolist()):
        if rng.random() < one_way_fraction:
            # one-way link, random direction
            if rng.random() < 0.5:
                arcs[(u, v)] = arc
            else:
                arcs[(v, u)] = arc
        else:
            arcs[(u, v)] = arc
            arcs[(v, u)] = arc
    alphas = rng.uniform(*spec.alpha_range, size=n)
    betas = rng.uniform(*spec.beta_range, size=n)
    clocks = [spec.clock(float(a), float(b)) for a, b in zip(alphas, betas)]
    net = Network(n, arcs, np.full(n, spec.mu), clocks, pos)
    return repair_connectivity(net, arc_template=arc)


def probability_profile(net: Network) -> ProbabilityProfile:
    """Broadcast/update probabilities implied by the rates and loss model.

    ``p[i]`` is the probability that iteration k is an update at node i:
    the sum of pi_j * p_hear over in-arcs, normalized by the average
    number of updates per tick.
    """
    mu_c = float(net.rates.sum())
    pi = net.rates / mu_c
    pi_arc = np.zeros((net.n, net.n))
    for (j, i), arc in net.arcs.items():
        pi_arc[i, j] = pi[j] * arc.p_hear
    n_bar = float(pi_arc.sum())
    if n_bar == 0.0:
        raise ValueError("network has no arcs")
    p = pi_arc.sum(axis=1) / n_bar
    return ProbabilityProfile(pi=pi, pi_arc=pi_arc, n_bar=n_bar, p=p)


def expected_laplacian(net: Network, profile: ProbabilityProfile) -> np.ndarray:
    """Expected update matrix: weighted Laplacian with zero row sums."""
    gam = np.zeros((net.n, net.n))
    for (j, i), arc in net.arcs.items():
        gam[i, j] = arc.gamma * profile.pi_arc[i, j]
    np.fill_diagonal(gam, 0.0)
    gam[np.diag_indices(net.n)] = -gam.sum(axis=1)
    return gam


def expected_gamma_d(net: Network, profile: ProbabilityProfile) -> np.ndarray:
    """Diagonal expectation of the per-update weight matrix.

    Equals minus the diagonal of the expected Laplacian.
    """
    return np.diag(-np.diag(expected_laplacian(net, profile)))


def mute_in_arcs(net: Network, node: int) -> Network:
    """Return a copy where all arcs into ``node`` have weight zero."""
    arcs = {
        (j, i): (replace(a, gamma=0.0) if i == node else a)
        for (j, i), a in net.arcs.items()
    }
    return Network(net.n, arcs, net.rates, net.clocks, net.positions)
