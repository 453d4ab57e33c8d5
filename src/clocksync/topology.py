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
from collections.abc import Mapping
from dataclasses import InitVar, dataclass, field, replace
from operator import itemgetter

import numpy as np

from clocksync.clock import ClockParams, DelayModel
from clocksync.streams import MAX_SEED, is_int, substream

SCHEMA_VERSION = 1

_ARC_NUMBER_KEYS = ("gamma", "p_hear", "delta_bar", "eta_sigma", "delta_min")
_ARC_NUMBERS = itemgetter(*_ARC_NUMBER_KEYS)
_ARC_ENDS = itemgetter("sender", "receiver")


def _numbers(record: dict, *keys: str) -> list:
    """A record's values at ``keys``, each a number, not a bool or a string."""
    bad = [key for key in keys if type(record[key]) not in (int, float)]
    if bad:
        raise ValueError(f"{bad[0]} must be a number, got {record[bad[0]]!r}")
    return [record[key] for key in keys]


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


def _arc_fields(arc: Arc) -> dict:
    """An arc's record in :meth:`Network.to_dict`, without its ends."""
    return {"gamma": arc.gamma, "p_hear": arc.p_hear, "delta_bar": arc.delay.delta_bar,
            "eta_sigma": arc.delay.eta_sigma, "delta_min": arc.delay.delta_min,
            "delay_dist": arc.delay.dist}


@dataclass(frozen=True)
class ArcTable:
    """A network's arcs, one row per arc in (sender, receiver) order, with
    its :class:`Arc` (rows may share one) and that arc's ``gamma`` and
    ``p_hear``; sender j's out-arcs are the rows ``start[j]:start[j + 1]``."""

    sender: np.ndarray    # (m,) intp
    receiver: np.ndarray  # (m,) intp
    arc: list[Arc]        # (m,)
    gamma: np.ndarray     # (m,) float64
    p_hear: np.ndarray    # (m,) float64
    start: np.ndarray     # (n + 1,) intp

    def ends(self) -> list[tuple[int, int]]:
        """The (sender, receiver) pair of each row."""
        return list(zip(self.sender.tolist(), self.receiver.tolist()))

    def rows(self, sender, receiver) -> np.ndarray:
        """The rows of the arcs ``(sender[k], receiver[k])``; a pair that
        is not an arc raises ``ValueError``."""
        n = len(self.start) - 1  # the rows are sorted by sender * n + receiver
        sender, receiver = np.broadcast_arrays(sender, receiver)
        want = sender * n + receiver
        code = np.append(self.sender * n + self.receiver, -1)  # -1: past the last row
        row = np.searchsorted(code[:-1], want)
        bad = (code[row] != want) | (np.minimum(sender, receiver) < 0) | (receiver >= n)
        if bad.any():
            raise ValueError(f"({sender[bad][0]}, {receiver[bad][0]}) is not an arc")
        return row


def _ends(values) -> np.ndarray:
    """One column of arc ends as an integer array."""
    col = np.asarray(values) if len(values) else np.empty(0, dtype=np.intp)
    # numpy makes an int array of bools mixed with ints
    if (col.ndim != 1 or col.dtype.kind not in "iu"
            or not isinstance(values, np.ndarray) and bool in set(map(type, values))):
        raise ValueError("arc endpoints must be pairs of integers")
    return col


def _arc_table(n: int, sender, receiver, arc) -> ArcTable:
    """The table of the arcs ``sender[r] -> receiver[r]``, each row with
    its :class:`Arc` ``arc[r]``, or all with the one :class:`Arc` ``arc``:
    checked, and sorted unless already in (sender, receiver) order."""
    sender, receiver = _ends(sender), _ends(receiver)
    m = len(sender)
    if len(receiver) != m or not isinstance(arc, Arc) and len(arc) != m:
        raise ValueError("arc columns must have equal lengths")
    if np.any(sender == receiver):
        raise ValueError("self-arcs are not allowed")
    if not np.all((sender >= 0) & (sender < n) & (receiver >= 0) & (receiver < n)):
        raise ValueError("arc endpoints out of range")
    sender, receiver = (np.ascontiguousarray(c, dtype=np.intp) for c in (sender, receiver))
    code = sender * n + receiver
    if np.any(code[1:] <= code[:-1]):
        if isinstance(arc, Arc):
            code.sort()
        else:
            order = np.argsort(code)
            code = code[order]
            arc = [arc[r] for r in order.tolist()]
        sender, receiver = np.divmod(code, n)
        # columns, unlike a mapping, can repeat a pair
        twice = np.flatnonzero(code[1:] == code[:-1])
        if len(twice):
            end = (int(sender[twice[0]]), int(receiver[twice[0]]))
            raise ValueError(f"arc {end} is listed more than once")
    if isinstance(arc, Arc):
        rows = [arc] * m
        gamma, p_hear = np.full(m, arc.gamma, dtype=float), np.full(m, arc.p_hear, dtype=float)
    else:
        rows = list(arc)
        gamma = np.array([a.gamma for a in rows], float)
        p_hear = np.array([a.p_hear for a in rows], float)
    return ArcTable(sender, receiver, rows, gamma, p_hear,
                    np.searchsorted(sender, np.arange(n + 1)))


@dataclass
class Network:
    """Immutable-by-convention directed network with clock and rate data.

    The constructor takes ``arcs`` as columns ``(sender, receiver, arc)``:
    the integer ends of each row, and each row's :class:`Arc` or one
    :class:`Arc` that every row shares.  A mapping from ``(j, i)``
    (sender, receiver) to an :class:`Arc` is turned into those columns.
    Either way the columns are checked and sorted once, by one path, and
    the arcs are kept only as :attr:`table`, where an arc's row is its
    index everywhere (its jitter stream, ``Schedule.arc``, ``SyncState``'s
    links).
    """

    n: int
    arcs: InitVar[Mapping[tuple[int, int], Arc] | tuple]
    rates: np.ndarray
    clocks: list[ClockParams]
    positions: np.ndarray | None = None
    table: ArcTable = field(init=False, repr=False, compare=False)

    def __post_init__(self, arcs) -> None:
        if self.n < 1:
            raise ValueError("need at least one node")
        self.rates = np.asarray(self.rates, dtype=float)
        if self.rates.shape != (self.n,) or not np.all(
                (self.rates > 0.0) & (self.rates < math.inf)):
            raise ValueError("rates must be finite and positive, one per node")
        if len(self.clocks) != self.n:
            raise ValueError("need one ClockParams per node")
        if self.positions is not None:
            self.positions = np.asarray(self.positions, dtype=float)
            if self.positions.shape != (self.n, 2) or not np.isfinite(self.positions).all():
                raise ValueError("positions must be None or two finite numbers per node")
        if isinstance(arcs, Mapping):
            try:  # every key a pair
                sender, receiver = zip(*arcs, strict=True) if arcs else ((), ())
            except (TypeError, ValueError):
                raise ValueError("arc endpoints must be pairs of integers") from None
            arcs = sender, receiver, list(arcs.values())
        self.table = _arc_table(self.n, *arcs)

    def out_neighbors(self, j: int) -> tuple[int, ...]:
        """Receivers of node j's broadcasts, in increasing order."""
        t = self.table
        return tuple(t.receiver[t.start[j]:t.start[j + 1]].tolist())

    def alphas(self) -> np.ndarray:
        return np.array([c.alpha for c in self.clocks])

    def betas(self) -> np.ndarray:
        return np.array([c.beta for c in self.clocks])

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        return self._record([{"sender": j, "receiver": i, **_arc_fields(a)}
                             for (j, i), a in zip(self.table.ends(), self.table.arc)])

    def _record(self, arcs: list[dict]) -> dict:
        """:meth:`to_dict` with the arc records ``arcs``."""
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
            "arcs": arcs,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Network":
        """The network a :meth:`to_dict` record describes, its arcs handed
        to the table as columns; the arcs of one value share one
        :class:`Arc`, so its checks run once per value."""
        if data.get("schema_version") != SCHEMA_VERSION:
            raise ValueError("unsupported network schema version")
        n = data["n"]
        nodes = sorted(data["nodes"], key=lambda d: d["id"])
        ids = [node["id"] for node in nodes]
        if ids != list(range(n)) or not all(type(i) is int for i in [n, *ids]):
            raise ValueError(f"node ids must be 0..{n - 1}, each exactly once")
        clocks = [ClockParams(*_numbers(node, "alpha", "beta", "xi_sigma"),
                              node.get("dist", "normal")) for node in nodes]
        rates = [_numbers(node, "rate")[0] for node in nodes]
        positions = [node.get("position") for node in nodes]
        for p in positions:
            if p is not None and not (isinstance(p, list) and len(p) == 2 and all(
                    type(x) in (int, float) and math.isfinite(x) for x in p)):
                raise ValueError(f"position must be null or two finite numbers, got {p!r}")
        sender, receiver, arcs, made = [], [], [], {}
        for rec in data["arcs"]:
            value = (*_ARC_NUMBERS(rec), rec.get("delay_dist", "normal"))
            # 2, 2.0 and true, and 0.0 and -0.0, are equal keys but are written apart
            key = value + tuple([type(v) if v else repr(v) for v in value])
            end = _ARC_ENDS(rec)
            try:
                hash((key, end))
            except TypeError:  # a list or an object
                name = next(k for k in ("sender", "receiver", *_ARC_NUMBER_KEYS, "delay_dist")
                            if isinstance(rec.get(k), (list, dict)))
                raise ValueError(f"arc field {name} must not be a list or an object, "
                                 f"got {rec[name]!r}") from None
            if key not in made:
                made[key] = Arc(*_numbers(rec, "gamma", "p_hear"), DelayModel(
                    *_numbers(rec, "delta_bar", "eta_sigma", "delta_min"), value[-1]))
            sender.append(end[0])
            receiver.append(end[1])
            arcs.append(made[key])
        return cls(n, (sender, receiver, arcs), rates, clocks, None if any(
            p is None for p in positions) else np.array(positions))

    def save(self, path) -> None:
        """Write :meth:`to_dict` as ``json.dump(..., indent=1,
        sort_keys=True)`` does, byte for byte.  ``indent`` selects the
        pure-Python encoder, so each distinct :class:`Arc`'s fields are
        encoded once, and each arc adds its two ends; ``"arcs"`` sorts
        first, so its list is spliced in after the opening brace."""
        text = json.dumps(self._record([]), indent=1, sort_keys=True)
        empty = '{\n "arcs": []'
        # keyed by id: equal arcs, such as gamma 2 and 2.0, are written apart
        head: dict[int, str] = {}
        for arc in self.table.arc:
            if id(arc) not in head:
                # "receiver" and "sender" sort after every field
                body = json.dumps(_arc_fields(arc), indent=1, sort_keys=True)[2:-2]
                head[id(arc)] = '  {\n  ' + body.replace("\n", "\n  ") + ',\n   "receiver": '
        records = [f'{head[id(a)]}{i},\n   "sender": {j}\n  }}'
                   for (j, i), a in zip(self.table.ends(), self.table.arc)]
        if records:
            text = '{\n "arcs": [\n' + ",\n".join(records) + "\n ]" + text[len(empty):]
        with open(path, "w") as fh:
            fh.write(text)

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


def _distances(positions: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each ``|positions[u[k]] - positions[v[k]]|``: the square root of the
    difference's dot product, as numpy's ``linalg.norm`` takes it, bit for bit."""
    diff = positions[u] - positions[v]
    return np.sqrt((diff[:, None] @ diff[:, :, None]).ravel())


#: the most candidate pairs :func:`_pairs_within` measures at once
_CANDIDATES = 1 << 18
#: a cell and its neighbours after it: each pair of neighbouring cells once
_FORWARD = np.array([(0, 0), (0, 1), (1, -1), (1, 0), (1, 1)])


def _pairs_within(positions: np.ndarray, nodes: np.ndarray,
                  radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(u, v, d)``: the pairs u < v of the sorted ``nodes`` whose distance
    d by :func:`_distances` is below ``radius``, in (u, v) order.

    The nodes fall into square cells whose side is at least the radius,
    no more cells than about one per node (Bentley, Stanat and Williams
    1977): a pair closer than the radius lies in one cell or in two
    neighbouring ones, so only those pairs are measured, about
    ``_CANDIDATES`` at a time.
    """
    p = positions[nodes]
    low = p.min(axis=0)
    extent = p.max(axis=0) - low
    # a hair over the radius, so that no rounding of a coordinate puts a
    # closer pair two cells apart
    side = max(radius * (1.0 + 2.0 ** -20), float(extent.max()) / math.isqrt(len(nodes)))
    shape = (extent / side).astype(np.intp) + 1
    xy = np.minimum(((p - low) / side).astype(np.intp), shape - 1)
    cell = xy[:, 0] * shape[1] + xy[:, 1]
    order = np.argsort(cell, kind="stable")
    start = np.searchsorted(cell[order], np.arange(shape[0] * shape[1] + 1))
    # entry e: node e // 5 against the nodes of its cell's neighbour e % 5
    x, y = xy[:, :1] + _FORWARD[:, 0], xy[:, 1:] + _FORWARD[:, 1]
    inside = (x < shape[0]) & (y >= 0) & (y < shape[1])
    nb = np.where(inside, x * shape[1] + y, 0).ravel()
    count = np.where(inside.ravel(), start[nb + 1] - start[nb], 0)
    end = np.cumsum(count)
    found = []
    e0 = 0
    while e0 < len(count):
        e1 = max(e0 + 1, int(np.searchsorted(end, end[e0] - count[e0] + _CANDIDATES, "right")))
        c = count[e0:e1]
        e = np.repeat(np.arange(e0, e1), c)
        i = e // len(_FORWARD)
        j = order[np.repeat(start[nb[e0:e1]] - (np.cumsum(c) - c), c) + np.arange(len(e))]
        # within one cell, each pair once
        keep = (e % len(_FORWARD) > 0) | (i < j)
        u, v = np.minimum(i[keep], j[keep]), np.maximum(i[keep], j[keep])
        d = _distances(p, u, v)
        close = d < radius
        found.append((u[close], v[close], d[close]))
        e0 = e1
    u, v, d = (np.concatenate(col) for col in zip(*found))
    order = np.argsort(u * len(nodes) + v)
    return nodes[u[order]], nodes[v[order]], d[order]


def _source_components(n: int, sender: np.ndarray, receiver: np.ndarray) -> list[list[int]]:
    """The sorted members of each source component of the condensation of
    the digraph on nodes ``0..n-1`` with arcs ``zip(sender, receiver)``, in
    order of their smallest member; :func:`repair_connectivity` breaks ties
    by it, so the arcs it adds, and a saved network's bytes, depend on it.

    The strong components come from Tarjan's (1972) depth-first pass, kept
    on an explicit stack so that no n meets the recursion limit; it costs
    O(n + m) for m arcs: a table's, sorted by sender, or in any order."""
    order = np.argsort(sender, kind="stable")
    succ = memoryview(receiver[order])  # iterates as Python ints, without a list of them
    start = np.searchsorted(sender[order], np.arange(n + 1)).tolist()
    index = [0] * n  # 1 + the order in which the pass reaches a node; 0: not yet
    low = [0] * n    # the least index reached from a node's subtree by one arc
    label = [-1] * n
    comps: list[list[int]] = []
    stack: list[int] = []  # reached nodes whose component is still open
    count = 0
    for root in range(n):
        if index[root]:
            continue
        count += 1
        index[root] = low[root] = count
        stack.append(root)
        path = [(root, iter(succ[start[root]:start[root + 1]]))]
        while path:
            v, arcs = path[-1]
            for w in arcs:
                if not index[w]:  # descend; v's arcs resume after w's subtree
                    count += 1
                    index[w] = low[w] = count
                    stack.append(w)
                    path.append((w, iter(succ[start[w]:start[w + 1]])))
                    break
                if label[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                path.pop()
                if low[v] == index[v]:  # v is its component's first node
                    comp, w = [], -1
                    while w != v:
                        w = stack.pop()
                        label[w] = len(comps)
                        comp.append(w)
                    comps.append(sorted(comp))
                elif low[v] < low[path[-1][0]]:
                    low[path[-1][0]] = low[v]
    label = np.array(label)
    entered = set(label[receiver[label[sender] != label[receiver]]].tolist())
    return sorted(comp for c, comp in enumerate(comps) if c not in entered)


def centers(net: Network) -> list[int]:
    """Nodes from which all other nodes are reachable (broadcast roots).

    The condensation of the arc digraph has a spanning tree iff it has a
    unique source component; its members are exactly the centers.
    """
    sources = _source_components(net.n, net.table.sender, net.table.receiver)
    return sources[0] if len(sources) == 1 else []


def repair_connectivity(net: Network, arc_template: Arc) -> Network:
    """Add the fewest arcs needed for a spanning tree to exist.

    Source components of the condensation are merged pairwise, each time
    joining the two closest nodes (by :func:`_distances`; without positions,
    the least index sum) of two different sources with an ``arc_template``
    (keeps the graph geometric).  Identity on already connected networks.
    :func:`_repair_arcs` finds the arcs.
    """
    t = net.table
    u, v = _repair_arcs(net.n, t.sender, t.receiver, net.positions)
    if not len(u):
        return net
    return Network(net.n, (np.concatenate((t.sender, u)), np.concatenate((t.receiver, v)),
                           t.arc + [arc_template] * len(u)),
                   net.rates, net.clocks, net.positions)


def _repair_arcs(n: int, sender: np.ndarray, receiver: np.ndarray,
                 positions: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The ends (u, v) of the arcs :func:`repair_connectivity` adds to the
    arcs ``zip(sender, receiver)`` on nodes ``0..n-1``.

    An arc u -> v from source a into source b closes no cycle, as nothing
    outside a reaches u: the components stay and only b stops being a
    source.  So the pairs (u, v), for a, for b other than a, for u in a,
    for v in b, are walked from the closest, ties in that order (which is
    the order of (a, b, u, v), as each source's members are sorted); each
    pair whose two sources both remain is joined and b dropped.

    The walk goes in distance shells and lists no pair it need not: the
    pairs closer than a bound R between two sources that both remain,
    found by :func:`_pairs_within`; then R doubles, until one source
    remains.  A pair closer than R whose two sources remain after the
    shell would have been joined in it, so no pair is walked twice.
    Without positions every pair is listed at once.
    """
    sources = _source_components(n, sender, receiver)
    members = np.concatenate(sources)
    label = np.full(n, -1)
    label[members] = np.repeat(np.arange(len(sources)), [len(c) for c in sources])
    left, added = [True] * len(sources), []
    if positions is not None:
        radius = float(np.ptp(positions[members], axis=0).max()) / math.sqrt(len(members)) or 1.0
    while len(added) < len(sources) - 1:
        nodes = np.sort(np.concatenate([c for c, keep in zip(sources, left) if keep]))
        if positions is None:
            u, v = (nodes[k] for k in np.triu_indices(len(nodes), 1))
            d = u + v
        else:
            u, v, d = _pairs_within(positions, nodes, radius)
            radius *= 2.0
        cross = label[u] != label[v]
        u, v = np.concatenate((u[cross], v[cross])), np.concatenate((v[cross], u[cross]))
        d = np.tile(d[cross], 2)
        a, b = label[u], label[v]
        walk = np.lexsort((v, u, b, a, d))
        for i, j, x, y in zip(*(w[walk].tolist() for w in (u, v, a, b))):
            if left[x] and left[y]:  # i -> j, from source x into y
                left[y] = False
                added.append((i, j))
    return tuple(np.array(added, dtype=np.intp).reshape(-1, 2).T)


@dataclass(frozen=True)
class GeometricSpec:
    """Parameters of :func:`generate_geometric`, checked on construction.

    Every arc gets ``arc()`` (its delay floor is at most ``delta_bar``),
    every node the rate ``mu`` and a ``clock`` whose drift and offset are
    uniform in ``alpha_range`` and ``beta_range``; ``noise_dist`` shapes
    both the reading noise and the delay jitter.
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
                           min(self.delta_min, self.delta_bar), self.noise_dist)
        return Arc(self.gamma, self.p_hear, delay)

    def clock(self, alpha: float, beta: float) -> ClockParams:
        """One node's clock with the given drift and offset."""
        return ClockParams(alpha, beta, self.xi_sigma, self.noise_dist)


def generate_geometric(spec: GeometricSpec, seed: int) -> Network:
    """Generate a directed geometric random network on the unit square.

    Nodes are placed uniformly; pairs closer than ``spec.radius`` by
    :func:`_distances`, the one distance rule, get two-way arcs; roughly
    ``spec.one_way_fraction`` of those pairs keep only one direction
    (:func:`_geometric_arcs`).  The result is repaired so a spanning tree
    exists (:func:`_repair_arcs` merges source components until one is
    left, so the repair always succeeds).  Every arc shares one
    :class:`Arc`, and the table gets its columns directly, so the work is
    linear in the nodes and the arcs.  ``seed`` lies in
    0..:data:`~clocksync.streams.MAX_SEED`.
    """
    if not (is_int(seed) and 0 <= seed <= MAX_SEED):
        raise ValueError(f"seed must be an integer in 0..{MAX_SEED}")
    n = spec.n
    rng = substream(seed, "netgen")
    pos = rng.uniform(0.0, 1.0, size=(n, 2))
    sender, receiver = _geometric_arcs(rng, pos, spec.radius, spec.one_way_fraction)
    alphas = rng.uniform(*spec.alpha_range, size=n)
    betas = rng.uniform(*spec.beta_range, size=n)
    clocks = [spec.clock(float(a), float(b)) for a, b in zip(alphas, betas)]
    add_u, add_v = _repair_arcs(n, sender, receiver, pos)
    sender, receiver = np.concatenate((sender, add_u)), np.concatenate((receiver, add_v))
    return Network(n, (sender, receiver, spec.arc()), np.full(n, spec.mu), clocks, pos)


def _geometric_arcs(rng: np.random.Generator, pos: np.ndarray, radius: float,
                    one_way_fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """The ends of the arcs between the nodes at ``pos`` closer than
    ``radius``, with their one-way draws from ``rng``.

    The close pairs come from cells (:func:`_pairs_within`), in (u, v)
    row order.  Each pair takes one uniform to decide whether it is
    one-way, and a one-way pair one more for its direction, so pair p's
    deciding draw is at s_p, with s_0 = 0 and s_{p+1} = s_p + 1 +
    [U[s_p] < f].  These draws are made as one array from a copy of the
    stream's state, and the stream then advances by the draws used
    (``PCG64.advance``; O'Neill 2014), as a draw at a time would leave it.
    """
    u, v, _ = _pairs_within(pos, np.arange(len(pos)), radius)
    bits = rng.bit_generator
    state = bits.state
    draws = rng.random(2 * len(u) + 1)  # s_P <= 2P
    bits.state = state
    one_way = draws < one_way_fraction
    # draw s starts a pair unless draw s - 1 started a one-way pair: the
    # starts alternate from each draw after one that is not below f
    s = np.arange(len(draws))
    restart = np.maximum.accumulate(np.where(np.append(True, ~one_way[:-1]), s, 0))
    start = np.flatnonzero((s - restart) % 2 == 0)
    at = start[:len(u)]
    bits.advance(int(start[len(u)]))
    forward = ~one_way[at] | (draws[at + 1] < 0.5)  # keeps u -> v
    backward = ~one_way[at] | (draws[at + 1] >= 0.5)  # keeps v -> u
    return np.concatenate((u[forward], v[backward])), np.concatenate((v[forward], u[backward]))


def probability_profile(net: Network) -> ProbabilityProfile:
    """Broadcast/update probabilities implied by the rates and loss model.

    ``p[i]`` is the probability that iteration k is an update at node i:
    the sum of pi_j * p_hear over in-arcs, normalized by the average
    number of updates per tick.
    """
    mu_c = float(net.rates.sum())
    pi = net.rates / mu_c
    pi_arc = np.zeros((net.n, net.n))
    t = net.table
    pi_arc[t.receiver, t.sender] = pi[t.sender] * t.p_hear
    n_bar = float(pi_arc.sum())
    if n_bar == 0.0:
        raise ValueError("network has no arcs")
    p = pi_arc.sum(axis=1) / n_bar
    return ProbabilityProfile(pi=pi, pi_arc=pi_arc, n_bar=n_bar, p=p)


def expected_laplacian(net: Network, profile: ProbabilityProfile) -> np.ndarray:
    """Expected update matrix: weighted Laplacian with zero row sums."""
    gam = np.zeros((net.n, net.n))
    t = net.table
    gam[t.receiver, t.sender] = t.gamma * profile.pi_arc[t.receiver, t.sender]
    gam[np.diag_indices(net.n)] = -gam.sum(axis=1)
    return gam


def mute_in_arcs(net: Network, node: int) -> Network:
    """Return a copy where all arcs into ``node`` have weight zero."""
    t = net.table
    arcs = list(t.arc)
    for r in np.flatnonzero(t.receiver == node).tolist():
        arcs[r] = replace(arcs[r], gamma=0.0)
    return Network(net.n, (t.sender, t.receiver, arcs), net.rates, net.clocks, net.positions)
