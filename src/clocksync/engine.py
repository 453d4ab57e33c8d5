"""Deterministic discrete-event simulator.

Broadcast ticks form a merged Poisson process; each tick triggers one
clock reading, Bernoulli hearing draws on the out-arcs, and delayed
delivery events.  Deliveries are processed one at a time in
(time, insertion order), and every processed delivery advances the
global iteration counter by one.

None of this noise depends on the synchronization algorithm, so a run
takes two steps.  :func:`build_schedule` draws every event up to the
stopping rule and returns the deliveries, in processing order, with
their clock readings.  :class:`~clocksync.sync.SyncState` derives every
input of every update from them except the estimates, and :func:`replay`
makes one :meth:`~clocksync.sync.SyncState.process_message` call per
delivery, with the sender's (a, b, c) as they stood at its tick.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from clocksync.clock import CorrectionState, read_local_time, sample_delay
from clocksync.streams import MAX_SEED, UniformStreams, substream, substreams
from clocksync.sync import SyncConfig, SyncState, is_int
from clocksync.topology import Network

#: printf format of every float written to a CSV: 17 significant digits
#: round-trip a float64 exactly
CSV_FLOAT_FORMAT = "%.17g"


#: elements per dense block: a pass over the (K, n) estimate views holds
#: (rows, n) blocks of ``max(1, _BLOCK_ELEMENTS // n)`` rows, and a CSV
#: block of (K,) columns as many elements
_BLOCK_ELEMENTS = 1 << 16

_INITIAL = (CorrectionState.a_hat, CorrectionState.b_hat, CorrectionState.c_hat)


@dataclass
class Trace:
    """One row per processed delivery: iteration, time, participants, the
    send time and both raw clock readings, and the receiver's post-update
    estimates.  Link (j, i) is the rows with ``sender == j`` and
    ``receiver == i``; its first row is its initial exchange.

    A delivery changes only the receiver's (a, b, c), so each update is
    stored as one event and the trace takes O(K) memory.  Every node's
    estimates after update k are forward-filled from the events:
    :meth:`blocks` yields them as dense (rows, n) row blocks, carrying
    each node's last value from one block to the next, and :meth:`row`
    gives one row.  The full (K, n) matrices ``a_hat``, ``b_hat`` and
    ``c_hat`` are stacked from the blocks on first access and cached;
    the analysis and CSV paths read only blocks and rows.
    """

    n: int                 # number of nodes
    t: np.ndarray          # (K,) absolute time of each update
    receiver: np.ndarray   # (K,) updating node
    sender: np.ndarray     # (K,) broadcaster
    t_send: np.ndarray     # (K,) absolute time of the broadcaster's tick
    tau_sent: np.ndarray   # (K,) broadcaster's raw reading at its tick
    tau_recv: np.ndarray   # (K,) receiver's raw reading at the delivery
    a_i: np.ndarray        # (K,) receiver's a_hat after the update
    b_i: np.ndarray        # (K,) receiver's b_hat after the update
    c_i: np.ndarray        # (K,) receiver's c_hat after the update
    k: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.k = np.arange(1, len(self.t) + 1)

    @cached_property
    def a_hat(self) -> np.ndarray:
        return self._stack(0)

    @cached_property
    def b_hat(self) -> np.ndarray:
        return self._stack(1)

    @cached_property
    def c_hat(self) -> np.ndarray:
        return self._stack(2)

    def _stack(self, which: int) -> np.ndarray:
        out = np.empty((len(self), self.n))
        for lo, hi, *abc in self.blocks():
            out[lo:hi] = abc[which]
        return out

    def blocks(self, stride: int = 1) -> Iterator[tuple[int, int, np.ndarray,
                                                        np.ndarray, np.ndarray]]:
        """Yield ``(lo, hi, a, b, c)``: every node's estimates after each
        row in ``range(lo, hi, stride)``, as (rows, n) arrays.  The blocks
        cover every ``stride``-th row of the trace in order; no other row
        is made dense."""
        rows = max(1, _BLOCK_ELEMENTS // self.n)
        carry = [np.full(self.n, v) for v in _INITIAL]
        for lo in range(0, len(self), rows * stride):
            hi = min(len(self), lo + rows * stride)
            m = len(range(lo, hi, stride))
            # the events since the previous block's last row, each placed
            # at the first row of this block at or after it
            events = np.arange(max(0, lo - stride + 1), lo + (m - 1) * stride + 1)
            a, b, c = self._fill(carry, events, (events - lo + stride - 1) // stride, m)
            yield lo, hi, a, b, c
            carry = [a[-1], b[-1], c[-1]]

    def row(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every node's (a, b, c) after row ``k`` (negative counts from the
        end), in O(K) time and memory."""
        k = range(len(self))[k]
        events = np.arange(k + 1)
        a, b, c = self._fill([np.full(self.n, v) for v in _INITIAL], events,
                             np.zeros(k + 1, dtype=np.intp), 1)
        return a[0], b[0], c[0]

    def _fill(self, carry: list[np.ndarray], events: np.ndarray, at: np.ndarray,
              m: int) -> list[np.ndarray]:
        """(m, n) arrays of a, b and c: the values ``carry`` that every node
        held before ``events``, updated by each event from row ``at`` of
        it on."""
        n = self.n
        # per row and node: index into carry (< n), or n + the latest event
        last = np.tile(np.arange(n), (m, 1))
        np.maximum.at(last, (at, self.receiver[events]), n + np.arange(len(events)))
        np.maximum.accumulate(last, axis=0, out=last)
        return [np.concatenate((c0, v[events]))[last]
                for c0, v in zip(carry, (self.a_i, self.b_i, self.c_i))]

    def __len__(self) -> int:
        return len(self.t)

    def to_csv(self, path, stride: int = 1) -> None:
        """Write the trace as CSV; optional down-sampling stride."""
        n = self.n
        header = ["k", "t_abs", "receiver", "sender"]
        header += [f"a_hat_{m}" for m in range(n)]
        header += [f"b_hat_{m}" for m in range(n)]
        header += [f"c_hat_{m}" for m in range(n)]
        cols = (self.k, self.t, self.receiver, self.sender)
        write_csv(path, header, ([col[lo:hi:stride] for col in cols] + [a, b, c]
                                 for lo, hi, a, b, c in self.blocks(stride)))


def column_blocks(columns: list[np.ndarray],
                  stride: int = 1) -> Iterator[list[np.ndarray]]:
    """Every ``stride``-th row of the (K,) ``columns``, in row blocks of
    at most ``_BLOCK_ELEMENTS`` fields."""
    span = stride * max(1, _BLOCK_ELEMENTS // len(columns))
    for lo in range(0, len(columns[0]), span):
        yield [col[lo:lo + span:stride] for col in columns]


def write_csv(path, header: list[str], blocks: Iterable[list[np.ndarray]]) -> None:
    """Write ``header`` and the rows of each block of columns as CSV, with
    the ``\r\n`` line ends of ``csv.writer``.

    In a block, an (m,) column is one field of m rows and an (m, w)
    column w fields; integer columns are written with ``%d``, float
    columns with :data:`CSV_FLOAT_FORMAT`.  Every row goes through one
    ``%`` format.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for block in blocks:
            fields: list[str] = []
            for col in block:
                fmt = "%d" if np.issubdtype(col.dtype, np.integer) else CSV_FLOAT_FORMAT
                fields += [fmt] * (col.shape[1] if col.ndim == 2 else 1)
            row_format = ",".join(fields) + "\r\n"
            # integers up to 2**53 pass through float64 exactly
            rows = np.column_stack(block).tolist()
            fh.write("".join([row_format % tuple(row) for row in rows]))


@dataclass
class SimResult:
    """Everything a run produces: the network, the config, the seed and
    the trace; the per-node counts are derived from the trace."""

    net: Network
    cfg: SyncConfig
    seed: int
    trace: Trace

    @property
    def updates(self) -> int:
        """Processed deliveries."""
        return len(self.trace)

    @property
    def nu(self) -> np.ndarray:
        """(n,) updates per node."""
        return np.bincount(self.trace.receiver, minlength=self.net.n)

    @property
    def silent_nodes(self) -> list[int]:
        """Nodes with in-arcs that never received a message."""
        nu = self.nu
        return [i for i in range(self.net.n) if not nu[i] and self.net.in_neighbors(i)]


def schedule_ticks(net: Network, seed: int) -> Iterator[tuple[float, int]]:
    """Yield (absolute time, broadcaster) for the merged tick process.

    Exponential inter-tick times at the total rate; the broadcaster is
    chosen proportionally to its own rate, which is equivalent to
    independent per-node Poisson processes.
    """
    rng = substream(seed, "ticks")
    mu_c = float(net.rates.sum())
    cum = np.cumsum(net.rates / mu_c)
    cum[-1] = 1.0
    # bisect on a list gives np.searchsorted(side="right")'s index
    cum = cum.tolist()
    scale = 1.0 / mu_c
    t = 0.0
    while True:
        t += rng.exponential(scale)
        yield t, bisect.bisect_right(cum, rng.random())


@dataclass(frozen=True)
class Deliveries:
    """The heard messages of a block of one sender's ticks."""

    tick: np.ndarray      # (m,) position of the message's tick in the block
    receiver: np.ndarray  # (m,)
    t: np.ndarray         # (m,) delivery time

    def __len__(self) -> int:
        return len(self.t)


def broadcast(
    net: Network,
    j: int,
    times: np.ndarray,
    heard: np.ndarray,
    delay_rngs: dict,
) -> Deliveries:
    """Delay draws for node j's ticks at ``times``.

    ``heard`` is the (out-degree, ticks) matrix of which out-arc, in
    out-neighbour order, heard which tick.  Each out-arc draws one delay
    per heard tick from its own stream, as one block, which equals the
    scalar draws tick by tick.  Messages are grouped by out-arc.
    """
    out = net.out_neighbors(j)
    row, tick = np.nonzero(heard)
    delays = [sample_delay(net.arcs[(j, i)].delay, delay_rngs[(j, i)], m)
              for i, m in zip(out, np.count_nonzero(heard, axis=1).tolist()) if m]
    return Deliveries(tick, np.array(out, dtype=np.intp)[row],
                      times[tick] + (np.concatenate(delays) if delays else 0.0))


@dataclass
class Schedule:
    """The K deliveries of one run, in processing order.  Delivery k
    carries what ``sender[k]`` broadcast at its tick: its raw reading
    ``tau_sent[k]``, and its estimates as they stood after delivery
    ``src[k]``, the last one it received before the tick (-1 when there
    is none: the initial estimates)."""

    t: np.ndarray         # (K,) absolute time of the delivery
    receiver: np.ndarray  # (K,) updating node
    sender: np.ndarray    # (K,) broadcaster
    t_send: np.ndarray    # (K,) absolute time of the broadcaster's tick
    tau_sent: np.ndarray  # (K,) broadcaster's raw reading at its tick
    tau_recv: np.ndarray  # (K,) receiver's raw reading at the delivery
    arc: np.ndarray       # (K,) index of (sender, receiver) in sorted(net.arcs)
    src: np.ndarray       # (K,) last delivery to the sender before its tick, or -1


def build_schedule(
    net: Network,
    seed: int,
    max_updates: int | None,
    horizon: float | None,
) -> Schedule:
    """Draw every event of a run up to its stopping rule.

    Events are pushed in the sequence tick 0, the deliveries of tick 0
    in out-neighbour order, tick 1, ...  Each is pushed while an event
    with no later time is processed, so the processing order is the
    stable sort of that sequence on time: the pop order of a heap keyed
    by (time, insertion).  No tick not yet drawn, nor any of its
    deliveries, can come before the last tick drawn, so ticks are drawn
    in chunks, sized from the expected deliveries per tick, until the
    stopping rule (the ``max_updates``-th delivery, or the last event at
    or before ``horizon``) falls before it; what was drawn for later
    ticks is never read.  A chunk's hearing draws, one per tick of an
    arc's sender, come from one :class:`~clocksync.streams.UniformStreams`
    call over every arc in (sender, receiver) order.  An arc's jitter
    stream is made in the chunk of its first heard message and kept for
    the later chunks; its delays are drawn per chunk, and the readings
    per node in processing order, each as one block.  A delivery's
    ``src`` is the last delivery to its sender processed before its tick.
    """
    n = net.n
    arcs = sorted(net.arcs)
    arc_key = np.array([j * n + i for j, i in arcs], dtype=np.intp)
    arc_sender = arc_key // n
    out_degree = np.bincount(arc_sender, minlength=n)
    p_hear = np.array([net.arcs[arc].p_hear for arc in arcs])
    hear = UniformStreams(seed, "hear", arcs)
    delay_rngs: dict = {}
    jittered = np.zeros(len(arcs), dtype=bool)
    mu_c = float(net.rates.sum())
    per_tick = sum(float(net.rates[j]) * arc.p_hear
                   for (j, _), arc in net.arcs.items()) / mu_c
    if per_tick == 0.0 and horizon is None:
        raise ValueError("a network without arcs never reaches max_updates")
    cap = math.inf if max_updates is None else max_updates
    end = math.inf if horizon is None else horizon
    # an event's insertion key: tick g is g * slots, its delivery to
    # node i is g * slots + i + 1, so out-neighbours keep their order
    slots = n + 1

    ticks = schedule_ticks(net, seed)
    tick_t: list[float] = []
    tick_j: list[int] = []
    t = np.empty(0)
    key = np.empty(0, dtype=np.int64)
    todo = min(cap / per_tick if per_tick else math.inf, end * mu_c)
    while True:
        chunk = list(itertools.islice(ticks, int(1.05 * todo) + 16))
        g0 = len(tick_t)
        ct, cj = zip(*chunk)
        tick_t += ct
        tick_j += cj
        ct, cj = np.array(ct), np.array(cj)
        parts_t = [t, ct]
        parts_key = [key, np.arange(g0, len(tick_t), dtype=np.int64) * slots]
        by_sender = np.argsort(cj, kind="stable")
        n_ticks = np.bincount(cj, minlength=n)
        # every arc's hearing draws, one per tick of its sender: sender
        # j's out-arcs hold a contiguous (out-degree, ticks) block
        counts = n_ticks[arc_sender]
        heard = hear.random(counts) < np.repeat(p_hear, counts)
        # an arc draws delays once it hears: its jitter stream is made in
        # the chunk of its first heard message
        hearing = np.zeros(len(arcs), dtype=bool)
        hearing[np.repeat(np.arange(len(arcs)), counts)[heard]] = True
        new = [arcs[a] for a in np.flatnonzero(hearing & ~jittered).tolist()]
        delay_rngs.update(zip(new, substreams(seed, "jitter", new)))
        jittered |= hearing
        bounds = np.cumsum(n_ticks).tolist()
        draws = np.cumsum(out_degree * n_ticks).tolist()
        for j, lo, hi, d_lo, d_hi in zip(range(n), [0] + bounds, bounds,
                                         [0] + draws, draws):
            if hi > lo:
                pos = by_sender[lo:hi]
                d = broadcast(net, j, ct[pos],
                              heard[d_lo:d_hi].reshape(-1, hi - lo), delay_rngs)
                parts_t.append(d.t)
                parts_key.append((g0 + pos[d.tick]) * slots + d.receiver + 1)
        t, key = np.concatenate(parts_t), np.concatenate(parts_key)
        order = np.lexsort((key, t))
        t, key = t[order], key[order]

        last = int(np.flatnonzero(key == (len(tick_t) - 1) * slots)[0])
        delivered = np.cumsum(key % slots != 0)
        stop = int(np.searchsorted(t, end, side="right"))
        if cap == 0:
            stop = 0
        elif cap <= delivered[-1]:
            stop = min(stop, int(np.searchsorted(delivered, cap)) + 1)
        if stop <= last:
            break
        todo = min((cap - delivered[last]) / per_tick if per_tick else math.inf,
                   (end - tick_t[-1]) * mu_c)

    t, key = t[:stop], key[:stop]
    tick, receiver = np.divmod(key, slots)
    receiver -= 1
    dlv = receiver >= 0
    tick_sender = np.array(tick_j, dtype=np.intp)
    node = np.where(dlv, receiver, tick_sender[tick])
    tau = np.empty(stop)
    read_rngs = substreams(seed, "read", range(n))
    by_node = np.argsort(node, kind="stable")
    bounds = np.cumsum(np.bincount(node, minlength=n)).tolist()
    for m, lo, hi in zip(range(n), [0] + bounds, bounds):
        if hi > lo:
            idx = by_node[lo:hi]
            tau[idx] = read_local_time(net.clocks[m], t[idx], read_rngs[m])
    tick, receiver = tick[dlv], receiver[dlv]
    sender = tick_sender[tick]
    # src is the sender's last delivery with an index below the number of
    # deliveries processed before the tick
    before = np.cumsum(dlv)[~dlv][tick]
    by_receiver = np.argsort(receiver, kind="stable")
    q = np.searchsorted(receiver[by_receiver] * stop + by_receiver,
                        sender * stop + before) - 1
    prev = by_receiver[q]
    return Schedule(t=t[dlv], receiver=receiver, sender=sender,
                    t_send=np.array(tick_t)[tick], tau_sent=tau[~dlv][tick],
                    tau_recv=tau[dlv],
                    arc=np.searchsorted(arc_key, sender * n + receiver),
                    src=np.where((q >= 0) & (receiver[prev] == sender), prev, -1))


#: deliveries replayed per chunk: bounds the Python lists of update inputs
_REPLAY_CHUNK = 1 << 12


def replay(state: SyncState, src: np.ndarray) -> np.ndarray:
    """Apply each delivery to ``state`` in order, with its sender's
    estimates as they stood after delivery ``src[k]`` (-1: the initial
    ones).  Returns the (3, K) receiver estimates a, b, c after each of
    the K deliveries."""
    a, b, c = state.a, state.b, state.c
    process = state.process_message
    # the receiver's estimates after delivery k at index k + 1
    ao, bo, co = ([v] for v in _INITIAL)
    for lo in range(0, len(src), _REPLAY_CHUNK):
        rows = slice(lo, lo + _REPLAY_CHUNK)
        for s, i, code, eg_a, d_j, d_i, eg_b, tau_j, t_j, tau_i, t_i in zip(
                (src[rows] + 1).tolist(), *state.inputs(rows)):
            process(i, ao[s], bo[s], co[s], code, eg_a, d_j, d_i, eg_b,
                    tau_j, t_j, tau_i, t_i)
            ao.append(a[i])
            bo.append(b[i])
            co.append(c[i])
    return np.array((ao, bo, co))[:, 1:]


def run(
    net: Network,
    cfg: SyncConfig,
    *,
    max_updates: int | None = None,
    horizon: float | None = None,
    seed: int = 0,
) -> SimResult:
    """Run one simulation; bit-identical output for identical inputs.

    ``max_updates`` counts processed deliveries (the global iteration
    number); ``horizon`` is an absolute-time cutoff.  At least one of the
    two must be given.  ``seed`` lies in 0..:data:`~clocksync.streams.MAX_SEED`.
    Raises ``FloatingPointError`` if the run diverges, i.e. some update
    leaves a non-finite estimate.
    """
    if max_updates is None and horizon is None:
        raise ValueError("need max_updates or horizon")
    if max_updates is not None and not (is_int(max_updates) and max_updates >= 0):
        raise ValueError("max_updates must be a nonnegative integer")
    if horizon is not None and not 0.0 < horizon < math.inf:
        raise ValueError("horizon must be positive and finite")
    if not (is_int(seed) and 0 <= seed <= MAX_SEED):
        raise ValueError(f"seed must be an integer in 0..{MAX_SEED}")

    sched = build_schedule(net, seed, max_updates, horizon)
    state = SyncState(cfg, net.n, sched.receiver, sched.arc,
                      np.array([net.arcs[arc].gamma for arc in sorted(net.arcs)]),
                      sched.tau_sent, sched.tau_recv)
    a_i, b_i, c_i = replay(state, sched.src)
    trace = Trace(n=net.n, t=sched.t, receiver=sched.receiver, sender=sched.sender,
                  t_send=sched.t_send, tau_sent=sched.tau_sent,
                  tau_recv=sched.tau_recv, a_i=a_i, b_i=b_i, c_i=c_i)
    _check_finite(trace)
    return SimResult(net=net, cfg=cfg, seed=seed, trace=trace)


def _check_finite(trace: Trace) -> None:
    """Raise on the first update that left its receiver with a non-finite
    estimate (a diverging run), naming the iteration and the node."""
    finite = np.isfinite(trace.a_i) & np.isfinite(trace.b_i) & np.isfinite(trace.c_i)
    if finite.all():
        return
    r = int(np.argmin(finite))
    a, b, c = (float(v[r]) for v in (trace.a_i, trace.b_i, trace.c_i))
    raise FloatingPointError(
        f"run diverged: node {trace.receiver[r]} has a non-finite estimate "
        f"after iteration k={trace.k[r]} (a_hat={a}, b_hat={b}, c_hat={c})")
