"""Deterministic discrete-event simulator.

Broadcast ticks form a merged Poisson process; each tick triggers one
clock reading, Bernoulli hearing draws on the out-arcs, and delayed
delivery events.  Deliveries are processed one at a time in
(time, insertion order), and every processed delivery advances the
global iteration counter by one.

None of this noise depends on the synchronization algorithm, so a run
takes two steps.  :func:`build_schedule` draws every event up to the
last delivery of the run's update budget and returns the deliveries, in
processing order, with their clock readings.
:class:`~clocksync.sync.SyncState` derives every input of every update
from them except the estimates, and :func:`replay` makes one
:meth:`~clocksync.sync.SyncState.process_message` call per delivery,
with the sender's (a, b, c) as they stood at its tick.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

import numpy as np

from clocksync.clock import CorrectionState, read_local_time, sample_delay
from clocksync.streams import (
    MAX_SEED,
    JitterStreams,
    UniformStreams,
    is_int,
    substream,
    substreams,
)
from clocksync.sync import SyncConfig, SyncState
from clocksync.topology import Network

#: printf format of every float written to a CSV: 17 significant digits
#: round-trip a float64 exactly
CSV_FLOAT_FORMAT = "%.17g"


#: elements per block: a pass over the (K, n) estimate views holds (rows, n)
#: blocks of ``max(1, _BLOCK_ELEMENTS // n)`` rows, and a CSV writer about
#: as many fields of text: :meth:`Trace.to_csv` writes after every
#: ``max(1, _BLOCK_ELEMENTS // (3n + 4))`` rows, and :func:`write_csv` a
#: block of (m,) columns as many elements at a time
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
    values after update k are forward-filled from event columns such as
    these: :meth:`blocks` yields them as dense (rows, n) row blocks, of
    every row or of a sorted selection of rows, carrying each node's last
    value from one block to the next; :meth:`row` is the single block of
    one row, and :meth:`stack` stacks the blocks of one column.  The full
    (K, n) matrices ``a_hat``, ``b_hat`` and ``c_hat`` are each stacked
    on first access, from their own column only, and cached; the
    analysis paths read only blocks and rows, and :meth:`to_csv` writes
    from the events.
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
        return self.stack(self.a_i, _INITIAL[0])

    @cached_property
    def b_hat(self) -> np.ndarray:
        return self.stack(self.b_i, _INITIAL[1])

    @cached_property
    def c_hat(self) -> np.ndarray:
        return self.stack(self.c_i, _INITIAL[2])

    def select(self, rows=None) -> np.ndarray:
        """``rows`` as a sorted index array into the trace's rows; every
        row when None.  Raises ``ValueError`` on rows out of order or out
        of range."""
        if rows is None:
            return np.arange(len(self))
        rows = np.asarray(rows, dtype=np.intp)
        if len(rows) and not (0 <= rows[0] and rows[-1] < len(self)
                              and np.all(rows[1:] >= rows[:-1])):
            raise ValueError(f"rows must be sorted and in 0..{len(self) - 1}")
        return rows

    def blocks(self, values=None, initial=None, rows=None) -> Iterator[tuple]:
        """Yield ``(lo, hi, *filled)``: for each (K,) event column of
        ``values``, every node's value after each row of ``rows[lo:hi]``,
        as a (hi - lo, n) array, from the (n,) values ``initial`` held
        before the first row.  ``rows`` is sorted, and may repeat a row
        (see :meth:`select`); by default it is every row.  By default the
        columns are the estimates, so each block is ``(lo, hi, a, b, c)``.

        A block fills only the events since the previous block's last
        row, each from the first of its rows at or after the event on."""
        if values is None:
            values = (self.a_i, self.b_i, self.c_i)
            initial = [np.full(self.n, v) for v in _INITIAL]
        rows = self.select(rows)
        step = max(1, _BLOCK_ELEMENTS // self.n)
        carry = list(initial)
        start = 0  # the first event not yet filled
        for lo in range(0, len(rows), step):
            hi = min(len(rows), lo + step)
            end = int(rows[hi - 1]) + 1
            # the events start..end-1 fall on the block's rows in runs:
            # rows[q] takes the events after rows[q - 1] up to rows[q]
            at = np.repeat(np.arange(hi - lo), np.diff(rows[lo:hi], prepend=start - 1))
            filled = self._fill(values, carry, np.arange(start, end), at, hi - lo)
            yield lo, hi, *filled
            carry = [v[-1] for v in filled]
            start = end

    def stack(self, values: np.ndarray, initial, rows=None) -> np.ndarray:
        """The blocks of the one (K,) event column ``values``, from the
        (n,) or scalar ``initial``, stacked into one (len(rows), n)
        array."""
        rows = self.select(rows)
        out = np.empty((len(rows), self.n))
        for lo, hi, filled in self.blocks((values,), (np.broadcast_to(initial, self.n),),
                                          rows):
            out[lo:hi] = filled
        return out

    def row(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every node's (a, b, c) after row ``k`` (negative counts from the
        end), in O(K) time and memory."""
        _, _, a, b, c = next(self.blocks(rows=[range(len(self))[k]]))
        return a[0], b[0], c[0]

    def _fill(self, values, carry: list[np.ndarray], events: np.ndarray,
              at: np.ndarray, m: int) -> list[np.ndarray]:
        """(m, n) arrays, one per event column of ``values``: the values
        ``carry`` that every node held before ``events``, updated by each
        event from row ``at`` of it on."""
        n = self.n
        # per row and node: index into carry (< n), or n + the latest event
        last = np.tile(np.arange(n), (m, 1))
        np.maximum.at(last, (at, self.receiver[events]), n + np.arange(len(events)))
        np.maximum.accumulate(last, axis=0, out=last)
        return [np.concatenate((c0, v[events]))[last] for c0, v in zip(carry, values)]

    def __len__(self) -> int:
        return len(self.t)

    def to_csv(self, path, stride: int = 1) -> None:
        """Write every ``stride``-th row as CSV: k, t_abs, receiver,
        sender, then every node's a, b and c after the row.

        Two written rows differ only in the nodes updated between them, so
        the writer keeps the current row's 3n field strings, formats the
        three values of each event that reaches a written row once, and
        joins each written row.  An event reaches one when it is its
        node's last before that row (row r itself is always one); the
        others are never formatted.  It formats the events in chunks of
        ``_BLOCK_ELEMENTS // 16`` and writes after every
        ``_BLOCK_ELEMENTS // (3n + 4)`` rows, so it holds about one block
        of text.
        """
        n = self.n
        header = ["k", "t_abs", "receiver", "sender"]
        header += [f"{v}_hat_{m}" for v in "abc" for m in range(n)]
        fields = [CSV_FLOAT_FORMAT % v for v in _INITIAL for _ in range(n)]
        rows = max(1, _BLOCK_ELEMENTS // (3 * n + 4))
        span = max(1, _BLOCK_ELEMENTS // 16)
        head_format = f"%d,{CSV_FLOAT_FORMAT},%d,%d,"
        # one past the last written row: no later event reaches a row
        end = (len(self) - 1) // stride * stride + 1 if len(self) else 0
        with open(path, "w", newline="") as fh:
            lines = [",".join(header)]
            for lo in range(0, end, span):
                hi = min(end, lo + span)
                first = -(-lo // stride) * stride  # the chunk's first written row
                # integers up to 2**53 pass through float64 exactly
                cols = np.column_stack([col[first:hi:stride] for col in
                                        (self.k, self.t, self.receiver, self.sender)])
                heads = iter(("\n".join([head_format] * len(cols))
                              % tuple(cols.ravel().tolist())).split("\n"))
                # each node's last event before each written row: the last
                # of each run of (row, node) codes in a stable sort
                code = (np.arange(lo, hi) + stride - 1) // stride * n + self.receiver[lo:hi]
                order = np.argsort(code, kind="stable")
                code = code[order]
                events = lo + np.sort(order[np.append(code[1:] != code[:-1], True)])
                a, b, c = (_format_floats(v[events]) for v in (self.a_i, self.b_i, self.c_i))
                for e, i, x, y, z in zip(events.tolist(), self.receiver[events].tolist(),
                                         a, b, c):
                    fields[i], fields[n + i], fields[2 * n + i] = x, y, z
                    if e % stride == 0:
                        lines.append(next(heads) + ",".join(fields))
                        if len(lines) >= rows:
                            fh.write("\r\n".join(lines) + "\r\n")
                            lines = []
            if lines:
                fh.write("\r\n".join(lines) + "\r\n")


def _format_floats(values: np.ndarray) -> list[str]:
    """Each of ``values`` in :data:`CSV_FLOAT_FORMAT`, by one ``%`` format."""
    return (",".join([CSV_FLOAT_FORMAT] * len(values)) % tuple(values.tolist())).split(",")


def write_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write ``header`` and the rows of the (m,) ``columns`` as CSV, with
    the ``\r\n`` line ends of ``csv.writer``: integer columns with
    ``%d``, float columns with :data:`CSV_FLOAT_FORMAT`.  Every row goes
    through one ``%`` format, in row blocks of at most
    ``_BLOCK_ELEMENTS`` fields.
    """
    row_format = ",".join([
        "%d" if np.issubdtype(col.dtype, np.integer) else CSV_FLOAT_FORMAT
        for col in columns]) + "\r\n"
    span = max(1, _BLOCK_ELEMENTS // len(columns))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(columns[0]), span):
            # integers up to 2**53 pass through float64 exactly
            rows = np.column_stack([col[lo:lo + span] for col in columns]).tolist()
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
        has_in_arcs = np.bincount(self.net.table.receiver, minlength=self.net.n) > 0
        return np.flatnonzero(has_in_arcs & (self.nu == 0)).tolist()


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
    arc: np.ndarray       # (m,) the out-arc's row in the network's arc table

    def __len__(self) -> int:
        return len(self.t)


def broadcast(
    net: Network,
    j: int,
    times: np.ndarray,
    heard: np.ndarray,
    delays: np.ndarray,
) -> Deliveries:
    """The deliveries of node j's ticks at ``times``.

    ``heard`` is the (out-degree, ticks) matrix of which out-arc, in
    out-neighbour order, heard which tick, and ``delays`` holds one
    delay per heard tick, out-arc after out-arc and tick after tick
    within one.  Messages are grouped by out-arc.
    """
    out = net.out_neighbors(j)
    row, tick = np.nonzero(heard)
    return Deliveries(tick, np.array(out, dtype=np.intp)[row], times[tick] + delays,
                      net.table.start[j] + row)


class _Delays:
    """The delay model of each arc table row, read only when asked for:
    a schedule draws the jitter of few rows of a large network."""

    def __init__(self, arcs: list) -> None:
        self._arcs = arcs

    def __getitem__(self, r: int):
        return self._arcs[r].delay


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
    arc: np.ndarray       # (K,) the link's row in the network's arc table
    src: np.ndarray       # (K,) last delivery to the sender before its tick, or -1


def build_schedule(net: Network, seed: int, max_updates: int) -> Schedule:
    """Draw every event of a run up to its ``max_updates``-th delivery.

    Events are pushed in the sequence tick 0, the deliveries of tick 0
    in out-neighbour order, tick 1, ...  Each is pushed while an event
    with no later time is processed, so the processing order is the
    stable sort of that sequence on time: the pop order of a heap keyed
    by (time, insertion).  No tick not yet drawn, nor any of its
    deliveries, can come before the last tick drawn, so ticks are drawn
    in chunks, sized from the expected deliveries per tick, until the
    ``max_updates``-th delivery falls before it; what was drawn for later
    ticks is never read.  A chunk's hearing draws, one per tick of an
    arc's sender, come from one :class:`~clocksync.streams.UniformStreams`
    call over the rows of the network's arc table, and the delays of its
    heard messages, one per message in arc order, from one
    :class:`~clocksync.streams.JitterStreams` call; each sender's
    messages take a contiguous slice of them.  Both seed a row's stream
    when it is first drawn from, so a chunk costs O(out-arcs of the
    senders that ticked in it).  :func:`broadcast` gives each message's
    arc table row, which the sort carries along.  The readings are drawn
    per node in processing order, as one block.  A delivery's ``src`` is
    the last delivery to its sender processed before its tick.
    """
    n, table = net.n, net.table
    ends = np.column_stack((table.sender, table.receiver))
    hear = UniformStreams(seed, "hear", ends)
    jitter = JitterStreams(seed, ends, _Delays(table.arc), sample_delay)
    per_tick = float(net.rates[table.sender] @ table.p_hear) / float(net.rates.sum())
    if per_tick == 0.0 and max_updates > 0:
        raise ValueError("a network without arcs never reaches max_updates")
    # an event's insertion key: tick g is g * slots, its delivery to
    # node i is g * slots + i + 1, so out-neighbours keep their order
    slots = n + 1

    ticks = schedule_ticks(net, seed)
    tick_t: list[float] = []
    tick_j: list[int] = []
    t = np.empty(0)
    key = np.empty(0, dtype=np.int64)
    arc = np.empty(0, dtype=np.intp)  # a delivery's row in the arc table; -1 for a tick
    todo = max_updates / per_tick if max_updates else 0.0
    while True:
        chunk = list(itertools.islice(ticks, int(1.05 * todo) + 16))
        g0 = len(tick_t)
        ct, cj = zip(*chunk)
        tick_t += ct
        tick_j += cj
        ct, cj = np.array(ct), np.array(cj)
        parts_t = [t, ct]
        parts_key = [key, np.arange(g0, len(tick_t), dtype=np.int64) * slots]
        parts_arc = [arc, np.full(len(ct), -1, dtype=np.intp)]
        by_sender = np.argsort(cj, kind="stable")
        n_ticks = np.bincount(cj, minlength=n)
        # the rows of the senders that ticked, each with one hearing draw
        # per tick of its sender: sender j's out-arcs hold a contiguous
        # (out-degree, ticks) block
        ticked = np.flatnonzero(n_ticks)
        degree = np.diff(table.start)[ticked]
        row_end = np.cumsum(degree)
        rows = np.repeat(table.start[ticked] - row_end + degree, degree) + np.arange(
            row_end[-1])
        per_row = np.repeat(n_ticks[ticked], degree)
        counts = np.zeros(len(table.sender), dtype=np.intp)
        counts[rows] = per_row
        heard = hear.random(counts) < np.repeat(table.p_hear[rows], per_row)
        # one delay per heard message, arc after arc: sender j's take the
        # slice from its first out-arc's to its last's
        passed = np.concatenate(([0], np.cumsum(heard)))
        cut = np.concatenate(([0], np.cumsum(per_row)))
        counts[rows] = np.diff(passed[cut])  # now each row's heard messages
        delays = jitter.delays(counts)
        bounds = np.cumsum(n_ticks[ticked]).tolist()
        draws = cut[row_end].tolist()
        sent = passed[draws].tolist()
        for j, lo, hi, d_lo, d_hi, s_lo, s_hi in zip(
                ticked.tolist(), [0] + bounds, bounds, [0] + draws, draws, [0] + sent, sent):
            pos = by_sender[lo:hi]
            d = broadcast(net, j, ct[pos], heard[d_lo:d_hi].reshape(-1, hi - lo),
                          delays[s_lo:s_hi])
            parts_t.append(d.t)
            parts_key.append((g0 + pos[d.tick]) * slots + d.receiver + 1)
            parts_arc.append(d.arc)
        t, key, arc = (np.concatenate(parts) for parts in (parts_t, parts_key, parts_arc))
        order = np.lexsort((key, t))
        t, key, arc = t[order], key[order], arc[order]

        last = int(np.flatnonzero(key == (len(tick_t) - 1) * slots)[0])
        delivered = np.cumsum(key % slots != 0)
        # one past the max_updates-th delivery; past the end while it is
        # not drawn yet
        stop = int(np.searchsorted(delivered, max_updates)) + 1 if max_updates else 0
        if stop <= last:
            break
        todo = (max_updates - delivered[last]) / per_tick

    t, key, arc = t[:stop], key[:stop], arc[:stop]
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
                    tau_recv=tau[dlv], arc=arc[dlv],
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


def run(net: Network, cfg: SyncConfig, *, max_updates: int, seed: int = 0) -> SimResult:
    """Run one simulation of ``max_updates`` processed deliveries (the
    global iteration count k, the run's only stopping rule);
    bit-identical output for identical inputs.

    ``seed`` lies in 0..:data:`~clocksync.streams.MAX_SEED`.  A network
    without arcs reaches only ``max_updates=0``.  Raises
    ``FloatingPointError`` if the run diverges, i.e. some update leaves a
    non-finite estimate.
    """
    if not (is_int(max_updates) and max_updates >= 0):
        raise ValueError("max_updates must be a nonnegative integer")
    if not (is_int(seed) and 0 <= seed <= MAX_SEED):
        raise ValueError(f"seed must be an integer in 0..{MAX_SEED}")

    sched = build_schedule(net, seed, max_updates)
    state = SyncState(cfg, net.n, sched.receiver, sched.arc, net.table.gamma,
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
