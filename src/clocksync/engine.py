"""Deterministic discrete-event simulator.

Broadcast ticks form a merged Poisson process; each tick triggers one
clock reading, Bernoulli hearing draws on the out-arcs, and delayed
delivery events.  Deliveries are processed one at a time in
(time, insertion order), and every processed delivery advances the
global iteration counter by one.
"""

from __future__ import annotations

import csv
import heapq
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

import numpy as np

from clocksync.clock import CorrectionState, read_local_time, sample_delay
from clocksync.streams import substream, substreams
from clocksync.sync import MessagePayload, SyncConfig, SyncState
from clocksync.topology import Network

#: printf format of every float written to a CSV: 17 significant digits
#: round-trip a float64 exactly
CSV_FLOAT_FORMAT = "%.17g"


@dataclass(frozen=True)
class InitialSample:
    """Ground-truth record of the first heard message on one link.

    Kept for the analysis layer only (fixed-point residuals need the
    realized initial noise); nodes never see these values.
    """

    t_send: float
    t_recv: float
    tau_sender: float
    tau_receiver: float
    xi_sender: float
    xi_receiver: float
    eta: float
    delta_bar: float


@dataclass
class Trace:
    """One row per processed delivery: iteration, time, participants and
    the receiver's post-update estimates.

    A delivery changes only the receiver's (a, b, c), so each update is
    stored as one event and the trace takes O(K) memory.  The dense
    (K, n) estimate matrices ``a_hat``, ``b_hat`` and ``c_hat`` (one row
    per update, holding every node's estimate after it) are derived from
    the events on first access and cached.
    """

    n: int                 # number of nodes
    t: np.ndarray          # (K,) absolute time of each update
    receiver: np.ndarray   # (K,) updating node
    sender: np.ndarray     # (K,) broadcaster
    a_i: np.ndarray        # (K,) receiver's a_hat after the update
    b_i: np.ndarray        # (K,) receiver's b_hat after the update
    c_i: np.ndarray        # (K,) receiver's c_hat after the update
    k: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.k = np.arange(1, len(self.t) + 1)

    @cached_property
    def a_hat(self) -> np.ndarray:
        return self._forward_fill(self.a_i, CorrectionState.a_hat)

    @cached_property
    def b_hat(self) -> np.ndarray:
        return self._forward_fill(self.b_i, CorrectionState.b_hat)

    @cached_property
    def c_hat(self) -> np.ndarray:
        return self._forward_fill(self.c_i, CorrectionState.c_hat)

    def _forward_fill(self, values: np.ndarray, initial: float) -> np.ndarray:
        """(K, n) matrix whose column m repeats node m's latest event
        value, or ``initial`` before its first update."""
        K = len(self.t)
        # 1-based row of each node's latest update so far; 0 = none yet
        last = np.zeros((K, self.n), dtype=np.intp)
        last[np.arange(K), self.receiver] = self.k
        np.maximum.accumulate(last, axis=0, out=last)
        return np.concatenate(([initial], values))[last]

    def __len__(self) -> int:
        return len(self.t)

    def to_csv(self, path, stride: int = 1) -> None:
        """Write the trace as CSV; optional down-sampling stride."""
        n = self.n
        header = ["k", "t_abs", "receiver", "sender"]
        header += [f"a_hat_{m}" for m in range(n)]
        header += [f"b_hat_{m}" for m in range(n)]
        header += [f"c_hat_{m}" for m in range(n)]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for r in range(0, len(self.t), stride):
                row = [int(self.k[r]), CSV_FLOAT_FORMAT % self.t[r],
                       int(self.receiver[r]), int(self.sender[r])]
                row += [CSV_FLOAT_FORMAT % v for v in self.a_hat[r]]
                row += [CSV_FLOAT_FORMAT % v for v in self.b_hat[r]]
                row += [CSV_FLOAT_FORMAT % v for v in self.c_hat[r]]
                w.writerow(row)


@dataclass
class SimResult:
    """Everything a run produces: the trace plus per-link bookkeeping."""

    net: Network
    cfg: SyncConfig
    seed: int
    trace: Trace
    nu: np.ndarray
    updates: int
    send_times: dict[tuple[int, int], list[float]]
    initial_samples: dict[tuple[int, int], InitialSample]
    silent_nodes: list[int]


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
    t = 0.0
    while True:
        t += rng.exponential(1.0 / mu_c)
        j = int(np.searchsorted(cum, rng.random(), side="right"))
        yield t, j


def broadcast(
    net: Network,
    j: int,
    t: float,
    hear_rngs: dict,
    delay_rngs: dict,
) -> list[tuple[float, int]]:
    """Hearing and delay draws for one tick; returns (delivery time, receiver)."""
    out = []
    for i in net.out_neighbors(j):
        arc = net.arcs[(j, i)]
        if hear_rngs[(j, i)].random() < arc.p_hear:
            d = sample_delay(arc.delay, delay_rngs[(j, i)])
            out.append((t + d, i))
    return out


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
    two must be given.  Raises ``FloatingPointError`` if the run diverges,
    i.e. some update leaves a non-finite estimate.
    """
    if max_updates is None and horizon is None:
        raise ValueError("need max_updates or horizon")
    if horizon is not None and horizon <= 0.0:
        raise ValueError("horizon must be positive")

    state = SyncState(net, cfg)
    arcs = list(net.arcs)
    read_rngs = substreams(seed, "read", range(net.n))
    hear_rngs = dict(zip(arcs, substreams(seed, "hear", arcs)))
    delay_rngs = dict(zip(arcs, substreams(seed, "jitter", arcs)))

    ticks = schedule_ticks(net, seed)
    heap: list[tuple[float, int, int, object]] = []
    seq = 0

    def push(time: float, kind: int, data) -> None:
        nonlocal seq
        heapq.heappush(heap, (time, seq, kind, data))
        seq += 1

    t0, j0 = next(ticks)
    push(t0, 0, j0)

    cap = max_updates if max_updates is not None else 1 << 62
    times: list[float] = []
    receivers: list[int] = []
    senders: list[int] = []
    a_new: list[float] = []
    b_new: list[float] = []
    c_new: list[float] = []
    send_times: dict[tuple[int, int], list[float]] = {key: [] for key in net.arcs}
    initials: dict[tuple[int, int], InitialSample] = {}
    est = state.est

    k = 0
    while heap and k < cap:
        t, _, kind, data = heapq.heappop(heap)
        if horizon is not None and t > horizon:
            break
        if kind == 0:  # tick of node `data`
            j = data
            tau = read_local_time(net.clocks[j], t, read_rngs[j])
            msg = state.payload(j, tau)
            for t_dlv, i in broadcast(net, j, t, hear_rngs, delay_rngs):
                push(t_dlv, 1, (i, msg, t))
            tn, jn = next(ticks)
            push(tn, 0, jn)
        else:  # delivery
            i, msg, t_send = data
            j = msg.sender
            tau_i = read_local_time(net.clocks[i], t, read_rngs[i])
            rec = state.process_message(i, msg, tau_i)
            k += 1
            send_times[(j, i)].append(t_send)
            if rec.first_message:
                clk_j, clk_i = net.clocks[j], net.clocks[i]
                arc = net.arcs[(j, i)]
                initials[(j, i)] = InitialSample(
                    t_send=t_send, t_recv=t,
                    tau_sender=msg.tau_sent, tau_receiver=tau_i,
                    xi_sender=msg.tau_sent - (clk_j.alpha * t_send + clk_j.beta),
                    xi_receiver=tau_i - (clk_i.alpha * t + clk_i.beta),
                    eta=(t - t_send) - arc.delay.delta_bar,
                    delta_bar=arc.delay.delta_bar)
            times.append(t)
            receivers.append(i)
            senders.append(j)
            s = est[i]
            a_new.append(s.a_hat)
            b_new.append(s.b_hat)
            c_new.append(s.c_hat)

    trace = Trace(
        n=net.n,
        t=np.array(times, dtype=float),
        receiver=np.array(receivers, dtype=int),
        sender=np.array(senders, dtype=int),
        a_i=np.array(a_new, dtype=float),
        b_i=np.array(b_new, dtype=float),
        c_i=np.array(c_new, dtype=float),
    )
    _check_finite(trace)
    heard = np.zeros(net.n, dtype=bool)
    heard[trace.receiver] = True
    silent = [i for i in range(net.n) if not heard[i] and net.in_neighbors(i)]
    return SimResult(
        net=net, cfg=cfg, seed=seed, trace=trace,
        nu=np.array(state.nu), updates=k,
        send_times=send_times, initial_samples=initials,
        silent_nodes=silent)


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
