"""Reference implementation of the update rules: one scalar update per
delivery, rebuilding every input from per-link reception histories.

This is the receiver state machine as the paper states it.  The package
derives the same inputs from the whole noise schedule at once
(:class:`clocksync.sync.SyncState`); the tests compare the two bit for
bit.  :func:`heap_run` is the reference for the whole engine: an event
heap that draws every random number when its event is handled.  Both
read each arc's values from the ``arcs`` dict the test built the network
from, never from the network's arc table.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from clocksync.clock import CorrectionState, read_local_time, sample_delay
from clocksync.engine import Schedule
from clocksync.sync import (
    DriftA,
    DriftB,
    DriftVariant,
    OffsetB,
    OffsetVariant,
    StepSchedule,
    SyncConfig,
)
from clocksync.streams import substream, substreams


def step_size(nu: int, zeta: float) -> float:
    """Stochastic-approximation step nu^{-zeta} for update count nu >= 1."""
    if nu < 1:
        raise ValueError("update count must be at least 1")
    return float(nu) ** (-zeta)


def drift_step(steps: StepSchedule, nu: int, variant: DriftVariant) -> float:
    if steps.constant_step is not None:
        if isinstance(variant, DriftA):
            return steps.constant_step
        return steps.constant_step / nu
    return step_size(nu, steps.drift_zeta(variant))


def offset_step(steps: StepSchedule, nu: int) -> float:
    if steps.constant_step is not None:
        return steps.constant_step
    return step_size(nu, steps.zeta_second)


class LinkHistory:
    """Reception history of one directed link, held by the receiver.

    Stores raw reading pairs ``(tau_sender, tau_receiver)`` indexed by the
    reception counter l.  Capacity depends on the drift variant: the last
    L pairs for DriftA, all pairs for DriftB, and only the anchor pair
    for DriftC.  The initial pair (l = 0) is kept separately and never
    changes once set.
    """

    __slots__ = ("count", "initial", "_buf", "_anchor", "_anchor_idx", "_mode")

    def __init__(self, variant: DriftVariant):
        self.count = 0
        self.initial: tuple[float, float] | None = None
        if isinstance(variant, DriftA):
            self._mode = "a"
            self._buf = deque(maxlen=variant.L)
        elif isinstance(variant, DriftB):
            self._mode = "b"
            self._buf = []
        else:
            self._mode = "c"
            self._buf = None
            self._anchor = None
            self._anchor_idx = variant.l0

    def record(self, tau_sender: float, tau_receiver: float) -> None:
        pair = (tau_sender, tau_receiver)
        if self.count == 0:
            self.initial = pair
        if self._mode == "a":
            self._buf.append((self.count, pair))
        elif self._mode == "b":
            self._buf.append(pair)
        else:
            if self.count == self._anchor_idx:
                self._anchor = pair
        self.count += 1

    def get(self, m: int) -> tuple[float, float] | None:
        """Pair recorded at reception index m, or None if not retained."""
        if m == 0:
            return self.initial
        if self._mode == "a":
            for idx, pair in self._buf:
                if idx == m:
                    return pair
            return None
        if self._mode == "b":
            return self._buf[m] if m < len(self._buf) else None
        return self._anchor if m == self._anchor_idx else None

    def stored_pairs(self) -> int:
        if self._mode == "a":
            extra = 0 if any(idx == 0 for idx, _ in self._buf) else 1
            return len(self._buf) + (extra if self.initial is not None else 0)
        if self._mode == "b":
            return len(self._buf)
        n = 1 if self.initial is not None else 0
        if self._anchor is not None and self._anchor_idx != 0:
            n += 1
        return n


def anchor_index(variant: DriftVariant, l: int) -> int | None:
    """Past reception index m used by the increment at reception l, or
    None when the variant has no usable anchor yet."""
    if isinstance(variant, DriftA):
        return l - variant.L if l >= variant.L else None
    if isinstance(variant, DriftB):
        return math.floor(variant.nu * l)
    return variant.l0 if l > variant.l0 else None


@dataclass(frozen=True)
class MessagePayload:
    """What a broadcast carries: the sender's raw reading and estimates."""

    sender: int
    tau_sent: float
    a_hat: float
    b_hat: float
    c_hat: float


def drift_update(
    a_i: float,
    msg: MessagePayload,
    hist: LinkHistory,
    variant: DriftVariant,
    eps: float,
    gamma: float,
    tau_i_now: float,
) -> tuple[float, bool]:
    """One drift correction step; returns (new a_i, whether it updated)."""
    l = hist.count  # index of the reception being processed
    m = anchor_index(variant, l)
    if m is None:
        return a_i, False
    past = hist.get(m)
    if past is None:
        return a_i, False
    tau_j_m, tau_i_m = past
    inc_j = msg.a_hat * (msg.tau_sent - tau_j_m)
    inc_i = a_i * (tau_i_now - tau_i_m)
    phi = inc_j - inc_i
    return a_i + eps * gamma * phi, True


def offset_update(
    state_i: CorrectionState,
    msg: MessagePayload,
    hist: LinkHistory,
    variant: OffsetVariant,
    eps: float,
    gamma: float,
    tau_i_now: float,
    a_i: float,
    *,
    drop_t_terms: bool = False,
    freeze_compensation: bool = False,
) -> tuple[float, float]:
    """One offset/compensation step; returns (new b_i, new c_i)."""
    if hist.initial is None:
        return state_i.b_hat, state_i.c_hat
    tau_j_0, tau_i_0 = hist.initial
    t_j = 0.0 if drop_t_terms else msg.tau_sent - tau_j_0
    t_i = 0.0 if drop_t_terms else tau_i_now - tau_i_0
    tau_hat_j = msg.a_hat * msg.tau_sent + msg.b_hat
    tau_hat_i = a_i * tau_i_now + state_i.b_hat
    if freeze_compensation:
        c_eff = 0.0
    elif isinstance(variant, OffsetB):
        c_eff = variant.sigma * state_i.c_hat + (1.0 - variant.sigma) * msg.c_hat
    else:
        c_eff = state_i.c_hat
    phi = (tau_hat_j - msg.a_hat * t_j) - (tau_hat_i - a_i * t_i) + c_eff
    b_new = state_i.b_hat + eps * gamma * phi
    if freeze_compensation:
        c_new = 0.0
    elif isinstance(variant, OffsetB):
        c_new = c_eff - eps * gamma * phi
    else:
        c_new = state_i.c_hat - eps * gamma * phi
    return b_new, c_new


@dataclass
class UpdateRecord:
    """Outcome of processing one delivery."""

    receiver: int
    sender: int
    drift_updated: bool
    offset_updated: bool
    first_message: bool


class OracleState:
    """All nodes' estimates, update counters and link histories, for ``n``
    nodes linked by ``arcs`` ((sender, receiver) -> Arc)."""

    def __init__(self, n: int, arcs: dict, cfg: SyncConfig):
        self.arcs = arcs
        self.cfg = cfg
        self.est = [CorrectionState() for _ in range(n)]
        self.nu = [0] * n
        self.hists: dict[tuple[int, int], LinkHistory] = {}

    def history(self, j: int, i: int) -> LinkHistory:
        key = (j, i)
        h = self.hists.get(key)
        if h is None:
            h = LinkHistory(self.cfg.drift)
            self.hists[key] = h
        return h

    def payload(self, j: int, tau_sent: float) -> MessagePayload:
        s = self.est[j]
        return MessagePayload(j, tau_sent, s.a_hat, s.b_hat, s.c_hat)

    def process_message(self, i: int, msg: MessagePayload, tau_i_now: float) -> UpdateRecord:
        """Handle one delivery at node i: first-message bookkeeping or a
        drift step followed by an offset step on the same reading."""
        cfg = self.cfg
        hist = self.history(msg.sender, i)
        self.nu[i] += 1
        if hist.count == 0:
            hist.record(msg.tau_sent, tau_i_now)
            return UpdateRecord(i, msg.sender, False, False, True)

        gamma = self.arcs[(msg.sender, i)].gamma
        state = self.est[i]
        a_pre = state.a_hat
        drift_done = False
        if gamma > 0.0:
            eps_a = drift_step(cfg.steps, self.nu[i], cfg.drift)
            new_a, drift_done = drift_update(
                a_pre, msg, hist, cfg.drift, eps_a, gamma, tau_i_now)
        else:
            new_a = a_pre

        offset_done = False
        if cfg.offset is not None and gamma > 0.0:
            eps_b = offset_step(cfg.steps, self.nu[i])
            state.b_hat, state.c_hat = offset_update(
                state, msg, hist, cfg.offset, eps_b, gamma, tau_i_now, a_pre,
                drop_t_terms=cfg.drop_t_terms,
                freeze_compensation=cfg.freeze_compensation)
            offset_done = True

        state.a_hat = new_a
        hist.record(msg.tau_sent, tau_i_now)
        return UpdateRecord(i, msg.sender, drift_done, offset_done, False)


def replay(n: int, arcs: dict, cfg: SyncConfig, sched: Schedule) -> dict:
    """Walk a schedule's deliveries with the scalar state machine, each
    carrying the sender's estimates from its own row at ``src`` (the
    initial ones at -1).  Returns the receiver's (a, b, c) after every
    delivery, each delivery's update count, the final counts and the
    outcome records."""
    state = OracleState(n, arcs, cfg)
    init = CorrectionState()
    rows, nus, records = [], [], []
    for i, j, tau_j, tau_i, src in zip(
            sched.receiver.tolist(), sched.sender.tolist(),
            sched.tau_sent.tolist(), sched.tau_recv.tolist(), sched.src.tolist()):
        a, b, c = rows[src] if src >= 0 else (init.a_hat, init.b_hat, init.c_hat)
        msg = MessagePayload(j, tau_j, a, b, c)
        records.append(state.process_message(i, msg, tau_i))
        s = state.est[i]
        rows.append((s.a_hat, s.b_hat, s.c_hat))
        nus.append(state.nu[i])
    return {"rows": rows, "nu": nus, "final_nu": state.nu, "records": records}


def heap_run(net, arcs, cfg, *, max_updates, seed=0) -> dict:
    """Reference simulator: an event heap keyed by (time, insertion) that
    draws every random number one at a time, when its event is handled.

    Each tick reads the sender's clock, draws hearing and then delay per
    out-arc in out-neighbour order, pushes the deliveries and then the
    next tick; each delivery reads the receiver's clock and updates it.
    A row per delivery holds its time, receiver, sender, send time, both
    raw readings and the receiver's new (a, b, c): the columns of
    :class:`clocksync.engine.Trace`.
    """
    state = OracleState(net.n, arcs, cfg)
    out = {j: sorted(i for (s, i) in arcs if s == j) for j in range(net.n)}
    read_rngs = substreams(seed, "read", range(net.n))
    hear_rngs = dict(zip(arcs, substreams(seed, "hear", list(arcs))))
    delay_rngs = dict(zip(arcs, substreams(seed, "jitter", list(arcs))))
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
    rows = []
    while len(rows) < max_updates:
        t, _, node, data = heapq.heappop(heap)
        if data is None:  # tick of `node`
            tau = read_local_time(net.clocks[node], t, read_rngs[node])
            msg = state.payload(node, tau)
            for i in out[node]:
                arc = arcs[(node, i)]
                if hear_rngs[(node, i)].random() < arc.p_hear:
                    d = sample_delay(arc.delay, delay_rngs[(node, i)])
                    heapq.heappush(heap, (t + d, next(seq), i, (msg, t)))
            tn, jn = next_tick()
            heapq.heappush(heap, (tn, next(seq), jn, None))
        else:  # delivery to `node`
            msg, t_send = data
            j, i = msg.sender, node
            tau_i = read_local_time(net.clocks[i], t, read_rngs[i])
            state.process_message(i, msg, tau_i)
            s = state.est[i]
            rows.append((t, i, j, t_send, msg.tau_sent, tau_i,
                         s.a_hat, s.b_hat, s.c_hat))
    return {"rows": rows, "nu": state.nu}
