"""Reference implementation of the update rules: one scalar update per
delivery, rebuilding every input from per-link reception histories.

This is the receiver state machine as the paper states it.  The package
derives the same inputs from the whole noise schedule at once
(:class:`clocksync.sync.SyncState`); the tests compare the two bit for
bit.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from clocksync.clock import CorrectionState
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
from clocksync.topology import Network


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
    """All nodes' estimates, update counters and link histories."""

    def __init__(self, net: Network, cfg: SyncConfig):
        self.net = net
        self.cfg = cfg
        self.est = [CorrectionState() for _ in range(net.n)]
        self.nu = [0] * net.n
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

        gamma = self.net.arcs[(msg.sender, i)].gamma
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


def replay(net: Network, cfg: SyncConfig, sched: Schedule) -> dict:
    """Walk a schedule with the scalar state machine: a payload snapshot
    at each tick, one ``process_message`` at each delivery.  Returns the
    receiver's (a, b, c) after every delivery, each delivery's update
    count, the final counts and the outcome records."""
    state = OracleState(net, cfg)
    msgs = {}
    rows, nus, records = [], [], []
    for g, i, tau in zip(sched.tick.tolist(), sched.receiver.tolist(),
                         sched.tau.tolist()):
        if i < 0:
            msgs[g] = state.payload(int(sched.tick_sender[g]), tau)
            continue
        records.append(state.process_message(i, msgs[g], tau))
        s = state.est[i]
        rows.append((s.a_hat, s.b_hat, s.c_hat))
        nus.append(state.nu[i])
    return {"rows": rows, "nu": nus, "final_nu": state.nu, "records": records}
