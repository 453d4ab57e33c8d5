"""Drift and offset correction algorithms.

Each receiver keeps, per incoming link, the raw reading pair of the first
heard message plus whatever past pairs its drift variant needs.  On every
delivery it reads its own clock once, updates the drift parameter from a
local-time-increment error, then updates the offset and delay
compensation parameters from a time-difference error anchored at the
initial exchange.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from clocksync.clock import CorrectionState
from clocksync.topology import Network, centers, mute_in_arcs


# ---------------------------------------------------------------------------
# Variants and schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DriftA:
    """Sliding-window increments: the past sample sits L receptions back."""

    L: int = 1

    def __post_init__(self) -> None:
        if self.L < 1:
            raise ValueError("window length L must be a positive integer")


@dataclass(frozen=True)
class DriftB:
    """Growing increments with receding anchor m = floor(nu * l)."""

    nu: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.nu < 1.0:
            raise ValueError("nu must be in (0, 1)")


@dataclass(frozen=True)
class DriftC:
    """Growing increments anchored at a fixed reception index l0."""

    l0: int = 0

    def __post_init__(self) -> None:
        if self.l0 < 0:
            raise ValueError("l0 must be nonnegative")


@dataclass(frozen=True)
class OffsetA:
    """Plain compensation-parameter recursion."""


@dataclass(frozen=True)
class OffsetB:
    """Consensus on compensation parameters: c is mixed with the sender's
    received value through a convex combination before each update."""

    sigma: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.sigma <= 1.0:
            raise ValueError("sigma must be in (0, 1]")


DriftVariant = DriftA | DriftB | DriftC
OffsetVariant = OffsetA | OffsetB


@dataclass(frozen=True)
class StepSchedule:
    """Decreasing step sizes nu^{-zeta}, or an optional constant step.

    The drift recursion uses exponent ``zeta_prime`` for window increments
    (DriftA) and ``1 + zeta_prime`` for growing increments (DriftB/C);
    the offset recursion uses ``zeta_second``.  With ``constant_step``
    set, DriftA and the offset steps are constant while DriftB/C use
    ``constant_step / nu`` to offset the linear growth of the increments.
    """

    zeta_prime: float = 0.99
    zeta_second: float = 0.99
    constant_step: float | None = None

    def __post_init__(self) -> None:
        if not 0.5 < self.zeta_prime <= 1.0:
            raise ValueError("zeta_prime must be in (1/2, 1]")
        if not 0.5 < self.zeta_second <= 1.0:
            raise ValueError("zeta_second must be in (1/2, 1]")
        if self.constant_step is not None and self.constant_step <= 0.0:
            raise ValueError("constant_step must be positive")

    def drift_zeta(self, variant: DriftVariant) -> float:
        return self.zeta_prime if isinstance(variant, DriftA) else 1.0 + self.zeta_prime

    def drift_step(self, nu: int, variant: DriftVariant) -> float:
        if self.constant_step is not None:
            if isinstance(variant, DriftA):
                return self.constant_step
            return self.constant_step / nu
        return step_size(nu, self.drift_zeta(variant))

    def offset_step(self, nu: int) -> float:
        if self.constant_step is not None:
            return self.constant_step
        return step_size(nu, self.zeta_second)


def step_size(nu: int, zeta: float) -> float:
    """Stochastic-approximation step nu^{-zeta} for update count nu >= 1."""
    if nu < 1:
        raise ValueError("update count must be at least 1")
    return float(nu) ** (-zeta)


@dataclass(frozen=True)
class SyncConfig:
    """Algorithm selection and tuning for one run.

    ``drop_t_terms`` and ``freeze_compensation`` are the two offset
    ablations (remove the linear-time guards, or pin c at zero).
    """

    drift: DriftVariant = field(default_factory=lambda: DriftA(1))
    offset: OffsetVariant | None = field(default_factory=OffsetA)
    steps: StepSchedule = field(default_factory=StepSchedule)
    drop_t_terms: bool = False
    freeze_compensation: bool = False


# ---------------------------------------------------------------------------
# Per-link reception history
# ---------------------------------------------------------------------------

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
    """Past reception index m used by the increment at reception l.

    Returns None when the variant has no usable anchor yet (DriftA before
    the window is full; DriftC until the anchor reception has happened).
    """
    if isinstance(variant, DriftA):
        return l - variant.L if l >= variant.L else None
    if isinstance(variant, DriftB):
        return math.floor(variant.nu * l)
    return variant.l0 if l > variant.l0 else None


# ---------------------------------------------------------------------------
# Update rules
# ---------------------------------------------------------------------------

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
    """One drift correction step; returns (new a_i, whether it updated).

    The error compares the sender's corrected local-time increment
    (scaled by the *received* a_hat) with the receiver's own corrected
    increment over the same pair of receptions.
    """
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
    """One offset/compensation step; returns (new b_i, new c_i).

    Both corrected times are stripped of their growth since the initial
    exchange, so the error stays anchored at the (bounded) first
    reception time; the compensation parameter absorbs the mean delay.
    """
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


# ---------------------------------------------------------------------------
# Receiver-side state machine
# ---------------------------------------------------------------------------

@dataclass
class UpdateRecord:
    """Outcome of processing one delivery."""

    receiver: int
    sender: int
    drift_updated: bool
    offset_updated: bool
    first_message: bool


class SyncState:
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
            eps_a = cfg.steps.drift_step(self.nu[i], cfg.drift)
            new_a, drift_done = drift_update(
                a_pre, msg, hist, cfg.drift, eps_a, gamma, tau_i_now)
        else:
            new_a = a_pre

        offset_done = False
        if cfg.offset is not None and gamma > 0.0:
            eps_b = cfg.steps.offset_step(self.nu[i])
            state.b_hat, state.c_hat = offset_update(
                state, msg, hist, cfg.offset, eps_b, gamma, tau_i_now, a_pre,
                drop_t_terms=cfg.drop_t_terms,
                freeze_compensation=cfg.freeze_compensation)
            offset_done = True

        state.a_hat = new_a
        hist.record(msg.tau_sent, tau_i_now)
        return UpdateRecord(i, msg.sender, drift_done, offset_done, False)


def make_reference(net: Network, node: int) -> Network:
    """Turn ``node`` into a non-updating reference (flooding mode).

    All arc weights into the node are set to zero, so its correction
    parameters stay fixed and propagate outward.  Requires the node to be
    a center, i.e. every other node must be reachable from it.
    """
    if node in (None,) or not 0 <= node < net.n:
        raise ValueError("reference node id out of range")
    if node not in centers(net):
        raise ValueError(
            f"node {node} is not a center; flooding needs a root that "
            "reaches every node")
    return mute_in_arcs(net, node)
