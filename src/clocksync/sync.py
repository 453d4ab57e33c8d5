"""Drift and offset correction algorithms.

On every delivery the receiver reads its own clock once, updates its
drift parameter from a local-time-increment error, then its offset and
delay compensation parameters from a time-difference error anchored at
the link's initial exchange.

Only the estimates (a, b, c) carry over from one update to the next.
Every other input of an update follows from the noise schedule alone:
the receiver's update count nu, the reception index l on the link, the
reading pair of the anchor reception, the link's initial pair, the arc
weight and both step sizes.  :class:`SyncState` derives them for a whole
run at once with numpy, and :meth:`SyncState.process_message` applies
one update from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from clocksync.clock import CorrectionState
from clocksync.streams import is_int
from clocksync.topology import Network, centers, mute_in_arcs


# ---------------------------------------------------------------------------
# Variants and schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DriftA:
    """Sliding-window increments: the past sample sits L receptions back."""

    L: int = 1

    def __post_init__(self) -> None:
        if not (is_int(self.L) and self.L >= 1):
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
        if not (is_int(self.l0) and self.l0 >= 0):
            raise ValueError("l0 must be a nonnegative integer")


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
        if self.constant_step is not None and not 0.0 < self.constant_step < math.inf:
            raise ValueError("constant_step must be positive and finite")

    def drift_zeta(self, variant: DriftVariant) -> float:
        return self.zeta_prime if isinstance(variant, DriftA) else 1.0 + self.zeta_prime

    def drift_steps(self, variant: DriftVariant, top: int) -> np.ndarray:
        """Drift step of the nu-th update at index nu, for nu = 1..top."""
        if self.constant_step is None:
            return _decreasing(self.drift_zeta(variant), top)
        if isinstance(variant, DriftA):
            return _table([self.constant_step] * top)
        return _table([self.constant_step / nu for nu in range(1, top + 1)])

    def offset_steps(self, top: int) -> np.ndarray:
        """Offset step of the nu-th update at index nu, for nu = 1..top."""
        if self.constant_step is None:
            return _decreasing(self.zeta_second, top)
        return _table([self.constant_step] * top)


def _decreasing(zeta: float, top: int) -> np.ndarray:
    """Stochastic-approximation steps nu^{-zeta}, by Python's ``**``."""
    return _table([float(nu) ** (-zeta) for nu in range(1, top + 1)])


def _table(steps: list[float]) -> np.ndarray:
    """Steps for nu = 1, 2, ... at index nu; index 0 holds no step."""
    return np.array([math.nan] + steps)


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
# The update kernel
# ---------------------------------------------------------------------------

def anchor_index(variant: DriftVariant, l: np.ndarray) -> np.ndarray:
    """Past reception index m that the drift increment at reception l
    spans back to, or -1 where the variant has no anchor yet (DriftA
    before the window is full, DriftC until the anchor reception)."""
    if isinstance(variant, DriftA):
        return np.where(l >= variant.L, l - variant.L, -1)
    if isinstance(variant, DriftB):
        return np.floor(variant.nu * l).astype(np.intp)
    return np.where(l > variant.l0, variant.l0, -1)


@dataclass(frozen=True)
class Outcome:
    """What one delivery did to its receiver."""

    drift_updated: bool
    offset_updated: bool
    first_message: bool


#: update code bits: the steps a delivery takes; a link's first reception
#: takes none and only records the initial pair
DRIFT, OFFSET, FIRST = 1, 2, 4
#: the outcome of each update code, shared by every delivery
OUTCOMES = tuple(Outcome(bool(code & DRIFT), bool(code & OFFSET), code == FIRST)
                 for code in range(FIRST + 1))


def _ranks(key: np.ndarray, size: int):
    """Each entry's 0-based rank among the entries with its key, the
    stable order by key, and where each key's run starts in that order."""
    order = np.argsort(key, kind="stable")
    counts = np.bincount(key, minlength=size)
    starts = np.cumsum(counts) - counts
    rank = np.empty_like(order)
    rank[order] = np.arange(len(key)) - np.repeat(starts, counts)
    return rank, order, starts


class SyncState:
    """Every node's estimates, plus the inputs of each update of one run.

    The columns are a schedule's deliveries, in processing order: delivery
    k reaches ``receiver[k]`` over link ``link[k]`` (weight ``gamma[link[k]]``),
    carrying the sender's reading ``tau_sent[k]``; the receiver reads
    ``tau_recv[k]``.  The update count nu, the reception index l on the
    link, the link's initial pair and anchor pair and both step sizes
    follow from these alone and are derived here for the whole run, as
    integer index arrays; :meth:`inputs` gathers every input of a block
    of deliveries from them but the sender's estimates.
    """

    def __init__(self, cfg: SyncConfig, n: int, receiver: np.ndarray,
                 link: np.ndarray, gamma: np.ndarray,
                 tau_sent: np.ndarray, tau_recv: np.ndarray):
        init = CorrectionState()
        self.a = [init.a_hat] * n
        self.b = [init.b_hat] * n
        self.c = [init.c_hat] * n
        self.sigma = cfg.offset.sigma if isinstance(cfg.offset, OffsetB) else None
        self.frozen = cfg.freeze_compensation
        self.drop_t_terms = cfg.drop_t_terms
        self.receiver, self.tau_sent, self.tau_recv = receiver, tau_sent, tau_recv
        self.link, self.gamma = link, gamma
        #: the receiver's update count after each delivery (first is 1)
        self.nu = _ranks(receiver, n)[0] + 1
        l, by_link, starts = _ranks(link, len(gamma))
        m = anchor_index(cfg.drift, l)
        self.first = by_link[starts[link]]
        self.anchor = by_link[starts[link] + np.maximum(m, 0)]
        active = (l > 0) & (gamma[link] > 0.0)
        code = np.where(active & (m >= 0), DRIFT, 0)
        if cfg.offset is not None:
            code |= np.where(active, OFFSET, 0)
        self.code = np.where(l == 0, FIRST, code).astype(np.int8)
        top = int(self.nu.max(initial=0))
        self.drift_steps = cfg.steps.drift_steps(cfg.drift, top)
        self.offset_steps = cfg.steps.offset_steps(top)

    def inputs(self, rows: slice) -> list[list]:
        """The arguments of :meth:`process_message` but the sender's
        estimates, for deliveries ``rows``: one list per argument."""
        nu, gamma = self.nu[rows], self.gamma[self.link[rows]]
        tau_j, tau_i = self.tau_sent[rows], self.tau_recv[rows]
        m, f = self.anchor[rows], self.first[rows]
        if self.drop_t_terms:
            t_j = t_i = np.zeros(len(tau_j))
        else:
            t_j, t_i = tau_j - self.tau_sent[f], tau_i - self.tau_recv[f]
        return [col.tolist() for col in (
            self.receiver[rows], self.code[rows], self.drift_steps[nu] * gamma,
            tau_j - self.tau_sent[m], tau_i - self.tau_recv[m],
            self.offset_steps[nu] * gamma, tau_j, t_j, tau_i, t_i)]

    def process_message(self, i: int, a_j: float, b_j: float, c_j: float,
                        code: int, eg_a: float, d_j: float, d_i: float,
                        eg_b: float, tau_j: float, t_j: float,
                        tau_i: float, t_i: float) -> Outcome:
        """Apply one delivery to its receiver i.

        ``a_j``, ``b_j`` and ``c_j`` are the broadcaster's estimates at its
        tick.  The drift step compares the sender's corrected local-time
        increment since the anchor reception, ``d_j`` scaled by its a,
        with the receiver's own, ``d_i``.  The offset step compares both
        corrected readings stripped of their growth ``t_j``, ``t_i`` since
        the link's initial exchange; c absorbs the mean delay.  ``eg_a``
        and ``eg_b`` are each step's size times the arc weight gamma.
        """
        if code & (DRIFT | OFFSET):
            a = self.a
            a_i = a[i]
            if code & OFFSET:
                b, c = self.b, self.c
                if self.frozen:
                    c_eff = 0.0
                elif self.sigma is None:
                    c_eff = c[i]
                else:
                    c_eff = self.sigma * c[i] + (1.0 - self.sigma) * c_j
                phi = ((a_j * tau_j + b_j - a_j * t_j)
                       - (a_i * tau_i + b[i] - a_i * t_i) + c_eff)
                b[i] = b[i] + eg_b * phi
                c[i] = 0.0 if self.frozen else c_eff - eg_b * phi
            if code & DRIFT:
                a[i] = a_i + eg_a * (a_j * d_j - a_i * d_i)
        return OUTCOMES[code]


def make_reference(net: Network, node: int) -> Network:
    """Turn ``node`` into a non-updating reference (flooding mode).

    All arc weights into the node are set to zero, so its correction
    parameters stay fixed and propagate outward.  Requires the node to be
    a center, i.e. every other node must be reachable from it.
    """
    if node is None or not 0 <= node < net.n:
        raise ValueError("reference node id out of range")
    if node not in centers(net):
        raise ValueError(
            f"node {node} is not a center; flooding needs a root that "
            "reaches every node")
    return mute_in_arcs(net, node)
