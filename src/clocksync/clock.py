"""Ground-truth clock model: local time readings, corrected time and the
noise/delay sampling primitives.

A local clock is affine in absolute time with additive reading noise.
Each node corrects its raw reading with an affine map whose parameters
are estimated online by the synchronization layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Supported zero-mean noise shapes.  "normal" matches typical simulation
#: practice; "uniform" keeps every draw bounded (half-width sqrt(3)*sigma,
#: same variance).
NOISE_DISTS = ("normal", "uniform")


def _noise(rng: np.random.Generator, sigma: float, dist: str, size=None):
    """One noise draw, or a block of ``size`` draws equal to as many
    scalar draws in turn; ``sigma == 0`` draws nothing."""
    if sigma == 0.0:
        return 0.0 if size is None else np.zeros(size)
    if dist == "normal":
        return rng.normal(0.0, sigma, size)
    if dist == "uniform":
        half = sigma * math.sqrt(3.0)
        return rng.uniform(-half, half, size)
    raise ValueError(f"unknown noise distribution {dist!r}")


@dataclass(frozen=True)
class ClockParams:
    """True parameters of one node's hardware clock.

    Attributes:
        alpha: multiplicative drift (dimensionless, nonzero).
        beta: additive offset in seconds.
        xi_sigma: std-dev of the reading noise in seconds.
        dist: noise shape, one of NOISE_DISTS.
    """

    alpha: float
    beta: float = 0.0
    xi_sigma: float = 0.0
    dist: str = "normal"

    def __post_init__(self) -> None:
        # each check is negated, so that NaN fails it
        if not (math.isfinite(self.alpha) and self.alpha != 0.0):
            raise ValueError("clock drift alpha must be finite and nonzero")
        if not math.isfinite(self.beta):
            raise ValueError("clock offset beta must be finite")
        if not 0.0 <= self.xi_sigma < math.inf:
            raise ValueError("xi_sigma must be finite and nonnegative")
        if self.dist not in NOISE_DISTS:
            raise ValueError(f"noise dist {self.dist!r} is not one of {NOISE_DISTS}")


@dataclass(frozen=True)
class DelayModel:
    """Per-arc communication delay: constant mean plus zero-mean jitter.

    Sampled delays are clamped from below at ``delta_min`` so that a
    delivery can never precede its broadcast in the event queue.
    """

    delta_bar: float
    eta_sigma: float = 0.0
    delta_min: float = 1e-6
    dist: str = "normal"

    def __post_init__(self) -> None:
        # each check is negated, so that NaN fails it
        if not 0.0 < self.delta_bar < math.inf:
            raise ValueError("mean delay delta_bar must be finite and positive")
        if not 0.0 <= self.eta_sigma < math.inf:
            raise ValueError("eta_sigma must be finite and nonnegative")
        if not 0.0 < self.delta_min < math.inf:
            raise ValueError("delta_min must be finite and positive")
        if self.dist not in NOISE_DISTS:
            raise ValueError(f"noise dist {self.dist!r} is not one of {NOISE_DISTS}")


@dataclass
class CorrectionState:
    """A node's current correction parameters (a_hat, b_hat, c_hat).

    Initialized to the identity correction with zero delay compensation.
    The corrected drift ``a_hat * alpha`` and corrected offset
    ``a_hat * beta + b_hat`` are derived views, never stored.
    """

    a_hat: float = 1.0
    b_hat: float = 0.0
    c_hat: float = 0.0


def read_local_time(params: ClockParams, t, rng: np.random.Generator):
    """Read the local clock at absolute time ``t``.

    Returns ``alpha * t + beta + xi`` with a fresh i.i.d. noise draw from
    the caller-supplied stream.  ``t`` may be an array of times: one draw
    per element, in order, the same values as one call per element.
    """
    if not np.all(np.isfinite(t)):
        raise ValueError("absolute time must be finite")
    size = None if np.ndim(t) == 0 else np.shape(t)
    return params.alpha * t + params.beta + _noise(
        rng, params.xi_sigma, params.dist, size)


def corrected_time(state: CorrectionState, raw_local: float) -> float:
    """Apply the affine correction to a raw local reading."""
    return state.a_hat * raw_local + state.b_hat


def sample_delay(model: DelayModel, rng: np.random.Generator, size=None):
    """Draw one communication delay: ``max(delta_min, delta_bar + eta)``,
    or an array of ``size`` delays equal to as many single draws."""
    eta = _noise(rng, model.eta_sigma, model.dist, size)
    if size is None:
        return max(model.delta_min, model.delta_bar + eta)
    return np.maximum(model.delta_min, model.delta_bar + eta)
