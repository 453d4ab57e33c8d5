"""Convergence diagnostics: spectra, Lyapunov solves, rate bounds,
increment statistics, trace metrics, fixed-point residual checks and the
stationary point of the expected offset recursion.

All functions here are pure and operate on immutable traces and matrices;
none of them is needed by the simulator itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from clocksync.engine import SimResult, Trace, write_csv
from clocksync.sync import DriftA, DriftB, DriftVariant, OffsetB, StepSchedule, anchor_index
from clocksync.topology import (
    Network,
    ProbabilityProfile,
    expected_laplacian,
    probability_profile,
)

ZERO_EIG_TOL = 1e-9
LYAPUNOV_RTOL = 1e-8


# ---------------------------------------------------------------------------
# Spectral machinery
# ---------------------------------------------------------------------------

@dataclass
class SpectralReport:
    eigenvalues: np.ndarray
    zero_multiplicity: int
    hurwitz_ok: bool
    T: np.ndarray
    B_star: np.ndarray

    @property
    def ok(self) -> bool:
        return self.zero_multiplicity == 1 and self.hurwitz_ok


def build_B_bar(
    net: Network,
    profile: ProbabilityProfile | None = None,
    zeta: float = 0.99,
) -> np.ndarray:
    """Expected scaled update matrix: N_bar^zeta diag(p^-zeta) A Gamma_bar.

    A node that never updates is admissible only if its Laplacian row is
    zero (a reference node); its scaling factor is then immaterial and
    set to one.
    """
    if profile is None:
        profile = probability_profile(net)
    lap = expected_laplacian(net, profile)
    p = profile.p.copy()
    zero_rows = np.all(lap == 0.0, axis=1)
    bad = (p <= 0.0) & ~zero_rows
    if np.any(bad):
        raise ValueError(
            f"nodes {np.flatnonzero(bad).tolist()} have zero update "
            "probability but nonzero update weights")
    p[p <= 0.0] = 1.0
    scale = profile.n_bar ** zeta * p ** (-zeta)
    return (scale * net.alphas())[:, None] * lap


def spectral_check(b_bar: np.ndarray) -> SpectralReport:
    """Eigenvalues of the expected update matrix and the consensus split.

    Builds T = [1 | column-space basis], whose similarity transform
    isolates the (n-1)-dimensional disagreement block B*.
    """
    n = b_bar.shape[0]
    eig = np.linalg.eigvals(b_bar)
    zero_mult = int(np.sum(np.abs(eig) < ZERO_EIG_TOL))
    others = eig[np.abs(eig) >= ZERO_EIG_TOL]
    hurwitz = bool(np.all(others.real < -ZERO_EIG_TOL))

    u, s, _ = np.linalg.svd(b_bar)
    basis = u[:, : n - 1]  # column space has dimension n-1 under (A1)
    T = np.column_stack([np.ones(n), basis])
    b_star = np.linalg.solve(T, b_bar @ T)[1:, 1:]
    return SpectralReport(eigenvalues=eig, zero_multiplicity=zero_mult,
                          hurwitz_ok=hurwitz, T=T, B_star=b_star)


def lyapunov_solve(b_star: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve R B* + B*^T R = -Q for symmetric positive definite R.

    Rejects non-Hurwitz input and inputs with nonsymmetric or
    non-positive-definite Q.  Dense Bartels-Stewart solve, O(n^3): about
    25 ms at n = 200 on one BLAS thread, the largest network ``clocksync
    report`` is run on; ``report`` runs it with every OpenBLAS pool on one
    thread, which also fixes the last bits of R.  The first call imports
    ``scipy.linalg`` (``report`` imports it first); nothing else in the
    package needs scipy, so a run that writes no report never loads it.
    """
    b_star = np.asarray(b_star, dtype=float)
    q = np.asarray(q, dtype=float)
    if b_star.ndim == 0:
        b_star = b_star.reshape(1, 1)
    if q.ndim == 0:
        q = q.reshape(1, 1)
    if not np.allclose(q, q.T) or np.any(np.linalg.eigvalsh(q) <= 0.0):
        raise ValueError("Q must be symmetric positive definite")
    if np.any(np.linalg.eigvals(b_star).real >= 0.0):
        raise ValueError("B* must be Hurwitz")
    import scipy.linalg
    r = scipy.linalg.solve_continuous_lyapunov(b_star.T, -q)
    r = 0.5 * (r + r.T)
    resid = np.linalg.norm(r @ b_star + b_star.T @ r + q)
    if resid > LYAPUNOV_RTOL * np.linalg.norm(q):
        raise ArithmeticError("Lyapunov solve residual above tolerance")
    return r


# ---------------------------------------------------------------------------
# Rate bounds
# ---------------------------------------------------------------------------

@dataclass
class RateBound:
    """Sufficient-condition exponents for mean-square consensus decay.

    ``zeta_d_max`` bounds the exponent of the k^{zeta d} scaling under
    which the scaled disagreement still vanishes; ``d_max`` is the same
    bound expressed in d.
    """

    variant: DriftVariant
    zeta_prime: float
    r: float
    q: float
    d_max: float
    zeta: float

    @property
    def zeta_d_max(self) -> float:
        return self.zeta * self.d_max


def _variant_q(variant: DriftVariant, net: Network) -> float:
    mu_c = float(net.rates.sum())
    if isinstance(variant, DriftA):
        mp = (net.rates[net.table.sender] * net.table.p_hear).max()
        return variant.L / mp
    if isinstance(variant, DriftB):
        return (1.0 - variant.nu) / mu_c
    return 1.0 / mu_c


def rate_bound(
    variant: DriftVariant,
    zeta_prime: float,
    net: Network,
    report: SpectralReport | None = None,
) -> RateBound:
    """Largest admissible scaled-disagreement exponent for one variant.

    ``report`` is the spectral check of ``build_B_bar`` at the variant's
    drift exponent, if the caller already has it.  The Lyapunov equation
    is solved with Q = I, so ``r = 1 / lambda_max(R)``.
    """
    zeta = StepSchedule(zeta_prime=zeta_prime).drift_zeta(variant)
    if report is None:
        report = spectral_check(build_B_bar(net, zeta=zeta))
    if not report.ok:
        raise ValueError("expected update matrix fails the spectral check")
    r_mat = lyapunov_solve(report.B_star, np.eye(report.B_star.shape[0]))
    r = float(1.0 / np.max(np.linalg.eigvalsh(r_mat)))
    q = _variant_q(variant, net)

    if zeta_prime < 1.0:
        if isinstance(variant, DriftA):
            zd = zeta_prime - 0.5
        elif isinstance(variant, DriftB):
            zd = 0.5 + zeta_prime
        else:
            zd = zeta_prime
        d_max = zd / zeta
    else:
        if isinstance(variant, DriftA):
            d_max = min(0.5, 2.0 * q * r)
        elif isinstance(variant, DriftB):
            d_max = min(0.75, q * r)
        else:
            d_max = min(0.5, q * r)
    return RateBound(variant=variant, zeta_prime=zeta_prime, r=r, q=q,
                     d_max=d_max, zeta=zeta)


# ---------------------------------------------------------------------------
# Increment statistics
# ---------------------------------------------------------------------------

@dataclass
class IncrementStats:
    mean: float
    var: float
    expected_mean: float
    samples: int


def increment_stats(
    result: SimResult,
    arc: tuple[int, int],
) -> IncrementStats:
    """Empirical statistics of the absolute-time increments used by the
    run's drift updates on one arc, with the thinned-Poisson expectation.

    The expected mean of one increment spanning ``l - m`` receptions is
    ``(l - m) / (mu_sender * p_hear)``; for variants with growing
    increments the expectation is averaged over the realized receptions.
    """
    j, i = arc
    net, tr = result.net, result.trace
    row = int(net.table.rows(j, i))
    rate = float(net.rates[j]) * net.table.arc[row].p_hear
    times = tr.t_send[(tr.sender == j) & (tr.receiver == i)]
    l = np.arange(1, len(times))
    m = anchor_index(result.cfg.drift, l)
    l, m = l[m >= 0], m[m >= 0]
    if len(l) == 0:
        raise ValueError("not enough receptions on this arc")
    deltas = times[l] - times[m]
    spans = l - m
    return IncrementStats(
        mean=float(deltas.mean()),
        var=float(deltas.var()),
        expected_mean=float(np.mean(spans) / rate),
        samples=len(deltas),
    )


# ---------------------------------------------------------------------------
# Trace metrics
# ---------------------------------------------------------------------------

@dataclass
class Metrics:
    """Per-iteration disagreement metrics derived from a trace, at the
    sorted trace rows ``rows``.

    ``vclock_gap`` is the largest pairwise difference of corrected times
    evaluated at the absolute time of each update.  The four series are
    reduced from the trace one row block at a time; the (rows, n)
    corrected estimates ``g_hat`` and ``f_hat`` are each stacked from its
    own event column of :func:`_corrected_columns` on first access.  Every
    field covers the same rows: ``k``, ``t``, the series and ``g_hat`` and
    ``f_hat`` all hold one entry per row of ``rows``.
    """

    result: SimResult = field(repr=False)
    k: np.ndarray
    t: np.ndarray
    drift_spread: np.ndarray
    msd: np.ndarray
    offset_dispersion: np.ndarray
    vclock_gap: np.ndarray
    rows: np.ndarray = field(repr=False)

    @cached_property
    def g_hat(self) -> np.ndarray:
        """(rows, n) corrected drifts."""
        (g, _), (g0, _) = _corrected_columns(self.result)
        return self.result.trace.stack(g, g0, self.rows)

    @cached_property
    def f_hat(self) -> np.ndarray:
        """(rows, n) corrected offsets."""
        (_, f), (_, f0) = _corrected_columns(self.result)
        return self.result.trace.stack(f, f0, self.rows)

    def to_csv(self, path) -> None:
        write_csv(path, ["k", "t_abs", "drift_spread", "msd",
                         "offset_dispersion", "vclock_gap"],
                  [self.k, self.t, self.drift_spread, self.msd,
                   self.offset_dispersion, self.vclock_gap])


def _corrected_columns(result: SimResult) -> tuple[tuple[np.ndarray, np.ndarray],
                                                   tuple[np.ndarray, np.ndarray]]:
    """The event columns of the corrected drifts ``g = a alpha`` and
    offsets ``f = a beta + b`` (each event's receiver's, after it), and
    their (n,) initial values, from the initial estimates a = 1, b = 0:
    ``(g_events, f_events), (g_initial, f_initial)`` for
    :meth:`~clocksync.engine.Trace.blocks`."""
    tr = result.trace
    alpha, beta = result.net.alphas(), result.net.betas()
    return ((tr.a_i * alpha[tr.receiver], tr.a_i * beta[tr.receiver] + tr.b_i),
            (1.0 * alpha, 1.0 * beta + 0.0))


def metrics(result: SimResult, rows=None) -> Metrics:
    """Disagreement, dispersion and virtual-clock gap along the trace:
    after every update, or after each of the sorted row indices ``rows``
    only, filling no other row.  ``rows`` is checked before anything is
    read (see :meth:`~clocksync.engine.Trace.select`)."""
    tr = result.trace
    rows = tr.select(rows)
    k, t = tr.k[rows], tr.t[rows]
    series = np.empty((4, len(rows)))
    for lo, hi, g, f in tr.blocks(*_corrected_columns(result), rows):
        vc = g * t[lo:hi, None] + f
        series[:, lo:hi] = (g.max(axis=1) - g.min(axis=1), g.var(axis=1),
                            f.max(axis=1) - f.min(axis=1),
                            vc.max(axis=1) - vc.min(axis=1))
    return Metrics(result, k, t, *series, rows=rows)


def scaled_disagreement(m: Metrics, rho: float) -> np.ndarray:
    """Mean square disagreement scaled by k^{2 rho}."""
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    return m.k.astype(float) ** (2.0 * rho) * m.msd


# ---------------------------------------------------------------------------
# Fixed-point residuals
# ---------------------------------------------------------------------------

@dataclass
class FixedPointReport:
    residual: float
    h_star: np.ndarray
    chi_star: float
    converged: bool
    c_con_spread: float | None = None


def first_deliveries(trace: Trace) -> np.ndarray:
    """Row of each link's first delivery, its initial exchange, in the
    order of those rows."""
    code = trace.sender.astype(np.int64) * trace.n + trace.receiver
    return np.sort(np.unique(code, return_index=True)[1])


def _initial_noise_means(result: SimResult, profile: ProbabilityProfile):
    """Weighted means of the initial-exchange noise per node: the
    receiver's reading noise, the delay jitter and the mean delay.

    Weights are the arc update probabilities (gamma * pi), matching the
    expectation that enters the stationarity condition of the offset
    recursion.  Exact when reading noise is absent; with reading noise
    the sender-side initial noise cannot be folded into a per-node value
    and the residual is only approximate.
    """
    net, tr = result.net, result.trace
    first = first_deliveries(tr)
    j, i = tr.sender[first], tr.receiver[first]
    rows = net.table.rows(j, i)
    w = net.table.gamma[rows] * profile.pi_arc[i, j]
    delta_bar = np.array([net.table.arc[r].delay.delta_bar for r in rows.tolist()])
    t_recv = tr.t[first]
    xi = tr.tau_recv[first] - (net.alphas()[i] * t_recv + net.betas()[i])
    eta = (t_recv - tr.t_send[first]) - delta_bar
    # bincount sums each node's terms in row order
    w_in = np.bincount(i, w, net.n)
    means = [np.bincount(i, w * x, net.n) for x in (xi, eta, delta_bar)]
    nz = w_in > 0.0
    for mean in means:
        mean[nz] /= w_in[nz]
    return means


def _cauchy_converged(result: SimResult, f_last: np.ndarray, c_last: np.ndarray) -> bool:
    # window = the last decade of k (from K/10 to K), only its rows filled,
    # block by block; changes are compared against the largest final
    # magnitude so that components which happen to settle near zero do not
    # produce spurious failures
    tr = result.trace
    start = len(tr) // 10
    if len(tr) - start < 2:
        return False
    f_tol = 0.05 * max(float(np.abs(f_last).max()), 1e-12)
    c_tol = 0.05 * max(float(np.abs(c_last).max()), 1e-12)
    (_, f_e), (_, f_0) = _corrected_columns(result)
    for _, _, f, c in tr.blocks((f_e, tr.c_i), (f_0, np.zeros(tr.n)),
                                np.arange(start, len(tr))):
        if not (np.all(np.abs(f - f_last) <= f_tol)
                and np.all(np.abs(c - c_last) <= c_tol)):
            return False
    return True


def consensus_mixing_matrix(
    net: Network,
    profile: ProbabilityProfile,
    sigma: np.ndarray | float,
) -> np.ndarray:
    """Expected convex-combination matrix of the compensation consensus.

    Each update event (sender j, receiver i) mixes c_i with the received
    c_j; averaging over events with their probabilities gives a row
    stochastic matrix whose left Perron vector weights the pooled
    compensation value.
    """
    n = net.n
    sig = np.broadcast_to(np.asarray(sigma, dtype=float), (n,))
    j, i = net.table.sender, net.table.receiver
    w = profile.pi_arc[i, j] / profile.n_bar * (1.0 - sig[i])
    c = np.eye(n)
    c[i, j] += w
    # the diagonal loses each in-arc's weight in turn, in row order
    np.subtract.at(c, (i, i), w)
    return c


def left_fixed_vector(c_bar: np.ndarray) -> np.ndarray:
    """Left eigenvector of a stochastic matrix at eigenvalue 1, sum one."""
    vals, vecs = np.linalg.eig(c_bar.T)
    idx = int(np.argmin(np.abs(vals - 1.0)))
    v = np.real(vecs[:, idx])
    return v / v.sum()


def fixed_point_residual(result: SimResult) -> FixedPointReport:
    """Residual of the theoretical fixed-point equation at the final state.

    For the plain compensation recursion the residual is
    ``||[Gamma_bar | Gamma_bar_d] h*|| / ||h*||`` with the corrected
    offsets and compensation parameters shifted by the realized initial
    noise and mean delays.  For the consensus variant, the bordered
    matrix built from the pooled compensation value is used instead, and
    the spread of the final compensation parameters is reported.

    A non-Cauchy tail flags ``converged=False``; the residual is still
    reported.
    """
    net = result.net
    profile = probability_profile(net)
    lap = expected_laplacian(net, profile)
    gd_vec = -np.diag(lap)  # the diagonal of Gamma_bar_d
    alpha = net.alphas()
    tr = result.trace
    if len(tr) == 0:
        raise ValueError("empty trace")
    a_star, b_star, c_star = tr.row(-1)
    chi = float((a_star * alpha).mean())
    f_star = a_star * net.betas() + b_star
    xi0, eta0, delta0 = _initial_noise_means(result, profile)
    converged = _cauchy_converged(result, f_star, c_star)

    h_f = f_star + chi * xi0 / alpha
    if isinstance(result.cfg.offset, OffsetB):
        c_bar = consensus_mixing_matrix(net, profile, result.cfg.offset.sigma)
        phi = left_fixed_vector(c_bar)
        c_con = float(phi @ c_star)
        m1 = np.zeros((net.n + 1, net.n + 1))
        m1[: net.n, : net.n] = lap
        m1[: net.n, net.n] = gd_vec
        m1[net.n, : net.n] = -phi @ lap
        m1[net.n, net.n] = -float(phi @ gd_vec)
        shift = alpha * (eta0 + delta0)
        h = np.concatenate([h_f, [c_con - chi * float(phi @ shift)]])
        resid = float(np.linalg.norm(m1 @ h) / np.linalg.norm(h))
        spread = float(c_star.max() - c_star.min())
        return FixedPointReport(residual=resid, h_star=h, chi_star=chi,
                                converged=converged, c_con_spread=spread)

    h_c = c_star - chi * alpha * (eta0 + delta0)
    h = np.concatenate([h_f, h_c])
    m = np.hstack([lap, np.diag(gd_vec)])
    resid = float(np.linalg.norm(m @ h) / np.linalg.norm(h))
    return FixedPointReport(residual=resid, h_star=h, chi_star=chi,
                            converged=converged)


def _initial_exchange_terms(
    result: SimResult,
    profile: ProbabilityProfile,
    a: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Weights ``w[i, j] = gamma * pi_arc[i, j]`` of the arcs that
    delivered a message, and per node the weighted sum of
    ``a_j tau_j0 - a_i tau_i0`` over the initial exchanges on its in-arcs."""
    tr = result.trace
    first = first_deliveries(tr)
    j, i = tr.sender[first], tr.receiver[first]
    lap = expected_laplacian(result.net, profile)
    w = np.zeros_like(lap)
    w[i, j] = lap[i, j]
    q = np.bincount(i, w[i, j] * (a[j] * tr.tau_sent[first] - a[i] * tr.tau_recv[first]),
                    result.net.n)
    return w, q


def offset_fixed_point(result: SimResult) -> np.ndarray:
    """Limit f* of the expected offset recursion, with the drift
    estimates a held at their last value.

    With the linear-time terms kept, the innovation of an update on arc
    (j, i) is ``a_j tau_j0 + b_j - a_i tau_i0 - b_i + c~_i``, where
    (tau_j0, tau_i0) is the realized initial exchange on that arc and
    c~_i the (mixed) compensation value.  Weighting it by
    ``w_ij = gamma * pi_arc[i, j]`` (the off-diagonal entries of the
    expected Laplacian) and setting the sum to zero at every node gives
    the stationary point of the mean dynamics, closed by the recursion's
    conserved quantity:

    * OffsetA: ``s_i = b_i + c_i`` never changes, so ``c_i = s_i - b_i``;
    * OffsetB: the compensation values share one value c~ and
      ``phi^T (b + c)`` keeps its value at the last update, phi being the
      left fixed vector of the expected consensus mixing matrix.

    Returns ``a * beta + b*``.  This is the fixed point of the intact
    recursion whatever ablation the run used, so ablated runs can be
    measured against it; with the compensation pinned at zero, b + c is
    not what the intact recursion conserves, and its start value (zero)
    is used instead.  Arcs that never delivered a message carry no
    initial exchange and are left out; a node with no weighted in-arc
    never updates and keeps its last b.
    """
    offset = result.cfg.offset
    if offset is None:
        raise ValueError("run has no offset correction")
    net = result.net
    tr = result.trace
    if len(tr) == 0:
        raise ValueError("empty trace")
    profile = probability_profile(net)
    n = net.n
    a, b_last, c_last = tr.row(-1)
    w, q = _initial_exchange_terms(result, profile, a)
    d = w.sum(axis=1)
    s = np.zeros(n) if result.cfg.freeze_compensation else b_last + c_last

    if isinstance(offset, OffsetB):
        # unknowns (b, c~): (W - D) b + d c~ = -q and phi^T b + c~ = phi^T s
        phi = left_fixed_vector(consensus_mixing_matrix(net, profile, offset.sigma))
        m = np.zeros((n + 1, n + 1))
        m[:n, :n] = w - np.diag(d)
        m[:n, n] = d
        m[n, :n] = phi
        m[n, n] = 1.0
        rhs = np.append(-q, phi @ s)
    else:
        # c = s - b turns the stationarity condition into (W - 2D) b = -(q + d s)
        m = w - 2.0 * np.diag(d)
        rhs = -(q + d * s)
    idle = np.flatnonzero(d == 0.0)
    m[idle, :] = 0.0
    m[idle, idle] = 1.0
    rhs[idle] = b_last[idle]
    b_star = np.linalg.solve(m, rhs)[:n]
    return a * net.betas() + b_star


@dataclass
class CommonModeDrift:
    """Move of a weighted mean of the corrected offsets over a window of
    updates: observed in the trace, and predicted by the expected
    recursion with the compensation pinned at zero."""

    observed: float
    predicted: float


def frozen_compensation_drift(
    result: SimResult,
    start: int,
) -> CommonModeDrift:
    """Common-mode offset move from trace row ``start`` to the last row
    that the expected recursion predicts when c is pinned at zero.

    Without compensation the innovation on arc (j, i) is
    ``f_j - f_i + e_ji`` with the realized initial bias
    ``e_ji = a_j (tau_j0 - beta_j) - a_i (tau_i0 - beta_i)``, so the
    recursion has no fixed point.  Over the window node i moves by
    ``S_i (L f + r)_i / pi_in_i`` in expectation, where S_i is its offset
    step sum over the window, L the expected Laplacian over the arcs
    that delivered a message, ``r_i = sum_j w_ij e_ji`` and ``pi_in_i`` its per-tick update
    probability.  Weights ``v_i ~ psi_i pi_in_i / S_i``, with psi the left
    null vector of L, cancel L f: the weighted mean ``v^T f`` moves by
    ``psi^T r / sum(v)`` however the offsets spread.  The drift estimates
    are held at their last value.  Raises ``ValueError`` when no
    delivered link has a positive weight (L is zero), or when no node
    that psi weights takes an offset step in the window.
    """
    net = result.net
    tr = result.trace
    if not 0 <= start < len(tr):
        raise ValueError("start row outside the trace")
    profile = probability_profile(net)
    n = net.n
    a, b, _ = tr.row(-1)
    a0, b0, _ = tr.row(start)
    beta = net.betas()
    w, q = _initial_exchange_terms(result, profile, a)
    lap = w - np.diag(w.sum(axis=1))
    r = q - lap @ (a * beta)
    degree = -lap.diagonal().min()
    if not degree > 0.0:
        raise ValueError("no delivered link has a positive weight, so the "
                         "expected Laplacian over them is zero")
    # I + L / max_i d_i is row stochastic with the same left null space
    psi = left_fixed_vector(np.eye(n) + lap / degree)
    nu_start = np.bincount(tr.receiver[: start + 1], minlength=n)
    nu_end = np.bincount(tr.receiver, minlength=n)
    # the update kernel's step table, summed in update order
    steps = result.cfg.steps.offset_steps(int(nu_end.max())).tolist()
    s = np.array([sum(steps[nu_start[i] + 1:nu_end[i] + 1]) for i in range(n)])
    v = np.divide(psi * profile.pi_arc.sum(axis=1), s,
                  out=np.zeros(n), where=s > 0.0)
    total = float(v.sum())
    if total == 0.0:
        raise ValueError(
            f"no psi-weighted node took an offset step between row {start} "
            "and the last row")
    f_move = (a - a0) * beta + b - b0
    return CommonModeDrift(observed=float(v @ f_move) / total,
                           predicted=float(psi @ r) / total)


# ---------------------------------------------------------------------------
# Small fitting helpers shared by demos and acceptance checks
# ---------------------------------------------------------------------------

def loglog_slope(k: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log(y) against log(k), ignoring nonpositive y."""
    mask = (y > 0.0) & (k > 0)
    if mask.sum() < 2:
        return 0.0
    return float(np.polyfit(np.log(k[mask]), np.log(y[mask]), 1)[0])


def geometric_decay_fit(k: np.ndarray, y: np.ndarray, floor: float = 1e-13):
    """Fit log(y) = a + b*k on the stretch above ``floor``.

    Returns (rate b, R^2).  Used to verify at-least-geometric decay in
    the noise-free constant-step regime.
    """
    mask = y > floor
    if mask.sum() < 10:
        return 0.0, 0.0
    # stop at the first point that hits the floor: beyond it the series
    # is numerical noise
    stop = int(np.argmax(~mask)) if (~mask).any() else len(y)
    kk = k[:stop].astype(float)
    yy = np.log(y[:stop])
    b, a = np.polyfit(kk, yy, 1)
    pred = a + b * kk
    ss_res = float(np.sum((yy - pred) ** 2))
    ss_tot = float(np.sum((yy - yy.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return float(b), r2
