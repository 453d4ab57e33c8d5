"""Spectral checks, Lyapunov solves, rate bounds, metrics and fitting
helpers, verified against hand-derivable oracles."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clocksync import analysis, engine
from clocksync.analysis import (
    build_B_bar,
    consensus_mixing_matrix,
    first_deliveries,
    fixed_point_residual,
    frozen_compensation_drift,
    geometric_decay_fit,
    increment_stats,
    left_fixed_vector,
    loglog_slope,
    lyapunov_solve,
    metrics,
    offset_fixed_point,
    rate_bound,
    scaled_disagreement,
    spectral_check,
)
from clocksync.sync import (
    DriftA,
    DriftB,
    DriftC,
    OffsetA,
    OffsetB,
    StepSchedule,
    SyncConfig,
    anchor_index,
    make_reference,
)
from clocksync.topology import (
    GeometricSpec,
    centers,
    expected_laplacian,
    generate_geometric,
    probability_profile,
)

from conftest import make_line_network, networks
from sync_oracle import heap_run


def _complete_negative_laplacian(n):
    """-L of the complete graph K_n: eigenvalues 0 (once) and -n (n-1 times)."""
    return np.ones((n, n)) - n * np.eye(n)


class TestSpectralCheck:
    def test_complete_graph_oracle(self):
        rep = spectral_check(_complete_negative_laplacian(4))
        assert rep.zero_multiplicity == 1
        assert rep.hurwitz_ok and rep.ok
        nonzero = sorted(rep.eigenvalues.real)[:3]
        assert nonzero == pytest.approx([-4.0, -4.0, -4.0])
        # the consensus split preserves the nonzero spectrum
        assert sorted(np.linalg.eigvals(rep.B_star).real) == pytest.approx(
            [-4.0, -4.0, -4.0])

    def test_detects_extra_zero(self):
        # block-diagonal (two disconnected components): two zero eigenvalues
        b = np.zeros((4, 4))
        b[:2, :2] = _complete_negative_laplacian(2)
        b[2:, 2:] = _complete_negative_laplacian(2)
        rep = spectral_check(b)
        assert rep.zero_multiplicity == 2
        assert not rep.ok

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(3, 20), seed=st.integers(0, 10_000))
    def test_generated_networks_pass(self, n, seed):
        net = generate_geometric(GeometricSpec(n, 0.4, 0.2), seed=seed)
        rep = spectral_check(build_B_bar(net))
        assert rep.ok


class TestLyapunov:
    def test_scalar_oracle(self):
        # r * (-2) + (-2) * r = -1  =>  r = 1/4
        r = lyapunov_solve(np.array([[-2.0]]), np.array([[1.0]]))
        assert r[0, 0] == pytest.approx(0.25)

    def test_solution_is_spd(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 5))
        b = a - 10 * np.eye(5)  # safely Hurwitz
        r = lyapunov_solve(b, np.eye(5))
        assert np.allclose(r, r.T)
        assert np.all(np.linalg.eigvalsh(r) > 0)

    def test_rejects_non_hurwitz(self):
        with pytest.raises(ValueError):
            lyapunov_solve(np.array([[1.0]]), np.array([[1.0]]))

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            lyapunov_solve(np.array([[-1.0]]), np.array([[-1.0]]))


class TestRateBound:
    def test_exponents_below_one(self):
        # zeta' < 1: the admissible scaled exponent is variant-specific
        net = generate_geometric(GeometricSpec(10, 0.5, 0.1), seed=0)
        zp = 0.99
        assert rate_bound(DriftA(1), zp, net).zeta_d_max == pytest.approx(zp - 0.5)
        assert rate_bound(DriftB(0.5), zp, net).zeta_d_max == pytest.approx(0.5 + zp)
        assert rate_bound(DriftC(0), zp, net).zeta_d_max == pytest.approx(zp)

    def test_zeta_prime_one_uses_lyapunov(self):
        net = generate_geometric(GeometricSpec(10, 0.5, 0.1), seed=1)
        b = rate_bound(DriftA(1), 1.0, net)
        assert 0.0 < b.d_max <= 0.5
        assert b.r > 0.0

    def test_reuses_given_spectral_report(self, monkeypatch):
        # the report's own check, passed in, replaces a second eigenvalue solve
        net = generate_geometric(GeometricSpec(10, 0.5, 0.1), seed=1)
        for variant in (DriftA(1), DriftB(0.5)):
            zeta = StepSchedule(zeta_prime=1.0).drift_zeta(variant)
            rep = spectral_check(build_B_bar(net, zeta=zeta))
            expected = rate_bound(variant, 1.0, net)
            with monkeypatch.context() as mp:
                mp.setattr(analysis, "spectral_check", None)
                assert rate_bound(variant, 1.0, net, report=rep) == expected

    def test_q_constants(self):
        net = generate_geometric(GeometricSpec(10, 0.5, 0.1), seed=2)
        mu_c = float(net.rates.sum())
        assert rate_bound(DriftC(0), 0.99, net).q == pytest.approx(1.0 / mu_c)
        assert rate_bound(DriftB(0.25), 0.99, net).q == pytest.approx(0.75 / mu_c)


class TestIncrementStats:
    def test_mean_matches_thinned_poisson(self):
        # Lemma-3 style check at unit scale: mean inter-reception time on
        # one arc is (l - m) / (mu_j * p_hear)
        net = generate_geometric(GeometricSpec(6, 0.7, 0.0), seed=3)
        res = engine.run(net, SyncConfig(drift=DriftA(1), offset=None),
                         max_updates=30000, seed=3)
        # fixed arc: selecting e.g. the busiest arc would bias the gaps low
        arc = net.table.ends()[0]
        stats = increment_stats(res, arc)
        assert stats.mean == pytest.approx(stats.expected_mean, rel=0.05)

    @pytest.mark.parametrize("pair", [(1, 0), (0, 0), (0, 2), (1, -1), (-1, 3)])
    def test_pair_that_is_not_an_arc_rejected(self, pair):
        # the only arc is 0 -> 1, whose code sender * n + receiver is 1, as
        # are the codes of (1, -1) and (-1, 3)
        net = make_line_network(two_way=False)
        res = engine.run(net, SyncConfig(drift=DriftA(1)), max_updates=50, seed=0)
        with pytest.raises(ValueError, match=rf"\({pair[0]}, {pair[1]}\) is not an arc"):
            increment_stats(res, pair)


class TestMetrics:
    def test_derived_quantities(self):
        net = generate_geometric(GeometricSpec(5, 0.7, 0.0), seed=4)
        res = engine.run(net, SyncConfig(), max_updates=50, seed=4)
        m = metrics(res)
        alpha, beta = net.alphas(), net.betas()
        k = 17
        g = res.trace.a_hat[k] * alpha
        f = res.trace.a_hat[k] * beta + res.trace.b_hat[k]
        assert m.g_hat[k] == pytest.approx(g)
        assert m.f_hat[k] == pytest.approx(f)
        assert m.drift_spread[k] == pytest.approx(g.max() - g.min())
        assert m.msd[k] == pytest.approx(g.var())
        vc = g * res.trace.t[k] + f
        assert m.vclock_gap[k] == pytest.approx(vc.max() - vc.min())

    def test_scaled_disagreement(self):
        net = generate_geometric(GeometricSpec(5, 0.7, 0.0), seed=4)
        m = metrics(engine.run(net, SyncConfig(), max_updates=20, seed=4))
        sd = scaled_disagreement(m, 1.0)
        assert sd == pytest.approx(m.k.astype(float) ** 2 * m.msd)
        with pytest.raises(ValueError):
            scaled_disagreement(m, 0.0)


class TestConsensusMixing:
    def test_row_stochastic(self):
        net = generate_geometric(GeometricSpec(8, 0.5, 0.1), seed=5)
        c = consensus_mixing_matrix(net, probability_profile(net), 0.5)
        assert np.allclose(c.sum(axis=1), 1.0)
        assert np.all(c >= 0.0)

    def test_sigma_one_is_identity(self):
        net = generate_geometric(GeometricSpec(8, 0.5, 0.1), seed=5)
        c = consensus_mixing_matrix(net, probability_profile(net), 1.0)
        assert np.allclose(c, np.eye(8))

    @settings(max_examples=100, deadline=None)
    @given(drawn=networks(), data=st.data())
    def test_matches_an_arc_loop(self, drawn, data):
        # the reference updates c arc by arc in (sender, receiver) order,
        # the order of the table's rows
        net, arcs = drawn
        sigma = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=net.n,
                                            max_size=net.n)))
        profile = probability_profile(net)
        ref = np.eye(net.n)
        for j, i in sorted(arcs):
            w = profile.pi_arc[i, j] / profile.n_bar
            ref[i, i] -= w * (1.0 - sigma[i])
            ref[i, j] += w * (1.0 - sigma[i])
        assert consensus_mixing_matrix(net, profile, sigma).tobytes() == ref.tobytes()

    def test_left_fixed_vector(self):
        net = generate_geometric(GeometricSpec(8, 0.5, 0.1), seed=6)
        c = consensus_mixing_matrix(net, probability_profile(net), 0.5)
        phi = left_fixed_vector(c)
        assert phi.sum() == pytest.approx(1.0)
        assert phi @ c == pytest.approx(phi)


class TestFixedPointResidual:
    def test_empty_trace_rejected(self):
        net = generate_geometric(GeometricSpec(5, 0.7, 0.0), seed=7)
        res = engine.run(net, SyncConfig(), max_updates=0, seed=7)
        with pytest.raises(ValueError):
            fixed_point_residual(res)

    def test_reports_convergence_flag(self):
        net = generate_geometric(
            GeometricSpec(8, 0.5, 0.1, eta_sigma=0.0, xi_sigma=0.0), seed=8)
        res = engine.run(net, SyncConfig(drift=DriftA(100), offset=OffsetA()),
                         max_updates=20000, seed=8)
        rep = fixed_point_residual(res)
        assert np.isfinite(rep.residual)
        assert rep.h_star.shape == (16,)


def _line_run(offset, updates=5000, **cfg):
    net = make_line_network()
    return engine.run(net, SyncConfig(drift=DriftA(1), offset=offset, **cfg),
                      max_updates=updates, seed=0)


def _initial_bias(res):
    """e_i = a_j tau_j0 - a_i tau_i0 on the single in-arc (j, i) of node i."""
    tr = res.trace
    a = tr.a_hat[-1]
    e = np.zeros(2)
    for r in first_deliveries(tr):
        j, i = tr.sender[r], tr.receiver[r]
        e[i] = a[j] * tr.tau_sent[r] - a[i] * tr.tau_recv[r]
    return a, e


class TestOffsetFixedPoint:
    def test_line_offset_a_hand_solution(self):
        # equal weights w on both arcs and c_i = s_i - b_i:
        #   b_1 - 2 b_0 = -(e_0 + s_0),  b_0 - 2 b_1 = -(e_1 + s_1)
        res = _line_run(OffsetA())
        a, e = _initial_bias(res)
        big_e = e + res.trace.b_hat[-1] + res.trace.c_hat[-1]
        b = np.array([2 * big_e[0] + big_e[1], big_e[0] + 2 * big_e[1]]) / 3
        f_star = offset_fixed_point(res)
        assert f_star == pytest.approx(a * res.net.betas() + b, abs=1e-12)

    def test_line_offset_b_hand_solution(self):
        #   b_1 - b_0 + c = -e_0,  b_0 - b_1 + c = -e_1,
        #   (b_0 + b_1) / 2 + c = mean(b + c) at the last update
        res = _line_run(OffsetB(0.5))
        a, e = _initial_bias(res)
        c = -(e[0] + e[1]) / 2
        mean_b = np.mean(res.trace.b_hat[-1] + res.trace.c_hat[-1]) - c
        half_gap = (e[1] - e[0]) / 4
        b = np.array([mean_b - half_gap, mean_b + half_gap])
        f_star = offset_fixed_point(res)
        assert f_star == pytest.approx(a * res.net.betas() + b, abs=1e-12)

    @pytest.mark.parametrize("offset", [OffsetA(), OffsetB(0.5)])
    def test_noiseless_line_run_settles_on_it(self, offset):
        res = _line_run(offset, updates=20000)
        f = metrics(res).f_hat
        f_star = offset_fixed_point(res)
        near_end = np.abs(f[-1] - f_star).max()
        assert near_end < 1e-4
        assert near_end < 0.2 * np.abs(f[len(f) // 10] - f_star).max()

    @pytest.mark.parametrize("offset", [OffsetA(), OffsetB(0.5)])
    def test_expected_innovation_vanishes(self, offset):
        net = generate_geometric(GeometricSpec(6, 0.6, 0.2), seed=11)
        res = engine.run(net, SyncConfig(drift=DriftA(10), offset=offset),
                         max_updates=3000, seed=11)
        profile = probability_profile(net)
        lap = expected_laplacian(net, profile)
        a = res.trace.a_hat[-1]
        s = res.trace.b_hat[-1] + res.trace.c_hat[-1]
        b = offset_fixed_point(res) - a * net.betas()
        if isinstance(offset, OffsetB):
            phi = left_fixed_vector(
                consensus_mixing_matrix(net, profile, offset.sigma))
            c = np.full(net.n, phi @ s - phi @ b)
        else:
            c = s - b
        tr = res.trace
        first = first_deliveries(tr)
        innovation = np.zeros(net.n)
        for r in first:
            j, i = tr.sender[r], tr.receiver[r]
            innovation[i] += lap[i, j] * (
                a[j] * tr.tau_sent[r] + b[j]
                - a[i] * tr.tau_recv[r] - b[i] + c[i])
        assert len(first) == len(net.table.arc)
        assert np.abs(innovation).max() <= 1e-12

    def test_ablations_share_the_intact_fixed_point(self):
        # common noise: the drift estimates and initial exchanges match,
        # so every ablation is measured against the same target
        intact = offset_fixed_point(_line_run(OffsetA()))
        for cfg in ({"drop_t_terms": True}, {"freeze_compensation": True}):
            assert offset_fixed_point(_line_run(OffsetA(), **cfg)) == (
                pytest.approx(intact, abs=1e-12))

    def test_needs_offset_correction(self):
        with pytest.raises(ValueError):
            offset_fixed_point(_line_run(None, updates=100))


class TestFrozenCompensationDrift:
    def test_prediction_matches_frozen_run(self):
        res = _line_run(OffsetA(), freeze_compensation=True)
        drift = frozen_compensation_drift(res, 500)
        assert drift.predicted < 0.0
        assert drift.observed == pytest.approx(drift.predicted, rel=0.01)

    def test_intact_run_does_not_drift(self):
        res = _line_run(OffsetA())
        drift = frozen_compensation_drift(res, 500)
        assert abs(drift.observed) < 0.01 * abs(drift.predicted)

    def test_start_row_checked(self):
        res = _line_run(OffsetA(), updates=100)
        with pytest.raises(ValueError):
            frozen_compensation_drift(res, 100)

    def test_window_without_offset_steps(self):
        net = generate_geometric(GeometricSpec(2, 1.0), seed=0)
        res = engine.run(net, SyncConfig(freeze_compensation=True),
                         max_updates=1, seed=0)
        with pytest.raises(ValueError, match="no psi-weighted node took an offset step"):
            frozen_compensation_drift(res, 0)

    def test_every_delivered_link_muted(self):
        # the only arc has weight 0: the expected Laplacian is all zeros,
        # so it has no largest degree to scale by
        net = make_line_network(gamma=0.0, two_way=False)
        res = engine.run(net, SyncConfig(offset=OffsetA()), max_updates=50, seed=0)
        with pytest.raises(ValueError, match="no delivered link has a positive weight"):
            frozen_compensation_drift(res, 10)


# ---------------------------------------------------------------------------
# The trace readers against per-link records, bit for bit
# ---------------------------------------------------------------------------

def _link_records(rows):
    """From the heap oracle's rows: each link's send times in order, and
    its initial exchange (t_send, t_recv, tau_sender, tau_receiver), the
    links in first-delivery order."""
    send_times, initials = {}, {}
    for t, i, j, t_send, tau_sent, tau_recv, *_ in rows:
        send_times.setdefault((j, i), []).append(t_send)
        initials.setdefault((j, i), (t_send, t, tau_sent, tau_recv))
    return send_times, initials


def _ref_initial_noise_means(initials, arcs):
    """``analysis._initial_noise_means`` summed link by link over the
    records, with the per-arc values of the test's ``arcs``."""
    def means(result, profile):
        net = result.net
        alpha, beta = net.alphas(), net.betas()
        w_in, xi0, eta0, delta0 = (np.zeros(net.n) for _ in range(4))
        for (j, i), (t_send, t_recv, _, tau_receiver) in initials.items():
            arc = arcs[(j, i)]
            w = arc.gamma * profile.pi_arc[i, j]
            w_in[i] += w
            xi0[i] += w * (tau_receiver - (alpha[i] * t_recv + beta[i]))
            eta0[i] += w * ((t_recv - t_send) - arc.delay.delta_bar)
            delta0[i] += w * arc.delay.delta_bar
        nz = w_in > 0.0
        for v in (xi0, eta0, delta0):
            v[nz] /= w_in[nz]
        return xi0, eta0, delta0
    return means


def _ref_initial_exchange_terms(initials):
    """``analysis._initial_exchange_terms`` summed link by link over the
    records."""
    def terms(result, profile, a):
        lap = expected_laplacian(result.net, profile)
        w = np.zeros_like(lap)
        q = np.zeros(result.net.n)
        for (j, i), (_, _, tau_sender, tau_receiver) in initials.items():
            w[i, j] = lap[i, j]
            q[i] += w[i, j] * (a[j] * tau_sender - a[i] * tau_receiver)
        return w, q
    return terms


def _ref_increment_stats(result, arc, p_hear, times):
    """``increment_stats`` over one link's recorded send times."""
    rate = float(result.net.rates[arc[0]]) * p_hear
    l = np.arange(1, len(times))
    m = anchor_index(result.cfg.drift, l)
    l, m = l[m >= 0], m[m >= 0]
    if len(l) == 0:
        raise ValueError("not enough receptions on this arc")
    times = np.array(times)
    deltas = times[l] - times[m]
    return analysis.IncrementStats(mean=float(deltas.mean()), var=float(deltas.var()),
                                   expected_mean=float(np.mean(l - m) / rate),
                                   samples=len(deltas))


def _bits(value):
    """A value's exact bits: per field of a dataclass, the bytes of an
    array, the repr of anything else (exact for a float)."""
    if dataclasses.is_dataclass(value):
        return tuple(_bits(v) for v in vars(value).values())
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return repr(value)


def _outcome(fn, *args):
    """``fn(*args)`` as bits, or the exception it raised."""
    try:
        return _bits(fn(*args))
    except Exception as exc:  # noqa: BLE001 - both sides must fail alike
        return type(exc).__name__, str(exc)


def _readers(res, arcs, stats):
    """Outcome of every reader of the initial exchanges and the send
    times, with ``stats(res, arc)`` for the increment statistics of each
    of ``arcs``."""
    start = len(res.trace) // 2
    return [_outcome(fixed_point_residual, res), _outcome(offset_fixed_point, res),
            _outcome(frozen_compensation_drift, res, start),
            *(_outcome(stats, res, arc) for arc in arcs)]


class TestReadersMatchLinkRecords:
    """The analysis reads each link's send times and initial exchange
    from the trace's columns; the same formulas over per-link records
    built from the heap oracle give the same bits."""

    @settings(max_examples=60, deadline=None)
    @given(drawn=networks(),
           drift=st.sampled_from([DriftA(1), DriftA(4), DriftB(0.5), DriftC(0), DriftC(2)]),
           offset=st.sampled_from([OffsetA(), OffsetB(0.5), None]),
           freeze=st.booleans(), updates=st.integers(1, 300),
           seed=st.integers(0, 2**32 - 1))
    def test_bit_for_bit(self, drawn, drift, offset, freeze, updates, seed):
        net, arcs = drawn
        cfg = SyncConfig(drift=drift, offset=offset, freeze_compensation=freeze)
        res = engine.run(net, cfg, max_updates=updates, seed=seed)
        send_times, initials = _link_records(
            heap_run(net, arcs, cfg, max_updates=updates, seed=seed)["rows"])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_initial_noise_means",
                       _ref_initial_noise_means(initials, arcs))
            mp.setattr(analysis, "_initial_exchange_terms",
                       _ref_initial_exchange_terms(initials))
            expected = _readers(res, arcs, lambda r, arc: _ref_increment_stats(
                r, arc, arcs[arc].p_hear, send_times.get(arc, [])))
        assert _readers(res, arcs, increment_stats) == expected


class TestFlooding:
    def test_reference_b_bar_admissible(self):
        net = generate_geometric(GeometricSpec(8, 0.5, 0.0), seed=9)
        ref = make_reference(net, centers(net)[0])
        rep = spectral_check(build_B_bar(ref))
        assert rep.ok


class TestFittingHelpers:
    def test_loglog_slope_power_law(self):
        k = np.arange(1, 200)
        assert loglog_slope(k, k ** -2.0) == pytest.approx(-2.0)

    def test_loglog_slope_ignores_nonpositive(self):
        k = np.arange(1, 100)
        y = k ** -1.0
        y[::7] = 0.0
        assert loglog_slope(k, y) == pytest.approx(-1.0)

    def test_geometric_fit_oracle(self):
        k = np.arange(1, 300)
        rate, r2 = geometric_decay_fit(k, np.exp(-0.1 * k))
        assert rate == pytest.approx(-0.1)
        assert r2 > 0.999

    def test_geometric_fit_stops_at_floor(self):
        k = np.arange(1, 500)
        y = np.exp(-0.2 * k)
        y[200:] = 1e-16  # numerical floor
        rate, r2 = geometric_decay_fit(k, y, floor=1e-13)
        assert rate == pytest.approx(-0.2, rel=1e-3)
        assert r2 > 0.999
