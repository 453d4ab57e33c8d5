"""Update rules: step schedules, anchors, link histories and the
receiver state machine of the scalar reference, and the update kernel
checked against it bit for bit."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clocksync import engine, sync
from clocksync.clock import CorrectionState
from clocksync.sync import (
    OUTCOMES,
    DriftA,
    DriftB,
    DriftC,
    OffsetA,
    OffsetB,
    StepSchedule,
    SyncConfig,
    make_reference,
)
from clocksync.topology import GeometricSpec, Network, generate_geometric

from conftest import make_line_network, networks
from sync_oracle import (
    LinkHistory,
    MessagePayload,
    OracleState,
    anchor_index,
    drift_step,
    drift_update,
    offset_step,
    offset_update,
    replay as oracle_replay,
    step_size,
)


class TestVariants:
    def test_drift_a_needs_positive_window(self):
        with pytest.raises(ValueError):
            DriftA(0)

    def test_drift_b_nu_range(self):
        with pytest.raises(ValueError):
            DriftB(0.0)
        with pytest.raises(ValueError):
            DriftB(1.0)

    def test_drift_c_l0_nonnegative(self):
        with pytest.raises(ValueError):
            DriftC(-1)

    @pytest.mark.parametrize("variant, value, name", [
        (DriftA, 2.5, "L"), (DriftA, math.nan, "L"), (DriftA, True, "L"),
        (DriftA, "2", "L"), (DriftC, 0.5, "l0"), (DriftC, math.nan, "l0"),
        (DriftC, True, "l0")],
        ids=["float-L", "nan-L", "bool-L", "string-L", "float-l0", "nan-l0", "bool-l0"])
    def test_drift_index_must_be_an_integer(self, variant, value, name):
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            variant(value)

    def test_drift_index_may_be_a_numpy_integer(self):
        assert DriftA(np.int64(3)) == DriftA(3)
        assert DriftC(np.uint8(2)) == DriftC(2)

    def test_offset_b_sigma_range(self):
        with pytest.raises(ValueError):
            OffsetB(0.0)
        OffsetB(1.0)  # closed at the top


class TestStepSchedule:
    def test_step_size_values(self):
        assert step_size(1, 0.99) == 1.0
        assert step_size(4, 0.5) == pytest.approx(0.5)
        assert step_size(100, 1.0) == pytest.approx(0.01)

    def test_step_size_needs_positive_count(self):
        with pytest.raises(ValueError):
            step_size(0, 0.99)

    def test_zeta_ranges(self):
        with pytest.raises(ValueError):
            StepSchedule(zeta_prime=0.5)
        with pytest.raises(ValueError):
            StepSchedule(zeta_second=1.01)

    def test_drift_zeta_doubles_for_growing_increments(self):
        s = StepSchedule(zeta_prime=0.8)
        assert s.drift_zeta(DriftA(1)) == 0.8
        assert s.drift_zeta(DriftB(0.5)) == pytest.approx(1.8)
        assert s.drift_zeta(DriftC(0)) == pytest.approx(1.8)

    def test_constant_step(self):
        s = StepSchedule(constant_step=0.1)
        assert drift_step(s, 50, DriftA(1)) == 0.1
        # growing increments: constant step divided by the count
        assert drift_step(s, 50, DriftC(0)) == pytest.approx(0.1 / 50)
        assert offset_step(s, 50) == 0.1

    @given(st.integers(1, 10**6), st.floats(0.51, 1.0))
    def test_step_decreasing_in_nu(self, nu, zeta):
        assert step_size(nu + 1, zeta) < step_size(nu, zeta)


class TestAnchorIndex:
    def test_window_variant(self):
        v = DriftA(2)
        assert anchor_index(v, 5) == 3
        assert anchor_index(v, 2) == 0
        assert anchor_index(v, 1) is None          # window not yet full

    def test_receding_variant(self):
        v = DriftB(0.5)
        assert anchor_index(v, 5) == 2
        assert anchor_index(v, 1) == 0

    def test_fixed_variant(self):
        v = DriftC(0)
        assert anchor_index(v, 3) == 0
        assert anchor_index(v, 0) is None
        v2 = DriftC(5)
        assert anchor_index(v2, 5) is None
        assert anchor_index(v2, 6) == 5


class TestLinkHistory:
    def test_window_mode_retention(self):
        h = LinkHistory(DriftA(2))
        for l in range(5):
            h.record(float(l), float(10 + l))
        assert h.count == 5
        assert h.get(0) == (0.0, 10.0)       # initial pair always kept
        assert h.get(4) == (4.0, 14.0)
        assert h.get(3) == (3.0, 13.0)
        assert h.get(2) is None              # fell out of the window
        assert h.stored_pairs() <= 3         # window L plus the initial pair

    def test_growing_mode_keeps_everything(self):
        h = LinkHistory(DriftB(0.5))
        for l in range(10):
            h.record(float(l), float(l))
        assert all(h.get(m) == (float(m), float(m)) for m in range(10))

    def test_fixed_mode_keeps_anchor_only(self):
        h = LinkHistory(DriftC(2))
        for l in range(6):
            h.record(float(l), float(l))
        assert h.get(0) == (0.0, 0.0)
        assert h.get(2) == (2.0, 2.0)
        assert h.get(3) is None
        assert h.stored_pairs() == 2


def _pair_messages(alpha_j, beta_j, alpha_i, beta_i, t0, t1, a_j=1.0):
    """Noiseless reading pairs for sends at absolute times t0 and t1."""
    hist = LinkHistory(DriftA(1))
    hist.record(alpha_j * t0 + beta_j, alpha_i * t0 + beta_i)
    msg = MessagePayload(0, alpha_j * t1 + beta_j, a_j, 0.0, 0.0)
    tau_i_now = alpha_i * t1 + beta_i
    return hist, msg, tau_i_now


class TestDriftUpdate:
    def test_error_matches_corrected_drift_gap(self):
        # noiseless, simultaneous readings: the innovation is exactly
        # (a_j alpha_j - a_i alpha_i) * (t1 - t0)
        hist, msg, tau_now = _pair_messages(1.04, 0.3, 0.96, -0.1,
                                            2.0, 7.0, a_j=1.1)
        a_i = 0.9
        new_a, did = drift_update(a_i, msg, hist, DriftA(1),
                                  eps=0.5, gamma=1.0, tau_i_now=tau_now)
        expected_phi = (1.1 * 1.04 - 0.9 * 0.96) * 5.0
        assert did
        assert new_a == pytest.approx(a_i + 0.5 * expected_phi)

    def test_fixed_point_when_corrected_drifts_equal(self):
        # a_j alpha_j == a_i alpha_i: zero innovation
        hist, msg, tau_now = _pair_messages(1.04, 0.3, 0.96, -0.1,
                                            2.0, 7.0, a_j=0.96)
        a_i = 1.04
        new_a, did = drift_update(a_i, msg, hist, DriftA(1),
                                  eps=0.5, gamma=1.0, tau_i_now=tau_now)
        assert did
        assert new_a == pytest.approx(a_i)

    def test_no_update_before_window_full(self):
        hist = LinkHistory(DriftA(3))
        hist.record(0.0, 0.0)
        msg = MessagePayload(0, 1.0, 1.0, 0.0, 0.0)
        a, did = drift_update(1.0, msg, hist, DriftA(3),
                              eps=1.0, gamma=1.0, tau_i_now=1.0)
        assert not did and a == 1.0


class TestOffsetUpdate:
    def test_identity_b_plus_c_preserved(self):
        # starting from b + c = 0, one plain update keeps b + c = 0 exactly
        hist, msg, tau_now = _pair_messages(1.0, 0.5, 1.0, -0.5, 0.0, 3.0)
        state = CorrectionState(a_hat=1.0, b_hat=0.25, c_hat=-0.25)
        b, c = offset_update(state, msg, hist, OffsetA(), eps=0.3,
                             gamma=1.0, tau_i_now=tau_now, a_i=1.0)
        assert b + c == 0.0

    def test_fixed_point_when_synchronized(self):
        # equal corrected clocks, zero compensation: zero innovation
        hist, msg, tau_now = _pair_messages(1.0, 0.5, 1.0, 0.5, 0.0, 3.0)
        state = CorrectionState()
        b, c = offset_update(state, msg, hist, OffsetA(), eps=0.3,
                             gamma=1.0, tau_i_now=tau_now, a_i=1.0)
        assert b == pytest.approx(0.0)
        assert c == pytest.approx(0.0)

    def test_consensus_mixes_received_c(self):
        hist, msg, tau_now = _pair_messages(1.0, 0.5, 1.0, 0.5, 0.0, 3.0)
        msg = MessagePayload(0, msg.tau_sent, 1.0, 0.0, 2.0)
        state = CorrectionState(c_hat=0.0)
        sigma = 0.25
        b, c = offset_update(state, msg, hist, OffsetB(sigma), eps=0.0,
                             gamma=1.0, tau_i_now=tau_now, a_i=1.0)
        # eps = 0 isolates the convex mixing step
        assert c == pytest.approx(sigma * 0.0 + (1 - sigma) * 2.0)

    def test_frozen_compensation_stays_zero(self):
        hist, msg, tau_now = _pair_messages(1.0, 0.5, 1.0, -0.5, 0.0, 3.0)
        state = CorrectionState(c_hat=0.7)
        _, c = offset_update(state, msg, hist, OffsetA(), eps=0.3,
                             gamma=1.0, tau_i_now=tau_now, a_i=1.0,
                             freeze_compensation=True)
        assert c == 0.0

    def test_no_update_without_initial_pair(self):
        hist = LinkHistory(DriftA(1))
        msg = MessagePayload(0, 1.0, 1.0, 0.0, 0.0)
        state = CorrectionState(b_hat=0.4, c_hat=-0.4)
        b, c = offset_update(state, msg, hist, OffsetA(), eps=1.0,
                             gamma=1.0, tau_i_now=1.0, a_i=1.0)
        assert (b, c) == (0.4, -0.4)


class TestSyncState:
    def test_first_message_records_only(self):
        net = make_line_network()
        st_ = OracleState(net, SyncConfig())
        msg = MessagePayload(0, 1.0, 1.0, 0.0, 0.0)
        rec = st_.process_message(1, msg, 1.1)
        assert rec.first_message
        assert not rec.drift_updated and not rec.offset_updated
        assert st_.est[1].a_hat == 1.0 and st_.est[1].b_hat == 0.0
        assert st_.nu[1] == 1

    def test_second_message_updates(self):
        net = make_line_network()
        st_ = OracleState(net, SyncConfig(drift=DriftA(1)))
        st_.process_message(1, MessagePayload(0, 1.0, 1.0, 0.0, 0.0), 1.1)
        rec = st_.process_message(1, MessagePayload(0, 2.0, 1.0, 0.0, 0.0), 2.0)
        assert rec.drift_updated and rec.offset_updated

    def test_zero_weight_gates_updates(self):
        net = make_line_network(gamma=0.0)
        st_ = OracleState(net, SyncConfig(drift=DriftA(1)))
        st_.process_message(1, MessagePayload(0, 1.0, 1.0, 0.0, 0.0), 1.1)
        rec = st_.process_message(1, MessagePayload(0, 2.0, 1.0, 0.0, 0.0), 2.0)
        assert not rec.drift_updated and not rec.offset_updated
        assert st_.est[1].a_hat == 1.0
        assert st_.nu[1] == 2  # the counter still advances

    def test_nu_counts_every_delivery(self):
        net = make_line_network()
        st_ = OracleState(net, SyncConfig())
        for k in range(5):
            st_.process_message(1, MessagePayload(0, float(k), 1.0, 0.0, 0.0),
                                float(k) + 0.1)
        assert st_.nu == [0, 5]


class TestMakeReference:
    def test_mutes_in_arcs_of_center(self):
        net = generate_geometric(GeometricSpec(8, 0.5, 0.0), seed=1)
        from clocksync.topology import centers
        node = centers(net)[0]
        ref = make_reference(net, node)
        assert all(a.gamma == 0.0 for (j, i), a in ref.arcs.items() if i == node)

    def test_non_center_rejected(self):
        net = make_line_network(two_way=False)  # only arc 0 -> 1
        with pytest.raises(ValueError):
            make_reference(net, 1)

    def test_out_of_range_rejected(self):
        net = make_line_network()
        with pytest.raises(ValueError):
            make_reference(net, 5)


_VARIANTS = [DriftA(1), DriftA(3), DriftB(0.5), DriftB(0.3), DriftC(0), DriftC(4)]


class TestKernelRules:
    """The kernel's vectorized rules against the scalar reference."""

    @pytest.mark.parametrize("variant", _VARIANTS)
    def test_anchor_index_matches_scalar_rule(self, variant):
        l = np.arange(200)
        expected = [anchor_index(variant, x) for x in range(200)]
        assert sync.anchor_index(variant, l).tolist() == [
            -1 if m is None else m for m in expected]

    @pytest.mark.parametrize("steps", [
        StepSchedule(), StepSchedule(zeta_prime=0.6, zeta_second=1.0),
        StepSchedule(constant_step=0.3)])
    @pytest.mark.parametrize("variant", _VARIANTS)
    def test_step_tables_match_per_call_steps(self, steps, variant):
        top = 500
        nus = range(1, top + 1)
        assert steps.drift_steps(variant, top)[1:].tolist() == [
            drift_step(steps, nu, variant) for nu in nus]
        assert steps.offset_steps(top)[1:].tolist() == [
            offset_step(steps, nu) for nu in nus]


@st.composite
def _sync_configs(draw):
    drift = draw(st.one_of(
        st.builds(DriftA, st.integers(1, 5)),
        st.builds(DriftB, st.floats(0.05, 0.95)),
        st.builds(DriftC, st.integers(0, 4))))
    offset = draw(st.one_of(st.just(OffsetA()), st.none(),
                            st.builds(OffsetB, st.floats(0.05, 1.0))))
    steps = StepSchedule(
        zeta_prime=draw(st.floats(0.51, 1.0)),
        zeta_second=draw(st.floats(0.51, 1.0)),
        constant_step=draw(st.one_of(st.none(), st.floats(0.01, 0.6))))
    return SyncConfig(drift=drift, offset=offset, steps=steps,
                      drop_t_terms=draw(st.booleans()),
                      freeze_compensation=draw(st.booleans()))


@st.composite
def _weighted_networks(draw):
    """Random networks whose arcs carry random weights, so that the order
    of the products eps * gamma * phi shows in the last bits."""
    net = draw(networks())
    arcs = {key: arc if arc.gamma == 0.0 else
            replace(arc, gamma=draw(st.floats(0.05, 2.0)))
            for key, arc in net.arcs.items()}
    return Network(net.n, arcs, net.rates, net.clocks, net.positions)


def _bits(rows) -> bytes:
    return np.asarray(rows, dtype=float).reshape(-1, 3).tobytes()


def assert_kernel_matches_oracle(net, cfg, max_updates, horizon, seed):
    """Run the engine and replay the schedule it drew with the scalar
    reference: a, b, c after every delivery, each delivery's update
    count, the final counts and the outcomes agree exactly."""
    seen = {}
    real_schedule, real_replay = engine.build_schedule, engine.replay

    def schedule_spy(*args):
        seen["sched"] = real_schedule(*args)
        return seen["sched"]

    def replay_spy(state, src):
        seen.update(state=state, out=real_replay(state, src))
        return seen["out"]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "build_schedule", schedule_spy)
        mp.setattr(engine, "replay", replay_spy)
        try:
            res = engine.run(net, cfg, max_updates=max_updates,
                             horizon=horizon, seed=seed)
            nu = res.nu.tolist()
        except FloatingPointError:  # a diverging constant step
            nu = None
    state = seen["state"]
    ref = oracle_replay(net, cfg, seen["sched"])
    assert _bits(seen["out"].T) == _bits(ref["rows"])
    assert state.nu.tolist() == ref["nu"]
    assert nu in (None, ref["final_nu"])
    assert [OUTCOMES[code] for code in state.code.tolist()] == [
        sync.Outcome(r.drift_updated, r.offset_updated, r.first_message)
        for r in ref["records"]]


class TestKernelOracle:
    """The update kernel against the scalar state machine."""

    @settings(max_examples=150, deadline=None)
    @given(net=_weighted_networks(), cfg=_sync_configs(),
           updates=st.integers(0, 400), seed=st.integers(0, 2**32 - 1))
    def test_matches_scalar_updates(self, net, cfg, updates, seed):
        assert_kernel_matches_oracle(net, cfg, updates, 200.0, seed)

    @pytest.mark.parametrize("offset", [OffsetA(), OffsetB(0.3), None])
    @pytest.mark.parametrize("drift", [DriftA(2), DriftB(0.5), DriftC(1)])
    def test_ties_and_muted_reference(self, drift, offset):
        # eta_sigma = 0: a tick's deliveries share one time; the muted
        # center's deliveries count in nu but update nothing
        net = generate_geometric(GeometricSpec(8, 0.9, 0.0, eta_sigma=0.0,
                                               p_hear=1.0, delta_bar=1.5), seed=3)
        net = make_reference(net, 0)
        cfg = SyncConfig(drift=drift, offset=offset)
        assert_kernel_matches_oracle(net, cfg, 1500, None, 3)
