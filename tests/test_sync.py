"""Update rules: step schedules, anchors, link histories and the
receiver state machine."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from clocksync.clock import CorrectionState
from clocksync.sync import (
    DriftA,
    DriftB,
    DriftC,
    LinkHistory,
    MessagePayload,
    OffsetA,
    OffsetB,
    StepSchedule,
    SyncConfig,
    SyncState,
    anchor_index,
    drift_update,
    make_reference,
    offset_update,
    step_size,
)
from clocksync.topology import generate_geometric

from conftest import make_line_network


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
        assert s.drift_step(50, DriftA(1)) == 0.1
        # growing increments: constant step divided by the count
        assert s.drift_step(50, DriftC(0)) == pytest.approx(0.1 / 50)
        assert s.offset_step(50) == 0.1

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
        st_ = SyncState(net, SyncConfig())
        msg = MessagePayload(0, 1.0, 1.0, 0.0, 0.0)
        rec = st_.process_message(1, msg, 1.1)
        assert rec.first_message
        assert not rec.drift_updated and not rec.offset_updated
        assert st_.est[1].a_hat == 1.0 and st_.est[1].b_hat == 0.0
        assert st_.nu[1] == 1

    def test_second_message_updates(self):
        net = make_line_network()
        st_ = SyncState(net, SyncConfig(drift=DriftA(1)))
        st_.process_message(1, MessagePayload(0, 1.0, 1.0, 0.0, 0.0), 1.1)
        rec = st_.process_message(1, MessagePayload(0, 2.0, 1.0, 0.0, 0.0), 2.0)
        assert rec.drift_updated and rec.offset_updated

    def test_zero_weight_gates_updates(self):
        net = make_line_network(gamma=0.0)
        st_ = SyncState(net, SyncConfig(drift=DriftA(1)))
        st_.process_message(1, MessagePayload(0, 1.0, 1.0, 0.0, 0.0), 1.1)
        rec = st_.process_message(1, MessagePayload(0, 2.0, 1.0, 0.0, 0.0), 2.0)
        assert not rec.drift_updated and not rec.offset_updated
        assert st_.est[1].a_hat == 1.0
        assert st_.nu[1] == 2  # the counter still advances

    def test_nu_counts_every_delivery(self):
        net = make_line_network()
        st_ = SyncState(net, SyncConfig())
        for k in range(5):
            st_.process_message(1, MessagePayload(0, float(k), 1.0, 0.0, 0.0),
                                float(k) + 0.1)
        assert st_.nu == [0, 5]


class TestMakeReference:
    def test_mutes_in_arcs_of_center(self):
        net = generate_geometric(8, 0.5, 0.0, seed=1)
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
