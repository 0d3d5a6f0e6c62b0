"""The per-worker clock-offset handshake (repro.obs.clock.ClockSync)."""

import pytest

from repro.obs.clock import ClockSync


class TestClockSync:
    def test_unsynced_maps_to_none(self):
        assert ClockSync().to_parent(1.0) is None

    def test_midpoint_offset_recovers_parent_time(self):
        sync = ClockSync()
        # Parent sends at 10.0, worker's clock reads 3.0 at reply time,
        # parent receives at 10.2: the worker replied at parent-time
        # ~10.1, so offset = 10.1 - 3.0 = 7.1.
        sync.update(worker_clock=3.0, send_pc=10.0, recv_pc=10.2)
        assert sync.offset == pytest.approx(7.1)
        assert sync.rtt == pytest.approx(0.2)
        assert sync.to_parent(3.0) == pytest.approx(10.1)

    def test_lowest_rtt_sample_wins(self):
        sync = ClockSync()
        sync.update(worker_clock=3.0, send_pc=10.0, recv_pc=11.0)  # rtt 1.0
        sync.update(worker_clock=4.0, send_pc=12.0, recv_pc=12.1)  # rtt 0.1
        assert sync.rtt == pytest.approx(0.1)
        assert sync.offset == pytest.approx(12.05 - 4.0)
        # A later, noisier sample must not displace the sharp one.
        sync.update(worker_clock=5.0, send_pc=13.0, recv_pc=14.0)
        assert sync.rtt == pytest.approx(0.1)

    def test_equal_rtt_prefers_the_fresher_sample(self):
        sync = ClockSync()
        sync.update(worker_clock=3.0, send_pc=10.0, recv_pc=10.2)
        sync.update(worker_clock=9.0, send_pc=20.0, recv_pc=20.2)
        assert sync.offset == pytest.approx(20.1 - 9.0)

    def test_window_clamp_guarantees_monotonicity(self):
        """A normalized worker timestamp never escapes the (send, recv)
        bracket of the request that carried it — so re-emitted worker
        events can never appear to precede the parent-side dispatch or
        follow the parent-side receipt that surrounds them."""
        sync = ClockSync()
        sync.update(worker_clock=0.0, send_pc=100.0, recv_pc=100.2)
        window = (200.0, 200.5)
        # Offset maps these far outside the window; the clamp pins them.
        assert sync.to_parent(0.0, window=window) == 200.0
        assert sync.to_parent(1000.0, window=window) == 200.5
        # In-window values pass through unclamped.
        inside = sync.to_parent(100.25, window=window)
        assert 200.0 <= inside <= 200.5

    def test_normalized_sequence_is_monotonic(self):
        """Worker-side ordering survives normalization + clamping."""
        sync = ClockSync()
        sync.update(worker_clock=50.0, send_pc=1000.0, recv_pc=1000.1)
        window = (1000.0, 1000.1)
        worker_times = [49.9, 49.95, 50.0, 50.05, 50.2]
        parent_times = [sync.to_parent(t, window=window)
                        for t in worker_times]
        assert parent_times == sorted(parent_times)
        assert all(window[0] <= t <= window[1] for t in parent_times)

    def test_negative_elapsed_is_floored(self):
        sync = ClockSync()
        sync.update(worker_clock=1.0, send_pc=5.0, recv_pc=4.9)
        assert sync.rtt == 0.0
