"""Interconnect model: injection serialization, contention, bursts."""

from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import CommunicationError
from repro.simmachine.machine import NetworkConfig
from repro.simmachine.network import NetworkModel


def config(**overrides):
    base = dict(
        latency=10e-6,
        byte_time=1e-8,
        injection_byte_time=1e-9,
        per_message_overhead=1e-6,
        contention_coeff=0.0,
        drain_window=0.0,
    )
    base.update(overrides)
    return NetworkConfig(**base)


class TestBasicTiming:
    def test_message_cost_components(self):
        net = NetworkModel(config(), nprocs=4)
        t = net.send_timing(0, 1, nbytes=1000, now=0.0)
        assert t.start == 0.0
        assert t.sender_done == pytest.approx(1e-6 + 1000 * 1e-9)
        assert t.arrival == pytest.approx(t.sender_done + 10e-6 + 1000 * 1e-8)

    def test_zero_byte_message_pays_latency(self):
        net = NetworkModel(config(), nprocs=2)
        t = net.send_timing(0, 1, 0, now=0.0)
        assert t.arrival == pytest.approx(1e-6 + 10e-6)

    def test_self_message_skips_wire(self):
        net = NetworkModel(config(), nprocs=2)
        t = net.send_timing(1, 1, 500, now=0.0)
        assert t.arrival == t.sender_done

    def test_nic_serializes_same_sender(self):
        net = NetworkModel(config(), nprocs=4)
        t1 = net.send_timing(0, 1, 1000, now=0.0)
        t2 = net.send_timing(0, 2, 1000, now=0.0)
        assert t2.start == pytest.approx(t1.sender_done)

    def test_different_senders_do_not_serialize(self):
        net = NetworkModel(config(), nprocs=4)
        net.send_timing(0, 1, 1000, now=0.0)
        t = net.send_timing(1, 2, 1000, now=0.0)
        assert t.start == 0.0

    def test_nic_frees_over_time(self):
        net = NetworkModel(config(), nprocs=2)
        net.send_timing(0, 1, 1000, now=0.0)
        t = net.send_timing(0, 1, 1000, now=1.0)
        assert t.start == 1.0

    def test_statistics(self):
        net = NetworkModel(config(), nprocs=2)
        net.send_timing(0, 1, 100, 0.0)
        net.send_timing(0, 1, 200, 0.0)
        assert net.messages_sent == 2
        assert net.bytes_sent == 300


class TestValidation:
    def test_rank_out_of_range(self):
        net = NetworkModel(config(), nprocs=2)
        with pytest.raises(CommunicationError):
            net.send_timing(0, 5, 10, 0.0)

    def test_negative_bytes(self):
        net = NetworkModel(config(), nprocs=2)
        with pytest.raises(CommunicationError):
            net.send_timing(0, 1, -1, 0.0)

    def test_zero_procs(self):
        with pytest.raises(CommunicationError):
            NetworkModel(config(), nprocs=0)

    def test_burst_count_must_be_positive(self):
        net = NetworkModel(config(), nprocs=2)
        with pytest.raises(CommunicationError):
            net.send_timing(0, 1, 10, 0.0, messages=0)


class TestContention:
    def test_no_contention_without_window(self):
        net = NetworkModel(config(contention_coeff=0.5), nprocs=4)
        for _ in range(10):
            t = net.send_timing(0, 1, 10, 0.0)
        assert t.contention == 1.0

    def test_backlog_raises_latency(self):
        net = NetworkModel(
            config(contention_coeff=0.1, drain_window=1.0), nprocs=4
        )
        first = net.send_timing(0, 1, 10, 0.0)
        assert first.contention == 1.0
        later = net.send_timing(1, 2, 10, 0.0)
        assert later.contention == pytest.approx(1.1)

    def test_backlog_expires_outside_window(self):
        net = NetworkModel(
            config(contention_coeff=0.1, drain_window=1e-3), nprocs=4
        )
        net.send_timing(0, 1, 10, 0.0)
        t = net.send_timing(1, 2, 10, 1.0)
        assert t.contention == 1.0

    def test_drain_clears_backlog(self):
        net = NetworkModel(
            config(contention_coeff=0.1, drain_window=10.0), nprocs=4
        )
        for _ in range(5):
            net.send_timing(0, 1, 10, 0.0)
        net.drain()
        t = net.send_timing(1, 2, 10, 0.0)
        assert t.contention == 1.0

    def test_max_inflight_tracked(self):
        net = NetworkModel(
            config(contention_coeff=0.1, drain_window=10.0), nprocs=4
        )
        for _ in range(7):
            net.send_timing(0, 1, 10, 0.0)
        assert net.max_inflight == 7


class TestBursts:
    def test_burst_pays_overhead_per_message(self):
        net = NetworkModel(config(), nprocs=2)
        t = net.send_timing(0, 1, 1000, 0.0, messages=10)
        assert t.sender_done == pytest.approx(10 * 1e-6 + 1000 * 1e-9)

    def test_burst_counts_toward_contention(self):
        net = NetworkModel(
            config(contention_coeff=0.01, drain_window=1.0), nprocs=4
        )
        net.send_timing(0, 1, 1000, 0.0, messages=50)
        t = net.send_timing(1, 2, 10, 0.0)
        assert t.contention == pytest.approx(1.5)

    def test_burst_counts_in_statistics(self):
        net = NetworkModel(config(), nprocs=2)
        net.send_timing(0, 1, 1000, 0.0, messages=25)
        assert net.messages_sent == 25


class PerMessageBacklog:
    """Reference contention backlog: one start time per message."""

    def __init__(self, window):
        self.window = window
        self.starts = deque()
        self.max_inflight = 0

    def inflight(self, start):
        if self.window <= 0.0:
            return 0
        horizon = start - self.window
        while self.starts and self.starts[0] < horizon:
            self.starts.popleft()
        return len(self.starts)

    def add(self, start, messages):
        if self.window > 0.0:
            self.starts.extend([start] * messages)
            self.max_inflight = max(self.max_inflight, len(self.starts))

    def drain(self):
        self.starts.clear()


#: One ``send_timing(src, dst, nbytes, now, messages)`` call, or a drain.
#: ``now`` is drawn independently per call, so injection starts are not
#: monotone across senders; times on a 1/1024 s grid make a start land
#: exactly on the window's edge.
backlog_ops = st.lists(
    st.one_of(
        st.just("drain"),
        st.tuples(
            st.integers(0, 3),
            st.integers(0, 3),
            st.integers(0, 4000),
            st.one_of(
                st.floats(0.0, 0.01, allow_nan=False, allow_infinity=False),
                st.integers(0, 8).map(lambda k: k / 1024),
            ),
            st.integers(1, 8),
        ),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
# A start exactly on the window's edge; starts out of order across senders.
@example(window=2 / 1024, ops=[(0, 1, 0, 0.0, 3), (1, 2, 0, 2 / 1024, 1)])
@example(
    window=2 / 1024,
    ops=[(0, 1, 0, 3 / 1024, 2), (1, 2, 0, 0.0, 3), (2, 3, 0, 5 / 1024, 1),
         "drain", (3, 0, 0, 5 / 1024, 1), (0, 0, 9, 5 / 1024, 4)],
)
@given(
    window=st.sampled_from([0.0, 1e-4, 1e-3, 2 / 1024, 4e-3]),
    ops=backlog_ops,
)
def test_run_length_backlog_matches_per_message_backlog(window, ops):
    cfg = config(contention_coeff=0.03, drain_window=window)
    net = NetworkModel(cfg, nprocs=4)
    ref = PerMessageBacklog(window)
    for op in ops:
        if op == "drain":
            net.drain()
            ref.drain()
            continue
        src, dst, nbytes, now, messages = op
        t = net.send_timing(src, dst, nbytes, now, messages)
        contention = 1.0 + cfg.contention_coeff * ref.inflight(t.start)
        if src == dst:
            arrival = t.sender_done
        else:
            arrival = t.sender_done + cfg.latency * contention + nbytes * cfg.byte_time
        ref.add(t.start, messages)
        assert t.contention == contention
        assert t.arrival == arrival
        assert net.max_inflight == ref.max_inflight
