"""Point-to-point messaging: matching, ordering, blocking semantics."""

import pytest

from repro.errors import CommunicationError, DeadlockError
from repro.simmpi.comm import COLL_TAG_BASE
from tests.conftest import make_machine


def run(machine, program):
    return machine.run(program)


class Rank(int):
    """An ``int`` subclass: accepted as a peer like a plain ``int``."""


def exercise(comm, op, peer, tag, collective):
    """One point-to-point operation of kind ``op``, run to completion."""
    if op == "isend":
        yield from comm.wait(comm.isend(peer, 8, tag, _collective=collective))
    elif op == "irecv":
        yield from comm.wait(comm.irecv(peer, tag, _collective=collective))
    elif op == "send":
        yield from comm.send(peer, 8, tag, _collective=collective)
    elif op == "recv":
        yield from comm.recv(peer, tag, _collective=collective)
    else:
        yield from comm.sendrecv(peer, 8, send_tag=tag, _collective=collective)


#: The operation rank 1 runs to match rank 0's ``op``.
MIRROR = {
    "isend": "recv", "send": "recv", "irecv": "send", "recv": "send",
    "sendrecv": "sendrecv",
}


class TestSendRecv:
    def test_payload_delivered(self, machine4):
        received = {}

        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0:
                yield from comm.send(1, 100, tag=5, payload={"x": 1})
            elif comm.rank == 1:
                received["msg"] = yield from comm.recv(0, tag=5)

        run(machine4, program)
        assert received["msg"] == {"x": 1}

    def test_recv_before_send(self, machine4):
        """Posting the receive first must not deadlock."""
        got = []

        def program(ctx):
            comm = ctx.comm
            if comm.rank == 1:
                got.append((yield from comm.recv(0, tag=1)))
            elif comm.rank == 0:
                yield ctx.sim.timeout(1e-3)  # make rank 1 wait
                yield from comm.send(1, 10, tag=1, payload="late")

        run(machine4, program)
        assert got == ["late"]

    def test_fifo_per_channel(self, machine4):
        order = []

        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0:
                for i in range(5):
                    yield from comm.send(1, 10, tag=2, payload=i)
            elif comm.rank == 1:
                for _ in range(5):
                    order.append((yield from comm.recv(0, tag=2)))

        run(machine4, program)
        assert order == [0, 1, 2, 3, 4]

    def test_tags_demultiplex(self, machine4):
        got = {}

        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0:
                yield from comm.send(1, 10, tag=7, payload="seven")
                yield from comm.send(1, 10, tag=8, payload="eight")
            elif comm.rank == 1:
                # Receive in the opposite order of sending.
                got["eight"] = yield from comm.recv(0, tag=8)
                got["seven"] = yield from comm.recv(0, tag=7)

        run(machine4, program)
        assert got == {"eight": "eight", "seven": "seven"}

    def test_sources_demultiplex(self, machine4):
        got = {}

        def program(ctx):
            comm = ctx.comm
            if comm.rank in (0, 2):
                yield from comm.send(1, 10, tag=1, payload=f"from{comm.rank}")
            elif comm.rank == 1:
                got[2] = yield from comm.recv(2, tag=1)
                got[0] = yield from comm.recv(0, tag=1)

        run(machine4, program)
        assert got == {0: "from0", 2: "from2"}

    def test_self_send(self, machine4):
        got = []

        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0:
                yield from comm.send(0, 10, tag=3, payload="me")
                got.append((yield from comm.recv(0, tag=3)))

        run(machine4, program)
        assert got == ["me"]

    def test_recv_arrival_time_respects_latency(self, machine4):
        times = {}

        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0:
                yield from comm.send(1, 1000, tag=1)
            elif comm.rank == 1:
                yield from comm.recv(0, tag=1)
                times["recv_done"] = ctx.sim.now

        run(machine4, program)
        net = machine4.config.network
        assert times["recv_done"] >= net.latency


class TestNonBlocking:
    def test_isend_returns_immediately(self, machine4):
        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0:
                req = comm.isend(1, 10, tag=1, payload="x")
                assert not req.complete
                yield from comm.wait(req)
                assert req.complete
            elif comm.rank == 1:
                yield from comm.recv(0, tag=1)

        run(machine4, program)

    def test_waitall_gathers_payloads(self, machine4):
        got = []

        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0:
                for peer in (1, 2, 3):
                    yield from comm.send(peer, 10, tag=4, payload=peer * 10)
            else:
                req = comm.irecv(0, tag=4)
                values = yield from comm.waitall([req])
                got.append(values[0])

        run(machine4, program)
        assert sorted(got) == [10, 20, 30]

    def test_request_payload_property(self, machine4):
        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0:
                yield from comm.send(1, 10, tag=1, payload="v")
            elif comm.rank == 1:
                req = comm.irecv(0, tag=1)
                assert req.payload is None or req.payload == "v"
                yield from comm.wait(req)
                assert req.payload == "v"

        run(machine4, program)

    def test_sendrecv_exchanges(self, machine4):
        got = {}

        def program(ctx):
            comm = ctx.comm
            peer = comm.rank ^ 1
            got[comm.rank] = yield from comm.sendrecv(
                peer, 10, send_tag=6, payload=comm.rank
            )

        run(machine4, program)
        assert got == {0: 1, 1: 0, 2: 3, 3: 2}

    def test_wait_accounts_wait_time(self, machine4):
        def program(ctx):
            comm = ctx.comm
            ctx.set_label("k")
            if comm.rank == 1:
                yield from comm.recv(0, tag=1)
            elif comm.rank == 0:
                yield ctx.sim.timeout(1e-2)
                yield from comm.send(1, 10, tag=1)

        run(machine4, program)
        waited = machine4.contexts[1].counters["k"].wait_time
        assert waited >= 1e-2


class TestErrors:
    def test_unmatched_recv_deadlocks(self, machine4):
        def program(ctx):
            if ctx.comm.rank == 0:
                yield from ctx.comm.recv(1, tag=9)
            else:
                yield ctx.sim.timeout(0.0)

        with pytest.raises(DeadlockError) as exc:
            run(machine4, program)
        assert any("0" in name for name in exc.value.blocked)

    def test_bad_peer_rejected(self, machine4):
        def program(ctx):
            yield from ctx.comm.send(99, 10)

        with pytest.raises(CommunicationError):
            run(machine4, program)

    def test_wildcard_source_rejected(self, machine4):
        def program(ctx):
            yield from ctx.comm.recv(-1)

        with pytest.raises(CommunicationError, match="wildcard"):
            run(machine4, program)

    def test_user_tag_in_collective_space_rejected(self, machine4):
        def program(ctx):
            yield from ctx.comm.send(0, 10, tag=COLL_TAG_BASE + 1)

        with pytest.raises(CommunicationError, match="user tags"):
            run(machine4, program)

    def test_negative_tag_rejected(self, machine4):
        def program(ctx):
            yield from ctx.comm.send(0, 10, tag=-1)

        with pytest.raises(CommunicationError):
            run(machine4, program)

    def test_unreceived_message_detectable(self, quiet_config):
        machine = make_machine(quiet_config, 2)
        world = machine.contexts[0].comm.world

        def program(ctx):
            if ctx.comm.rank == 0:
                yield from ctx.comm.send(1, 10, tag=1)
            else:
                yield ctx.sim.timeout(0.0)

        machine.run(program)
        assert world.unmatched_messages() == 1


class TestWaitany:
    def test_returns_first_arrival(self, machine4):
        results = []

        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0:
                r1 = comm.irecv(1, tag=1)
                r2 = comm.irecv(2, tag=1)
                idx, val = yield from comm.waitany([r1, r2])
                results.append((idx, val))
                # Drain the other request so nothing leaks.
                yield from comm.waitall([r1 if idx == 1 else r2])
            elif comm.rank == 1:
                yield ctx.sim.timeout(1e-2)
                yield from comm.send(0, 10, tag=1, payload="slow")
            elif comm.rank == 2:
                yield from comm.send(0, 10, tag=1, payload="fast")
            else:
                yield ctx.sim.timeout(0.0)

        run(machine4, program)
        assert results == [(1, "fast")]


OPS = ("isend", "irecv", "send", "recv", "sendrecv")


class TestPeerAndTagChecks:
    """Every point-to-point entry raises the same typed errors."""

    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize(
        "peer, tag, collective, message",
        [
            (99, 0, False, "rank 99 out of range for communicator of size 4"),
            (-1, 0, False,
             "negative rank -1 (wildcard receives are not supported)"),
            (True, 0, False, "rank must be an int, got True"),
            (1.0, 0, False, "rank must be an int, got 1.0"),
            (1, -1, False, "negative tag -1"),
            (1, -1, True, "negative tag -1"),
            (1, COLL_TAG_BASE + 1, False,
             f"user tags must be < {COLL_TAG_BASE}, got {COLL_TAG_BASE + 1}"),
            (Rank(1), 0, False, None),
            (1, COLL_TAG_BASE + 1, True, None),
        ],
    )
    def test_checks(self, machine4, op, peer, tag, collective, message):
        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0:
                yield from exercise(comm, op, peer, tag, collective)
            elif comm.rank == 1 and message is None:
                yield from exercise(comm, MIRROR[op], 0, tag, collective)
            else:
                yield ctx.sim.timeout(0.0)

        if message is None:
            run(machine4, program)
            assert machine4.contexts[0].comm.world.unmatched_messages() == 0
        else:
            with pytest.raises(CommunicationError) as exc:
                run(machine4, program)
            assert str(exc.value) == message


class TestLabelCounters:
    """Per-label accounting through every blocking and nonblocking path."""

    @staticmethod
    def program(blocking):
        def send(comm, dest, nbytes, tag):
            if blocking:
                yield from comm.send(dest, nbytes, tag)
            else:
                yield from comm.wait(comm.isend(dest, nbytes, tag))

        def recv(comm, source, tag):
            if blocking:
                return (yield from comm.recv(source, tag))
            return (yield from comm.wait(comm.irecv(source, tag)))

        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0:
                ctx.set_label("A")
                yield from send(comm, 1, 100, tag=1)
                ctx.set_label("B")
                yield from recv(comm, 1, tag=2)
                ctx.set_label("IDLE")
                ctx.set_label("A")
                yield from send(comm, 1, 40, tag=3)
            elif comm.rank == 1:
                ctx.set_label("B")
                yield from recv(comm, 0, tag=1)
                yield ctx.sim.timeout(1e-3)
                ctx.set_label("A")
                yield from send(comm, 0, 10, tag=2)
                ctx.set_label("C")
                yield from recv(comm, 0, tag=3)
            else:
                yield ctx.sim.timeout(0.0)

        return program

    def test_counters_follow_the_label(self, quiet_config):
        machine = make_machine(quiet_config, 4)
        machine.run(self.program(blocking=True))
        rank0, rank1 = (machine.contexts[r].counters for r in (0, 1))
        assert (rank0["A"].messages_sent, rank0["A"].bytes_sent) == (2, 140)
        assert (rank0["B"].messages_sent, rank0["B"].bytes_sent) == (0, 0)
        assert (rank1["A"].messages_sent, rank1["A"].bytes_sent) == (1, 10)
        # Rank 0 waits in B for rank 1's reply, sent 1 ms after its receive.
        assert rank0["B"].wait_time > 1e-3
        assert rank1["B"].wait_time > 0.0
        assert rank1["C"].wait_time > 0.0
        assert rank0["A"].wait_time > 0.0  # buffered sends wait for injection
        # A label with no activity never gets counters.
        assert machine.all_labels() == ["A", "B", "C"]

    def test_blocking_and_nonblocking_paths_agree(self, quiet_config):
        machines = [make_machine(quiet_config, 4) for _ in range(2)]
        for machine, blocking in zip(machines, (True, False)):
            machine.run(self.program(blocking))
        blocking, nonblocking = machines
        assert blocking.all_labels() == nonblocking.all_labels()
        for a, b in zip(blocking.contexts, nonblocking.contexts):
            assert a.counters == b.counters
