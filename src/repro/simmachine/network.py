"""Interconnect timing model.

The model is timestamp-based rather than resource-based for speed: the
simulated MPI layer asks :meth:`NetworkModel.send_timing` for the two times
that matter — when the *sender* is free again (injection complete; sends are
buffered) and when the message *arrives* at the destination — and turns them
into engine events itself.

Three cost components:

* **injection** — the sender's adapter serializes its own messages
  (``per_message_overhead + nbytes * injection_byte_time``, starting no
  earlier than the adapter is free);
* **transfer** — ``latency * (1 + contention_coeff * inflight) + nbytes *
  byte_time``;
* **contention** — ``inflight`` counts messages injected machine-wide in
  the last ``drain_window`` seconds. Back-to-back kernels therefore see
  each other's message backlog, which running each kernel alone (with the
  harness draining between iterations) does not — the destructive coupling
  mechanism for communication-dominated configurations.

The backlog is stored run-length encoded: one ``(start, count)`` entry per
burst plus a running total. Every message of a burst shares one ``start``,
so a burst leaves the window whole or stays whole, and popping whole runs
gives the same counts as keeping one entry per message.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from repro.errors import CommunicationError
from repro.simmachine.machine import NetworkConfig

__all__ = ["MessageTiming", "NetworkModel"]


class MessageTiming(NamedTuple):
    """Times computed for one message."""

    start: float        # when injection began (adapter became available)
    sender_done: float  # when the sender may continue (buffered send)
    arrival: float      # when the payload is available at the destination
    contention: float   # the latency multiplier that was applied, >= 1


class NetworkModel:
    """Shared network state for one simulated machine instance."""

    def __init__(self, config: NetworkConfig, nprocs: int) -> None:
        if nprocs < 1:
            raise CommunicationError(f"network needs >= 1 proc, got {nprocs}")
        self.config = config
        self.nprocs = nprocs
        self._nic_free = [0.0] * nprocs
        # Contention backlog: (start, messages) per burst, oldest first,
        # and the number of messages it holds.
        self._runs: deque[tuple[float, int]] = deque()
        self._backlog = 0
        # Aggregate statistics (read by the profiler).
        self.messages_sent = 0
        self.bytes_sent = 0
        self.max_inflight = 0

    # -- API used by simmpi --------------------------------------------------

    def send_timing(
        self, src: int, dst: int, nbytes: int, now: float, messages: int = 1
    ) -> MessageTiming:
        """Compute the timing of one message injected at simulated time ``now``.

        ``messages > 1`` models a *burst* of that many back-to-back small
        messages totalling ``nbytes`` (the LU wavefront sends one burst per
        grid plane instead of one engine event per 5-word message): the
        burst pays the per-message overhead ``messages`` times and counts
        ``messages`` times toward contention, but is simulated as a single
        event.
        """
        if not (0 <= src < self.nprocs and 0 <= dst < self.nprocs):
            raise CommunicationError(
                f"message {src}->{dst} outside 0..{self.nprocs - 1}"
            )
        if nbytes < 0:
            raise CommunicationError(f"negative message size {nbytes}")
        if messages < 1:
            raise CommunicationError(f"message burst count must be >= 1, got {messages}")
        cfg = self.config
        nic_free = self._nic_free[src]
        start = nic_free if nic_free > now else now
        inject = messages * cfg.per_message_overhead + nbytes * cfg.injection_byte_time
        sender_done = start + inject
        self._nic_free[src] = sender_done
        window = cfg.drain_window
        if window > 0.0:
            # Expire the bursts injected before the window, then add this one.
            horizon = start - window
            runs = self._runs
            inflight = self._backlog
            while runs and runs[0][0] < horizon:
                inflight -= runs.popleft()[1]
            runs.append((start, messages))
            self._backlog = backlog = inflight + messages
            if backlog > self.max_inflight:
                self.max_inflight = backlog
        else:
            inflight = 0
        contention = 1.0 + cfg.contention_coeff * inflight
        if src == dst:
            # Self-message: no wire, just a copy through the adapter.
            arrival = sender_done
        else:
            arrival = sender_done + cfg.latency * contention + nbytes * cfg.byte_time
        self.messages_sent += messages
        self.bytes_sent += nbytes
        return MessageTiming(start, sender_done, arrival, contention)

    def drain(self) -> None:
        """Forget the contention backlog (measurement-harness flush).

        Called between timing-loop iterations so an isolated kernel never
        sees another kernel's messages — mirroring that on the real machine
        the instrumentation barrier lets the switch quiesce.
        """
        self._runs.clear()
        self._backlog = 0
