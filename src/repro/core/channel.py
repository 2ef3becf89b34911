"""Host ↔ NIC message-passing channels (§3.5).

Each I/O channel is a pair of unidirectional circular buffers living in
host memory.  The NIC side writes the receive ring with batched
non-blocking DMA; the host polls it.  Head-pointer synchronization is
lazy: the consumer notifies the producer only after draining half the
ring.  Because the DMA engine may not write message bytes monotonically,
every message carries a 4-byte checksum the consumer verifies before
accepting it.

Functionally the rings carry :class:`~repro.core.actor.Message` objects;
the timing model charges the producer the DMA issue cost and delays
delivery by the PCIe transfer latency.
"""

from __future__ import annotations

import zlib
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..nic.dma import DmaEngine
from ..sim import Simulator
from .actor import Message

#: Message header: 4B checksum + 12B descriptor (§3.5).
HEADER_BYTES = 16


def message_checksum(msg: Message) -> int:
    """4-byte integrity checksum over the logical message header."""
    blob = f"{msg.msg_id}:{msg.target}:{msg.kind}:{msg.size}".encode()
    return zlib.crc32(blob) & 0xFFFFFFFF


def _noop() -> None:
    """Placeholder event anchoring a ring slot's DMA-visibility time."""


class RingFullError(Exception):
    """The circular buffer has no free slots (producer must back off)."""


class Ring:
    """One unidirectional circular buffer in host memory."""

    def __init__(self, sim: Simulator, dma: DmaEngine, slots: int = 8192,
                 producer_is_nic: bool = True, name: str = "ring"):
        if slots < 2:
            raise ValueError("ring needs at least 2 slots")
        self.sim = sim
        self.dma = dma
        self.slots = slots
        self.producer_is_nic = producer_is_nic
        self.name = name
        #: owning node, derived from the "<node>.chan.<dir>" naming scheme
        self.node_name = name.split(".", 1)[0]
        self._buffer: Deque = deque()
        #: Producer's (possibly stale) view of consumed entries.
        self._producer_free = slots
        self._consumed_since_sync = 0
        self.produced = 0
        self.consumed = 0
        self.sync_messages = 0
        self.checksum_failures = 0
        self.corrupt_injected = 0
        #: checksum failures signalled back to the producer side
        self.nacks = 0
        #: producer-side callback invoked with the discarded message when
        #: the consumer hits a checksum mismatch (reliable delivery hook)
        self.on_nack: Optional[Callable[[Message], None]] = None
        #: optional FaultPlane consulted per produce (torn DMA writes)
        self.fault_plane = None
        #: consumer frozen until this virtual time (FaultPlane ring stall)
        self.stalled_until = 0.0
        #: consumer-side wake-up called after every produce (the host
        #: workers' doorbell on a NIC→host ring)
        self.on_produce: Optional[Callable[[], None]] = None

    # -- producer side ------------------------------------------------------
    def produce_cost_us(self, msg: Message, batch: int = 1) -> float:
        """CPU cost for the producer to enqueue (non-blocking DMA write).

        Batching amortizes the command-issue cost across ``batch`` messages
        (implication I6).
        """
        issue = self.dma.write_latency_us(msg.size + HEADER_BYTES, blocking=False)
        return issue / max(batch, 1)

    def transfer_delay_us(self, msg: Message) -> float:
        """Wire time until the message is visible to the consumer."""
        return self.dma.write_latency_us(msg.size + HEADER_BYTES, blocking=True)

    def produce(self, msg: Message, corrupt: bool = False) -> None:
        """Place a message into the ring (visibility after PCIe delay).

        ``corrupt`` simulates a torn DMA write: the stored checksum will
        not match and the consumer must discard the message.
        """
        if self._producer_free <= 0:
            raise RingFullError(f"{self.name} full ({self.slots} slots)")
        self._producer_free -= 1
        plane = self.fault_plane or getattr(self.dma, "fault_plane", None)
        if not corrupt and plane is not None and plane.tear_write(self.name):
            corrupt = True
            note = getattr(self.dma, "note_torn_write", None)
            if note is not None:
                note()
        checksum = message_checksum(msg)
        if corrupt:
            checksum ^= 0xDEADBEEF
            self.corrupt_injected += 1
        # Slots are consumed strictly in ring order even though the DMA
        # engine may complete writes out of order — a later small message
        # becomes visible only once every earlier slot is also in place.
        visible_at = self.sim.now + self.transfer_delay_us(msg)
        if self._buffer:
            visible_at = max(visible_at, self._buffer[-1][2])
        self._buffer.append((msg, checksum, visible_at))
        self.produced += 1
        if self.sim.tracer is not None:
            # remembered for the crossing span recorded at poll time
            msg.meta["ring_t0"] = self.sim.now
        # anchor virtual time so run-to-idle passes the visibility point
        self.sim.post_at(visible_at, _noop)
        if self.on_produce is not None:
            self.on_produce()

    @property
    def full(self) -> bool:
        """Producer-visible fullness (subject to lazy head-pointer lag)."""
        return self._producer_free <= 0

    def wait_not_full(self, poll_us: float = 1.0):
        """Process generator: back off until the producer sees free slots."""
        from ..sim import Timeout
        while self.full:
            yield Timeout(poll_us)

    # -- consumer side ---------------------------------------------------------
    def stall(self, duration_us: float) -> None:
        """FaultPlane hook: freeze the consumer side (PCIe hiccup or a
        wedged polling driver).  Produces still land; polls return None
        until the stall expires."""
        self.stalled_until = max(self.stalled_until, self.sim.now + duration_us)
        # anchor virtual time so run-to-idle passes the stall expiry
        self.sim.post_at(self.stalled_until, _noop)

    def poll_at(self) -> Optional[float]:
        """Earliest time :meth:`poll` could return the head slot: its DMA
        visibility or the stall expiry, whichever is later.  None while
        the ring is empty."""
        if not self._buffer:
            return None
        return max(self._buffer[0][2], self.stalled_until)

    def poll(self) -> Optional[Message]:
        """Non-blocking consume; returns None when the ring is empty,
        stalled, or the head message fails its checksum.  A checksum
        failure (torn write) is dropped here but *signalled*: the nack
        counter increments and ``on_nack`` — when wired — hands the
        discarded message back to the producer side for retransmission."""
        if self.stalled_until > self.sim.now:
            return None
        if not self._buffer:
            return None
        msg, checksum, visible_at = self._buffer[0]
        if visible_at > self.sim.now:
            return None            # head slot's DMA not yet complete
        self._buffer.popleft()
        self.consumed += 1
        self._note_consumed()
        tracer = self.sim.tracer
        if checksum != message_checksum(msg):
            self.checksum_failures += 1
            self.nacks += 1
            if tracer is not None:
                tracer.instant("nack", "channel.retx",
                               trace=msg.meta.get("trace"),
                               node=self.node_name, track=self.name,
                               ring=self.name)
            if self.on_nack is not None:
                self.on_nack(msg)
            return None
        if tracer is not None:
            t0 = msg.meta.pop("ring_t0", None)
            if t0 is not None:
                tracer.record_span(
                    "cross", "channel", t0, self.sim.now,
                    trace=msg.meta.get("trace"), node=self.node_name,
                    track=self.name, ring=self.name, size=msg.size,
                    dir=("to_host" if self.producer_is_nic else "to_nic"))
        return msg

    def _note_consumed(self) -> None:
        """Lazy header update: tell the producer about freed slots only
        after half the ring has been consumed (one message per half-ring
        instead of one per slot)."""
        self._consumed_since_sync += 1
        if self._consumed_since_sync >= self.slots // 2:
            self._producer_free += self._consumed_since_sync
            self._consumed_since_sync = 0
            self.sync_messages += 1

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def producer_view_free(self) -> int:
        return self._producer_free


class Channel:
    """A bidirectional I/O channel: NIC→host and host→NIC rings (§3.5)."""

    def __init__(self, sim: Simulator, dma: DmaEngine, slots: int = 8192,
                 name: str = "chan"):
        self.to_host = Ring(sim, dma, slots, producer_is_nic=True,
                            name=f"{name}.to_host")
        self.to_nic = Ring(sim, dma, slots, producer_is_nic=False,
                           name=f"{name}.to_nic")

    def nic_send(self, msg: Message, corrupt: bool = False) -> None:
        self.to_host.produce(msg, corrupt=corrupt)

    def host_send(self, msg: Message, corrupt: bool = False) -> None:
        self.to_nic.produce(msg, corrupt=corrupt)

    def host_poll(self) -> Optional[Message]:
        return self.to_host.poll()

    def nic_poll(self) -> Optional[Message]:
        return self.to_nic.poll()


class _ReliableDirection:
    """Per-direction reliable-delivery state (one ring)."""

    __slots__ = ("ring", "next_seq", "expected", "stash", "ready", "unacked",
                 "released")

    def __init__(self, ring: Ring):
        self.ring = ring
        self.next_seq: Dict[str, int] = {}     # key -> next seq to assign
        self.expected: Dict[str, int] = {}     # key -> next seq to release
        self.stash: Dict[Tuple[str, int], Message] = {}  # out-of-order
        self.ready: Deque[Message] = deque()   # in-order, awaiting poll
        self.unacked: Dict[Tuple[str, int], Message] = {}
        #: key -> messages released in order so far.  Mirrors ``expected``
        #: by construction; repro.check's ChannelMonitor compares the two
        #: to prove at-most-once, in-order delivery (a release loop bug
        #: would break the equality before it corrupts user state).
        self.released: Dict[str, int] = {}


class ReliableChannel:
    """Sequence-numbered reliable delivery layered over a :class:`Channel`.

    Every message gets a per-direction, per-steering-key sequence number
    in ``msg.meta``.  The producer retransmits with exponential backoff
    when the consumer nacks a checksum failure (torn DMA write) or when
    the ring is full; the consumer releases messages strictly in
    per-key sequence order, stashing out-of-order arrivals and dropping
    duplicates.  Delivery into consumer memory acts as the ack (the ring
    itself never reorders or loses slots — only torn writes lose data).

    Recovery telemetry: ``retransmits``, ``ring_full_backoffs``,
    ``recovered`` and per-message time-to-recovery samples
    (``mttr_samples``, first failure → in-order delivery).
    """

    RETRANSMIT_BASE_US = 2.0
    RETRANSMIT_MAX_US = 512.0

    def __init__(self, channel: Channel, sim: Simulator,
                 key_fn: Optional[Callable[[Message], str]] = None):
        self.channel = channel
        self.sim = sim
        #: steering key: delivery order is guaranteed per key (per actor)
        self.key_fn = key_fn or (lambda msg: msg.target)
        self._dirs = {
            "to_host": _ReliableDirection(channel.to_host),
            "to_nic": _ReliableDirection(channel.to_nic),
        }
        channel.to_host.on_nack = lambda m: self._nacked("to_host", m)
        channel.to_nic.on_nack = lambda m: self._nacked("to_nic", m)
        self.retransmits = 0
        self.ring_full_backoffs = 0
        self.recovered = 0
        self.duplicates_dropped = 0
        self.mttr_samples: List[float] = []
        #: direction -> callback fired when a delayed produce finally
        #: lands (lets an event-driven consumer schedule a poll)
        self.on_deliverable: Dict[str, Callable[[], None]] = {}

    # -- producer -------------------------------------------------------------
    def nic_send(self, msg: Message) -> None:
        self._send("to_host", msg)

    def host_send(self, msg: Message) -> None:
        self._send("to_nic", msg)

    def _send(self, direction: str, msg: Message) -> None:
        state = self._dirs[direction]
        key = self.key_fn(msg)
        seq = state.next_seq.get(key, 0)
        state.next_seq[key] = seq + 1
        msg.meta["rel_key"] = key
        msg.meta["rel_seq"] = seq
        state.unacked[(key, seq)] = msg
        self._produce(direction, msg)

    def _backoff_us(self, msg: Message) -> float:
        attempt = msg.meta.get("rel_attempts", 0)
        return min(self.RETRANSMIT_BASE_US * (2 ** attempt),
                   self.RETRANSMIT_MAX_US)

    def _defer(self, direction: str, msg: Message) -> None:
        msg.meta.setdefault("rel_first_fail", self.sim.now)
        delay = self._backoff_us(msg)
        msg.meta["rel_attempts"] = msg.meta.get("rel_attempts", 0) + 1
        self.sim.post(delay, self._produce, direction, msg)

    def _produce(self, direction: str, msg: Message) -> None:
        state = self._dirs[direction]
        key_seq = (self.key_fn(msg), msg.meta.get("rel_seq"))
        if key_seq not in state.unacked:
            return                 # delivered while this retry was pending
        try:
            state.ring.produce(msg)
        except RingFullError:
            self.ring_full_backoffs += 1
            self._defer(direction, msg)
            return
        if msg.meta.get("rel_attempts"):
            notify = self.on_deliverable.get(direction)
            if notify is not None:
                self.sim.post(state.ring.transfer_delay_us(msg), notify)

    def _nacked(self, direction: str, msg: Message) -> None:
        self.retransmits += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant("retransmit", "channel.retx",
                           trace=msg.meta.get("trace"),
                           node=self._dirs[direction].ring.node_name,
                           track=self._dirs[direction].ring.name,
                           attempts=msg.meta.get("rel_attempts", 0) + 1)
        self._defer(direction, msg)

    # -- consumer -------------------------------------------------------------
    def host_poll(self) -> Optional[Message]:
        return self._poll("to_host")

    def nic_poll(self) -> Optional[Message]:
        return self._poll("to_nic")

    def _poll(self, direction: str) -> Optional[Message]:
        state = self._dirs[direction]
        self._drain_ring(state)
        if state.ready:
            return state.ready.popleft()
        return None

    def _drain_ring(self, state: _ReliableDirection) -> None:
        while True:
            msg = state.ring.poll()
            if msg is None:
                return
            key = msg.meta.get("rel_key")
            if key is None:
                state.ready.append(msg)   # unsequenced traffic passes through
                continue
            seq = msg.meta["rel_seq"]
            state.unacked.pop((key, seq), None)
            expected = state.expected.get(key, 0)
            if seq < expected:
                self.duplicates_dropped += 1
                continue
            state.stash[(key, seq)] = msg
            while (key, expected) in state.stash:
                released = state.stash.pop((key, expected))
                expected += 1
                state.released[key] = state.released.get(key, 0) + 1
                self._note_delivered(released, state.ring)
                state.ready.append(released)
            state.expected[key] = expected

    def _note_delivered(self, msg: Message, ring: Ring) -> None:
        first_fail = msg.meta.pop("rel_first_fail", None)
        if first_fail is not None:
            self.recovered += 1
            self.mttr_samples.append(self.sim.now - first_fail)
            tracer = self.sim.tracer
            if tracer is not None:
                # the recovery interval: first failed delivery attempt
                # until in-order release to the consumer (channel MTTR)
                tracer.record_span(
                    "recovery", "channel.retx", first_fail, self.sim.now,
                    trace=msg.meta.get("trace"), node=ring.node_name,
                    track=ring.name, key=msg.meta.get("rel_key"),
                    seq=msg.meta.get("rel_seq"),
                    attempts=msg.meta.get("rel_attempts", 0))
            metrics = self.sim.metrics
            if metrics is not None:
                metrics.histogram("channel.mttr_us").record(
                    self.sim.now, self.sim.now - first_fail)

    # -- introspection --------------------------------------------------------
    def ready(self, direction: str) -> int:
        """Messages released in order and waiting for the next poll."""
        return len(self._dirs[direction].ready)

    def pending(self, direction: str) -> int:
        """Messages not yet released in order (in flight, stashed, ready)."""
        state = self._dirs[direction]
        return len(state.ready) + len(state.stash) + len(state.unacked)

    @property
    def mttr_mean_us(self) -> float:
        if not self.mttr_samples:
            return 0.0
        return sum(self.mttr_samples) / len(self.mttr_samples)
