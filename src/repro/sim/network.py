"""Reliable FIFO network model with message accounting.

The paper's standing assumption (Section 4): *"the network is
reliable, delivering every message exactly once in order."*  The
:class:`Network` enforces per-channel FIFO delivery regardless of the
latency model by never scheduling a delivery earlier than the
previously scheduled delivery on the same (src, dst) channel.

The assumption can be *held* two ways (the ``reliability`` mode):

* ``"assumed"`` (default) -- the substrate itself is reliable, as the
  paper posits; a fault plan, if any, punches holes straight through
  to the protocols (the A2 ablation).
* ``"enforced"`` -- every logical send travels through the
  :class:`~repro.sim.reliable.ReliableTransport` layer (sequence
  numbers, dedup, cumulative acks, retransmission, resequencing),
  which rebuilds exactly-once FIFO delivery *end-to-end* over
  whatever the substrate drops, duplicates, or reorders.

Every message is counted by *kind* (the class name of the payload, or
an explicit ``kind`` attribute), which is how the benchmarks measure
the paper's message-complexity claims (e.g. the semi-synchronous split
protocol using |copies| messages per split versus ~3|copies| for the
synchronous protocol).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Protocol

from repro.sim.events import EventQueue
from repro.sim.reliable import (
    RELIABILITY_MODES,
    ReliabilityConfig,
    ReliableTransport,
)

#: Message-accounting modes, cheapest last: ``"full"`` keeps the
#: per-kind and per-channel Counters, ``"aggregate"`` keeps only the
#: scalar totals (sent/delivered/dropped/duplicated), ``"off"`` keeps
#: nothing.  Large perf runs use aggregate or off; everything that
#: audits message complexity needs full (the default).
ACCOUNTING_MODES = ("full", "aggregate", "off")


class LatencyModel(Protocol):
    """Strategy deciding the transit time of a message."""

    def latency(self, src: int, dst: int, rng: random.Random) -> float:
        """Return the network transit time from ``src`` to ``dst``."""
        ...


@dataclass(frozen=True)
class UniformLatency:
    """Fixed latency for every remote hop.

    ``jitter`` > 0 adds a uniform random component in [0, jitter);
    FIFO order is still enforced by the network layer.
    """

    base: float = 10.0
    jitter: float = 0.0

    @property
    def fixed_latency(self) -> float | None:
        """Constant transit time, when the model degenerates to one."""
        return self.base if self.jitter <= 0 else None

    def latency(self, src: int, dst: int, rng: random.Random) -> float:
        if self.jitter <= 0:
            return self.base
        return self.base + rng.uniform(0.0, self.jitter)


@dataclass(frozen=True)
class LogNormalLatency:
    """Heavy-tailed transit times, the shape real networks show.

    ``median`` is the 50th-percentile latency; ``sigma`` controls the
    tail (0 degenerates to a constant).  Per-channel FIFO is still
    enforced by the network layer, so a straggler delays everything
    behind it on its channel -- which is exactly how a FIFO transport
    behaves.
    """

    median: float = 10.0
    sigma: float = 0.5

    def __post_init__(self) -> None:
        if self.median <= 0:
            raise ValueError(f"median must be positive, got {self.median}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")

    @property
    def fixed_latency(self) -> float | None:
        """Constant transit time, when the model degenerates to one."""
        return self.median if self.sigma == 0 else None

    def latency(self, src: int, dst: int, rng: random.Random) -> float:
        if self.sigma == 0:
            return self.median
        import math

        return self.median * math.exp(rng.gauss(0.0, self.sigma))


@dataclass(frozen=True)
class TopologyLatency:
    """Latency derived from a per-pair table with a default fallback.

    Useful for modelling clustered processors (cheap intra-rack,
    expensive inter-rack) in the locality experiments.
    """

    pairs: dict[tuple[int, int], float]
    default: float = 10.0

    def latency(self, src: int, dst: int, rng: random.Random) -> float:
        return self.pairs.get((src, dst), self.default)


@dataclass
class NetworkStats:
    """Aggregate message accounting, reset-able between phases.

    ``sent`` and ``delivered`` count *logical* messages (the payloads
    protocols exchange).  The reliable-delivery layer's extra wire
    traffic is broken out separately: ``retransmits`` (extra physical
    transmissions of a data frame), ``acks`` (standalone ack frames;
    piggybacked acks are free), ``dup_suppressed`` (arrivals the
    receiver discarded as already-delivered), and ``resequenced``
    (arrivals parked in the reorder buffer until the gap filled).
    ``dropped``/``duplicated`` count substrate fault verdicts in both
    reliability modes.
    """

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    duplicated: int = 0
    retransmits: int = 0
    acks: int = 0
    dup_suppressed: int = 0
    resequenced: int = 0
    #: messages/frames that arrived at a crashed processor and were
    #: discarded.
    dead_letters: int = 0
    #: messages/frames silently swallowed by an active partition cut
    #: (:mod:`repro.sim.partition`); indistinguishable from loss at
    #: the sender, which is the point.
    partition_blocked: int = 0
    by_kind: Counter = field(default_factory=Counter)
    by_channel: Counter = field(default_factory=Counter)

    @property
    def physical_sent(self) -> int:
        """Frames actually put on the wire (the enforcement overhead).

        Logical sends plus retransmissions plus standalone acks; in
        ``"assumed"`` mode this equals ``sent``.
        """
        return self.sent + self.retransmits + self.acks

    def snapshot(self) -> dict[str, Any]:
        """Return a plain-dict copy suitable for reports."""
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "retransmits": self.retransmits,
            "acks": self.acks,
            "dup_suppressed": self.dup_suppressed,
            "resequenced": self.resequenced,
            "dead_letters": self.dead_letters,
            "partition_blocked": self.partition_blocked,
            "physical_sent": self.physical_sent,
            "by_kind": dict(self.by_kind),
            "by_channel": dict(self.by_channel),
        }


def message_kind(payload: Any) -> str:
    """The accounting label of a message payload.

    Payloads may expose an explicit ``kind`` attribute (the action
    classes do); otherwise the class name is used.
    """
    kind = getattr(payload, "kind", None)
    if isinstance(kind, str):
        return kind
    return type(payload).__name__


#: The single verdict a transmission gets when no fault plan judges it:
#: delivered once, with no extra delay.
_CLEAN = ((False, 0.0),)


class Network:
    """Reliable, exactly-once, per-channel FIFO message transport.

    Deliveries invoke the ``deliver(dst, payload)`` callback installed
    by the kernel.  An optional :class:`~repro.sim.failure.FaultPlan`
    may drop, duplicate, or reorder messages -- used *only* by the
    ablation experiment that demonstrates the protocols rely on the
    reliability assumption.

    Every transmission -- a logical message in ``"assumed"`` mode, a
    reliable-layer frame, a heartbeat datagram -- crosses the
    substrate through :meth:`_transmit`, the one place its fate is
    decided.  Which pairs of layers may be installed together is
    declared in :data:`repro.sim.layers.LAYER_CONFLICTS` and checked
    by the kernel at construction.
    """

    def __init__(
        self,
        events: EventQueue,
        latency_model: LatencyModel | None = None,
        rng: random.Random | None = None,
        fault_plan: "FaultPlanLike | None" = None,
        accounting: str = "full",
        reliability: str = "assumed",
        reliability_config: ReliabilityConfig | None = None,
    ) -> None:
        if accounting not in ACCOUNTING_MODES:
            raise ValueError(
                f"accounting must be one of {ACCOUNTING_MODES}, got {accounting!r}"
            )
        if reliability not in RELIABILITY_MODES:
            raise ValueError(
                f"reliability must be one of {RELIABILITY_MODES}, "
                f"got {reliability!r}"
            )
        self._events = events
        self._latency_model = latency_model or UniformLatency()
        if rng is None:
            # Standalone construction (unit tests, ad-hoc tools): a
            # fixed default is fine, but never *silent* -- the seed is
            # recorded here so a run can report every stream it used.
            # The kernel always passes an rng derived from the root
            # seed and records it in its own seed ledger.
            self.rng_seed: int | None = 0
            rng = random.Random(0)
        else:
            self.rng_seed = None  # caller-owned; recorded by the caller
        self._rng = rng
        self._fault_plan = fault_plan
        self._deliver: Callable[[int, Any], None] | None = None
        self.accounting = accounting
        self._count_kinds = accounting == "full"
        self._count_totals = accounting != "off"
        self.reliability = reliability
        self.transport: ReliableTransport | None = (
            ReliableTransport(self, reliability_config)
            if reliability == "enforced"
            else None
        )
        # Constant transit time, when the latency model admits one;
        # lets _transmit skip the strategy call entirely.
        self._fixed_latency: float | None = getattr(
            self._latency_model, "fixed_latency", None
        )
        # Last *scheduled* delivery time per channel; FIFO enforcement.
        self._channel_clock: dict[tuple[int, int], float] = {}
        # Crash-stop liveness oracle, installed only when a crash plan
        # is active, so the default path never pays for it.
        self._liveness: Callable[[int], bool] | None = None
        # Partition controller (repro.sim.partition), installed only
        # when a partition plan is active.
        self._partition = None
        # Arrival of a logical message in assumed mode, chosen once:
        # plain delivery, liveness-checked delivery (crash plan), or
        # the schedule permuter's hold/swap gate.
        self._arrive: Callable[[int, Any], None] = self._fire
        self.stats = NetworkStats()

    def install_delivery(self, deliver: Callable[[int, Any], None]) -> None:
        """Install the callback invoked on message arrival."""
        self._deliver = deliver

    def install_liveness(self, liveness: Callable[[int], bool]) -> None:
        """Teach the network which destinations are alive.

        Arrivals at a dead processor become dead letters: counted and
        discarded (retransmission and suspicion of lost frames are the
        reliable layer's problem).
        """
        self._liveness = liveness
        self._arrive = self._fire_checked

    def install_permuter(self, permuter: Any) -> None:
        """Route logical arrivals through a schedule permuter."""
        self._arrive = permuter.on_arrival
        permuter.install_deliver(self._fire)

    def install_partition(self, controller: Any) -> None:
        """Route every transmission past a partition controller.

        The controller's ``judge(src, dst)`` is consulted per logical
        message (assumed mode), per physical frame (enforced mode, so
        retransmissions into a cut are swallowed afresh, exactly like
        real packets) and per datagram: a cut link drops the
        transmission silently, a gray link multiplies its transit time.
        """
        self._partition = controller

    def reset_stats(self) -> None:
        """Zero the accounting counters (e.g. after a warm-up phase)."""
        self.stats = NetworkStats()

    def send(self, src: int, dst: int, payload: Any) -> None:
        """Send ``payload`` from processor ``src`` to processor ``dst``.

        Local sends (src == dst) are not network messages in the
        paper's cost model; callers should enqueue locally instead.
        Sending to self is treated as a bug to keep the accounting
        honest.
        """
        if self._deliver is None:
            raise RuntimeError("network has no delivery callback installed")
        if src == dst:
            raise ValueError(
                f"processor {src} attempted a network send to itself; "
                "local actions must be enqueued locally"
            )

        if self._count_totals:
            stats = self.stats
            stats.sent += 1
            if self._count_kinds:
                stats.by_kind[message_kind(payload)] += 1
                stats.by_channel[(src, dst)] += 1

        if self.transport is not None:
            # Enforced mode: the reliable layer frames the payload and
            # owns ordering/dedup; each physical frame crosses the
            # substrate in _transmit_frame.
            self.transport.send(src, dst, payload)
            return
        self._transmit(src, dst, payload, partial(self._arrive, dst, payload), True)

    def _transmit(
        self,
        src: int,
        dst: int,
        payload: Any,
        arrive: Callable[[], None],
        clamp: bool,
        faults: bool = True,
    ) -> None:
        """Put one transmission on the substrate; schedule ``arrive``
        once per copy that survives.

        The verdicts apply in a fixed order, which fixes the order of
        random draws: the partition controller (a cut swallows the
        transmission, a gray link yields a latency factor), then the
        fault plan (skipped when ``faults`` is false), then one latency
        draw per surviving copy.  ``clamp`` holds a copy with no extra
        delay behind the channel's last scheduled arrival -- the
        paper's FIFO channel; a reorder verdict bypasses it, which is
        the point of the fault injection.
        """
        factor = 1.0
        if self._partition is not None:
            up, factor = self._partition.judge(src, dst)
            if not up:
                if self._count_totals:
                    self.stats.partition_blocked += 1
                return
        plan = self._fault_plan
        if plan is None or not faults:
            verdicts = _CLEAN
        else:
            verdicts = plan.judge(src, dst, payload, self._rng)
            if self._count_totals and len(verdicts) > 1:
                self.stats.duplicated += len(verdicts) - 1
        events = self._events
        for dropped, extra_delay in verdicts:
            if dropped:
                if self._count_totals:
                    self.stats.dropped += 1
                continue
            latency = self._fixed_latency
            if latency is None:
                latency = self._latency_model.latency(src, dst, self._rng)
            arrival = events.now + (latency * factor + extra_delay)
            if clamp and not extra_delay:
                channel = (src, dst)
                clock = self._channel_clock
                floor = clock.get(channel)
                if floor is not None and floor > arrival:
                    arrival = floor
                clock[channel] = arrival
            events.push(arrival, arrive)

    def _fire(self, dst: int, payload: Any) -> None:
        """Hand an in-order payload to the destination processor."""
        if self._count_totals:
            self.stats.delivered += 1
        self._deliver(dst, payload)  # type: ignore[misc]

    def _fire_checked(self, dst: int, payload: Any) -> None:
        """Liveness-aware delivery, used only when crashes are possible."""
        if not self._liveness(dst):  # type: ignore[misc]
            if self._count_totals:
                self.stats.dead_letters += 1
            return
        self._fire(dst, payload)

    # ------------------------------------------------------------------
    # datagrams (failure-detector heartbeats)
    # ------------------------------------------------------------------
    def send_datagram(
        self,
        src: int,
        dst: int,
        payload: Any,
        deliver: Callable[[int, Any], None],
    ) -> None:
        """Fire-and-forget delivery outside the logical message path.

        Heartbeats must not queue behind the traffic whose absence
        they are supposed to reveal, so datagrams bypass the reliable
        transport (no framing, no retransmission -- a lost heartbeat
        is *information*, not an error), the per-channel FIFO clamp,
        the fault plan, and the message accounting.  Partition cuts,
        gray inflation, and crash-stop liveness still apply: a
        datagram to an unreachable or dead destination vanishes.

        Delivery invokes ``deliver(dst, payload)`` directly rather
        than the processor queue: reading a heartbeat costs no
        service time and survives queue saturation, like a kernel
        timestamping a packet before the application gets scheduled.
        """
        self._transmit(
            src,
            dst,
            payload,
            partial(self._datagram_arrival, dst, payload, deliver),
            False,
            faults=False,
        )

    def _datagram_arrival(
        self, dst: int, payload: Any, deliver: Callable[[int, Any], None]
    ) -> None:
        if self._liveness is not None and not self._liveness(dst):
            return  # a dead host reads no datagrams; not even a dead letter
        deliver(dst, payload)

    # ------------------------------------------------------------------
    # enforced-reliability plumbing (ReliableTransport calls back in)
    # ------------------------------------------------------------------
    def _transmit_frame(self, src: int, dst: int, frame: Any) -> None:
        """Put one physical frame on the lossy substrate.

        Partition, fault plan and latency apply per transmission
        (retransmissions are judged afresh, like real packets), but
        *not* the FIFO channel clamp: ordering is the reliable
        layer's job, via sequence numbers and resequencing, so frames
        race each other freely -- which is exactly what makes the
        enforcement end-to-end rather than cosmetic.
        """
        self._transmit(
            src, dst, frame, partial(self._frame_arrival, src, dst, frame), False
        )

    def _frame_arrival(self, src: int, dst: int, frame: Any) -> None:
        if self._liveness is not None and not self._liveness(dst):
            # Crash-stop: a frame addressed to a dead processor is
            # lost on the floor; the sender's retransmission timer
            # (and eventually its retry-cap suspicion) deals with it.
            if self._count_totals:
                self.stats.dead_letters += 1
            return
        self.transport.on_frame(src, dst, frame)  # type: ignore[union-attr]


class FaultPlanLike(Protocol):
    """Interface the network expects from a fault plan."""

    def judge(
        self, src: int, dst: int, payload: Any, rng: random.Random
    ) -> tuple[tuple[bool, float], ...]:
        """Decide fate of a message: tuple of (dropped, extra_delay)."""
        ...
