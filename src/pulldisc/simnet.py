"""Seeded discrete-event broadcast network with cost accounting.

Stands in for the extended-advertisement radio: every node shares one
broadcast domain (multiple domains are configurable), frames arrive after
a small random latency and are lost independently with a configurable
probability. A queued event is either a frame delivery or a call.

Each node hears only the frame kinds (6-byte payload prefixes) its
protocol component declares in `hears`; a component that declares nothing
hears every frame. A frame is queued as a delivery only to nodes that hear
its kind and have not handled its payload by its arrival (a user handles a
response once per scan window). Every other receiver still draws its loss
and latency, in the same order, and counts the frame in its rx counters:
at send time when it arrives within the running horizon, otherwise through
a queued event that counts it on arrival. A request that lands in a
device's generation window by its `pools_until` is counted at send time
too, and joins a batch the device takes in one call (`DeviceNode`). So rx
counters and all outputs are those of delivering every frame to every
node. The receivers of a domain, with what each hears, are listed once per
frame kind and listed again when a node joins; `World._queue_unheard`
turns on the reference path that queues every frame and batches none,
which differential tests compare against.

Event ordering is total and deterministic: (time, priority, sequence),
with deliveries processed first at equal timestamps, then device timers
in `TimerKind` order, then every other call. Two runs with the same seed
and configuration produce byte-identical metrics.

Per-frame source addresses and UUIDs are randomized when enabled, which
is what the unlinkability checks observe.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import json
import math
from array import array
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from random import Random
from typing import Callable, NamedTuple

from . import agent as agent_mod
from . import device as device_mod
from . import ranges, wire
from .inventory import ImDevice, ImReceipt, Owner

# Event priorities at equal times: deliveries, device timers, other calls.
_PRIO_DELIVER = 0
_PRIO_TIMER_BASE = 1  # + TimerKind value
_PRIO_ACTION = 10

RETRANSMIT_INTERVAL = 0.030
RETRANSMIT_COUNT = 10


@dataclass(frozen=True)
class LinkConfig:
    p_loss: float = 0.0
    latency_min: float = 0.001
    latency_max: float = 0.010
    randomize_addresses: bool = True
    # User-side cost of fetching and checking a manifest before a report
    # can be shown; charged to request-to-report latency, not radio time.
    manifest_fetch_delay: float = 1.3

    def __post_init__(self):
        # A negative latency would schedule a delivery before its broadcast,
        # an infinite one would never deliver. The fetch delay is added to
        # every latency, which metrics.json must write as a number.
        ranges.check(p_loss=self.p_loss, latency_min=self.latency_min,
                     latency_max=self.latency_max, manifest_fetch_delay=self.manifest_fetch_delay)
        if not self.latency_min <= self.latency_max:
            raise ValueError("latency_min must be <= latency_max, "
                             f"got {self.latency_min!r} and {self.latency_max!r}")
        if type(self.randomize_addresses) is not bool:
            raise ValueError(
                f"randomize_addresses must be true or false, got {self.randomize_addresses!r}")


class Frame(NamedTuple):
    src_addr: bytes  # 6-byte link address
    uuid: bytes  # 16-byte value
    payload: bytes
    wire_size: int


# The per-node columns of metrics.json and metrics.csv, in CSV order.
PER_NODE_FIELDS = (
    "busy_seconds", "signatures", "attestations", "tx_bytes", "rx_bytes", "tx_frames", "rx_frames",
)


@dataclass
class Metrics:
    horizon: float
    per_node: dict[str, device_mod.Counters] = field(default_factory=dict)
    frames_dropped: int = 0
    latencies: dict[str, array] = field(default_factory=dict)  # array('d') per user

    def to_doc(self) -> dict:
        """The metrics.json document, which report.json also embeds."""
        return {
            "horizon": self.horizon,
            "frames_dropped": self.frames_dropped,
            "latencies": {k: [round(v, 9) for v in vs] for k, vs in sorted(self.latencies.items())},
            "per_node": {
                name: {f: round(getattr(m, f), 9) for f in PER_NODE_FIELDS}
                for name, m in sorted(self.per_node.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), sort_keys=True, indent=2)


class Node:
    """Base class: a named participant in one broadcast domain.

    `hears`, `handled`, `batch` and `counters` are fixed once the node
    joins a world: `World.broadcast` caches them per domain and frame kind.
    The dict and list may change in place, but are never replaced."""

    # The frame kinds `handle_deliver` acts on; None hears every frame.
    hears: frozenset[bytes] | None = None
    # Payload -> latest arrival at which a copy changes only rx; None: no record.
    handled: dict | None = None
    # (arrival, payload) of copies taken later in one call, not queued; None: never.
    batch: list | None = None

    def __init__(self, name: str, domain: str = "default", component: object = None):
        # Broadcast compares domains for equality: a NaN one would match none.
        if not isinstance(domain, str):
            raise ValueError(f"domain must be a string, got {domain!r}")
        self.name = name
        self.domain = domain
        self.world: "World | None" = None
        # The wrapped component's tallies and kinds heard, else a fresh record and the class's.
        self.counters = getattr(component, "counters", None) or device_mod.Counters()
        if hasattr(component, "hears"):
            self.hears = component.hears

    def start(self, now: float) -> None:
        """Schedule initial events; called once, at the world's first run
        or, before the node is registered, when it joins a run in progress."""

    def handle_deliver(self, frame: Frame, now: float) -> None:
        pass


class World:
    """Event queue, shared medium, and metrics for one simulation run."""

    def __init__(self, seed: int, link: LinkConfig | None = None, capture_frames: bool = False):
        self.seed = seed
        self.link = link or LinkConfig()
        self.rng = Random(f"link/{seed}")
        self.nodes: dict[str, Node] = {}
        # (domain, frame kind) -> (node, hears the kind, handled, counters, batch) per member.
        self._fanout: dict[tuple[str, bytes], list[tuple]] = {}
        self._queue: list = []
        self._seq = itertools.count()
        self.now = 0.0
        self.metrics = Metrics(horizon=0.0)
        self.capture_frames = capture_frames
        self.captured: list[tuple[float, str, Frame]] = []
        self._started = False
        # Horizon of the run in progress; outside a run nothing is due yet.
        self._horizon = -math.inf
        self._carried: list = []  # (counters, unclipped busy_seconds) busy past the last horizon

    # The reference path, for tests only: queue every unheard frame as an
    # event that counts it on arrival, deliver every handled copy and batch
    # none. Read when a fan-out is listed, so set it before the first frame.
    _queue_unheard = False

    # -- topology ------------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        node.world = self
        if self._started:  # joins a run in progress: registered once its start succeeds
            node.start(self.now)
        self.nodes[node.name] = node
        self._fanout.clear()
        self.metrics.per_node[node.name] = node.counters
        return node

    def node_rng(self, name: str) -> Random:
        """Stable per-node generator derived from the world seed."""
        return Random(f"node/{self.seed}/{name}")

    # -- scheduling ----------------------------------------------------------

    def schedule_action(
        self, at: float, fn: Callable[[float], None], prio: int = _PRIO_ACTION
    ) -> None:
        """Call `fn(now)` at time `at` >= now; `prio` orders calls at equal times."""
        if not at >= self.now:  # NaN fails too
            raise ValueError(f"cannot schedule an event at {at!r}, before the current time {self.now!r}")
        heapq.heappush(self._queue, (at, prio, next(self._seq), None, fn))

    # -- medium ---------------------------------------------------------------

    def _frame_identity(self, sender: str) -> tuple[bytes, bytes]:
        if self.link.randomize_addresses:
            return self.rng.randbytes(6), self.rng.randbytes(16)
        return Random(f"addr/{self.seed}/{sender}").randbytes(6), bytes(16)

    def broadcast(self, sender: str, payload: bytes, now: float, wire_size: int | None = None) -> None:
        """Deliver to every other node in the sender's domain, minus losses.

        Each receiver draws loss, then latency. One that does not hear the
        payload's kind, or has handled the payload by the copy's arrival,
        gets no delivery: the frame is counted in its rx now if it arrives
        within the running horizon, and otherwise by a queued `_count_rx`.
        A copy that lands within the horizon and by the `pools_until` of a
        receiver's device is appended to its `batch` and counted in rx now.
        The receivers of a domain and frame kind are listed once, at the
        first such frame after a node joins. A bytes-like payload is sent,
        and seen by every receiver, as bytes."""
        payload = bytes(payload)
        if len(payload) > wire.MAX_PAYLOAD:
            raise wire.CapacityError(
                f"payload of {len(payload)} bytes exceeds the {wire.MAX_PAYLOAD}-byte budget"
            )
        size = wire_size if wire_size is not None else len(payload)
        src, uuid = self._frame_identity(sender)
        frame = Frame(src, uuid, payload, size)
        sender_node = self.nodes[sender]
        m = sender_node.counters
        m.tx_bytes += size
        m.tx_frames += 1
        if self.capture_frames:
            self.captured.append((now, sender, frame))
        link = self.link
        p_loss, lo, span = link.p_loss, link.latency_min, link.latency_max - link.latency_min
        random, push, queue, seq = self.rng.random, heapq.heappush, self._queue, self._seq
        horizon, queue_unheard = self._horizon, self._queue_unheard
        key = (sender_node.domain, payload[:6])
        fanout = self._fanout.get(key)
        if fanout is None:
            fanout = self._fanout[key] = [
                (node, node.hears is None or key[1] in node.hears,
                 None if queue_unheard else node.handled, node.counters,
                 None if queue_unheard else node.batch)
                for node in self.nodes.values() if node.domain == key[0]
            ]
        dropped = 0
        for node, hears, handled, counters, batch in fanout:
            if node is sender_node:
                continue
            if p_loss > 0.0 and random() < p_loss:
                dropped += 1
                continue
            # The same draw, and the same float, as rng.uniform(lo, hi).
            at = now + (lo + span * random())
            if hears and (handled is None or handled.get(payload, -1.0) < at):
                if batch is None or at > node.device.pools_until or at > horizon:
                    push(queue, (at, _PRIO_DELIVER, next(seq), node, frame))
                    continue
                batch.append((at, payload))
            elif at > horizon or queue_unheard:
                push(queue, (at, _PRIO_DELIVER, next(seq), None, partial(_count_rx, counters, size)))
                continue
            counters.rx_bytes += size
            counters.rx_frames += 1
        self.metrics.frames_dropped += dropped

    def queued_to(self, node: Node) -> list[bytes]:
        """The payloads of the deliveries queued to `node`, one per copy."""
        return [frame.payload for _, _, _, to, frame in self._queue if to is node]

    def retransmit(self, sender: str, payload: bytes, now: float) -> None:
        """Reliability schedule: rebroadcast every 30 ms, ten copies total."""
        self.broadcast(sender, payload, now)
        again = partial(self.broadcast, sender, payload)
        for k in range(1, RETRANSMIT_COUNT):
            self.schedule_action(now + k * RETRANSMIT_INTERVAL, again)

    # -- run loop -------------------------------------------------------------

    def run_until(self, horizon: float) -> Metrics:
        """Process events in deterministic order up to and including horizon.

        Nodes start on the first call; a later call continues the run and
        may not name a horizon before the current time. `busy_seconds`
        leaves out work past the horizon (up to `busy_until`) for the next."""
        if not horizon >= self.now:
            raise ValueError(f"horizon must be >= the current time {self.now!r}, got {horizon!r}")
        if not self._started:
            self._started = True
            for node in self.nodes.values():
                node.start(self.now)
        self._horizon = horizon
        for m, busy in self._carried:
            m.busy_seconds = busy
        queue, pop = self._queue, heapq.heappop
        while queue and queue[0][0] <= horizon:
            time, _prio, _seq, node, detail = pop(queue)
            assert time >= self.now, "event queue went backwards"
            self.now = time
            if node is None:
                detail(time)
            else:
                m = node.counters
                m.rx_bytes += detail.wire_size
                m.rx_frames += 1
                node.handle_deliver(detail, time)
        for node in self.nodes.values():
            if node.batch:
                node.take_batch()
        self._horizon = -math.inf
        self._carried = [(m, m.busy_seconds) for m in self.metrics.per_node.values()
                         if m.busy_until > horizon]
        for m, busy in self._carried:
            m.busy_seconds = busy - (m.busy_until - horizon)
        self.now = horizon
        self.metrics.horizon = horizon
        return self.metrics


def _count_rx(counters: device_mod.Counters, size: int, now: float | None = None) -> None:
    """One received frame of `size` bytes; `now` lets it ride the event queue."""
    counters.rx_bytes += size
    counters.rx_frames += 1


# -- standard node wrappers ----------------------------------------------------


_arrival = itemgetter(0)


class DeviceNode(Node):
    """Adapts a pull/push/blend device to the event loop.

    The device provides `boot`, `on_frame`, `on_timer`, `pool_batch`,
    `pools_until` and `counters`. A request copy that lands by the device's
    `pools_until` is not queued: `World.broadcast` appends it to `batch`.
    The device takes the batch in arrival order in one call when the
    window ends, before a queued delivery to it takes the copies that land
    earlier, and when a run returns takes the rest."""

    def __init__(self, name: str, device: device_mod.Device, domain: str = "default"):
        super().__init__(name, domain, device)
        self.device = device
        self.batch = []

    def start(self, now: float) -> None:
        self._apply(self.device.boot(now), now)

    def take_batch(self, before: float = math.inf) -> None:
        """Hand the device the batched copies that land before `before`, in
        (arrival, send) order."""
        batch = self.batch
        batch.sort(key=_arrival)
        taken = bisect.bisect_left(batch, before, key=_arrival)
        self.device.pool_batch(batch[:taken])
        del batch[:taken]

    def handle_deliver(self, frame: Frame, now: float) -> None:
        if self.batch:
            self.take_batch(now)
        actions = self.device.on_frame(frame.payload, now)
        if actions:
            self._apply(actions, now)

    def _timer(self, kind: device_mod.TimerKind, now: float) -> None:
        if kind is device_mod.TimerKind.GEN_COMPLETE and self.batch:
            self.take_batch()
        self._apply(self.device.on_timer(kind, now), now)

    def _apply(self, actions, now: float) -> None:
        for action in actions:
            if isinstance(action, device_mod.Transmit):
                if action.retransmit:
                    self.world.retransmit(self.name, action.payload, now)
                else:
                    self.world.broadcast(
                        self.name, action.payload, now, wire_size=action.wire_size
                    )
            elif isinstance(action, device_mod.SetTimer):
                timer = partial(self._timer, action.kind)
                self.world.schedule_action(action.at, timer, _PRIO_TIMER_BASE + action.kind.value)


@dataclass(frozen=True)
class ArrivalModel:
    """Request schedule for one user: periodic, poisson, or burst."""

    kind: str  # periodic | poisson | burst
    interval: float = 10.0  # periodic spacing or 1/rate for poisson
    start: float = 0.0
    count: int | None = None  # burst size, or cap on total requests

    def __post_init__(self):
        if self.kind not in ("periodic", "poisson", "burst"):
            raise ValueError(f"unknown arrival kind {self.kind!r}")
        ranges.check(interval=self.interval, start=self.start, count=self.count)
        if self.kind == "burst" and self.count is None:  # a burst is `count` requests at `start`
            raise ValueError("burst arrival needs a count")
        # A zero interval would repeat one instant forever; a burst never reads it.
        if self.kind != "burst" and self.interval == 0:
            raise ValueError(f"{self.kind} interval must be positive, got {self.interval!r}")

    def times(self, rng: Random):
        """Request times in order, without end unless `count` caps them."""
        if self.kind == "burst":
            yield from itertools.repeat(self.start, self.count)
            return
        poisson = self.kind == "poisson"
        t = self.start + rng.expovariate(1.0 / self.interval) if poisson else self.start
        for _ in itertools.count() if self.count is None else range(self.count):
            yield t
            t += rng.expovariate(1.0 / self.interval) if poisson else self.interval


class AgentNode(Node):
    """A user: sends requests on its arrival schedule, verifies replies."""

    def __init__(
        self,
        name: str,
        user_agent: agent_mod.UserAgent,
        arrivals: ArrivalModel,
        domain: str = "default",
    ):
        super().__init__(name, domain, user_agent)
        self.agent = user_agent
        self.arrivals = arrivals
        self.pending: dict[bytes, agent_mod.PendingRequest] = {}
        self.reports: list[agent_mod.DeviceReport] = []
        self.discards = self.counters.rejects  # by reason
        self.latencies = array("d")  # unboxed: one sample per response report
        # Response payloads and (anchor nonce, announcement) pairs in the
        # order settled, each mapped to one scan window after its first copy.
        self.handled: dict[bytes | tuple[bytes, bytes], float] = {}
        self._times = None

    def start(self, now: float) -> None:
        self.world.metrics.latencies[self.name] = self.latencies
        # Arrival times are pulled lazily so an open-ended schedule never
        # preloads the queue past the horizon.
        self._times = self.arrivals.times(self.agent.rng)
        self._schedule_next(now)

    def _schedule_next(self, now: float) -> None:
        t = next(self._times, None)
        if t is not None:
            self.world.schedule_action(max(t, now), self._send_request)

    def _send_request(self, now: float) -> None:
        self._expire(now)
        payload, pending = self.agent.make_request(now)
        self.pending[pending.nonce] = pending
        self.world.broadcast(self.name, payload, now)
        self._schedule_next(now)

    def _expire(self, now: float) -> None:
        """Forget requests whose scan window has closed. Every request
        shares the agent's scan window, so they expire in sending order."""
        while self.pending:
            nonce, oldest = next(iter(self.pending.items()))
            if now <= oldest.sent_at + oldest.scan_window:
                return
            del self.pending[nonce]

    def handle_deliver(self, frame: Frame, now: float) -> None:
        """Credit a response to each pending request it pools and an
        announcement to the oldest pending request, its anchor; the agent
        hears no other kind. The first copy settles a response for a scan
        window (it pools no later request) and an announcement for its
        anchor. A later copy that lands while settled returns at once, when
        `World.broadcast` delivers it at all. `manifest-unavailable` settles
        nothing."""
        payload, handled, pending = frame.payload, self.handled, self.pending
        if handled.get(payload, -1.0) >= now:
            return
        self._expire(now)
        key, owners, reason = payload, [], None
        if not payload.startswith(wire.ID_RESPONSE):
            if not pending:
                return
            owners = [next(iter(pending.values()))]
            key = (owners[0].nonce, payload)
            if handled.get(key, -1.0) >= now:
                return
        elif pending:
            parsed = wire.parse_signed(payload)  # a response, if it parses at all
            if parsed is None:
                reason = agent_mod.DiscardReason.MALFORMED
            else:
                owners = [p for nonce, p in pending.items() if nonce in parsed[1]]
                reason = None if owners else agent_mod.DiscardReason.STALE_OR_REPLAY
        for request in owners:
            result = self.agent.on_response(request, payload, now)
            if not isinstance(result, agent_mod.DeviceReport):
                reason = result  # the checks that fail do not depend on the request
                break
            self.reports.append(result)
            if result.source is agent_mod.ReportSource.RESPONSE:
                self.latencies.append(now - request.sent_at + self.world.link.manifest_fetch_delay)
        if reason is not None:
            self.discards[reason.value] = self.discards.get(reason.value, 0) + 1
        if reason is not agent_mod.DiscardReason.MANIFEST_UNAVAILABLE:
            while handled and next(iter(handled.values())) < now:  # all last one window
                del handled[next(iter(handled))]
            handled[key] = now + self.agent.scan_window


def _times(name: str, times) -> list[float]:
    """The list of event times `name`, each one range-checked, sorted: a
    start meets the earliest first, so one already past schedules none."""
    if not isinstance(times, (list, tuple)):
        raise ValueError(f"{name} must be a list of times, got {times!r}")
    for t in times:
        ranges.check(**{name: t})
    return sorted(times)


class ImDeviceNode(Node):
    """Inventory device with a serialized processing queue."""

    def __init__(
        self, name: str, device: ImDevice, t_res: float = device_mod.T_RES, domain: str = "default"
    ):
        super().__init__(name, domain, device)
        ranges.check(t_res=t_res)
        self.device = device
        self.t_res = t_res

    def handle_deliver(self, frame: Frame, now: float) -> None:
        response = self.device.respond(frame.payload)
        if response is None:
            return
        done = self.counters.occupy(now, self.t_res)
        self.world.schedule_action(done, partial(self.world.broadcast, self.name, response))


class OwnerNode(Node):
    """Inventory owner issuing solicitation rounds on a fixed schedule.

    The owner reads the responses queued to it as `upcoming`, so one
    naive scan can cover every response already in flight."""

    def __init__(
        self,
        name: str,
        owner: Owner,
        round_times: list[float],
        domain: str = "default",
    ):
        super().__init__(name, domain, owner)
        self.owner = owner
        self.round_times = _times("round_times", round_times)
        self.receipts = []
        self.rejects = owner.counters.rejects

    def start(self, now: float) -> None:
        for t in self.round_times:
            self.world.schedule_action(t, self._solicit)
        self.owner.upcoming = partial(self.world.queued_to, self)

    def _solicit(self, now: float) -> None:
        self.world.broadcast(self.name, self.owner.make_request(), now)

    def handle_deliver(self, frame: Frame, now: float) -> None:
        result = self.owner.receive(frame.payload)
        if isinstance(result, ImReceipt):
            self.receipts.append((now, result))


class AdversaryNode(Node):
    """Dolev-Yao participant on the shared medium, no side channels.

    Behaviors: flood (well-formed requests with random nonces at a fixed
    rate), replay (re-emit recorded frames verbatim), forge_response and
    forge_request (structurally valid messages, random signatures).
    """

    def __init__(
        self,
        name: str,
        behavior: str,
        rng: Random,
        rate: float = 100.0,
        stop: float = float("inf"),
        record_until: float = 0.0,
        replay_at: list[float] | None = None,
        domain: str = "default",
    ):
        super().__init__(name, domain)
        if behavior not in ("flood", "replay", "forge_response", "forge_request"):
            raise ValueError(f"unknown adversary behavior {behavior!r}")
        ranges.check(rate=rate, stop=stop, record_until=record_until)
        self.behavior = behavior
        if behavior != "replay":
            self.hears = frozenset()  # only a replayer uses what it receives
        self.rng = rng
        self.rate = rate
        self.stop = stop
        self.record_until = record_until
        self.replay_at = _times("replay_at", [] if replay_at is None else replay_at)
        self.recorded: list[bytes] = []

    def start(self, now: float) -> None:
        first = now + 1.0 / self.rate
        if self.behavior in ("flood", "forge_response", "forge_request") and first <= self.stop:
            self.world.schedule_action(first, self._emit)
        if self.behavior == "replay":
            for t in self.replay_at:
                self.world.schedule_action(t, self._replay_all)

    def _emit(self, now: float) -> None:
        self.world.broadcast(self.name, self._fabricate(), now)
        nxt = now + 1.0 / self.rate
        if nxt <= self.stop:
            self.world.schedule_action(nxt, self._emit)

    def _fabricate(self) -> bytes:
        if self.behavior == "flood":
            return wire.RequestMsg(self.rng.randbytes(12)).encode()
        if self.behavior == "forge_request":
            return wire.ImRequestMsg(self.rng.randbytes(12), self.rng.randbytes(64)).encode()
        att = wire.AttReport(wire.ATT_SUCCESS, self.rng.randrange(300))
        return wire.ResponseMsg(
            self.rng.randbytes(12),
            (self.rng.randbytes(12),),
            b"ZZzzZZzzZZzzZZ",
            att,
            self.rng.randbytes(64),
        ).encode()

    def handle_deliver(self, frame: Frame, now: float) -> None:
        if self.behavior == "replay" and now <= self.record_until:
            self.recorded.append(frame.payload)

    def _replay_all(self, now: float) -> None:
        for payload in self.recorded:
            self.world.broadcast(self.name, payload, now)
