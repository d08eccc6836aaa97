"""Pull-mode device runtime: nonce pooling, lazy responses, attestation.

The device is a four-state machine (wait / attest / receive / generate)
driven by two inputs: received frames and timer ticks. Request nonces are
pooled and answered collectively by one signed response, generated when
the response delay expires or the pool hits its cap, whichever is first.
Requests arriving while a response is being generated land in a temporary
overflow list that is drained into the pool in pool-sized blocks, each
block triggering another generation pass.

Generation occupies the device for `t_res` seconds (signing dominates);
the finished response is broadcast at the end of that window. Periodic
attestation ticks that land inside the window are suppressed and executed
right after it, so response generation always wins the timer race.

Devices can also run push (periodic announcements, requests ignored) or
blend mode (pull that switches to push for a fixed period whenever the
request rate over a trailing window crosses a threshold).

All methods return a list of actions (transmissions and timer requests)
for the caller to apply; the device never touches a clock or network
itself, which keeps runs reproducible and the machine testable in
isolation.
"""

from __future__ import annotations

import dataclasses
import enum
from collections import deque
from dataclasses import dataclass, field
from random import Random

from . import crypto, ranges, wire
from .registration import DeviceProvisioningRecord


class Mode(enum.Enum):
    PULL = "pull"
    PUSH = "push"
    BLEND = "blend"


class TimerKind(enum.Enum):
    # Declaration order is the processing priority at equal timestamps:
    # finishing a generation precedes starting one, and both precede
    # attestation ticks (generation wins a simultaneous timer race).
    GEN_COMPLETE = 0
    GEN_DEADLINE = 1
    ATTEST = 2
    ANNOUNCE = 3


@dataclass(frozen=True)
class Transmit:
    payload: bytes
    wire_size: int  # bytes counted on air (>= len(payload))
    retransmit: bool  # responses use the reliability retransmit schedule


@dataclass(frozen=True)
class SetTimer:
    kind: TimerKind
    at: float


Action = Transmit | SetTimer


@dataclass(frozen=True)
class BlendPolicy:
    """When and how a blend-mode device flips to push behavior."""

    switch_threshold: int  # requests within `window` that trigger push
    window: float
    push_period: float
    announce_interval: float

    def __post_init__(self):
        ranges.check(**vars(self))


@dataclass
class Counters:
    """One node's cost record, for every role: the simulator adds the
    radio fields, and inventory devices and owners keep the last four."""

    busy_seconds: float = 0.0
    signatures: int = 0
    attestations: int = 0
    tx_bytes: int = 0
    rx_bytes: int = 0
    tx_frames: int = 0
    rx_frames: int = 0
    responses: int = 0
    announcements: int = 0
    dropped_nonces: int = 0
    pool_tmp_peak: int = 0
    wasted_verifications: int = 0  # bad-signature requests burned a verify
    requests: int = 0
    receipts: int = 0
    rejects: dict[str, int] = field(default_factory=dict)


class Device:
    """One pull/push/blend device instance; single-threaded by contract."""

    def __init__(
        self,
        provisioning: DeviceProvisioningRecord,
        memory_image: bytearray | bytes,
        rng: Random,
        *,
        mode: Mode = Mode.PULL,
        blend: BlendPolicy | None = None,
        t_res: float = 0.233,  # response generation cost, signing dominated
        t_att_exec: float = 0.001,  # hashing the image is near-free by comparison
        announce_interval: float = 1.0,
        announce_wire_size: int = 128,  # on-air announcement size incl. padding
        pool_tmp_cap: int | None = None,
    ):
        if (mode is Mode.BLEND) != (blend is not None):
            raise ValueError("mode 'blend' needs a blend policy, "
                             "and a blend policy needs mode 'blend'")
        ranges.check(
            t_res=t_res,
            t_att_exec=t_att_exec,
            announce_interval=announce_interval,
            announce_wire_size=announce_wire_size,
            pool_tmp_cap=pool_tmp_cap,
        )
        self.provisioning = provisioning
        self.memory_image = bytearray(memory_image)
        self.rng = rng
        self.mode = mode
        self.blend = blend
        self.t_res = t_res
        self.t_att_exec = t_att_exec
        self.announce_interval = announce_interval
        self.announce_wire_size = announce_wire_size
        self.pool_tmp_cap = pool_tmp_cap

        self.pool: list[bytes] = []
        self.pool_tmp: list[bytes] = []
        self.gen_deadline: float | None = None
        self.pending_att = False
        self.pending_gen = False
        self.push_until: float | None = None
        self.att_result = wire.ATT_FAIL
        self.last_att_time = 0.0
        self.counters = Counters()
        self._arrivals: deque[float] = deque()
        self._pending_tx: Transmit | None = None
        # Only one announcement timer chain may be live; ticks that do not
        # match this timestamp are stale leftovers of a finished chain.
        self._next_announce_at: float | None = None

    @property
    def in_gen(self) -> bool:
        """Whether a `t_res` window is open (its transmit not yet sent)."""
        return self._pending_tx is not None

    # -- lifecycle ---------------------------------------------------------

    def boot(self, now: float = 0.0) -> list[Action]:
        """Initial measurement and timer setup; returns startup actions."""
        # Registration-time measurement: seeds att_result without counting
        # as a runtime attestation event.
        self._attest(now, counted=False)
        actions: list[Action] = [SetTimer(TimerKind.ATTEST, now + self.provisioning.t_att)]
        if self.mode is Mode.PUSH:
            self._next_announce_at = now + self.announce_interval
            actions.append(SetTimer(TimerKind.ANNOUNCE, self._next_announce_at))
        return actions

    # -- event handlers ----------------------------------------------------

    @property
    def hears(self) -> frozenset[bytes]:
        """The frame kinds `on_frame` acts on: requests, none in push mode."""
        return frozenset() if self.mode is Mode.PUSH else frozenset({wire.ID_REQUEST})

    def on_frame(self, payload: bytes, now: float) -> list[Action]:
        """Handle a received frame; anything but a request is ignored."""
        if self.mode is Mode.PUSH:
            return []
        if len(payload) != wire.REQUEST_LEN or not payload.startswith(wire.ID_REQUEST):
            return []
        nonce = bytes(payload[6:])
        actions: list[Action] = []

        if self.mode is Mode.BLEND:
            actions.extend(self.blend_step(now))

        if self.in_gen:
            self.pool_tmp.append(nonce)
            self.random_delete()
            self.counters.pool_tmp_peak = max(self.counters.pool_tmp_peak, len(self.pool_tmp))
            return actions

        self.pool.append(nonce)
        if len(self.pool) >= self.provisioning.pool_max:
            actions.extend(self._enter_gen(now))
        elif len(self.pool) == 1:
            # The lazy-response timer is armed only by the first request.
            self.gen_deadline = now + self.provisioning.t_gen
            actions.append(SetTimer(TimerKind.GEN_DEADLINE, self.gen_deadline))
        return actions

    def on_timer(self, kind: TimerKind, at: float) -> list[Action]:
        """Fire the `kind` timer that was set for time `at`, at that time."""
        if kind is TimerKind.GEN_DEADLINE:
            if self.gen_deadline != at:
                return []  # superseded (pool filled early, or already drained)
            self.gen_deadline = None
            if self.in_gen:
                # Deadline expired during an announcement window; generate
                # as soon as the radio frees up.
                self.pending_gen = True
                return []
            return self._enter_gen(at)

        if kind is TimerKind.ATTEST:
            actions: list[Action] = [SetTimer(TimerKind.ATTEST, at + self.provisioning.t_att)]
            if self.in_gen:
                self.pending_att = True  # suppressed until generation ends
            else:
                self._attest(at)
            return actions

        if kind is TimerKind.GEN_COMPLETE:
            return self._complete_gen(at)

        if kind is TimerKind.ANNOUNCE:
            return self._announce_tick(at)

        raise ValueError(f"unknown timer kind {kind}")

    # -- attestation -------------------------------------------------------

    def attest_now(self, now: float) -> int:
        """Measure the image against the provisioned hash; returns the flag."""
        self._attest(now)
        return self.att_result

    def _attest(self, now: float, counted: bool = True) -> None:
        matches = crypto.hash_image(bytes(self.memory_image)) == self.provisioning.software_hash
        self.att_result = wire.ATT_SUCCESS if matches else wire.ATT_FAIL
        self.last_att_time = now
        if counted:
            self.counters.attestations += 1
            self.counters.busy_seconds += self.t_att_exec

    # -- response / announcement generation ---------------------------------

    def generate_response(self, now: float) -> wire.ResponseMsg:
        """Sign one response covering the current pool (pool must be nonempty)."""
        return self._signed(wire.ResponseMsg, now, pooled_nonces=tuple(self.pool))

    def _generate_announcement(self, now: float) -> wire.AnnouncementMsg:
        return self._signed(wire.AnnouncementMsg, now)

    def _signed(self, cls, now: float, **fields):
        """Build a `cls` message with a fresh nonce and this device's
        attestation report, and sign it with the device key."""
        unsigned = cls(
            device_nonce=self.rng.randbytes(wire.NONCE_LEN),
            url=self.provisioning.url,
            att_report=wire.AttReport(self.att_result, int(now - self.last_att_time)),
            signature=bytes(crypto.SIGNATURE_LEN),
            **fields,
        )
        signature = crypto.sign(
            self.provisioning.keypair.private_key, wire.signed_region(unsigned)
        )
        self.counters.signatures += 1
        return dataclasses.replace(unsigned, signature=signature)

    def _occupy(self, transmit: Transmit, now: float) -> SetTimer:
        """Hold the radio for `t_res`; `transmit` goes out when it ends."""
        self.counters.busy_seconds += self.t_res
        self._pending_tx = transmit
        return SetTimer(TimerKind.GEN_COMPLETE, now + self.t_res)

    def _enter_gen(self, now: float) -> list[Action]:
        self.gen_deadline = None
        payload = self.generate_response(now).encode()
        self.pool = []
        self.counters.responses += 1
        return [self._occupy(Transmit(payload, len(payload), retransmit=True), now)]

    def _complete_gen(self, now: float) -> list[Action]:
        assert self._pending_tx is not None
        actions: list[Action] = [self._pending_tx]
        self._pending_tx = None

        # Drain one pool-sized block of the overflow list into the pool.
        space = self.provisioning.pool_max - len(self.pool)
        if space > 0 and self.pool_tmp:
            self.pool.extend(self.pool_tmp[:space])
            del self.pool_tmp[:space]

        if self.pending_att:
            self.pending_att = False
            self._attest(now)

        if self.pending_gen or len(self.pool) >= self.provisioning.pool_max:
            self.pending_gen = False
            actions.extend(self._enter_gen(now))
        elif self.pool and self.gen_deadline is None:
            self.gen_deadline = now + self.provisioning.t_gen
            actions.append(SetTimer(TimerKind.GEN_DEADLINE, self.gen_deadline))
        return actions

    def _announce_tick(self, at: float) -> list[Action]:
        if at != self._next_announce_at:
            return []  # leftover tick from a superseded chain
        if self.mode is Mode.BLEND:
            if self.push_until is None or at >= self.push_until:
                self.push_until = None  # revert to pull behavior
                self._next_announce_at = None
                return []
            interval = self.blend.announce_interval
        else:
            interval = self.announce_interval
        self._next_announce_at = at + interval
        actions: list[Action] = [SetTimer(TimerKind.ANNOUNCE, self._next_announce_at)]
        if self.in_gen:
            return actions  # response generation takes precedence
        payload = self._generate_announcement(at).encode()
        self.counters.announcements += 1
        actions.append(self._occupy(Transmit(payload, self.announce_wire_size, retransmit=False), at))
        return actions

    # -- blend and flood handling -------------------------------------------

    def blend_step(self, now: float) -> list[Action]:
        """Update the request-rate window; switch to push when it spills."""
        self._arrivals.append(now)
        horizon = now - self.blend.window
        while self._arrivals and self._arrivals[0] < horizon:
            self._arrivals.popleft()
        in_push = self.push_until is not None and now < self.push_until
        if not in_push and len(self._arrivals) > self.blend.switch_threshold:
            self.push_until = now + self.blend.push_period
            self._next_announce_at = now
            return [SetTimer(TimerKind.ANNOUNCE, now)]
        return []

    def random_delete(self) -> None:
        """Enforce the overflow cap by dropping uniformly random nonces."""
        if self.pool_tmp_cap is None:
            return
        while len(self.pool_tmp) > self.pool_tmp_cap:
            victim = self.rng.randrange(len(self.pool_tmp))
            self.pool_tmp.pop(victim)
            self.counters.dropped_nonces += 1
