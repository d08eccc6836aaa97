"""State-machine behavior driven directly, without the network simulator."""

import math
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulldisc import wire
from pulldisc.device import BlendPolicy, Device, Mode, SetTimer, TimerKind, Transmit


def make_device(record, **kwargs):
    return Device(record, b"\x7fELF camera firmware v2.3" * 40, Random(99), **kwargs)


def request(rng):
    return wire.RequestMsg(rng.randbytes(12)).encode()


def decode_responses(pump):
    return [wire.decode(p) for p in pump.payloads]


def test_first_request_sets_deadline(record, pump_factory):
    dev = make_device(record)
    pump = pump_factory(dev)
    rng = Random(0)
    actions = dev.on_frame(request(rng), 5.0)
    assert dev.pool and dev.gen_deadline == 6.0  # t_gen = 1.0
    timers = [a for a in actions if isinstance(a, SetTimer)]
    assert timers == [SetTimer(TimerKind.GEN_DEADLINE, 6.0)]


def test_second_request_does_not_rearm_deadline(record):
    dev = make_device(record)
    dev.boot(0.0)
    rng = Random(0)
    dev.on_frame(request(rng), 5.0)
    actions = dev.on_frame(request(rng), 5.5)
    assert dev.gen_deadline == 6.0  # still anchored to the first request
    assert not [a for a in actions if isinstance(a, SetTimer)]
    assert len(dev.pool) == 2


def test_pool_reaching_cap_triggers_generation(record, pump_factory):
    dev = make_device(record)
    pump = pump_factory(dev)
    rng = Random(1)
    for i in range(128):
        pump.frame(request(rng), at=1.0)
    assert not dev.in_gen
    pump.frame(request(rng), at=1.0)  # 129th
    assert dev.in_gen
    pump.run_until(2.0)
    (msg,) = decode_responses(pump)
    assert msg.count == 129


def test_request_during_generation_goes_to_overflow(record, pump_factory):
    dev = make_device(record)
    pump = pump_factory(dev)
    rng = Random(2)
    pump.frame(request(rng), at=1.0)
    pump.run_until(2.0)  # deadline at 2.0 fires, generation starts
    assert dev.in_gen
    pump.frame(request(rng), at=2.1)
    assert dev.pool_tmp and not dev.pool
    pump.run_until(4.0)
    first, second = decode_responses(pump)
    assert first.count == 1 and second.count == 1


def test_ignores_foreign_and_malformed_frames(record):
    dev = make_device(record)
    dev.boot(0.0)
    assert dev.on_frame(b"DP-RES" + bytes(96), 1.0) == []
    assert dev.on_frame(b"DP-REQ" + bytes(11), 1.0) == []  # short
    assert dev.on_frame(b"", 1.0) == []
    assert not dev.pool


def test_attestation_pristine_then_tampered(record):
    dev = make_device(record)
    dev.boot(0.0)
    dev.on_timer(TimerKind.ATTEST, 10.0)
    assert dev.att_result == wire.ATT_SUCCESS
    dev.memory_image[7] ^= 0xFF
    dev.on_timer(TimerKind.ATTEST, 20.0)
    assert dev.att_result == wire.ATT_FAIL
    assert dev.last_att_time == 20.0


def test_response_reports_attestation_age(record, pump_factory):
    dev = make_device(record)
    pump = pump_factory(dev)
    rng = Random(3)
    pump.run_until(300.0)  # first periodic attestation fires at 300
    assert dev.counters.attestations == 1
    pump.frame(request(rng), at=357.5)
    pump.run_until(360.0)
    (msg,) = decode_responses(pump)
    # generation started at 358.5; last attestation at 300 -> 58 whole seconds
    assert msg.att_report.seconds_since == 58
    assert msg.att_report.result == wire.ATT_SUCCESS


def test_attestation_cadence_and_radio_silence(record, pump_factory):
    dev = make_device(record)
    pump = pump_factory(dev)
    pump.run_until(3600.0)
    assert dev.counters.attestations == 12  # every 300 s
    assert pump.payloads == []  # pull mode, no requests: zero protocol bytes


def test_simultaneous_gen_and_att_defers_attestation(record):
    dev = make_device(record)
    dev.boot(0.0)
    rng = Random(4)
    dev.on_frame(request(rng), 299.0)  # deadline at 300.0, same as attestation
    gen_actions = dev.on_timer(TimerKind.GEN_DEADLINE, 300.0)
    assert dev.in_gen
    att_actions = dev.on_timer(TimerKind.ATTEST, 300.0)
    assert dev.pending_att and dev.counters.attestations == 0
    assert any(
        isinstance(a, SetTimer) and a.kind is TimerKind.ATTEST and a.at == 600.0
        for a in att_actions
    )
    complete = dev.on_timer(TimerKind.GEN_COMPLETE, 300.233)
    assert any(isinstance(a, Transmit) for a in complete)  # response goes out first
    assert dev.counters.attestations == 1  # deferred attestation ran after
    assert dev.last_att_time == 300.233


def test_burst_within_one_window_pools_into_blocks(record, pump_factory):
    """Oracle: ceil(1000 / 129) responses, every nonce in exactly one."""
    dev = make_device(record)
    pump = pump_factory(dev)
    rng = Random(5)
    nonces = [rng.randbytes(12) for _ in range(1000)]
    for nonce in nonces:
        pump.frame(wire.RequestMsg(nonce).encode(), at=1.0)
    pump.run_until(60.0)
    messages = decode_responses(pump)
    assert len(messages) == math.ceil(1000 / 129) == 8
    seen = [n for m in messages for n in m.pooled_nonces]
    assert sorted(seen) == sorted(nonces)
    assert len(set(seen)) == 1000


def test_signature_rate_bound(record, pump_factory):
    """Responses never exceed ceil(delivered / pool_max) + 1."""
    rng = Random(6)
    for delivered in (1, 5, 129, 130, 400, 1000):
        dev = make_device(record)
        pump = pump_factory(dev)
        for _ in range(delivered):
            pump.frame(request(rng), at=1.0)
        pump.run_until(120.0)
        assert dev.counters.responses <= math.ceil(delivered / 129) + 1


def test_single_response_returns_to_wait(record, pump_factory):
    dev = make_device(record)
    pump = pump_factory(dev)
    pump.frame(request(Random(7)), at=1.0)
    pump.run_until(10.0)
    (msg,) = decode_responses(pump)
    assert msg.count == 1
    assert not dev.in_gen and not dev.pool and dev.gen_deadline is None


def test_deadline_fill_rides_same_response(record):
    """A frame at the exact deadline instant is processed first and rides
    the response the deadline triggers."""
    dev = make_device(record)
    dev.boot(0.0)
    rng = Random(8)
    dev.on_frame(request(rng), 5.0)  # deadline at 6.0
    dev.on_frame(request(rng), 6.0)  # arrives exactly at the deadline
    actions = dev.on_timer(TimerKind.GEN_DEADLINE, 6.0)
    complete = dev.on_timer(TimerKind.GEN_COMPLETE, 6.233)
    (transmit,) = [a for a in complete if isinstance(a, Transmit)]
    assert wire.decode(transmit.payload).count == 2


def test_stale_deadline_is_noop(record):
    dev = make_device(record)
    dev.boot(0.0)
    rng = Random(9)
    for _ in range(129):
        dev.on_frame(request(rng), 1.0)  # fills pool, generation starts early
    assert dev.in_gen and dev.gen_deadline is None
    assert dev.on_timer(TimerKind.GEN_DEADLINE, 2.0) == []


def test_random_delete_disabled_grows_unbounded(record, pump_factory):
    dev = make_device(record)
    pump = pump_factory(dev)
    rng = Random(10)
    for _ in range(129):
        pump.frame(request(rng), at=1.0)
    for _ in range(10 * 129):
        pump.frame(request(rng), at=1.01)
    assert len(dev.pool_tmp) == 10 * 129
    assert dev.counters.dropped_nonces == 0


def test_random_delete_enforces_cap(record, pump_factory):
    cap = 2 * 129
    dev = make_device(record, pool_tmp_cap=cap)
    pump = pump_factory(dev)
    rng = Random(11)
    for _ in range(129):
        pump.frame(request(rng), at=1.0)
    for _ in range(10 * 129):
        pump.frame(request(rng), at=1.01)
        assert len(dev.pool_tmp) <= cap
    assert dev.counters.dropped_nonces == 10 * 129 - cap


def test_random_delete_reproducible(record):
    def surviving(seed):
        dev = Device(record, b"x", Random(seed), pool_tmp_cap=4)
        dev.boot(0.0)
        rng = Random(12)
        for _ in range(129):
            dev.on_frame(request(rng), 1.0)
        for _ in range(40):
            dev.on_frame(request(rng), 1.01)
        return list(dev.pool_tmp)

    assert surviving(5) == surviving(5)


def _in_window(record, mode, cap):
    """A device whose `t_res` window is open, that window's start and end.
    A pull device fills its pool at 1.0; a blend device switches to push at
    0.95, until 1.05, and announces; its rate window keeps 0.02 s."""
    rng = Random(20)
    if mode is Mode.PULL:
        dev = make_device(record, pool_tmp_cap=cap)
        dev.boot(0.0)
        for _ in range(129):
            actions = dev.on_frame(request(rng), 1.0)
        opened = 1.0
    else:
        policy = BlendPolicy(switch_threshold=50, window=0.02, push_period=0.1, announce_interval=1.0)
        dev = make_device(record, mode=Mode.BLEND, blend=policy, pool_tmp_cap=cap)
        dev.boot(0.0)
        for _ in range(51):
            dev.on_frame(request(rng), 0.95)
        opened, actions = 0.95, dev.on_timer(TimerKind.ANNOUNCE, 0.95)
    (end,) = [a.at for a in actions if isinstance(a, SetTimer) and a.kind is TimerKind.GEN_COMPLETE]
    assert dev.in_gen
    return dev, opened, end


@pytest.mark.parametrize("cap", [None, 0, 5])
@pytest.mark.parametrize("mode", [Mode.PULL, Mode.BLEND])
def test_a_batch_leaves_the_state_of_its_frames_one_at_a_time(record, mode, cap):
    one, opened, end = _in_window(record, mode, cap)
    batched, _, _ = _in_window(record, mode, cap)
    until = one.pools_until
    assert until == (end if mode is Mode.PULL else math.nextafter(1.05, 0.0))
    rng = Random(21)
    times = sorted([opened, until] + [rng.uniform(opened, until) for _ in range(30)] * 2)
    frames = [(t, request(rng)) for t in times]
    frames[7:7] = [(times[7], b"DP-REQ" + bytes(11)), (times[7], b"DP-RES" + bytes(96))]
    for t, payload in frames:
        assert one.on_frame(payload, t) == []
    batched.pool_batch(frames)

    def state(dev):
        return (dev.pool, dev.pool_tmp, list(dev._arrivals), dev.push_until,
                dev._next_announce_at, dev.counters, dev.rng.random())

    assert state(batched) == state(one)
    assert len(one.pool_tmp) == (len(times) if cap is None else cap)


def test_a_device_states_its_pooling_bound_only_while_a_window_pools(record):
    """`pools_until` is -inf but in a pull window or a blend window in push,
    and the window's close clears it."""
    rng = Random(22)
    calm = BlendPolicy(switch_threshold=200, window=1.0, push_period=1.0, announce_interval=1.0)
    fresh = [make_device(record), make_device(record, mode=Mode.PUSH),
             make_device(record, mode=Mode.BLEND, blend=calm)]
    for dev in fresh:
        dev.boot(0.0)
        assert dev.pools_until == -math.inf
    _, push, blend = fresh
    push.on_timer(TimerKind.ANNOUNCE, 1.0)
    for _ in range(129):
        blend.on_frame(request(rng), 1.0)
    pull, _, pull_end = _in_window(record, Mode.PULL, None)
    blend_in_push, _, _ = _in_window(record, Mode.BLEND, None)
    windows = [(pull, pull_end), (blend_in_push, math.nextafter(1.05, 0.0)),
               (push, -math.inf), (blend, -math.inf)]
    for dev, bound in windows:
        assert dev.in_gen and dev.pools_until == bound
        dev.on_timer(TimerKind.GEN_COMPLETE, dev.counters.busy_until)
        assert not dev.in_gen and dev.pools_until == -math.inf


@given(
    bursts=st.lists(
        st.tuples(st.integers(0, 300), st.floats(0.0, 3.0)), min_size=1, max_size=6
    ),
    pool_max=st.sampled_from([1, 2, 7, 129]),
)
@settings(max_examples=30, deadline=None)
def test_conservation_property(bursts, pool_max):
    """Deletion disabled: any arrival pattern is answered exactly once."""
    from conftest import DevicePump
    from pulldisc import crypto, registration

    rng = Random(4242)
    mfr = crypto.generate_keypair(rng)
    record = registration.provision_db_device(
        mfr,
        registration.DeviceDescriptor("s", ("t",), "1", "x", b"img", "u"),
        t_att=300.0,
        t_gen=0.7,
        pool_max=pool_max,
        store=registration.ManifestStore(),
        rng=rng,
    )
    dev = Device(record, b"img", Random(1))
    pump = DevicePump(dev)
    sent = []
    t = 0.0
    for count, gap in bursts:
        t += gap
        for _ in range(count):
            nonce = rng.randbytes(12)
            sent.append(nonce)
            pump.frame(wire.RequestMsg(nonce).encode(), at=t)
    pump.run_until(t + 400.0)
    seen = [n for p in pump.payloads for n in wire.decode(p).pooled_nonces]
    assert sorted(seen) == sorted(sent)
    assert dev.counters.responses <= math.ceil(len(sent) / pool_max) + len(bursts)


def test_no_drop_conservation_with_overflow(record, pump_factory):
    """Deletion disabled: every delivered nonce appears in exactly one
    response, across arbitrary interleaving of arrivals and generations."""
    dev = make_device(record)
    pump = pump_factory(dev)
    rng = Random(13)
    sent = []
    t = 1.0
    for burst in (129, 700, 3, 130, 38):
        for _ in range(burst):
            nonce = rng.randbytes(12)
            sent.append(nonce)
            pump.frame(wire.RequestMsg(nonce).encode(), at=t)
        t += 0.05
    pump.run_until(300.0)
    seen = [n for m in decode_responses(pump) for n in m.pooled_nonces]
    assert sorted(seen) == sorted(sent)


def test_push_mode_announces_and_ignores_requests(record, pump_factory):
    dev = make_device(record, mode=Mode.PUSH, announce_interval=1.0)
    pump = pump_factory(dev)
    pump.frame(request(Random(14)), at=0.5)
    assert not dev.pool  # push devices do not serve requests
    pump.run_until(10.5)  # ticks at 1..10, each transmitted 0.233 s later
    messages = decode_responses(pump)
    assert len(messages) == 10
    assert dev.counters.announcements == 10
    assert all(isinstance(m, wire.AnnouncementMsg) for m in messages)
    retransmit_flags = {flag for _, _, flag in pump.transmissions}
    assert retransmit_flags == {False}  # announcements are single-shot


def test_blend_quiet_below_threshold(record, pump_factory):
    policy = BlendPolicy(switch_threshold=5, window=2.0, push_period=20.0, announce_interval=2.0)
    dev = make_device(record, mode=Mode.BLEND, blend=policy)
    pump = pump_factory(dev)
    rng = Random(15)
    for i in range(8):  # slow trickle, never above threshold per window
        pump.frame(request(rng), at=10.0 * (i + 1))
    pump.run_until(120.0)
    assert dev.counters.announcements == 0
    assert all(isinstance(m, wire.ResponseMsg) for m in decode_responses(pump))


def test_blend_switches_to_push_then_reverts(record, pump_factory):
    policy = BlendPolicy(switch_threshold=5, window=2.0, push_period=20.0, announce_interval=2.0)
    dev = make_device(record, mode=Mode.BLEND, blend=policy)
    pump = pump_factory(dev)
    rng = Random(16)
    for _ in range(6):  # crosses the threshold within one window
        pump.frame(request(rng), at=10.0)
    assert dev.push_until == 30.0
    pump.run_until(200.0)
    expected = math.floor(policy.push_period / policy.announce_interval)
    assert abs(dev.counters.announcements - expected) <= 1
    assert dev.push_until is None  # reverted
    messages = decode_responses(pump)
    assert any(isinstance(m, wire.ResponseMsg) for m in messages)
    assert any(isinstance(m, wire.AnnouncementMsg) for m in messages)
    # requests were still served during the push phase
    pooled = [n for m in messages if isinstance(m, wire.ResponseMsg) for n in m.pooled_nonces]
    assert len(pooled) == 6


def test_blend_requires_policy(record):
    with pytest.raises(ValueError):
        make_device(record, mode=Mode.BLEND)


def test_blend_retrigger_does_not_double_announcements(record, pump_factory):
    """A leftover tick from a finished push phase must not survive into the
    next one as a second announcement chain."""
    policy = BlendPolicy(switch_threshold=1, window=1.0, push_period=5.0, announce_interval=2.0)
    dev = make_device(record, mode=Mode.BLEND, blend=policy)
    pump = pump_factory(dev)
    rng = Random(18)
    pump.frame(request(rng), at=10.0)
    pump.frame(request(rng), at=10.0)  # push phase one: ticks at 10, 12, 14
    pump.run_until(15.4)
    assert dev.counters.announcements == 3
    # retrigger after push_until (15.0) but before the stale tick at 16.0
    pump.frame(request(rng), at=15.5)
    pump.frame(request(rng), at=15.5)  # phase two: ticks at 15.5, 17.5, 19.5
    pump.run_until(40.0)
    assert dev.counters.announcements == 6


def test_announcement_defers_pending_pool(record, pump_factory):
    """A pool whose deadline expires during an announcement window is
    served immediately after the announcement completes."""
    policy = BlendPolicy(switch_threshold=1, window=1.0, push_period=5.0, announce_interval=1.0)
    dev = make_device(record, mode=Mode.BLEND, blend=policy)
    dev.boot(0.0)
    rng = Random(17)
    dev.on_frame(request(rng), 1.0)
    dev.on_frame(request(rng), 1.1)  # crosses threshold -> push at 1.1
    assert dev.push_until == 6.1
    dev.on_timer(TimerKind.ANNOUNCE, 1.1)  # announcement busy until 1.333
    assert dev.in_gen
    dev.on_timer(TimerKind.GEN_DEADLINE, 2.0)  # pool deadline during busy
    assert dev.gen_deadline == 2.0
    actions = dev.on_timer(TimerKind.GEN_COMPLETE, 2.1)
    assert dev.in_gen  # response generation chained right after
    complete = dev.on_timer(TimerKind.GEN_COMPLETE, 2.333)
    payloads = [a.payload for a in complete if isinstance(a, Transmit)]
    assert payloads and wire.decode(payloads[0]).count == 2


def test_deadline_at_end_of_announcement_window_fires_on_its_own_tick(record, pump_factory):
    """A deadline equal to the end of an announcement window is served by
    its own tick, after `GEN_COMPLETE`: a request landing between the two
    (as a zero-latency delivery can) still joins the response."""
    policy = BlendPolicy(switch_threshold=1, window=1.0, push_period=1.0, announce_interval=0.5)
    dev = make_device(record, mode=Mode.BLEND, blend=policy, t_res=0.25)
    pump = pump_factory(dev)
    rng = Random(3)
    pump.frame(request(rng), at=0.25)  # deadline at 1.25
    pump.frame(request(rng), at=0.5)  # push: announcement windows 0.5-0.75 and 1.0-1.25
    pump.run_until(1.2)
    pump.step_timer()  # GEN_COMPLETE at 1.25 precedes GEN_DEADLINE at 1.25
    assert (pump.now, dev.gen_deadline, dev.in_gen) == (1.25, 1.25, False)
    pump.frame(request(rng), at=1.25)
    pump.run_until(3.0)
    sent = [(t, type(m).__name__, getattr(m, "count", 0), retransmit)
            for (t, _, retransmit), m in zip(pump.transmissions, decode_responses(pump))]
    assert sent == [
        (0.75, "AnnouncementMsg", 0, False),
        (1.25, "AnnouncementMsg", 0, False),
        (1.5, "ResponseMsg", 3, True),
    ]
