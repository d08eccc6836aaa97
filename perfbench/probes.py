"""Fixed-size layer probes: the cost of one operation, whatever the mix.

Each probe times one call on fixed inputs. It calibrates a batch size that
runs for at least ``BATCH_S`` seconds, times ``BATCHES`` batches and
reports the median per-call time in microseconds.
"""

from __future__ import annotations

import heapq
import itertools
import statistics
from random import Random
from time import perf_counter

from pulldisc import crypto, keytree, wire

BATCH_S = 0.02
BATCHES = 5
LKH_LEAVES = 1 << 16


def per_call_us(fn) -> float:
    n = 1
    while True:
        start = perf_counter()
        for _ in range(n):
            fn()
        if perf_counter() - start >= BATCH_S:
            break
        n *= 2
    samples = []
    for _ in range(BATCHES):
        start = perf_counter()
        for _ in range(n):
            fn()
        samples.append((perf_counter() - start) / n)
    return statistics.median(samples) * 1e6


def _response(rng: Random, count: int) -> wire.ResponseMsg:
    return wire.ResponseMsg(
        device_nonce=rng.randbytes(wire.NONCE_LEN),
        pooled_nonces=tuple(rng.randbytes(wire.NONCE_LEN) for _ in range(count)),
        url=b"probe-url-0001",
        att_report=wire.AttReport(wire.ATT_SUCCESS, 12),
        signature=rng.randbytes(crypto.SIGNATURE_LEN),
    )


def _aead_miss(key, iv, sealed):
    try:
        crypto.aead_open(key, iv, sealed)
    except crypto.AeadAuthenticationError:
        pass


def run_probes(seed: int, heap_depth: int) -> dict[str, float]:
    """Per-call microseconds for each probe; heap_depth is the event-queue
    depth the workload reached, so the heap probe matches its load."""
    rng = Random(f"perfbench/probe/{seed}")
    request = wire.RequestMsg(rng.randbytes(wire.NONCE_LEN))
    request_bytes = request.encode()
    one, full = _response(rng, 1), _response(rng, wire.RESPONSE_MAX_NONCES)
    one_bytes, full_bytes = one.encode(), full.encode()

    keypair = crypto.generate_keypair(rng)
    message = wire.signed_region(full)
    signature = crypto.sign(keypair.private_key, message)
    key, wrong = rng.randbytes(crypto.SYMMETRIC_KEY_LEN), rng.randbytes(crypto.SYMMETRIC_KEY_LEN)
    iv = rng.randbytes(crypto.AEAD_IV_LEN)
    sealed = crypto.aead_seal(key, iv, rng.randbytes(wire.IM_PLAINTEXT_LEN))
    nonce = rng.randbytes(wire.NONCE_LEN)

    tree = keytree.build_tree(LKH_LEAVES, 2, rng)
    leaf = rng.randrange(LKH_LEAVES)
    header = keytree.build_header(keytree.device_key_vector(tree, leaf), nonce)
    if keytree.retrieve_lkh(tree, header, nonce)[0] != leaf:
        raise RuntimeError("key-tree probe walked to the wrong leaf")

    depth = max(heap_depth, 1)
    seq = itertools.count()
    heap = [(rng.uniform(0, 600), 0, next(seq), "deliver", "node", None) for _ in range(depth)]
    heapq.heapify(heap)
    times = itertools.cycle([rng.uniform(0, 600) for _ in range(4096)])

    def heap_push_pop():
        heapq.heappush(heap, (next(times), 0, next(seq), "deliver", "node", None))
        heapq.heappop(heap)

    probes = {
        "probe.wire.encode_request.us": request.encode,
        "probe.wire.decode_request.us": lambda: wire.decode(request_bytes),
        "probe.wire.encode_response1.us": one.encode,
        "probe.wire.decode_response1.us": lambda: wire.decode(one_bytes),
        "probe.wire.encode_response129.us": full.encode,
        "probe.wire.decode_response129.us": lambda: wire.decode(full_bytes),
        "probe.crypto.sign.us": lambda: crypto.sign(keypair.private_key, message),
        "probe.crypto.verify.us": lambda: crypto.verify(keypair.public_key, message, signature),
        "probe.crypto.aead_open_hit.us": lambda: crypto.aead_open(key, iv, sealed),
        "probe.crypto.aead_open_miss.us": lambda: _aead_miss(wrong, iv, sealed),
        "probe.crypto.prf_eval.us": lambda: crypto.prf_eval(key, nonce),
        "probe.keytree.retrieve_lkh.us": lambda: keytree.retrieve_lkh(tree, header, nonce),
        "probe.simnet.heap_push_pop.us": heap_push_pop,
    }
    out = {name: per_call_us(fn) for name, fn in probes.items()}
    out["probe.simnet.heap_depth"] = depth
    return out
