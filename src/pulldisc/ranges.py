"""The range of every numeric setting, in one table.

`check` applies one rule everywhere: a bool is not a number (Python counts
it as an int), and NaN or a value of another type fails every range. Rules
between settings stay with the constructor that owns them.
"""

from __future__ import annotations

import math

from . import wire

_POSITIVE = (lambda v: v > 0, "must be positive")
_POSITIVE_FINITE = (lambda v: 0 < v < math.inf, "must be positive and finite")
_NONNEGATIVE_FINITE = (lambda v: 0 <= v < math.inf, "must be >= 0 and finite")
_NONE_OR_COUNT = (lambda v: v is None or (type(v) is int and v >= 0),
                  "must be null or an integer >= 0")
_NOT_NAN = (lambda v: -math.inf <= v <= math.inf, "must be a number, not NaN")

# Setting name, as constructors and scenario files spell it -> (test, rule). A list
# setting (`replay_at`, `round_times`) is checked one item at a time.
RANGES = {
    "seed": (lambda v: type(v) is int, "must be an integer"),
    "horizon": _POSITIVE_FINITE,
    "p_loss": (lambda v: 0 <= v <= 1, "must be within [0, 1]"),
    "latency_min": _NONNEGATIVE_FINITE,
    "latency_max": _NONNEGATIVE_FINITE,
    "manifest_fetch_delay": _NONNEGATIVE_FINITE,
    "t_att": _POSITIVE_FINITE,
    "t_gen": _NONNEGATIVE_FINITE,
    "pool_max": (lambda v: type(v) is int and 1 <= v <= wire.RESPONSE_MAX_NONCES,
                 f"must be an integer in [1, {wire.RESPONSE_MAX_NONCES}]"),
    "t_res": _NONNEGATIVE_FINITE,
    "t_att_exec": _NONNEGATIVE_FINITE,
    "announce_interval": _POSITIVE_FINITE,
    "announce_wire_size": (
        lambda v: type(v) is int and wire.RESPONSE_BASE_LEN <= v <= wire.MAX_PAYLOAD,
        f"must be an integer in [{wire.RESPONSE_BASE_LEN}, {wire.MAX_PAYLOAD}]",
    ),
    "pool_tmp_cap": _NONE_OR_COUNT,
    "switch_threshold": _POSITIVE,
    "window": _POSITIVE,
    "push_period": _POSITIVE,
    "scan_window": _POSITIVE_FINITE,
    "interval": _NONNEGATIVE_FINITE,  # periodic and poisson arrivals also refuse 0
    "start": _NONNEGATIVE_FINITE,
    "count": _NONE_OR_COUNT,
    "rate": _POSITIVE_FINITE,
    "stop": _NOT_NAN,
    "record_until": _NOT_NAN,
    "replay_at": _NONNEGATIVE_FINITE,
    "round_times": _NONNEGATIVE_FINITE,
}


def check(error: type[Exception] = ValueError, **values) -> None:
    """Raise `error` for the first of `values` outside its setting's range."""
    for name, value in values.items():
        within, rule = RANGES[name]
        try:
            ok = type(value) is not bool and within(value)
        except TypeError:  # not a number
            ok = False
        if not ok:
            raise error(f"{name} {rule}, got {value!r}")
