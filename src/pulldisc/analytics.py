"""Closed-form CPU-usage and bandwidth models for push and pull operation.

Busy fraction comes in two denominator conventions:

    exclusive: t / T          (cost over the interval alone)
    inclusive: t / (T + t)    (cost over interval plus the cost itself)

Both are exposed because they answer slightly different questions; the
inclusive form with an announcement cost of 0.235 s reproduces the
reference push-usage grid to two decimals. The simulator's busy-seconds
counter reads the exclusive form for push, and for pull at `t_gen` 0 with
requests over `t_res` apart. A device that pools (`t_gen` > 0) reads less;
under continuous requests it reads the inclusive worst case, `ubusy_pull`
at `t_req = t_gen` (one response per generation window).

Bandwidth: push devices emit one fixed-size announcement per interval;
pull devices answer batches of requests with responses that grow twelve
bytes per pooled nonce.
"""

from __future__ import annotations

import io
import csv
import math
from dataclasses import dataclass

from . import ranges, wire
from .device import T_RES

SECONDS_PER_DAY = 86400.0

# The reference usage grid's axes: push intervals, and pull request intervals.
GRID_INTERVALS = (1.0, 2.0, 3.0, 4.0, 5.0)
GRID_PULL_T_REQS = (1.0, 5.0, 10.0, 30.0)


@dataclass(frozen=True)
class CostModel:
    t_ann: float = 0.235  # announcement generation seconds
    t_res: float = T_RES

    def __post_init__(self):
        ranges.check(**vars(self))


@dataclass(frozen=True)
class ScenarioModel:
    """Daily request profile: a crowded block plus sparse off-peak traffic."""

    crowded_hours: float = 16.0
    crowded_t_req: float = 10.0  # seconds between requests while crowded
    offpeak_per_hour: float = 10.0
    t_gen: float = 1.0

    def __post_init__(self):
        ranges.check(**vars(self))
        if self.crowded_hours > 24:
            raise ValueError(f"crowded_hours must be within a day, got {self.crowded_hours!r}")


def _busy(cost: float, interval: float, form: str) -> float:
    """Busy fraction of `cost` seconds of work once per `interval`."""
    if form == "exclusive":
        return cost / interval
    if form == "inclusive":
        return cost / (interval + cost)
    raise ValueError(f"unknown form {form!r}")


def ubusy_push(model: CostModel, push_interval: float, form: str = "inclusive") -> float:
    """Fraction of device time spent generating announcements."""
    ranges.check(push_interval=push_interval)
    return _busy(model.t_ann, push_interval, form)


def ubusy_pull(model: CostModel, t_req: float, form: str = "inclusive") -> float:
    """Fraction of device time spent generating responses, one per t_req."""
    ranges.check(t_req=t_req)
    return _busy(model.t_res, t_req, form)


def bandwidth_push(announcement_size: int = 128, push_interval: float = 1.0) -> float:
    """Average bits per second of a push device."""
    ranges.check(announcement_size=announcement_size, push_interval=push_interval)
    return 8.0 * announcement_size / push_interval


def bandwidth_pull(scenario: ScenarioModel) -> float:
    """Average bits per second of one pull exchange stream over a day.

    While crowded, requests arrive every crowded_t_req; when requests are
    denser than the generation window they share responses, so a response
    carries ceil(t_gen / t_req) nonces. Off-peak requests are far apart
    and always answered individually.
    """
    crowded_seconds = scenario.crowded_hours * 3600.0
    total_bytes = 0.0

    if crowded_seconds > 0:
        requests = crowded_seconds / scenario.crowded_t_req
        per_response = max(1, math.ceil(scenario.t_gen / scenario.crowded_t_req))
        responses = requests / per_response
        total_bytes += requests * wire.REQUEST_LEN
        total_bytes += responses * wire.encoded_response_len(per_response)

    offpeak_requests = (24.0 - scenario.crowded_hours) * scenario.offpeak_per_hour
    total_bytes += offpeak_requests * (wire.REQUEST_LEN + wire.encoded_response_len(1))

    return 8.0 * total_bytes / SECONDS_PER_DAY


def usage_grid(model: CostModel, form: str = "inclusive") -> str:
    """CSV grid of push and pull busy percentages over the reference grid's axes."""
    out = io.StringIO()
    writer = csv.writer(out)
    header = ["interval_s", "push_pct"] + [f"pull_t_req_{t:g}s_pct" for t in GRID_PULL_T_REQS]
    writer.writerow(header)
    for interval in GRID_INTERVALS:
        row = [f"{interval:g}", f"{100.0 * ubusy_push(model, interval, form):.2f}"]
        for t_req in GRID_PULL_T_REQS:
            row.append(f"{100.0 * ubusy_pull(model, max(t_req, interval), form):.2f}")
        writer.writerow(row)
    return out.getvalue()
