"""Closed-form CPU-usage and bandwidth models for push and pull operation.

Busy fraction comes in two denominator conventions:

    exclusive: t / T          (cost over the interval alone)
    inclusive: t / (T + t)    (cost over interval plus the cost itself)

Both are exposed because they answer slightly different questions; the
inclusive form with an announcement cost of 0.235 s reproduces the
reference push-usage grid to two decimals. The simulator's busy-seconds
counter reads the exclusive form for push, and for pull at `t_gen` 0 with
requests over `t_res` apart; a device that pools (`t_gen` > 0) reads less,
and under continuous requests the inclusive worst case.

Bandwidth: push devices emit one fixed-size announcement per interval;
pull devices answer batches of requests with responses that grow twelve
bytes per pooled nonce.
"""

from __future__ import annotations

import io
import csv
import math
from dataclasses import dataclass, fields

from . import wire

SECONDS_PER_DAY = 86400.0


def _check_fields(model) -> None:
    for f in fields(model):
        value = getattr(model, f.name)
        if not 0 <= value < math.inf:
            raise ValueError(f"{f.name} must be finite and >= 0, got {value!r}")


def _check_interval(name: str, interval: float) -> None:
    if not 0 < interval < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {interval!r}")


@dataclass(frozen=True)
class CostModel:
    t_ann: float = 0.235  # announcement generation seconds
    t_res: float = 0.233  # response generation seconds, signing dominated

    def __post_init__(self):
        _check_fields(self)


@dataclass(frozen=True)
class ScenarioModel:
    """Daily request profile: a crowded block plus sparse off-peak traffic."""

    crowded_hours: float = 16.0
    crowded_t_req: float = 10.0  # seconds between requests while crowded
    offpeak_per_hour: float = 10.0
    t_gen: float = 1.0

    def __post_init__(self):
        _check_fields(self)
        if self.crowded_hours > 24:
            raise ValueError("crowded_hours must be within a day")
        _check_interval("crowded_t_req", self.crowded_t_req)


def ubusy_push(model: CostModel, t_ann_interval: float, form: str = "inclusive") -> float:
    """Fraction of device time spent generating announcements."""
    _check_interval("announcement interval", t_ann_interval)
    if form == "exclusive":
        return model.t_ann / t_ann_interval
    if form == "inclusive":
        return model.t_ann / (t_ann_interval + model.t_ann)
    raise ValueError(f"unknown form {form!r}")


def ubusy_pull(model: CostModel, t_req: float, form: str = "inclusive") -> float:
    """Fraction of device time spent generating responses, one per t_req."""
    _check_interval("request interval", t_req)
    if form == "exclusive":
        return model.t_res / t_req
    if form == "inclusive":
        return model.t_res / (t_req + model.t_res)
    raise ValueError(f"unknown form {form!r}")


def ubusy_pull_worst_case(model: CostModel, t_gen: float, form: str = "inclusive") -> float:
    """Continuous requests: one response per generation window."""
    return ubusy_pull(model, t_gen, form)


def bandwidth_push(announcement_size: int = 128, t_ann: float = 1.0) -> float:
    """Average bits per second of a push device."""
    if announcement_size <= 0:
        raise ValueError("announcement size must be positive")
    _check_interval("announcement interval", t_ann)
    return 8.0 * announcement_size / t_ann


def bandwidth_pull(
    scenario: ScenarioModel,
    request_size: int = wire.REQUEST_LEN,
    response_base: int = wire.RESPONSE_BASE_LEN,
    nonce_size: int = wire.NONCE_LEN,
) -> float:
    """Average bits per second of one pull exchange stream over a day.

    While crowded, requests arrive every crowded_t_req; when requests are
    denser than the generation window they share responses, so a response
    carries ceil(t_gen / t_req) nonces. Off-peak requests are far apart
    and always answered individually.
    """
    if request_size <= 0 or response_base <= 0:
        raise ValueError("sizes must be positive")
    crowded_seconds = scenario.crowded_hours * 3600.0
    total_bytes = 0.0

    if crowded_seconds > 0:
        requests = crowded_seconds / scenario.crowded_t_req
        per_response = max(1, math.ceil(scenario.t_gen / scenario.crowded_t_req))
        responses = requests / per_response
        total_bytes += requests * request_size
        total_bytes += responses * (response_base + nonce_size * per_response)

    offpeak_requests = (24.0 - scenario.crowded_hours) * scenario.offpeak_per_hour
    total_bytes += offpeak_requests * (request_size + response_base + nonce_size)

    return 8.0 * total_bytes / SECONDS_PER_DAY


def usage_grid(
    model: CostModel,
    intervals: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0),
    pull_t_reqs: tuple[float, ...] = (1.0, 5.0, 10.0, 30.0),
    form: str = "inclusive",
) -> str:
    """CSV grid of push and pull busy percentages over the intervals."""
    out = io.StringIO()
    writer = csv.writer(out)
    header = ["interval_s", "push_pct"] + [f"pull_t_req_{t:g}s_pct" for t in pull_t_reqs]
    writer.writerow(header)
    for interval in intervals:
        row = [f"{interval:g}", f"{100.0 * ubusy_push(model, interval, form):.2f}"]
        for t_req in pull_t_reqs:
            row.append(f"{100.0 * ubusy_pull(model, max(t_req, interval), form):.2f}")
        writer.writerow(row)
    return out.getvalue()
