"""Closed-form model checks, including the frozen usage-grid values."""

import math

import pytest

from pulldisc import analytics
from pulldisc.analytics import CostModel, ScenarioModel

# Push usage percentages for intervals 1..5 s at a 235 ms announcement
# cost, inclusive denominator: t / (T + t). Frozen from that formula and
# matching the published grid to two decimals.
PUSH_GRID = {1: 19.03, 2: 10.51, 3: 7.26, 4: 5.55, 5: 4.49}


@pytest.fixture
def model():
    return CostModel()


@pytest.mark.parametrize("interval,expected", sorted(PUSH_GRID.items()))
def test_push_inclusive_grid(model, interval, expected):
    value = 100.0 * analytics.ubusy_push(model, float(interval), "inclusive")
    assert value == pytest.approx(expected, abs=0.01)


def test_push_exclusive(model):
    assert 100.0 * analytics.ubusy_push(model, 1.0, "exclusive") == pytest.approx(23.5)


def test_zero_cost_is_zero():
    free = CostModel(t_ann=0.0, t_res=0.0)
    assert analytics.ubusy_push(free, 1.0, "inclusive") == 0.0
    assert analytics.ubusy_push(free, 1.0, "exclusive") == 0.0


def test_pull_exclusive_examples(model):
    assert 100.0 * analytics.ubusy_pull(model, 10.0, "exclusive") == pytest.approx(2.33)
    assert 100.0 * analytics.ubusy_pull(model, 1.0, "exclusive") == pytest.approx(23.3)
    assert analytics.ubusy_pull(model, 1e9, "exclusive") == pytest.approx(0.0, abs=1e-6)


def test_bad_arguments(model):
    with pytest.raises(ValueError):
        analytics.ubusy_push(model, 0.0)
    with pytest.raises(ValueError):
        analytics.ubusy_pull(model, -1.0)
    with pytest.raises(ValueError):
        analytics.ubusy_push(model, 1.0, "sideways")
    with pytest.raises(ValueError):
        CostModel(t_ann=-0.1)
    with pytest.raises(ValueError):
        ScenarioModel(crowded_hours=25)


@pytest.mark.parametrize("value", [math.nan, math.inf, -0.1])
@pytest.mark.parametrize("key", ["t_ann", "t_res"])
def test_cost_model_needs_finite_nonnegative_costs(key, value):
    with pytest.raises(ValueError, match=key):
        CostModel(**{key: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("key", ["crowded_hours", "crowded_t_req", "offpeak_per_hour", "t_gen"])
def test_scenario_model_needs_finite_nonnegative_fields(key, value):
    with pytest.raises(ValueError, match=key):
        ScenarioModel(**{key: value})


def test_scenario_model_needs_a_positive_crowded_interval():
    with pytest.raises(ValueError, match="crowded_t_req"):
        ScenarioModel(crowded_t_req=0.0)
    assert ScenarioModel(crowded_hours=0.0, offpeak_per_hour=0.0, t_gen=0.0)


@pytest.mark.parametrize("interval", [0.0, -1.0, math.nan, math.inf])
def test_model_intervals_must_be_positive_and_finite(model, interval):
    for call in (
        lambda: analytics.ubusy_push(model, interval),
        lambda: analytics.ubusy_pull(model, interval),
        lambda: analytics.ubusy_pull(model, interval, "exclusive"),
        lambda: analytics.bandwidth_push(128, interval),
    ):
        with pytest.raises(ValueError, match="must be positive and finite"):
            call()


def test_monotonicity(model):
    for form in ("inclusive", "exclusive"):
        push = [analytics.ubusy_push(model, t, form) for t in (1.0, 2.0, 5.0, 30.0)]
        assert push == sorted(push, reverse=True)
        pull = [analytics.ubusy_pull(model, t, form) for t in (1.0, 2.0, 5.0, 30.0)]
        assert pull == sorted(pull, reverse=True)


def test_bandwidth_push():
    assert analytics.bandwidth_push(128, 1.0) == pytest.approx(1024.0)
    assert analytics.bandwidth_push(128, 2.0) == pytest.approx(512.0)


def test_bandwidth_pull_silence_is_zero():
    quiet = ScenarioModel(crowded_hours=0.0, offpeak_per_hour=0.0)
    assert analytics.bandwidth_pull(quiet) == 0.0


def test_bandwidth_pull_periodic_all_day():
    # One isolated request every 10 s, all day: (18 + 114) * 8 / 10 bps.
    scenario = ScenarioModel(crowded_hours=24.0, crowded_t_req=10.0, t_gen=1.0)
    assert analytics.bandwidth_pull(scenario) == pytest.approx(105.6)


def test_bandwidth_pull_batching_shrinks_traffic():
    # Requests every second against a 5 s window share responses.
    batched = ScenarioModel(crowded_hours=24.0, crowded_t_req=1.0, t_gen=5.0)
    unbatched = ScenarioModel(crowded_hours=24.0, crowded_t_req=1.0, t_gen=0.0)
    assert analytics.bandwidth_pull(batched) < analytics.bandwidth_pull(unbatched)


def test_usage_grid_csv(model):
    grid = analytics.usage_grid(model)
    lines = grid.strip().splitlines()
    assert lines[0].startswith("interval_s,push_pct")
    assert lines[1].startswith("1,19.03")
    assert lines[5].startswith("5,4.49")
