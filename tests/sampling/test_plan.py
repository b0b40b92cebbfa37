"""Unit tests for sampling plans and the spec syntax."""

import pytest

from repro.sampling import SamplingPlan, parse_sample_spec


def test_defaults_validate():
    plan = SamplingPlan()
    assert plan.detailed >= 1
    assert plan.min_intervals >= 2
    assert plan.interval_span == plan.warmup + plan.detail_warmup + plan.detailed


def test_post_init_rejects_bad_values():
    with pytest.raises(ValueError):
        SamplingPlan(detailed=0)
    with pytest.raises(ValueError):
        SamplingPlan(warmup=-1)
    with pytest.raises(ValueError):
        SamplingPlan(detail_warmup=-5)
    with pytest.raises(ValueError):
        SamplingPlan(min_intervals=1)


def test_intervals_for_floor_and_span():
    plan = SamplingPlan(detailed=100, warmup=300, detail_warmup=100,
                        min_intervals=4)
    # Tiny quota: the min_intervals floor wins.
    assert plan.intervals_for(500) == 4
    # Large quota: enough intervals to span it (ceiling division).
    assert plan.intervals_for(5000) == 10
    assert plan.intervals_for(5001) == 11


def test_parse_none_and_empty():
    assert parse_sample_spec(None) is None
    assert parse_sample_spec("") is None
    assert parse_sample_spec("   ") is None


def test_parse_on_and_default():
    assert parse_sample_spec("on") == SamplingPlan()
    assert parse_sample_spec("default") == SamplingPlan()


def test_parse_overrides_merge_with_defaults():
    plan = parse_sample_spec("detailed:500,warmup:2000")
    assert plan.detailed == 500
    assert plan.warmup == 2000
    assert plan.detail_warmup == SamplingPlan().detail_warmup
    assert plan.min_intervals == SamplingPlan().min_intervals


def test_parse_full_spec_roundtrips():
    plan = SamplingPlan(detailed=800, warmup=3000, detail_warmup=250,
                        min_intervals=12)
    assert parse_sample_spec(plan.spec()) == plan


def test_parse_rejects_unknown_key():
    with pytest.raises(ValueError, match="bad sampling spec"):
        parse_sample_spec("interval:100")


def test_parse_rejects_bad_count():
    with pytest.raises(ValueError, match="bad sampling spec count"):
        parse_sample_spec("detailed:lots")


def test_parse_rejects_missing_colon():
    with pytest.raises(ValueError, match="bad sampling spec"):
        parse_sample_spec("detailed=100")

