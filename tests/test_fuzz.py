from __future__ import annotations

from fractions import Fraction as F

import pytest

from wooddesargues import FuzzPolicy, run_campaign, verify_all
from wooddesargues.fuzz import (
    RetryBudgetExhausted,
    Xorshift64Star,
    draw_seed,
    generate_configurations,
)
from wooddesargues.serialize import dumps


def test_xorshift_pinned_stream():
    rng = Xorshift64Star(42)
    assert [rng.next_u64() for _ in range(4)] == [
        6255019084209693600,
        14430073426741505498,
        14575455857230217846,
        17414512882241728735,
    ]


def test_xorshift_zero_seed_is_substituted():
    assert Xorshift64Star(0).next_u64() == 973819730272012410
    assert Xorshift64Star(0).next_u64() == Xorshift64Star(0).next_u64()


def test_xorshift_streams_replay():
    a, b = Xorshift64Star(987654321), Xorshift64Star(987654321)
    assert [a.next_u64() for _ in range(64)] == [b.next_u64() for _ in range(64)]


def test_draw_order_is_pinned():
    # numerator then denominator for tJ, tK, tA, tB, tC, s
    seed = draw_seed(Xorshift64Star(42), 12)
    assert seed.t_values() == (F(-4), F(9, 8), F(-3, 4), F(0), F(-1, 7))
    assert seed.s == F(5, 4)


def test_first_fuzz_configuration_verifies_cleanly():
    index, config, rejections, reasons = next(
        iter(generate_configurations(FuzzPolicy(count=1, rng_seed=42, max_magnitude=12))))
    assert index == 0 and rejections == 0
    report = verify_all(config)
    assert report.summary == {"pass": 28, "fail": 0, "degenerate-pass": 0, "total": 28}


def test_campaign_is_deterministic():
    policy = FuzzPolicy(count=25, rng_seed=7, max_magnitude=12)
    first = dumps(run_campaign(policy).to_document())
    second = dumps(run_campaign(policy).to_document())
    assert first == second


def test_campaign_counts_are_consistent():
    outcome = run_campaign(FuzzPolicy(count=25, rng_seed=7, max_magnitude=12))
    assert len(outcome.entries) == 25
    assert outcome.fail_count == 0
    for name, tall in outcome.per_check.items():
        assert tall["pass"] + tall["fail"] + tall["degeneratePass"] == 25
    doc = outcome.to_document()
    assert doc["summary"]["verified"] == 25
    assert doc["policy"] == {"count": 25, "rngSeed": 7, "maxMagnitude": 12,
                             "maxRetries": 1000}


def test_single_seed_campaign():
    outcome = run_campaign(FuzzPolicy(count=1, rng_seed=3, max_magnitude=6))
    assert len(outcome.entries) == 1


def test_retry_budget_exhaustion():
    # magnitude 2 leaves few parameter values, and the first nine draws of
    # this stream all repeat a t parameter
    with pytest.raises(RetryBudgetExhausted) as exc:
        run_campaign(FuzzPolicy(count=1, rng_seed=1, max_magnitude=2, max_retries=8))
    assert exc.value.index == 0
    assert set(exc.value.reasons) == {"duplicate-parameter"}
    assert len(exc.value.reasons) == 9  # initial try plus eight retries


def test_policy_validation():
    with pytest.raises(ValueError):
        FuzzPolicy(count=0, rng_seed=1, max_magnitude=5)
    with pytest.raises(ValueError):
        FuzzPolicy(count=1, rng_seed=1, max_magnitude=0)
    with pytest.raises(ValueError):  # only -1, 0, 1: no five distinct parameters
        FuzzPolicy(count=1, rng_seed=1, max_magnitude=1)
    with pytest.raises(ValueError):
        FuzzPolicy(count=1, rng_seed=1, max_magnitude=5, max_retries=0)
