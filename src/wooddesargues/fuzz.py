"""Deterministic seed fuzzing: draw rational seeds, build, verify, aggregate.

The generator is pinned so campaigns replay bit-for-bit: xorshift64* with
shift triple (12, 25, 27) and multiplier 0x2545F4914F6CDD1D; a zero seed is
replaced by 0x9E3779B97F4A7C15.  Each candidate draws numerator-then-
denominator for tJ, tK, tA, tB, tC, s in that order; numerators lie in
[-N, N] and denominators in [1, N].  Candidates whose parameters collide or
whose build degenerates are rejected and redrawn against a per-seed retry
budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .configuration import (
    ConfigurationSeed,
    DegenerateSeedError,
    WoodDesarguesConfiguration,
    build_configuration,
)
from .serialize import seed_to_dict
from .verifier import DEGENERATE, FAIL, PASS, VerificationReport, verify_all

_MASK64 = (1 << 64) - 1
_MULTIPLIER = 0x2545F4914F6CDD1D
_ZERO_SEED_SUBSTITUTE = 0x9E3779B97F4A7C15
# status -> campaign document key, in the order of a check's perCheck counts
_STATUS_KEYS = {PASS: "pass", FAIL: "fail", DEGENERATE: "degeneratePass"}


class Xorshift64Star:
    """Marsaglia xorshift64* stream over uint64."""

    def __init__(self, seed: int):
        seed &= _MASK64
        self.state = seed if seed != 0 else _ZERO_SEED_SUBSTITUTE

    def next_u64(self) -> int:
        s = self.state
        s ^= s >> 12
        s = (s ^ (s << 25)) & _MASK64
        s ^= s >> 27
        self.state = s
        return (s * _MULTIPLIER) & _MASK64

    def next_int(self, lo: int, hi: int) -> int:
        """Uniform-enough draw in [lo, hi]; modulo bias is irrelevant here."""
        return lo + self.next_u64() % (hi - lo + 1)


@dataclass(frozen=True)
class FuzzPolicy:
    count: int
    rng_seed: int
    max_magnitude: int
    max_retries: int = 1000

    def __post_init__(self) -> None:
        if self.count <= 0 or self.max_retries <= 0:
            raise ValueError("count and retry budget must be positive")
        # magnitude 1 offers only the values -1, 0 and 1 for the five t
        # parameters, so every draw would be rejected as a duplicate
        if self.max_magnitude < 2:
            raise ValueError("max magnitude must be at least 2")


class RetryBudgetExhausted(RuntimeError):
    def __init__(self, index: int, reasons: list[str]):
        super().__init__(f"retry budget exhausted at seed index {index}")
        self.index = index
        self.reasons = reasons


def draw_seed(rng: Xorshift64Star, max_magnitude: int) -> ConfigurationSeed:
    n = max_magnitude  # each numerator is drawn before its denominator
    return ConfigurationSeed(*(Fraction(rng.next_int(-n, n), rng.next_int(1, n))
                               for _ in range(6)))


def generate_configurations(policy: FuzzPolicy) -> Iterator[tuple[int, WoodDesarguesConfiguration, int, list[str]]]:
    """Yield (index, configuration, rejections, rejection reasons) per seed."""
    rng = Xorshift64Star(policy.rng_seed)
    for index in range(policy.count):
        reasons: list[str] = []
        for _ in range(policy.max_retries + 1):
            seed = draw_seed(rng, policy.max_magnitude)
            try:
                config = build_configuration(seed)
            except DegenerateSeedError as exc:
                reasons.append(exc.reason)
                continue
            yield index, config, len(reasons), reasons
            break
        else:
            raise RetryBudgetExhausted(index, reasons)


@dataclass(frozen=True)
class CampaignOutcome:
    policy: FuzzPolicy
    entries: list[dict]
    per_check: dict[str, dict[str, int]]
    rejections: int
    rejection_reasons: dict[str, int]

    @property
    def fail_count(self) -> int:
        return sum(e["fail"] for e in self.entries)

    @property
    def degenerate_count(self) -> int:
        return sum(e["degeneratePass"] for e in self.entries)

    def to_document(self) -> dict:
        return {
            "policy": {
                "count": self.policy.count,
                "rngSeed": self.policy.rng_seed,
                "maxMagnitude": self.policy.max_magnitude,
                "maxRetries": self.policy.max_retries,
            },
            "seeds": self.entries,
            "perCheck": self.per_check,
            "rejections": {
                "total": self.rejections,
                "byReason": dict(sorted(self.rejection_reasons.items())),
            },
            "summary": {
                "verified": len(self.entries),
                "fail": self.fail_count,
                "degeneratePass": self.degenerate_count,
            },
        }


def run_campaign(policy: FuzzPolicy) -> CampaignOutcome:
    """Verify ``policy.count`` fuzzed configurations; deterministic in the policy."""
    entries: list[dict] = []
    per_check: dict[str, dict[str, int]] = {}
    total_rejections = 0
    reason_tally: dict[str, int] = {}

    for index, config, rejections, reasons in generate_configurations(policy):
        total_rejections += rejections
        for r in reasons:
            reason_tally[r] = reason_tally.get(r, 0) + 1
        report = verify_all(config)
        entry = _summarize(index, config.seed, report)
        entries.append(entry)
        for result in report.results:
            slot = per_check.get(result.name)
            if slot is None:
                slot = per_check[result.name] = dict.fromkeys(_STATUS_KEYS.values(), 0)
            slot[_STATUS_KEYS[result.status]] += 1
    return CampaignOutcome(policy=policy, entries=entries, per_check=per_check,
                           rejections=total_rejections, rejection_reasons=reason_tally)


def _summarize(index: int, seed: Optional[ConfigurationSeed],
               report: VerificationReport) -> dict:
    summary = report.summary
    entry = {
        "index": index,
        "seed": seed_to_dict(seed) if seed is not None else None,
        "pass": summary["pass"],
        "fail": summary["fail"],
        "degeneratePass": summary[DEGENERATE],
    }
    failed = [r.name for r in report.results if r.status == FAIL]
    degenerate = [r.name for r in report.results if r.status == DEGENERATE]
    if failed:
        entry["failedChecks"] = failed
    if degenerate:
        entry["degenerateChecks"] = degenerate
    return entry
