"""Sample statistics and failure counting for benchmark runs."""
from __future__ import annotations

import statistics
from dataclasses import dataclass, field

TAIL_MIN_BEYOND = 10


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def tail_percentile(samples: list[float], min_beyond: int = TAIL_MIN_BEYOND):
    """Highest percentile with at least ``min_beyond`` samples ranked beyond it.

    Uses nearest rank: of n sorted samples, the one at 1-based rank
    n - min_beyond has exactly ``min_beyond`` samples after it, and it sits
    at percentile 100 * rank / n. Returns ``(percentile, value)``, or None
    when there are too few samples for any percentile to qualify.
    """
    rank = len(samples) - min_beyond
    if rank < 1:
        return None
    ordered = sorted(samples)
    return 100.0 * rank / len(samples), ordered[rank - 1]


@dataclass(frozen=True)
class Check:
    """One verdict on one operation's output.

    ``known_defect`` marks a check that fails at the parent commit for a
    documented program defect: its failures count as failed operations but
    do not make the run incorrect.
    """

    name: str
    ok: bool
    known_defect: bool = False
    detail: str = ""


@dataclass
class Outcome:
    checks: list[Check] = field(default_factory=list)
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None or any(not c.ok for c in self.checks)

    @property
    def unexpected(self) -> bool:
        """Failed for a reason other than a known defect."""
        return self.error is not None or any(
            not c.ok and not c.known_defect for c in self.checks
        )


@dataclass
class FailureCount:
    attempted: int
    failed: int
    unexpected: int
    by_check: dict[str, tuple[int, int, bool]]  # name -> (failed, seen, known defect)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def count_failures(outcomes: list[Outcome]) -> FailureCount:
    by_check: dict[str, tuple[int, int, bool]] = {}
    for outcome in outcomes:
        for c in outcome.checks:
            bad, seen, known = by_check.get(c.name, (0, 0, c.known_defect))
            by_check[c.name] = (bad + (not c.ok), seen + 1, known)
    errors = sum(o.error is not None for o in outcomes)
    if errors:
        by_check["raised"] = (errors, len(outcomes), False)
    return FailureCount(
        attempted=len(outcomes),
        failed=sum(o.failed for o in outcomes),
        unexpected=sum(o.unexpected for o in outcomes),
        by_check=by_check,
    )
