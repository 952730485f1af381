"""Ground-truth verdict checks, run on every campaign.

The expected answer comes from the seeded-bug registry
(:mod:`repro.apps.bugs`: which detector should expose each bug) and from
the volatile activation registry (:data:`repro.apps.faults.REGISTRY`:
which seeded bugs the campaign's executions actually reached, and at
which sites) — never from a recorded run of the tool.

Each check takes the campaign's :class:`~repro.core.report.AnalysisReport`
and a :class:`GroundTruth` and returns a list of problems; an empty list
is a correct verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List

from repro.apps import faults
from repro.apps.bugs import (
    ADVERSARIAL,
    FAULT_INJECTION,
    REGISTRY,
    TRACE_ANALYSIS,
)
from repro.pmem.faultmodel import (
    FAMILY_PREFIX,
    FAMILY_REORDER,
    FAMILY_TORN,
    variant_family,
)


@dataclass(frozen=True)
class GroundTruth:
    """Seeded bugs one campaign activated, with their registry sites."""

    sites: Dict[str, FrozenSet[str]]

    @classmethod
    def capture(cls) -> "GroundTruth":
        """Snapshot :data:`faults.REGISTRY` (reset it before the campaign)."""
        registry = faults.REGISTRY
        return cls(
            {bug: frozenset(registry.sites_for(bug))
             for bug in registry.activated()}
        )

    def activated(self, detector: str, correctness: bool) -> List[str]:
        return sorted(
            bug for bug in self.sites
            if bug in REGISTRY
            and REGISTRY[bug].expected_detector == detector
            and REGISTRY[bug].is_correctness == correctness
        )


def _family(finding) -> str:
    return variant_family(finding.variant or FAMILY_PREFIX)


def unseeded_performance_findings(report, truth: GroundTruth) -> int:
    """Performance findings at no activated seeded bug's site."""
    seeded = set().union(*truth.sites.values()) if truth.sites else set()
    return sum(1 for f in report.performance_bugs() if f.site not in seeded)


def check_prefix_btree(report, truth: GroundTruth) -> List[str]:
    """Every activated redundant-flush/fence bug is attributed to its
    seeded site, and an activated prefix-detectable correctness bug
    yields at least one prefix-family correctness finding."""
    problems = []
    perf_bugs = truth.activated(TRACE_ANALYSIS, correctness=False)
    if not perf_bugs:
        problems.append("no seeded performance bug was activated")
    perf_sites = {f.site for f in report.performance_bugs()}
    for bug in perf_bugs:
        if not truth.sites[bug] & perf_sites:
            problems.append(f"missed {bug} at {sorted(truth.sites[bug])}")
    if not truth.activated(FAULT_INJECTION, correctness=True):
        problems.append("no prefix-detectable correctness bug was activated")
    elif not any(
        _family(f) == FAMILY_PREFIX for f in report.correctness_bugs()
    ):
        problems.append("no prefix-family correctness finding")
    return problems


def check_adversarial_hashmap(report, truth: GroundTruth) -> List[str]:
    """The torn-only bug yields a torn-family correctness finding and
    nothing a prefix or reorder crash could have produced."""
    problems = []
    if not truth.activated(ADVERSARIAL, correctness=True):
        problems.append("the torn-only bug was not activated")
    families = [_family(f) for f in report.correctness_bugs()]
    if FAMILY_TORN not in families:
        problems.append("no torn-family correctness finding")
    for family in (FAMILY_PREFIX, FAMILY_REORDER):
        count = families.count(family)
        if count:
            problems.append(
                f"{count} false-positive {family}-family correctness "
                "finding(s)"
            )
    return problems


def check_sharded_rbtree(report, truth: GroundTruth) -> List[str]:
    """The bug-free target yields no correctness finding."""
    found = report.correctness_bugs()
    if found:
        return [
            f"{len(found)} false-positive correctness finding(s), first: "
            f"{found[0].message}"
        ]
    return []
