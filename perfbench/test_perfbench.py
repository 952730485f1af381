"""Self-tests for the benchmark's own checks.

Run from the checkout root::

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They show that the verdict checks refuse a doctored report (a missed
seeded bug, a false positive), that span self times add up, and that
the exact counters repeat between two same-seed campaigns.
"""

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.normpath(os.path.join(HERE, "..", "src")))
sys.path.insert(0, HERE)

from repro.core.report import (  # noqa: E402
    PHASE_FAULT_INJECTION,
    AnalysisReport,
    Finding,
)
from repro.core.taxonomy import BugKind  # noqa: E402

import campaigns  # noqa: E402
import run  # noqa: E402
import tracer as spans  # noqa: E402
import verdict  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def doctored(report, drop=lambda f: False, add=()):
    copy = AnalysisReport()
    copy.extend(f for f in report.findings if not drop(f))
    copy.extend(add)
    return copy


def correctness_finding(variant):
    return Finding(
        kind=BugKind.ATOMICITY,
        phase=PHASE_FAULT_INJECTION,
        message="doctored finding",
        site="doctored.py:1:f",
        stack=("doctored.py:1:f",),
        variant=variant,
    )


class CampaignCase(unittest.TestCase):
    """One real campaign per workload, shared by the tests below."""

    runs = {}

    @classmethod
    def campaign(cls, name):
        if name not in cls.runs:
            runner = campaigns.Runner(WORKLOADS[name], [0], None)
            cls.runs[name] = runner.run(0)
        return cls.runs[name]


class TestVerdicts(CampaignCase):
    def test_real_campaigns_pass(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(self.campaign(name).problems, [])

    def test_missed_performance_bug_fails(self):
        run = self.campaign("prefix_btree")
        bug = verdict.TRACE_ANALYSIS
        seeded = run.truth.activated(bug, correctness=False)[0]
        sites = run.truth.sites[seeded]
        report = doctored(run.report, drop=lambda f: f.site in sites)
        problems = verdict.check_prefix_btree(report, run.truth)
        self.assertTrue(any(seeded in p for p in problems), problems)

    def test_missed_correctness_bug_fails(self):
        run = self.campaign("prefix_btree")
        report = doctored(
            run.report, drop=lambda f: f.kind.is_correctness
        )
        self.assertIn(
            "no prefix-family correctness finding",
            verdict.check_prefix_btree(report, run.truth),
        )

    def test_missed_torn_bug_fails(self):
        run = self.campaign("adversarial_hashmap")
        report = doctored(
            run.report, drop=lambda f: f.kind.is_correctness
        )
        self.assertIn(
            "no torn-family correctness finding",
            verdict.check_adversarial_hashmap(report, run.truth),
        )

    def test_prefix_false_positive_on_torn_only_bug_fails(self):
        run = self.campaign("adversarial_hashmap")
        report = doctored(
            run.report, add=[correctness_finding("prefix")]
        )
        problems = verdict.check_adversarial_hashmap(report, run.truth)
        self.assertTrue(any("false-positive prefix" in p for p in problems))

    def test_false_positive_on_bug_free_target_fails(self):
        run = self.campaign("sharded_rbtree")
        report = doctored(
            run.report, add=[correctness_finding("prefix")]
        )
        problems = verdict.check_sharded_rbtree(report, run.truth)
        self.assertTrue(any("false-positive" in p for p in problems))

    def test_unactivated_ground_truth_fails(self):
        empty = verdict.GroundTruth({})
        report = self.campaign("prefix_btree").report
        self.assertIn(
            "no seeded performance bug was activated",
            verdict.check_prefix_btree(report, empty),
        )


class TestWorkloadTable(unittest.TestCase):
    def test_set_up_probe_builds_each_workloads_target(self):
        self.assertEqual(
            run.WORKLOADS, {w.name: w.target for w in WORKLOADS.values()}
        )


class TestExactCounters(CampaignCase):
    def test_same_seed_repeats_exactly(self):
        first = self.campaign("adversarial_hashmap")
        again = campaigns.Runner(
            WORKLOADS["adversarial_hashmap"], [0], None
        ).run(0)
        self.assertEqual(set(first.exact), set(campaigns.EXACT))
        self.assertEqual(first.exact, again.exact)

    def test_repeat_check_catches_a_difference(self):
        runner = campaigns.Runner(WORKLOADS["adversarial_hashmap"], [0], None)
        a = campaigns.Campaign(0, 0, 1, exact={"injections": 1})
        b = campaigns.Campaign(1, 0, 1, exact={"injections": 2})
        runner.campaigns = [a, b]
        for name in campaigns.EXACT[1:]:
            a.exact[name] = b.exact[name] = 0
        self.assertEqual(len(runner.repeat_problems()), 1)


class TestSpans(unittest.TestCase):
    def test_self_times_add_up_to_the_root(self):
        tracer = spans.Tracer()

        class Layer:
            def outer(self):
                with tracer.span("inner.work"):
                    sum(range(10000))
                return "done"

        tracer.wrap(Layer, "outer", "outer.call")
        with tracer.span("campaign") as root:
            self.assertEqual(Layer().outer(), "done")
        tracer.unwrap_all()
        self.assertNotIn("__wrapped__", Layer.__dict__["outer"].__dict__)
        selfs = spans.self_seconds(tracer.spans)
        self.assertEqual(set(selfs), {"campaign", "outer.call", "inner.work"})
        self.assertAlmostEqual(sum(selfs.values()), root.seconds, places=9)
        self.assertEqual(
            spans.inclusive_seconds(tracer.spans, "outer."),
            tracer.spans[1].seconds,
        )


if __name__ == "__main__":
    unittest.main()
