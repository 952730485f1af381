"""The workload process: a closed loop of verdict-checked campaigns.

Run by ``perfbench/run.py`` (which adds the set-up samples); prints one
JSON object as its last stdout line.  One client — this process — runs
``Mumak(MumakConfig(...)).analyze(factory, workload)`` and then
``report.render()``; the next campaign starts when the previous one has
rendered.

``--seed N`` selects the run's workload seeds ``4N .. 4N+3``; campaigns
cycle through them, so every timing is a median over several inputs and
every exact counter is a median over the same four seeds.  A warm-up
campaign on the first seed runs before the clock starts; its exact
counters must repeat on every later campaign with that seed, like those
of any seed the loop reaches twice.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1``
each seed runs untraced and then traced in turn (the pair gives the
tracing overhead), the per-layer metrics come from the traced campaigns'
spans, and ``sharded_rbtree`` adds one serial traced campaign on the
first seed to measure what sharding buys.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, "..", "src"))
sys.path.insert(0, SRC)

from repro.apps import faults  # noqa: E402
from repro.core import Mumak  # noqa: E402

import tracer as spans  # noqa: E402
import verdict  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS_PER_RUN = 4

#: Counters read from MumakResult that must repeat exactly per seed.
EXACT = (
    "injections",
    "failure_points",
    "events",
    "images",
    "bytes_copied",
    "recovery_runs",
    "cache_hits",
    "journal_bytes",
    "report_sha256",
)

LAYERS = (
    "instrument",
    "trace_analysis",
    "injection",
    "materialise",
    "recovery",
    "journal",
    "fabric",
    "report",
)
FAMILIES = ("prefix", "torn", "reorder", "media")


@dataclass
class Campaign:
    id: int
    seed: int
    shards: int
    seconds: float = 0.0
    exact: Dict[str, object] = field(default_factory=dict)
    stats: object = None
    report: object = None
    truth: Optional[verdict.GroundTruth] = None
    failed_injections: int = 0
    unseeded_perf: int = 0
    problems: List[str] = field(default_factory=list)


class Runner:
    def __init__(self, workload, seeds, tracer: Optional[spans.Tracer]):
        self.workload = workload
        self.factory = workload.factory()
        self.operations = {seed: workload.operations(seed) for seed in seeds}
        self.tracer = tracer
        self.campaigns: List[Campaign] = []

    def run(self, seed: int, traced: bool = False,
            shards: Optional[int] = None) -> Campaign:
        shards = self.workload.shards if shards is None else shards
        campaign = Campaign(len(self.campaigns), seed, shards)
        self.campaigns.append(campaign)
        operations = self.operations[seed]
        faults.REGISTRY.reset()
        try:
            with self.workload.journal_dir() as checkpoint_dir:
                mumak = Mumak(
                    self.workload.config(seed, checkpoint_dir, shards)
                )
                if traced:
                    result, text = self._traced(campaign, mumak, operations)
                else:
                    start = time.perf_counter()
                    result = mumak.analyze(self.factory, operations)
                    text = result.report.render()
                    campaign.seconds = time.perf_counter() - start
        except Exception as err:  # noqa: BLE001 - a failed campaign is data
            traceback.print_exc()
            campaign.problems.append(f"raised {type(err).__name__}: {err}")
            return campaign
        truth = campaign.truth = verdict.GroundTruth.capture()
        campaign.report = result.report
        campaign.problems.extend(self.workload.check(result.report, truth))
        campaign.unseeded_perf = verdict.unseeded_performance_findings(
            result.report, truth
        )
        stats = result.fault_injection.stats
        campaign.stats = stats
        campaign.failed_injections = (
            stats.quarantined + stats.hung + stats.resource_exhausted
        )
        campaign.exact = {
            "injections": stats.injections,
            "failure_points": stats.unique_failure_points,
            "events": result.trace_length,
            "images": stats.images_materialised,
            "bytes_copied": stats.image_bytes_copied,
            "recovery_runs": (
                stats.recovery_pool_boots + stats.recovery_pool_reuses
            ),
            "cache_hits": stats.recovery_cache_hits,
            "journal_bytes": result.resources.checkpoint_bytes,
            "report_sha256": hashlib.sha256(text.encode()).hexdigest(),
        }
        return campaign

    def _traced(self, campaign, mumak, operations):
        tracer = self.tracer
        tracer.campaign = campaign.id
        spans.instrument_layers(tracer)
        try:
            with tracer.span("campaign") as root:
                result = mumak.analyze(self.factory, operations)
                text = result.report.render()
        finally:
            tracer.unwrap_all()
            tracer.campaign = None
        campaign.seconds = root.seconds
        return result, text

    def repeat_problems(self) -> List[str]:
        """Exact counters that differ between campaigns of one seed."""
        first: Dict[tuple, Campaign] = {}
        problems = []
        for campaign in self.campaigns:
            if not campaign.exact:
                continue
            key = (campaign.seed, campaign.shards)
            reference = first.setdefault(key, campaign)
            for name in EXACT:
                if campaign.exact[name] != reference.exact[name]:
                    problems.append(
                        f"seed {campaign.seed}: {name} "
                        f"{campaign.exact[name]!r} != "
                        f"{reference.exact[name]!r}"
                    )
        return problems


def exact_median(campaigns: List[Campaign], name: str) -> float:
    """Median over the run's distinct seeds of one exact counter."""
    per_seed = {c.seed: c.exact[name] for c in campaigns if c.exact}
    return statistics.median(per_seed.values()) if per_seed else 0


def peak_rss_mb() -> float:
    """Peak RSS of this process and its (reaped) shard children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(measured: List[Campaign], all_campaigns: List[Campaign]):
    ok = [c for c in measured if c.exact]
    seconds = [c.seconds for c in ok]
    injections = sum(c.exact["injections"] for c in ok)
    attempted_inj = injections or 1
    failed_inj = sum(c.failed_injections for c in ok)
    failed = sum(1 for c in all_campaigns if c.problems)
    return {
        "campaign_s": (statistics.median(seconds) if seconds else 0.0, "s"),
        "injections_per_s": (ratio(injections, sum(seconds)), "1/s"),
        "crash_states_per_campaign": (
            exact_median(ok, "injections"), "count"
        ),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "campaigns_ok_share": (
            (len(all_campaigns) - failed) / len(all_campaigns), "share"
        ),
        "injections_ok_share": (
            (attempted_inj - failed_inj) / attempted_inj, "share"
        ),
    }, [
        f"campaign_s: median of {len(seconds)} campaigns "
        f"(closed loop, 1 client, seeds {sorted({c.seed for c in ok})})",
        "campaign seconds: " + " ".join(f"{t:.3f}" for t in seconds),
        f"injections: {injections} verified, {failed_inj} failed",
    ]


def per_layer(traced: List[Campaign], untraced: List[Campaign],
              serial: Optional[Campaign], tracer: spans.Tracer):
    """Per-layer metrics from the traced campaigns' spans (per-campaign
    means, so the self-time rows add up to ``trace.campaign_s``)."""
    ok = [c for c in traced if c.exact]
    n = len(ok) or 1
    by_campaign: Dict[int, List[spans.Span]] = {}
    for span in tracer.spans:
        by_campaign.setdefault(span.campaign, []).append(span)

    def mean_incl(prefix: str, campaigns=ok) -> float:
        return sum(
            spans.inclusive_seconds(by_campaign.get(c.id, []), prefix)
            for c in campaigns
        ) / (len(campaigns) or 1)

    selfs: Dict[str, float] = {}
    for c in ok:
        for name, seconds in spans.self_seconds(
            by_campaign.get(c.id, [])
        ).items():
            selfs[name] = selfs.get(name, 0.0) + seconds / n

    def layer_self(layer: str) -> float:
        return sum(v for k, v in selfs.items() if k.split(".")[0] == layer)

    def total(attr: str) -> int:
        return sum(getattr(c.stats, attr) for c in ok)

    events = sum(c.exact["events"] for c in ok) / n
    injections = sum(c.exact["injections"] for c in ok) / n
    images = sum(c.exact["images"] for c in ok) / n
    campaign_s = sum(c.seconds for c in ok) / n
    untraced_s = (
        statistics.fmean(c.seconds for c in untraced) if untraced else 0.0
    )
    run_s = mean_incl("instrument.")
    analyze_s = mean_incl("trace_analysis.analyze")
    injection_s = mean_incl("injection.")
    materialise_s = mean_incl("materialise.")
    hits, misses = total("recovery_cache_hits"), total("recovery_cache_misses")
    boots, reuses = total("recovery_pool_boots"), total("recovery_pool_reuses")
    seeds = {c.seed: c for c in ok}

    metrics = {
        "instrument.run_s": (run_s, "s"),
        "instrument.events": (exact_median(ok, "events"), "count"),
        "instrument.events_per_s": (ratio(events, run_s), "1/s"),
        "trace_analysis.analyze_s": (analyze_s, "s"),
        "trace_analysis.events_per_s": (ratio(events, analyze_s), "1/s"),
        "trace_analysis.resolve_sites_s": (
            mean_incl("trace_analysis.resolve_sites"), "s"
        ),
        "trace_analysis.unseeded_perf_findings": (
            sum(c.unseeded_perf for c in seeds.values()), "count"
        ),
        "injection.s": (injection_s, "s"),
        "injection.self_s": (layer_self("injection"), "s"),
        "injection.ms_per_injection": (
            1000.0 * ratio(injection_s, injections), "ms"
        ),
        "injection.failure_points": (
            exact_median(ok, "failure_points"), "count"
        ),
        "journal.bytes": (exact_median(ok, "journal_bytes"), "B"),
        "journal.write_s": (mean_incl("journal."), "s"),
        "materialise.s": (materialise_s, "s"),
    }
    for family in FAMILIES:
        metrics[f"materialise.{family}_s"] = (
            selfs.get(f"materialise.{family}", 0.0), "s"
        )
    metrics.update({
        "materialise.images": (exact_median(ok, "images"), "count"),
        "materialise.images_per_s": (ratio(images, materialise_s), "1/s"),
        "materialise.bytes_copied": (
            exact_median(ok, "bytes_copied"), "B"
        ),
        "recovery.run_s": (mean_incl("recovery.run"), "s"),
        "recovery.runs": (exact_median(ok, "recovery_runs"), "count"),
        "recovery.reset_s": (mean_incl("recovery.reset"), "s"),
        "recovery.cache_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "recovery.cache_lookups": ((hits + misses) / n, "count"),
        "recovery.pool_reuse_ratio": (ratio(reuses, boots + reuses), "ratio"),
        "fabric.wait_s": (mean_incl("fabric.wait"), "s"),
        "fabric.merge_s": (mean_incl("fabric.merge"), "s"),
    })
    efficiency = lost = serial_injection = 0.0
    first = [c for c in ok if serial is not None and c.seed == serial.seed]
    if first and serial.exact:
        sharded_injection = mean_incl("injection.", first)
        serial_injection = mean_incl("injection.", [serial])
        efficiency = ratio(
            serial_injection, first[0].shards * sharded_injection
        )
        lost = serial.exact["cache_hits"] - first[0].exact["cache_hits"]
    metrics.update({
        "fabric.parallel_efficiency": (efficiency, "ratio"),
        "fabric.serial_injection_s": (serial_injection, "s"),
        "fabric.cache_hits_lost": (lost, "count"),
        "report.render_s": (mean_incl("report."), "s"),
    })
    for layer in LAYERS:
        if layer != "injection":
            metrics[f"{layer}.self_s"] = (layer_self(layer), "s")
    metrics.update({
        "unattributed.self_s": (selfs.get("campaign", 0.0), "s"),
        "trace.campaign_s": (campaign_s, "s"),
        "trace.untraced_campaign_s": (untraced_s, "s"),
        "trace.overhead_ratio": (ratio(campaign_s, untraced_s), "ratio"),
    })
    attributed = sum(layer_self(layer) for layer in LAYERS)
    problems = []
    if abs(attributed + selfs.get("campaign", 0.0) - campaign_s) > 1e-6:
        problems.append(
            f"self times add up to {attributed:.6f}s + unattributed, "
            f"not the traced campaign time {campaign_s:.6f}s"
        )
    notes = [
        f"per-layer: means over {len(ok)} traced campaigns, "
        f"{len(untraced)} untraced campaigns for the overhead ratio",
        f"recovery.cache_hit_ratio base: {hits + misses} lookups; "
        f"recovery.pool_reuse_ratio base: {boots + reuses} acquisitions",
    ]
    if serial is not None:
        notes.append(
            f"fabric.parallel_efficiency base: serial injection "
            f"{serial_injection:.4f}s on seed {serial.seed}"
        )
    return metrics, problems, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced spans here")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    seeds = [args.seed * SEEDS_PER_RUN + j for j in range(SEEDS_PER_RUN)]
    tracer = spans.Tracer() if args.trace else None
    runner = Runner(workload, seeds, tracer)
    runner.run(seeds[0])  # warm-up: caches, lazy imports, pycache

    measured: List[Campaign] = []
    untraced: List[Campaign] = []
    deadline = time.perf_counter() + args.seconds
    done = 0
    while done < len(seeds) or time.perf_counter() < deadline:
        seed = seeds[done % len(seeds)]
        if args.trace:
            untraced.append(runner.run(seed))
            measured.append(runner.run(seed, traced=True))
        else:
            measured.append(runner.run(seed))
        done += 1

    serial = None
    if args.trace and workload.shards > 1:
        serial = runner.run(seeds[0], traced=True, shards=1)

    problems = runner.repeat_problems()
    if args.trace:
        metrics, layer_problems, notes = per_layer(
            measured, untraced, serial, tracer
        )
        problems.extend(layer_problems)
        if args.spans:
            tracer.write(args.spans)
    else:
        metrics, notes = end_to_end(measured, runner.campaigns)
    for campaign in runner.campaigns:
        problems.extend(
            f"campaign {campaign.id} (seed {campaign.seed}): {problem}"
            for problem in campaign.problems
        )
    failed = sum(1 for c in runner.campaigns if c.problems)
    for line in notes + problems:
        print(line)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(runner.campaigns),
        "failed": failed,
        "metrics": {
            name: {"value": value[0], "unit": value[1]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
