"""Mumak's fault-injection phase (paper, section 4.1).

Three steps, each requiring less instrumentation than the previous one:

1. **Detection** — run the instrumented target once, capturing the call
   stack at every failure-point candidate (persistency instructions
   preceded by at least one PM store, by default) and building the failure
   point tree.
2. **Injection** — for every unique failure point, materialise the
   deterministic program-order-prefix crash state.  Two engines exist:

   * ``trace`` (default): derive every crash image from the single
     recorded trace.  Execution is deterministic, so the image obtained by
     re-running up to a failure point is byte-identical to the prefix of
     the recorded trace — this engine simply skips the redundant
     re-executions.
   * ``replay``: faithfully re-execute the workload once per failure
     point, crash gracefully at the first unvisited one (as the Pin
     implementation does), and repeat until every leaf is visited.

   The equivalence of the two engines is property-tested; the ablation
   benchmark quantifies the replay engine's cost.
3. **Recovery** — run the application's recovery procedure, uninstrumented,
   on each crash image; a failure is a reported bug carrying the complete
   code path of the failure point and the recovery error (plus the
   recovery call trace when recovery crashed abruptly).

Both engines route every recovery through the hardened campaign runner
(:mod:`repro.core.harness`): watchdogged oracle execution, per-injection
containment with retry + quarantine, optional checkpoint journaling, and
(for the trace engine) a supervised parallel worker pool whose merged
output is identical to a serial run.  The trace engine plans once
(:meth:`FaultInjector._plan`, schedule samples included), and the same
plan runs in-process, across shard processes, or across fleet hosts.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.fpt import FailurePointTree
from repro.core.harness import (
    CampaignJournal,
    CampaignResult,
    HarnessConfig,
    InjectionResult,
    InjectionTask,
    QuarantineRecord,
    execute_injection,
    make_finding,
    make_image_source,
    run_campaign,
)
from repro.core.oracle import RecoveryOutcome, RecoveryStatus
from repro.core.report import Finding, ModelComparison
from repro.errors import CrashInjected
from repro.instrument.runner import run_instrumented
from repro.obs.heartbeat import HeartbeatMonitor
from repro.obs.spans import NULL_TELEMETRY
from repro.instrument.tracer import (
    GRANULARITY_PERSISTENCY,
    FailurePointObserver,
    MinimalTracer,
)
from repro.pmem.events import MemoryEvent
from repro.pmem.faultmodel import (
    VARIANT_PREFIX,
    AdversarialImageFactory,
    FaultModelConfig,
)
from repro.pmem.incremental import (
    ENGINE_IMAGE_INCREMENTAL,
    ImageEngineStats,
    validate_image_engine,
)
from repro.pmem.machine import PMachine
from repro.recovery import RecoveryEngine, VerdictCacheError
from repro.recovery.engine import CACHE_SUFFIX, RecoveryEngineStats

ENGINE_TRACE = "trace"
ENGINE_REPLAY = "replay"


@dataclass
class FaultInjectionStats:
    """Bookkeeping for the evaluation tables."""

    candidates: int = 0
    unique_failure_points: int = 0
    injections: int = 0
    recovery_failures: int = 0
    executions: int = 0
    trace_length: int = 0
    #: Injections of non-prefix fault-model variants (torn/reorder/media).
    adversarial_injections: int = 0
    #: Recoveries that died on an unhandled uncorrectable media error.
    media_faults: int = 0
    # Hardened-runner bookkeeping.
    quarantined: int = 0
    hung: int = 0
    resource_exhausted: int = 0
    retries: int = 0
    worker_deaths: int = 0
    #: Injections restored from a checkpoint instead of re-executed.
    resumed: int = 0
    # Concurrency-aware campaigns (repro.sched).
    #: Schedule samples the campaign's crash points were drawn from
    #: (0 = single-threaded campaign).
    schedules: int = 0
    #: Simulated threads per schedule sample.
    sched_threads: int = 0
    # Multiprocess fabric accounting (repro.fabric).
    #: Shard worker processes the campaign was partitioned across
    #: (0 = in-process execution).
    shards: int = 0
    #: Shard processes that died with work remaining (and were requeued).
    shard_deaths: int = 0
    shard_respawns: int = 0
    #: Workers the built-in chaos monkey SIGKILLed.
    chaos_kills: int = 0
    # Cross-host fleet accounting (repro.fabric.fleet).
    #: Failure-point slices the fleet campaign was partitioned into
    #: (0 = not a fleet campaign).
    fleet_slices: int = 0
    #: Distinct worker hosts observed over the transport.
    fleet_workers: int = 0
    #: Slice-journal deliveries folded from the transport.
    fleet_deliveries: int = 0
    #: Deliveries truncated in flight (clean prefix folded or refused).
    fleet_torn_deliveries: int = 0
    #: Expired leases reclaimed at the next fencing token.
    fleet_releases: int = 0
    #: Injection records delivered more than once (lease races,
    #: duplicated uploads) and discarded by the idempotent merge.
    fleet_duplicate_tasks: int = 0
    #: Transport operations retried before succeeding or degrading.
    fleet_transport_retries: int = 0
    #: Tasks finished by the supervisor's local fallback after the
    #: fleet went quiet.
    fleet_local_fallback_tasks: int = 0
    # Image-engine / hot-path accounting (repro.pmem.incremental).
    #: Which crash-image engine materialised the campaign's images.
    image_engine: str = ""
    #: Wall-clock spent materialising crash images vs running recovery.
    materialise_seconds: float = 0.0
    recovery_seconds: float = 0.0
    images_materialised: int = 0
    image_bytes_copied: int = 0
    image_delta_bytes_applied: int = 0
    image_dirty_bytes_restored: int = 0
    image_pool_hits: int = 0
    image_pool_misses: int = 0
    image_full_rebuilds: int = 0
    #: Full persistence-state-machine passes (1 under the incremental
    #: engine; O(failure points) under replay).
    history_passes: int = 0
    # Recovery-engine accounting (repro.recovery).
    recovery_cache_hits: int = 0
    recovery_cache_misses: int = 0
    recovery_cache_stored: int = 0
    recovery_cache_loaded: int = 0
    recovery_dedup_groups: int = 0
    recovery_dedup_followers: int = 0
    recovery_pool_boots: int = 0
    recovery_pool_reuses: int = 0

    def absorb_recovery_stats(self, stats) -> None:
        """Fold a :class:`repro.recovery.RecoveryEngineStats` in."""
        self.recovery_cache_hits += stats.cache_hits
        self.recovery_cache_misses += stats.cache_misses
        self.recovery_cache_stored += stats.cache_stored
        self.recovery_cache_loaded += stats.cache_loaded
        self.recovery_dedup_groups += stats.dedup_groups
        self.recovery_dedup_followers += stats.dedup_followers
        self.recovery_pool_boots += stats.pool_boots
        self.recovery_pool_reuses += stats.pool_reuses

    def absorb_image_stats(self, stats: ImageEngineStats) -> None:
        self.images_materialised += stats.images
        self.image_bytes_copied += stats.bytes_copied
        self.image_delta_bytes_applied += stats.delta_bytes_applied
        self.image_dirty_bytes_restored += stats.dirty_bytes_restored
        self.image_pool_hits += stats.pool_hits
        self.image_pool_misses += stats.pool_misses
        self.image_full_rebuilds += stats.full_rebuilds
        self.history_passes += stats.history_passes

    def publish(self, registry) -> None:
        """Absorb this bookkeeping into a :mod:`repro.obs` registry.

        Counts become ``campaign_*`` counters; the materialise/recovery
        wall-clock split becomes ``campaign_phase_split_seconds{phase=}``
        so exporters and the phase report can read it without reaching
        into this dataclass.  Observation-only.
        """
        counts = {
            "candidates": self.candidates,
            "unique_failure_points": self.unique_failure_points,
            "injections": self.injections,
            "recovery_failures": self.recovery_failures,
            "executions": self.executions,
            "trace_length": self.trace_length,
            "adversarial_injections": self.adversarial_injections,
            "media_faults": self.media_faults,
            "quarantined": self.quarantined,
            "hung": self.hung,
            "resource_exhausted": self.resource_exhausted,
            "retries": self.retries,
            "worker_deaths": self.worker_deaths,
            "resumed": self.resumed,
            "schedules": self.schedules,
            "sched_threads": self.sched_threads,
            "shards": self.shards,
            "shard_deaths": self.shard_deaths,
            "shard_respawns": self.shard_respawns,
            "chaos_kills": self.chaos_kills,
            "fleet_slices": self.fleet_slices,
            "fleet_workers": self.fleet_workers,
            "fleet_deliveries": self.fleet_deliveries,
            "fleet_torn_deliveries": self.fleet_torn_deliveries,
            "fleet_releases": self.fleet_releases,
            "fleet_duplicate_tasks": self.fleet_duplicate_tasks,
            "fleet_transport_retries": self.fleet_transport_retries,
            "fleet_local_fallback_tasks": self.fleet_local_fallback_tasks,
            "recovery_cache_hits": self.recovery_cache_hits,
            "recovery_cache_misses": self.recovery_cache_misses,
            "recovery_cache_stored": self.recovery_cache_stored,
            "recovery_cache_loaded": self.recovery_cache_loaded,
            "recovery_dedup_groups": self.recovery_dedup_groups,
            "recovery_dedup_followers": self.recovery_dedup_followers,
            "recovery_pool_boots": self.recovery_pool_boots,
            "recovery_pool_reuses": self.recovery_pool_reuses,
        }
        for name, value in sorted(counts.items()):
            registry.counter(f"campaign_{name}").inc(value)
        if self.fleet_slices > 0:
            # Fleet headline counters are additionally exported bare so
            # `mumak obs report` surfaces them without knowing the
            # campaign_* prefix scheme.
            for bare in (
                "fleet_releases",
                "fleet_duplicate_tasks",
                "fleet_transport_retries",
            ):
                registry.counter(bare).inc(getattr(self, bare))
        for phase, seconds in (
            ("materialise", self.materialise_seconds),
            ("recovery", self.recovery_seconds),
        ):
            registry.counter(
                "campaign_phase_split_seconds",
                phase=phase,
                engine=self.image_engine,
            ).inc(seconds)


@dataclass
class FaultInjectionResult:
    findings: List[Finding]
    stats: FaultInjectionStats
    tree: FailurePointTree
    outcomes: List[Tuple[Tuple[str, ...], RecoveryOutcome]] = field(
        default_factory=list
    )
    quarantined: List[QuarantineRecord] = field(default_factory=list)
    #: Prefix-vs-adversarial summary (populated when the fault model
    #: materialises any non-prefix variant).
    comparison: Optional[ModelComparison] = None
    #: True when the campaign stopped early on a graceful drain request
    #: (SIGTERM/SIGINT): every completed injection was journaled and the
    #: remainder resumes via the checkpoint.
    drained: bool = False


@dataclass
class CampaignPlan:
    """Everything a trace-engine campaign fixes before any executor runs:
    the same plan drives serial, threaded, sharded, and fleet execution."""

    #: Crash-image source (dispatching on ``task.sched`` for a
    #: scheduled campaign).
    source: Any
    tasks: List[InjectionTask]
    stats: FaultInjectionStats
    #: Digest inputs of every RecoveryEngine of the campaign.
    engine_kwargs: Dict[str, Any]
    #: The tree the result reports (sample 0's for a scheduled campaign).
    tree: FailurePointTree


def _matches_plan(task: Optional[InjectionTask], result) -> bool:
    """Whether a restored or delivered ``result`` is the planned ``task``:
    same failure point, fault variant, and schedule sample."""
    return (
        task is not None
        and result is not None
        and result.task.stack == task.stack
        and result.task.variant == task.variant
        and result.task.sched == task.sched
    )


def _resume_split(tasks, resume_state, base_records):
    """Split a plan into the tasks to run and the indices an earlier run
    already completed.

    A task whose restored record is not the planned one re-runs, and its
    stale base record is dropped: it would shadow the fresh result at
    merge time (first writer wins).  Returns ``(todo, restored_indices,
    base_records)``.
    """
    resume_state = resume_state or {}
    base_records = dict(base_records or {})
    todo: List[InjectionTask] = []
    restored_indices: Set[int] = set()
    for task in tasks:
        if _matches_plan(task, resume_state.get(task.index)):
            restored_indices.add(task.index)
        else:
            todo.append(task)
            base_records.pop(task.index, None)
    return todo, restored_indices, base_records


class FaultInjector:
    """Configurable fault-injection engine."""

    def __init__(
        self,
        granularity: str = GRANULARITY_PERSISTENCY,
        require_store_since_last: bool = True,
        engine: str = ENGINE_TRACE,
        max_injections: Optional[int] = None,
        harness: Optional[HarnessConfig] = None,
        fault_model: Optional[FaultModelConfig] = None,
        image_engine: str = ENGINE_IMAGE_INCREMENTAL,
        telemetry=NULL_TELEMETRY,
        heartbeat_interval: float = 0.0,
        heartbeat_sink=None,
        recovery=None,
        stop: Optional[threading.Event] = None,
        stall_window: float = 0.0,
    ):
        if engine not in (ENGINE_TRACE, ENGINE_REPLAY):
            raise ValueError(f"unknown injection engine {engine!r}")
        self.granularity = granularity
        self.require_store_since_last = require_store_since_last
        self.engine = engine
        self.max_injections = max_injections
        self.harness = harness or HarnessConfig()
        self.fault_model = fault_model or FaultModelConfig()
        #: Observation-only telemetry endpoint (:mod:`repro.obs`); the
        #: inert default keeps the hot path free of branches.
        self.telemetry = telemetry
        #: Heartbeat cadence in wall-clock seconds (0 = no heartbeats)
        #: and the renderer sink (the CLI passes a stderr writer).
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_sink = heartbeat_sink
        #: Crash-image engine: ``"incremental"`` (production default —
        #: O(changed bytes) per failure point) or ``"replay"`` (the
        #: differential-testing reference; O(T) per failure point).
        #: Findings, reports, and checkpoint journals are byte-identical
        #: across the two (property-tested).
        self.image_engine = validate_image_engine(image_engine)
        #: Recovery-engine config (:class:`repro.recovery.
        #: RecoveryEngineConfig`) — verdict cache + machine pool +
        #: dedup scheduling.  ``None`` (or a disabled config) keeps the
        #: legacy per-point recovery path byte-for-byte.
        self.recovery = recovery
        #: Graceful-drain request (a :class:`threading.Event`, typically
        #: owned by a :class:`repro.fabric.DrainController`).  When set,
        #: the campaign stops at the next task boundary, flushes its
        #: checkpoint, and reports ``drained=True``.
        self.stop = stop
        #: Per-worker stall window for the heartbeat monitor (seconds;
        #: 0 = off).
        self.stall_window = stall_window

    @property
    def _recovery_cfg(self):
        """The recovery-engine config when enabled, else None."""
        if self.recovery is None or not self.recovery.enabled:
            return None
        return self.recovery

    def _recovery_engine(self, **engine_kwargs):
        """A campaign-scoped RecoveryEngine, or None when disabled."""
        if self._recovery_cfg is None:
            return None
        return RecoveryEngine(
            self.recovery, telemetry=self.telemetry, **engine_kwargs
        )

    def _close_recovery(self, engine, stats) -> None:
        if engine is None:
            return
        engine_stats = engine.close()
        stats.absorb_recovery_stats(engine_stats)
        if self.telemetry.enabled:
            engine_stats.publish(self.telemetry.registry)

    # ------------------------------------------------------------------ #
    # public entry point
    # ------------------------------------------------------------------ #

    def run(
        self,
        app_factory: Callable[[], Any],
        workload: Sequence,
        seed: int = 0,
        journal: Optional[CampaignJournal] = None,
        resume_state: Optional[Dict[int, InjectionResult]] = None,
    ) -> FaultInjectionResult:
        tree, trace, initial_image = self._detect(app_factory, workload, seed)
        return self.inject(
            app_factory,
            workload,
            tree,
            trace,
            initial_image,
            seed=seed,
            candidates=self._candidates,
            journal=journal,
            resume_state=resume_state,
        )

    def inject(
        self,
        app_factory: Callable[[], Any],
        workload: Sequence,
        tree: FailurePointTree,
        trace: Sequence[MemoryEvent],
        initial_image: bytes,
        seed: int = 0,
        candidates: int = 0,
        journal: Optional[CampaignJournal] = None,
        resume_state: Optional[Dict[int, InjectionResult]] = None,
        runs=None,
    ) -> FaultInjectionResult:
        """Injection against an already-built tree/trace (pipeline entry).

        ``runs`` (the :func:`repro.sched.campaign.detect_schedules`
        output) switches to a scheduled campaign: the plan comes from
        the per-sample trees and ``tree``/``trace``/``initial_image``
        are ignored.  Everything downstream of planning is the same.
        """
        if self.engine != ENGINE_TRACE:
            if runs is not None:
                raise ValueError(
                    "scheduled campaigns require the trace engine; the "
                    "replay engine re-executes the target per failure "
                    "point and has no notion of a recorded interleaving"
                )
            stats = FaultInjectionStats(
                candidates=candidates,
                unique_failure_points=tree.failure_point_count,
                trace_length=len(trace),
                executions=1,
            )
            return self._inject_by_replay(
                app_factory, workload, seed, tree, stats
            )
        plan = self._plan(tree, trace, initial_image, runs)
        plan.stats.candidates = candidates
        recovery_engine = self._recovery_engine(**plan.engine_kwargs)
        campaign = run_campaign(
            plan.tasks,
            plan.source,
            app_factory,
            config=self.harness,
            journal=journal,
            resume_state=resume_state,
            telemetry=self.telemetry,
            heartbeat=self._heartbeat(len(plan.tasks)),
            recovery=recovery_engine,
            stop=self.stop,
        )
        self._close_recovery(recovery_engine, plan.stats)
        self._absorb_image_stats(plan)
        return self._collect(campaign, plan.stats, plan.tree)

    # ------------------------------------------------------------------ #
    # step 1: detection
    # ------------------------------------------------------------------ #

    def _detect(self, app_factory, workload, seed):
        tree = FailurePointTree()

        def on_candidate(stack, event: MemoryEvent):
            tree.insert(stack, seq=event.seq)

        observer = FailurePointObserver(
            on_candidate,
            granularity=self.granularity,
            require_store_since_last=self.require_store_since_last,
        )
        tracer = MinimalTracer()
        artifacts = run_instrumented(
            app_factory, workload, hooks=[tracer, observer], seed=seed
        )
        self._candidates = observer.candidates_seen
        return tree, tracer.events, artifacts.initial_image

    # ------------------------------------------------------------------ #
    # step 2+3, trace engine: one plan for every executor
    # ------------------------------------------------------------------ #

    def _plan(self, tree, trace, initial_image, runs=None) -> CampaignPlan:
        """The deterministic plan of a trace-engine campaign.

        One loop over schedule samples builds the task list; a
        single-threaded campaign is the one sample ``-1`` over ``tree``.
        Samples contribute in schedule order with globally contiguous
        task indices, so journal and fabric identity (``task.index``)
        are oblivious to schedules.  Per failure point the prefix task
        comes first (so finding dedup attributes dual-reachable bugs to
        the graceful crash) and adversarial variants ride after; the
        variant planner is the sample source's own factory, so planning
        consumes the same memoized history pass the cursors use.
        """
        if runs is None:
            source = make_image_source(
                initial_image, trace, self.fault_model, self.image_engine
            )
            samples = [(-1, tree, source)]
            stats = FaultInjectionStats(
                unique_failure_points=tree.failure_point_count,
                trace_length=len(trace),
                executions=1,
            )
            engine_kwargs: Dict[str, Any] = dict(trace=trace)
        else:
            from repro.sched.campaign import (
                MultiScheduleSource,
                union_extent,
                write_seqs_by_sched,
            )

            source = MultiScheduleSource(
                runs,
                fault_model=self.fault_model,
                image_engine=self.image_engine,
            )
            samples = [
                (run.sched, run.tree, source.sources[run.sched])
                for run in runs
            ]
            tree = runs[0].tree
            stats = FaultInjectionStats(
                unique_failure_points=sum(
                    run.tree.failure_point_count for run in runs
                ),
                trace_length=sum(len(run.trace) for run in runs),
                executions=len(runs),
                schedules=len(runs),
                sched_threads=runs[0].threads,
            )
            # Every engine, in every process, digests over the union of
            # the samples' persisted-write extents: two crash images that
            # agree on every byte any sample persisted (equivalent
            # interleavings) collapse to one verdict-cache digest.
            engine_kwargs = dict(
                write_seqs=write_seqs_by_sched(runs),
                extent=union_extent(runs),
            )
        tasks: List[InjectionTask] = []

        def room() -> bool:
            return self.max_injections is None or (
                len(tasks) < self.max_injections
            )

        with self.telemetry.span(
            "campaign/injection/planner", engine=self.image_engine
        ):
            for sched, sample_tree, sample_source in samples:
                planner = (
                    sample_source.factory
                    if self.fault_model.is_adversarial
                    else None
                )
                for stack, node in sample_tree.failure_points():
                    if not room():
                        break
                    node.visited = True
                    tasks.append(
                        InjectionTask(
                            index=len(tasks),
                            stack=stack,
                            seq=node.first_seq,
                            sched=sched,
                        )
                    )
                    if planner is not None:
                        for variant in planner.plan(node.first_seq):
                            if not room():
                                break
                            tasks.append(
                                InjectionTask(
                                    index=len(tasks),
                                    stack=stack,
                                    seq=node.first_seq,
                                    variant=variant,
                                    sched=sched,
                                )
                            )
        return CampaignPlan(source, tasks, stats, engine_kwargs, tree)

    def _absorb_image_stats(self, plan: CampaignPlan) -> None:
        collected = plan.source.collect_stats()
        plan.stats.absorb_image_stats(collected)
        if self.telemetry.enabled:
            collected.publish(
                self.telemetry.registry, engine=self.image_engine
            )

    def _heartbeat(self, total: int) -> Optional[HeartbeatMonitor]:
        """A live progress monitor, or None when inert (no telemetry and
        no sink, or a zero interval)."""
        monitor = HeartbeatMonitor(
            total=total,
            interval_seconds=self.heartbeat_interval,
            telemetry=self.telemetry,
            sink=self.heartbeat_sink,
            stall_window_seconds=self.stall_window,
        )
        return monitor if monitor.active else None

    # ------------------------------------------------------------------ #
    # step 2+3 across processes or hosts (repro.fabric): shared steps
    # ------------------------------------------------------------------ #

    def _slice_engine(self, plan: CampaignPlan, journal_path: str, donors=()):
        """The RecoveryEngine of one shard or fleet slice, or None.

        Its verdict cache lives next to the slice journal.  A SIGKILL
        (chaos or operator) can tear that cache's header line; the cache
        is an accelerator, never ground truth, so it is rebuilt from
        scratch.  The engine then adopts the campaign-wide cache (zero
        re-verification on resume) and every ``donors`` cache file.
        """
        cfg = self._recovery_cfg
        if cfg is None:
            return None
        slice_cfg = dataclasses.replace(
            cfg,
            cache_path=(
                journal_path + CACHE_SUFFIX if cfg.cache_enabled else None
            ),
        )
        try:
            engine = RecoveryEngine(slice_cfg, **plan.engine_kwargs)
        except VerdictCacheError:
            os.remove(slice_cfg.cache_path)
            engine = RecoveryEngine(slice_cfg, **plan.engine_kwargs)
        if engine.cache is not None:
            engine.cache.adopt(cfg.cache_path)
            for donor in donors:
                try:
                    with open(donor, "rb") as fh:
                        engine.cache.adopt_bytes(fh.read())
                except OSError:
                    continue
            engine.stats.cache_loaded = engine.cache.loaded
        return engine

    def _fold_vcaches(self, checkpoint_path: str, donors=()) -> None:
        """Fold every slice verdict cache, plus ``donors``, into the
        campaign-wide cache, then retire the slice artifacts: the merged
        journal and cache are the single source of truth, drained or
        complete.  A donor torn by a kill or in flight is an accelerator
        lost, never an error."""
        from repro.fabric import (
            cleanup_shard_artifacts,
            find_shard_journals,
            merge_vcaches,
        )

        cfg = self._recovery_cfg
        if cfg is not None and cfg.cache_path is not None:
            paths = [
                path + CACHE_SUFFIX
                for path in find_shard_journals(checkpoint_path)
            ]
            for donor in paths + list(donors):
                try:
                    merge_vcaches(cfg.cache_path, cfg.scope, [donor])
                except VerdictCacheError:
                    continue
        cleanup_shard_artifacts(checkpoint_path)

    def _collect_fabric(self, plan: CampaignPlan, fabric_result):
        """Finish a shard or fleet campaign from its merged results.

        Planning-time image accounting happened in this process.  Journal
        records beyond this campaign's plan stay in the merged journal,
        exactly as a serial append-mode journal keeps them, but are not
        campaign results.
        """
        self._absorb_image_stats(plan)
        planned = {task.index: task for task in plan.tasks}
        results = [
            result
            for result in fabric_result.results
            if _matches_plan(planned.get(result.task.index), result)
        ]
        campaign = CampaignResult(
            results=results, drained=fabric_result.drained
        )
        return self._collect(campaign, plan.stats, plan.tree)

    def _require_trace_engine(self, what: str) -> None:
        if self.engine != ENGINE_TRACE:
            raise ValueError(
                f"{what} campaigns require the trace engine; the replay "
                "engine discovers failure points by re-execution and is "
                "inherently serial"
            )

    def inject_sharded(
        self,
        app_factory,
        workload,
        tree,
        trace,
        initial_image,
        fabric,
        checkpoint_path: str,
        fingerprint: str,
        seed: int = 0,
        candidates: int = 0,
        resume_state: Optional[Dict[int, InjectionResult]] = None,
        base_records: Optional[Dict[int, dict]] = None,
        runs=None,
    ) -> FaultInjectionResult:
        """Run the trace-engine campaign across shard *processes*.

        ``fabric`` is a :class:`repro.fabric.FabricConfig`; the failure
        points are partitioned deterministically across its shards, each
        shard journals its slice to ``<checkpoint_path>.shardK`` (with a
        per-shard verdict cache), and the supervisor merges everything
        back into ``checkpoint_path`` — byte-identical to the journal a
        serial run writes, whatever workers die along the way.

        ``resume_state``/``base_records`` carry an earlier run's
        completed injections (results for filtering, raw journal records
        for the merge); ``runs`` switches to a scheduled campaign as in
        :meth:`inject`.  Per-injection wall-clock split is not tracked
        (timings are process-local and deliberately unserialised); all
        other accounting — including per-shard image and recovery-engine
        stats — is relayed back best-effort.
        """
        # Lazy: repro.fabric depends on this package's harness module.
        from repro.fabric import ShardSupervisor

        self._require_trace_engine("sharded")
        plan = self._plan(tree, trace, initial_image, runs)
        stats = plan.stats
        stats.candidates = candidates
        stats.shards = fabric.shards
        source = plan.source
        todo, restored_indices, base_records = _resume_split(
            plan.tasks, resume_state, base_records
        )

        def worker_body(shard_id, shard_tasks, journal_path, beacon, stop):
            """Runs inside the forked shard: the ordinary in-process
            executor over this shard's slice, journaled per record."""
            journal = CampaignJournal(
                journal_path, fingerprint, seed=seed, interval=1
            )
            # The source's counters are cumulative and the fork copied
            # the parent's planning-time numbers; relay only what THIS
            # shard adds, or the parent would count planning per shard.
            image_baseline = dataclasses.asdict(source.collect_stats())
            engine = self._slice_engine(plan, journal_path)
            engine_stats = None
            try:
                run_campaign(
                    shard_tasks,
                    source,
                    app_factory,
                    config=self.harness,
                    journal=journal,
                    heartbeat=beacon,
                    recovery=engine,
                    stop=stop,
                )
            finally:
                if engine is not None:
                    engine_stats = engine.close()
                journal.close()
            image_total = dataclasses.asdict(source.collect_stats())
            beacon.stats(
                {
                    "image": {
                        key: image_total[key] - image_baseline[key]
                        for key in image_total
                    },
                    "recovery": (
                        engine_stats.as_dict()
                        if engine_stats is not None
                        else None
                    ),
                }
            )

        def absorb_shard_stats(shard_id, payload):
            image = payload.get("image")
            if image:
                stats.absorb_image_stats(ImageEngineStats(**image))
            recovered = payload.get("recovery")
            if recovered:
                engine_stats = RecoveryEngineStats(**recovered)
                stats.absorb_recovery_stats(engine_stats)
                if self.telemetry.enabled:
                    engine_stats.publish(self.telemetry.registry)

        supervisor = ShardSupervisor(
            todo,
            worker_body,
            checkpoint_path,
            fingerprint,
            seed,
            config=fabric,
            base_records=base_records,
            restored_indices=restored_indices,
            telemetry=self.telemetry,
            heartbeat=self._heartbeat(len(todo)),
            stop=self.stop,
            on_stats=absorb_shard_stats,
            warn=self.heartbeat_sink,
        )
        fabric_result = supervisor.run()
        stats.shard_deaths = fabric_result.stats.deaths
        stats.shard_respawns = fabric_result.stats.respawns
        stats.chaos_kills = fabric_result.stats.chaos_kills
        self._fold_vcaches(checkpoint_path)
        return self._collect_fabric(plan, fabric_result)

    def inject_fleet(
        self,
        app_factory,
        workload,
        tree,
        trace,
        initial_image,
        fleet,
        checkpoint_path: str,
        fingerprint: str,
        fingerprint_payload: dict,
        spec: dict,
        seed: int = 0,
        candidates: int = 0,
        resume_state: Optional[Dict[int, InjectionResult]] = None,
        base_records: Optional[Dict[int, dict]] = None,
    ) -> FaultInjectionResult:
        """Run the trace-engine campaign across worker *hosts*.

        ``fleet`` is a :class:`repro.fabric.fleet.FleetConfig`; the
        failure points are partitioned into lease-able slices published
        over the fleet transport, remote workers (``mumak fleet worker``)
        execute and ship them back, and the supervisor folds deliveries
        idempotently into ``checkpoint_path`` — byte-identical to the
        serial journal whatever the transport drops, duplicates, or
        tears.  With no live workers the campaign degrades to local
        execution after the fleet's patience window.

        ``spec`` is the campaign-reconstruction recipe published in the
        manifest (see :func:`repro.fabric.fleet.build_manifest`);
        ``fingerprint_payload`` is the dict ``fingerprint`` was hashed
        from, shipped so workers can refuse a tampered manifest.
        """
        # Lazy: repro.fabric depends on this package's harness module.
        from repro.fabric.fleet import FleetSupervisor

        self._require_trace_engine("fleet")
        plan = self._plan(tree, trace, initial_image)
        stats = plan.stats
        stats.candidates = candidates
        stats.fleet_slices = fleet.slices
        todo, restored_indices, base_records = _resume_split(
            plan.tasks, resume_state, base_records
        )

        def local_runner(slice_id, slice_tasks, journal_path, stop):
            """The degradation path: one fleet slice, in this process,
            journaled exactly like an in-host shard so the ordinary
            merge machinery picks it up.  Verdicts that made it back
            over the transport are adopted too: zero re-verification
            for work a dead fleet already did."""
            journal = CampaignJournal(
                journal_path, fingerprint, seed=seed, interval=1
            )
            engine = self._slice_engine(
                plan, journal_path, donors=supervisor.vcache_paths
            )
            try:
                run_campaign(
                    slice_tasks,
                    plan.source,
                    app_factory,
                    config=self.harness,
                    journal=journal,
                    telemetry=self.telemetry,
                    recovery=engine,
                    stop=stop,
                )
            finally:
                if engine is not None:
                    stats.absorb_recovery_stats(engine.close())
                journal.close()

        supervisor = FleetSupervisor(
            todo,
            checkpoint_path,
            fingerprint,
            fingerprint_payload,
            seed,
            config=fleet,
            spec=spec,
            local_runner=local_runner,
            base_records=base_records,
            restored_indices=restored_indices,
            telemetry=self.telemetry,
            heartbeat=self._heartbeat(len(todo)),
            stop=self.stop,
            warn=self.heartbeat_sink,
        )
        fleet_result = supervisor.run()
        folded = fleet_result.stats
        stats.fleet_workers = folded.workers
        stats.fleet_deliveries = folded.deliveries
        stats.fleet_torn_deliveries = folded.torn_deliveries
        stats.fleet_releases = folded.releases
        stats.fleet_duplicate_tasks = folded.duplicate_tasks
        stats.fleet_transport_retries = folded.transport_retries
        stats.fleet_local_fallback_tasks = folded.local_fallback_tasks
        # Delivered verdict caches fold in too: duplicated deliveries
        # replay from the campaign cache on resume instead of
        # re-verifying.  Their spool files are retired with the slices.
        self._fold_vcaches(checkpoint_path, donors=fleet_result.vcache_paths)
        for spool in fleet_result.vcache_paths:
            with contextlib.suppress(FileNotFoundError):
                os.remove(spool)
        return self._collect_fabric(plan, fleet_result)

    # ------------------------------------------------------------------ #
    # step 2+3, replay engine
    # ------------------------------------------------------------------ #

    def _inject_by_replay(
        self, app_factory, workload, seed, tree, stats
    ) -> FaultInjectionResult:
        # The replay engine re-executes the target per failure point and
        # shares visited-marking state through the tree, so it runs
        # serially; each recovery still goes through watchdog + contain-
        # ment, so a pathological target cannot stall the campaign.
        adversarial = self.fault_model.is_adversarial
        campaign = CampaignResult()
        index = 0
        # The replay engine discovers each failure point by re-executing
        # the target, so pre-dispatch grouping is impossible; the verdict
        # cache and machine pool still apply per point.
        recovery_engine = self._recovery_engine()
        session = (
            recovery_engine.session() if recovery_engine is not None else None
        )

        def room() -> bool:
            return self.max_injections is None or index < self.max_injections

        while tree.unvisited_count > 0:
            if not room():
                break
            if self.stop is not None and self.stop.is_set():
                campaign.drained = True
                break
            injector = _ReplayInjector(
                tree, self.granularity, self.require_store_since_last
            )
            # The adversarial families need the event trace of *this*
            # replay to analyse in-flight stores and dirty lines; the
            # prefix-only replay engine skips that cost.
            tracer = MinimalTracer() if adversarial else None
            hooks: List[Any] = [injector]
            if tracer is not None:
                hooks.insert(0, tracer)
            artifacts = run_instrumented(
                app_factory, workload, hooks=hooks, seed=seed
            )
            stats.executions += 1
            if artifacts.injected is None:
                # A full pass with no unvisited failure point reached:
                # whatever remains unvisited is unreachable on this
                # workload (should not happen with deterministic targets).
                break
            fail_seq = artifacts.injected.sequence
            task = InjectionTask(
                index=index, stack=injector.stack, seq=fail_seq
            )
            index += 1
            image = injector.image
            result = execute_injection(
                task, lambda _task: image, app_factory, self.harness,
                telemetry=self.telemetry, recovery=session,
            )
            campaign.retries += result.attempts - 1
            campaign.results.append(result)
            if tracer is not None:
                replay_image_stats = ImageEngineStats()
                factory = AdversarialImageFactory(
                    self.fault_model, artifacts.initial_image, tracer.events,
                    image_engine=self.image_engine,
                    stats=replay_image_stats,
                )
                for variant in factory.plan(fail_seq):
                    if not room():
                        break
                    variant_task = InjectionTask(
                        index=index,
                        stack=injector.stack,
                        seq=fail_seq,
                        variant=variant,
                    )
                    index += 1
                    crash = factory.materialise(
                        fail_seq, variant, prefix_image=image
                    )
                    result = execute_injection(
                        variant_task,
                        lambda _task, _crash=crash: _crash,
                        app_factory,
                        self.harness,
                        telemetry=self.telemetry,
                        recovery=session,
                    )
                    campaign.retries += result.attempts - 1
                    campaign.results.append(result)
                stats.absorb_image_stats(replay_image_stats)
        self._close_recovery(recovery_engine, stats)
        return self._collect(campaign, stats, tree)

    # ------------------------------------------------------------------ #

    def _collect(
        self,
        campaign: CampaignResult,
        stats: FaultInjectionStats,
        tree: FailurePointTree,
    ) -> FaultInjectionResult:
        findings: List[Finding] = []
        outcomes: List[Tuple[Tuple[str, ...], RecoveryOutcome]] = []
        for result in campaign.results:
            stats.injections += 1
            if result.task.variant != VARIANT_PREFIX:
                stats.adversarial_injections += 1
            if result.restored:
                stats.resumed += 1
            if result.quarantine is not None:
                stats.quarantined += 1
                continue
            outcome = result.outcome
            outcomes.append((result.task.stack, outcome))
            if outcome.status is RecoveryStatus.HUNG:
                stats.hung += 1
            elif outcome.status is RecoveryStatus.RESOURCE_EXHAUSTED:
                stats.resource_exhausted += 1
            elif outcome.status is RecoveryStatus.MEDIA_ERROR:
                stats.media_faults += 1
            if result.finding is not None:
                stats.recovery_failures += 1
                findings.append(result.finding)
        stats.retries += campaign.retries
        stats.worker_deaths += campaign.worker_deaths
        stats.image_engine = self.image_engine
        stats.materialise_seconds += campaign.materialise_seconds
        stats.recovery_seconds += campaign.recovery_seconds
        if self.telemetry.enabled:
            # The registry absorbs the campaign bookkeeping so exporters
            # and `mumak obs report` see one coherent metric surface.
            stats.publish(self.telemetry.registry)
        comparison = (
            self._compare(findings, stats)
            if self.fault_model.is_adversarial
            else None
        )
        return FaultInjectionResult(
            findings,
            stats,
            tree,
            outcomes,
            quarantined=campaign.quarantined,
            comparison=comparison,
            drained=campaign.drained,
        )

    def _compare(
        self, findings: List[Finding], stats: FaultInjectionStats
    ) -> ModelComparison:
        """Prefix-vs-adversarial summary over the raw (pre-dedup) findings."""
        prefix_keys = set()
        adversarial_keys: Dict[Tuple, Finding] = {}
        for finding in findings:
            key = finding.dedup_key()
            if (finding.variant or VARIANT_PREFIX) == VARIANT_PREFIX:
                prefix_keys.add(key)
            else:
                adversarial_keys.setdefault(key, finding)
        only = [
            (finding.variant or "?", finding.message)
            for key, finding in sorted(
                adversarial_keys.items(), key=lambda kv: repr(kv[0])
            )
            if key not in prefix_keys
        ]
        return ModelComparison(
            model=self.fault_model.model,
            prefix_injections=stats.injections - stats.adversarial_injections,
            adversarial_injections=stats.adversarial_injections,
            prefix_bugs=len(prefix_keys),
            adversarial_bugs=len(adversarial_keys),
            adversarial_only=only,
        )

    @staticmethod
    def _finding(stack, seq, outcome: RecoveryOutcome) -> Finding:
        """Kept for API compatibility; delegates to the harness."""
        return make_finding(stack, seq, outcome)


class _ReplayInjector(FailurePointObserver):
    """Hook that crashes the target at the first unvisited failure point."""

    def __init__(self, tree: FailurePointTree, granularity, require_store):
        super().__init__(
            self._on_candidate,
            granularity=granularity,
            require_store_since_last=require_store,
        )
        self._tree = tree
        self.image: Optional[bytes] = None
        self.stack: Tuple[str, ...] = ()

    def _on_candidate(self, stack, event: MemoryEvent) -> None:
        if self._tree.visit(stack):
            # Capture the graceful-crash state *now*, before Python unwind
            # handlers (transaction aborts etc.) can run.
            self.stack = stack
            self.image = self._machine.graceful_crash_image()
            raise CrashInjected(event.seq)

    def __call__(self, event: MemoryEvent, machine: PMachine) -> None:
        self._machine = machine
        super().__call__(event, machine)
