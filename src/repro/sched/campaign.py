"""Composing seeded schedules with the fault-injection campaign.

One scheduled campaign runs K *samples* (seeded interleavings) of the
target.  Each sample is detected independently — its own trace, its own
failure-point tree — and contributes tasks tagged with its schedule id.
A crash point is then the product (interleaving prefix × drain state ×
fault variant): the interleaving decides which stores committed, the
drain state is whatever still sat in a TSO buffer (invisible to the
crash by construction), and the fault variant mutates the committed
prefix exactly as in single-threaded campaigns.

Failure points are *occurrence-expanded*: the same syntactic flush/fence
site reached N times under a schedule becomes N distinct crash points
(``<sched:t0#2>`` synthetic frames), because under concurrency the k-th
dynamic occurrence is where the interesting interleavings live — the
first occurrence of a site is usually the benign one.  The blowup is
pruned downstream by DPOR-style equivalence: two crash points (within or
across samples) whose images agree on the campaign-wide persisted-write
extent collapse to one verdict-cache digest, so equivalent interleavings
are never re-verified.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.fpt import FailurePointTree
from repro.core.harness import make_image_source
from repro.instrument.tracer import (
    GRANULARITY_PERSISTENCY,
    FailurePointObserver,
    MinimalTracer,
)
from repro.pmem.faultmodel import FaultModelConfig
from repro.pmem.incremental import ENGINE_IMAGE_REPLAY, MaterialisedImage
from repro.recovery.scheduler import (
    persisted_write_extent,
    persisted_write_seqs,
)
from repro.sched.config import SchedConfig
from repro.sched.runner import ScheduleArtifacts, run_scheduled


def derive_schedule_seed(base_seed: int, sample: int) -> int:
    """The per-sample scheduler seed, hash-derived from the base seed.

    Mirrors :func:`repro.pmem.faultmodel.derive_rng`: neighbouring
    samples get uncorrelated interleavings while two runs of the same
    campaign get identical ones.
    """
    digest = hashlib.sha256(
        f"mumak-sched:v1:{base_seed}:{sample}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class ScheduleRun:
    """One sample's detection products."""

    #: Schedule id (the sample index; task/journal identity).
    sched: int
    #: The derived scheduler seed this sample ran under.
    schedule_seed: int
    #: The interleaving taken, e.g. ``("s0", "d0", "s1", ...)``.
    schedule_trace: Tuple[str, ...]
    #: The committed-store event trace (what crash images are built from).
    trace: List[Any] = field(default_factory=list)
    tree: FailurePointTree = field(default_factory=FailurePointTree)
    initial_image: bytes = b""
    #: Failure-point candidates the observer saw (pre occurrence-dedup).
    candidates: int = 0
    #: Simulated threads the sample ran.
    threads: int = 0


def _detect_one(
    app_factory: Callable[[], Any],
    workload: Sequence,
    sched: SchedConfig,
    sample: int,
    seed: int,
    granularity: str,
    require_store_since_last: bool,
    step_limit: Optional[int],
    deadline: Optional[float],
) -> Tuple[ScheduleRun, ScheduleArtifacts]:
    tracer = MinimalTracer()
    tree = FailurePointTree()
    occurrences: Dict[Tuple[Tuple[str, ...], str], int] = {}
    scheduler_box: Dict[str, Any] = {}

    def on_candidate(stack, event):
        # Occurrence expansion: attribute the candidate to the thread the
        # scheduler is currently stepping ("setup" outside the drive
        # loop) and make every dynamic occurrence its own failure point.
        scheduler = scheduler_box.get("scheduler")
        label = "setup"
        if scheduler is not None and scheduler.current_label:
            label = scheduler.current_label
        key = (stack, label)
        occ = occurrences.get(key, 0)
        occurrences[key] = occ + 1
        tree.insert(stack + (f"<sched:{label}#{occ}>",), seq=event.seq)

    observer = FailurePointObserver(
        on_candidate,
        granularity=granularity,
        require_store_since_last=require_store_since_last,
    )
    artifacts = run_scheduled(
        app_factory,
        workload,
        sched,
        derive_schedule_seed(sched.seed, sample),
        hooks=(tracer, observer),
        seed=seed,
        step_limit=step_limit,
        deadline=deadline,
        scheduler_box=scheduler_box,
    )
    run = ScheduleRun(
        sched=sample,
        schedule_seed=artifacts.schedule_seed,
        schedule_trace=artifacts.schedule_trace,
        trace=tracer.events,
        tree=tree,
        initial_image=artifacts.initial_image,
        candidates=observer.candidates_seen,
        threads=sched.threads,
    )
    return run, artifacts


def detect_schedules(
    app_factory: Callable[[], Any],
    workload: Sequence,
    sched: SchedConfig,
    seed: int = 0,
    granularity: str = GRANULARITY_PERSISTENCY,
    require_store_since_last: bool = True,
    step_limit: Optional[int] = None,
    deadline: Optional[float] = None,
) -> Tuple[List[ScheduleRun], ScheduleArtifacts]:
    """Run the detection phase once per schedule sample.

    Returns the per-sample runs plus sample 0's execution artifacts (the
    pipeline reads pool metadata and the app name from them, exactly as
    it does from the single-threaded detection run).
    """
    runs: List[ScheduleRun] = []
    first: Optional[ScheduleArtifacts] = None
    for sample in range(sched.samples):
        run, artifacts = _detect_one(
            app_factory,
            workload,
            sched,
            sample,
            seed,
            granularity,
            require_store_since_last,
            step_limit,
            deadline,
        )
        runs.append(run)
        if first is None:
            first = artifacts
    assert first is not None
    return runs, first


def union_extent(runs: Sequence[ScheduleRun]) -> Optional[Tuple[int, int]]:
    """The campaign-wide persisted-write extent (union over samples).

    Every engine of a scheduled campaign must digest over the *same*
    extent or cross-sample DPOR aliasing breaks: two equivalent images
    from different samples would hash different byte ranges.
    """
    start = None
    stop = None
    for run in runs:
        extent = persisted_write_extent(run.trace)
        if extent is None:
            continue
        if start is None or extent[0] < start:
            start = extent[0]
        if stop is None or extent[1] > stop:
            stop = extent[1]
    if start is None or stop is None:
        return None
    return (start, stop)


def write_seqs_by_sched(runs: Sequence[ScheduleRun]) -> Dict[int, List[int]]:
    """Per-schedule persisted-write seq lists for pre-dispatch grouping."""
    return {run.sched: persisted_write_seqs(run.trace) for run in runs}


class MultiScheduleSource:
    """Image source dispatching on a task's schedule id.

    Wraps one per-sample prefix/adversarial source; cursors create their
    per-sample sub-cursors lazily, so a worker that only ever executes
    tasks of one sample pays for one engine.
    """

    def __init__(
        self,
        runs: Sequence[ScheduleRun],
        fault_model: Optional[FaultModelConfig] = None,
        image_engine: str = ENGINE_IMAGE_REPLAY,
    ):
        self.image_engine = image_engine
        self.sources: Dict[int, Any] = {
            run.sched: make_image_source(
                run.initial_image, run.trace, fault_model, image_engine
            )
            for run in runs
        }

    def cursor(self) -> "_MultiScheduleCursor":
        return _MultiScheduleCursor(self)

    def collect_stats(self):
        """Fold every sub-source's image-engine counters into one."""
        from repro.pmem.incremental import ImageEngineStats

        total = ImageEngineStats()
        for sched in sorted(self.sources):
            total.merge(self.sources[sched].collect_stats())
        return total


class _MultiScheduleCursor:
    """Worker-local cursor; tracks which sub-cursor owns a pooled image."""

    def __init__(self, source: MultiScheduleSource):
        self._source = source
        self._cursors: Dict[int, Any] = {}
        self._owner: Dict[int, Any] = {}

    def _cursor_for(self, sched: int):
        cursor = self._cursors.get(sched)
        if cursor is None:
            cursor = self._source.sources[sched].cursor()
            self._cursors[sched] = cursor
        return cursor

    def __call__(self, task):
        cursor = self._cursor_for(task.sched)
        image = cursor(task)
        if isinstance(image, MaterialisedImage):
            # Pooled buffers must go back to the engine that issued them.
            self._owner[id(image)] = cursor
        return image

    def release(self, image) -> None:
        cursor = self._owner.pop(id(image), None)
        if cursor is None:
            return
        release = getattr(cursor, "release", None)
        if release is not None:
            release(image)
