"""Benchmark-side spans around the calls into each layer of ``repro``.

The program carries no spans of its own for this benchmark: the traced
run wraps public functions from here, records one span per call (name,
start, end, parent span, campaign id) in memory, and writes them out
when the run ends.  A layer's self time is its spans' durations minus
the parts their child spans cover; whatever the root ``campaign`` span
does not hand to a child is the ``unattributed`` row, so the self times
of all layers add up to the traced campaign time exactly.

Spans are process-local: work done inside forked shard processes is not
seen here and shows up as the parent's ``fabric`` wait.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    campaign: Optional[int]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder that patches layer entry points."""

    def __init__(self):
        self.spans: List[Span] = []
        self.campaign: Optional[int] = None
        self._local = threading.local()
        self._patches = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        span = Span(len(self.spans), name, 0.0, 0.0,
                    stack[-1] if stack else None, self.campaign)
        self.spans.append(span)
        stack.append(span.id)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def wrap(self, owner, attr: str, name) -> None:
        """Replace ``owner.attr`` with a spanned call.

        ``name`` is the span name, or a callable mapping the call's
        arguments to one (used to split a function by its arguments).
        """
        original = owner.__dict__[attr]
        namer: Callable = name if callable(name) else (lambda *a, **k: name)

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            with self.span(namer(*args, **kwargs)):
                return original(*args, **kwargs)

        setattr(owner, attr, spanned)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span.__dict__, sort_keys=True) + "\n")


def self_seconds(spans: List[Span]) -> Dict[str, float]:
    """Self time per span name: duration minus the child spans' time."""
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.seconds
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += span.seconds - child_time[span.id]
    return dict(totals)


def inclusive_seconds(spans: List[Span], prefix: str) -> float:
    """Time inside spans named ``prefix*``, not counting nested repeats."""
    by_id = {span.id: span for span in spans}
    total = 0.0
    for span in spans:
        if not span.name.startswith(prefix):
            continue
        parent = by_id.get(span.parent)
        if parent is not None and parent.name.startswith(prefix):
            continue
        total += span.seconds
    return total


def instrument_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read.

    The pipeline binds ``run_instrumented`` and ``resolve_sites`` by
    name, the harness binds ``run_recovery``, the shard supervisor binds
    ``merge_journals`` and the sharded injector imports ``merge_vcaches``
    from :mod:`repro.fabric` at call time, so each is patched where it
    is looked up.
    """
    import repro.core.harness as harness
    import repro.core.pipeline as pipeline
    import repro.fabric as fabric
    import repro.fabric.supervisor as supervisor
    from repro.core.fault_injection import FaultInjector
    from repro.core.report import AnalysisReport
    from repro.core.trace_analysis import TraceAnalyzer
    from repro.pmem.faultmodel import AdversarialImageFactory, variant_family
    from repro.pmem.incremental import IncrementalImageEngine
    from repro.pmem.machine import PMachine

    def family(_factory, _seq, variant, *args, **kwargs):
        return "materialise." + variant_family(variant)

    tracer.wrap(pipeline, "run_instrumented", "instrument.run")
    tracer.wrap(TraceAnalyzer, "analyze", "trace_analysis.analyze")
    tracer.wrap(pipeline, "resolve_sites", "trace_analysis.resolve_sites")
    tracer.wrap(FaultInjector, "inject", "injection.inject")
    tracer.wrap(FaultInjector, "inject_sharded", "injection.inject_sharded")
    tracer.wrap(IncrementalImageEngine, "image_at", "materialise.prefix")
    tracer.wrap(IncrementalImageEngine, "checkout", "materialise.prefix")
    tracer.wrap(AdversarialImageFactory, "materialise", family)
    tracer.wrap(harness, "run_recovery", "recovery.run")
    tracer.wrap(PMachine, "reset_to_image", "recovery.reset")
    tracer.wrap(harness.CampaignJournal, "record", "journal.write")
    tracer.wrap(harness.CampaignJournal, "flush", "journal.write")
    tracer.wrap(fabric.ShardSupervisor, "run", "fabric.wait")
    tracer.wrap(supervisor, "merge_journals", "fabric.merge")
    tracer.wrap(fabric, "merge_vcaches", "fabric.merge")
    tracer.wrap(AnalysisReport, "render", "report.render")
