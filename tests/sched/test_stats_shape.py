"""The scheduled-campaign stats shape is the same on every executor.

Serial, ``--jobs`` and ``--shards`` runs plan through one planner, so
the summary they print (``schedules: K sample(s) x N thread(s)``) must
agree; the sharded path once left the thread count at 0.
"""

import pytest

from repro.apps import THREADED_APPLICATIONS
from repro.core import Mumak, MumakConfig
from repro.sched.config import SchedConfig
from repro.workloads import generate_workload

SEED = 7
SCHED = SchedConfig(threads=2, seed=3, samples=2)


@pytest.mark.parametrize(
    "extra", [{}, {"jobs": 2}, {"shards": 2}], ids=["serial", "jobs", "shards"]
)
def test_sched_stats_shape_on_every_executor(extra):
    config = MumakConfig(
        seed=SEED, sched=SCHED, run_trace_analysis=False, **extra
    )
    result = Mumak(config).analyze(
        THREADED_APPLICATIONS["msgqueue_tso"],
        generate_workload(16, seed=SEED),
    )
    stats = result.fault_injection.stats
    assert stats.schedules == 2
    assert stats.sched_threads == 2
    assert stats.executions == 2
    assert stats.injections == stats.unique_failure_points > 0
