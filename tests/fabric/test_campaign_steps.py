"""The campaign steps the shard and fleet drivers share.

``inject_sharded`` and ``inject_fleet`` (and the fleet worker) run the
same plan through the same four steps: the resume split, the per-slice
recovery engine, the verdict-cache fold, and the planned-result filter.
Each step compares the full task identity (failure point, fault
variant, schedule sample), so a record from another schedule sample is
never mistaken for the planned one.
"""

import dataclasses
import json
import os
import types

import pytest

from repro.apps import APPLICATIONS
from repro.apps.btree import BTree
from repro.core import FaultInjector, Mumak, MumakConfig
from repro.core.fault_injection import _resume_split
from repro.core.harness import InjectionResult, InjectionTask
from repro.core.oracle import RecoveryOutcome, RecoveryStatus
from repro.fabric.fleet import MANIFEST_NAME, _rebuild_campaign, parse_manifest
from repro.fabric.transport import DirTransport
from repro.pmem.faultmodel import FaultModelConfig
from repro.recovery import RecoveryEngineConfig, recovery_scope
from repro.workloads import generate_workload

STACK = ("a.py:1:f",)


def _ok(task):
    return InjectionResult(
        task=task, outcome=RecoveryOutcome(status=RecoveryStatus.OK)
    )


def _identity(task):
    return (task.index, task.stack, task.seq, task.variant, task.sched)


class TestResumeSplit:
    def test_record_of_another_sample_reruns_and_drops_stale_base(self):
        tasks = [
            InjectionTask(index=0, stack=STACK, seq=5, sched=0),
            InjectionTask(index=1, stack=STACK, seq=5, sched=1),
        ]
        resume_state = {
            0: _ok(tasks[0]),
            # Same index, failure point and variant, other sample.
            1: _ok(dataclasses.replace(tasks[1], sched=0)),
        }
        base_records = {0: {"i": 0}, 1: {"i": 1}}
        todo, restored, base = _resume_split(
            tasks, resume_state, base_records
        )
        assert todo == [tasks[1]]
        assert restored == {0}
        assert set(base) == {0}
        assert set(base_records) == {0, 1}  # the caller's dict is kept

    def test_variant_mismatch_reruns(self):
        task = InjectionTask(index=0, stack=STACK, seq=5, variant="torn:0")
        todo, restored, base = _resume_split(
            [task], {0: _ok(dataclasses.replace(task, variant="prefix"))},
            {0: {"i": 0}},
        )
        assert todo == [task] and restored == set() and base == {}


def _btree():
    return BTree(spt=True)


def _injector(tmp_path, cache="on"):
    config = RecoveryEngineConfig.resolve(
        cache,
        1,
        # The scope the pipeline binds for a btree campaign.
        recovery_scope(
            {"target": "btree", "timeout_seconds": None, "step_budget": None}
        ),
        str(tmp_path / "campaign.jsonl"),
    )
    return FaultInjector(recovery=config)


def _plan(injector):
    tree, trace, image = injector._detect(
        _btree, generate_workload(12, seed=0), 0
    )
    return injector._plan(tree, trace, image)


class TestResultFilter:
    def test_result_of_another_sample_is_not_a_campaign_result(
        self, tmp_path
    ):
        injector = _injector(tmp_path)
        plan = _plan(injector)
        assert len(plan.tasks) > 2
        results = [_ok(task) for task in plan.tasks]
        results[1] = _ok(dataclasses.replace(plan.tasks[1], sched=0))
        results.append(
            _ok(InjectionTask(index=len(plan.tasks), stack=STACK, seq=1))
        )
        fabric_result = types.SimpleNamespace(
            results=results, drained=False
        )
        collected = injector._collect_fabric(plan, fabric_result)
        assert collected.stats.injections == len(plan.tasks) - 1
        assert len(collected.outcomes) == len(plan.tasks) - 1


class TestSliceEngine:
    def test_torn_slice_cache_header_is_rebuilt(self, tmp_path):
        injector = _injector(tmp_path)
        plan = _plan(injector)
        journal_path = str(tmp_path / "campaign.jsonl.shard0")
        with open(journal_path + ".vcache", "wb") as fh:
            fh.write(b'{"type":"mumak-vca')  # SIGKILL mid-header
        engine = injector._slice_engine(plan, journal_path)
        assert engine is not None and engine.cache is not None
        engine.close()
        with open(journal_path + ".vcache", "rb") as fh:
            header = json.loads(fh.readline())
        assert header["scope"] == injector.recovery.scope

    def test_adopts_campaign_cache_and_donors(self, tmp_path):
        ckpt = str(tmp_path / "campaign.jsonl")
        Mumak(MumakConfig(checkpoint_path=ckpt)).analyze(
            _btree, generate_workload(12, seed=0)
        )
        main_cache = ckpt + ".vcache"
        with open(main_cache, "rb") as fh:
            verdicts = len(fh.read().splitlines()) - 1
        assert verdicts > 0
        injector = _injector(tmp_path)
        assert injector.recovery.cache_path == main_cache
        plan = _plan(injector)
        engine = injector._slice_engine(plan, ckpt + ".shard1")
        assert engine.stats.cache_loaded == verdicts
        engine.close()
        # With no campaign cache the same verdicts arrive as a donor.
        os.rename(main_cache, str(tmp_path / "spool"))
        engine = injector._slice_engine(
            plan, ckpt + ".shard2", donors=[str(tmp_path / "spool")]
        )
        assert engine.stats.cache_loaded == verdicts
        engine.close()


@pytest.mark.slow
class TestFleetWorkerPlan:
    def test_worker_rebuild_matches_supervisor_plan_adversarial(
        self, tmp_path, monkeypatch
    ):
        planned = []
        real_plan = FaultInjector._plan

        def spy(self, *args, **kwargs):
            plan = real_plan(self, *args, **kwargs)
            planned.append([_identity(task) for task in plan.tasks])
            return plan

        monkeypatch.setattr(FaultInjector, "_plan", spy)
        fleet = str(tmp_path / "fleet")
        config = MumakConfig(
            fault_model=FaultModelConfig(model="adversarial"),
            checkpoint_path=str(tmp_path / "fleet.jsonl"),
            fleet_dir=fleet,
            fleet_patience_seconds=0.2,
            run_trace_analysis=False,
            campaign_spec={
                "target": "hashmap_atomic",
                "options": {},
                "ops": 20,
                "workload_seed": 0,
            },
        )
        Mumak(config).analyze(
            APPLICATIONS["hashmap_atomic"], generate_workload(20, seed=0)
        )
        assert len(planned) == 1
        supervisor_plan = planned[0]
        assert any(task[3] != "prefix" for task in supervisor_plan)

        manifest = parse_manifest(DirTransport(fleet).get(MANIFEST_NAME))
        _, plan, _ = _rebuild_campaign(manifest["spec"])
        assert [_identity(task) for task in plan.tasks] == supervisor_plan
