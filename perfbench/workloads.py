"""The benchmark's three campaign workloads.

Each workload is one ``mumak analyze`` campaign shape: a target, its
seeded bugs, a fault model, an execution mode and a workload size.  The
benchmark seed only picks the generated operations (and the runner seed
that goes with them, as ``mumak analyze --seed`` does); the program sees
nothing else.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from dataclasses import dataclass
from typing import Callable, Optional

from repro.apps import APPLICATIONS
from repro.apps.bugs import default_bugs_for
from repro.core import MumakConfig
from repro.experiments.common import workload_for
from repro.pmem.faultmodel import FaultModelConfig

import verdict

C6_TORN = "hashmap_atomic.c6_torn_inplace_update"


@dataclass(frozen=True)
class Workload:
    name: str
    target: str
    bugs: frozenset
    n_ops: int
    fault_model: FaultModelConfig
    shards: int
    #: Journal every campaign to a fresh temporary directory.
    checkpoint: bool
    check: Callable

    def factory(self):
        cls = APPLICATIONS[self.target]
        bugs = self.bugs

        def make():
            return cls(bugs=bugs)

        return make

    def operations(self, seed: int):
        return workload_for(self.factory(), self.n_ops, seed=seed)

    def journal_dir(self):
        """A fresh journal directory per campaign (None when not
        journaling), removed when the campaign ends."""
        if self.checkpoint:
            return tempfile.TemporaryDirectory(prefix="perfbench-ckpt-")
        return contextlib.nullcontext()

    def config(self, seed: int, checkpoint_dir: Optional[str] = None,
               shards: Optional[int] = None) -> MumakConfig:
        checkpoint = None
        if checkpoint_dir is not None:
            checkpoint = os.path.join(checkpoint_dir, "campaign.jsonl")
        return MumakConfig(
            seed=seed,
            fault_model=self.fault_model,
            shards=self.shards if shards is None else shards,
            checkpoint_path=checkpoint,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="prefix_btree",
            target="btree",
            bugs=default_bugs_for("btree"),
            n_ops=3000,
            fault_model=FaultModelConfig(),
            shards=1,
            checkpoint=False,
            check=verdict.check_prefix_btree,
        ),
        Workload(
            name="adversarial_hashmap",
            target="hashmap_atomic",
            bugs=frozenset({C6_TORN}),
            n_ops=100,
            fault_model=FaultModelConfig(model="adversarial", samples=2),
            shards=1,
            checkpoint=False,
            check=verdict.check_adversarial_hashmap,
        ),
        Workload(
            name="sharded_rbtree",
            target="rbtree",
            bugs=frozenset(),
            n_ops=1500,
            fault_model=FaultModelConfig(),
            shards=2,
            checkpoint=True,
            check=verdict.check_sharded_rbtree,
        ),
    )
}
