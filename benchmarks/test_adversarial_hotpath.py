"""The adversarial hot path: copy-free torn, reorder and media variants.

Under the incremental image engine every fault-model variant is a patch
over the pooled prefix buffer that the snapshot pool hands out: torn
variants rewrite at most a few 8-byte units, reorder variants re-render
the lines held back at an earlier cut, and media variants flip bits and
carry a poison set.  The recovered machine adopts the patched buffer
without copying, and the pool reconciles the patch on release.  The
replay reference still rebuilds each variant from the trace and copies
the whole pool for it.

This benchmark runs the grid {btree, rbtree} × {torn, reorder, media,
adversarial} under both ``--image-engine`` settings, checks that the
findings are identical (the differential contract), and writes
``BENCH_adversarial.json`` at the repo root.  Per row: injections, ms
per injection, images per second per variant family (from the metrics
registry's ``campaign/injection/materialise`` span histograms, which are
labelled by variant), and bytes copied.  At bench scale it also re-runs
the reference campaign the earlier numbers were taken on
(``mumak analyze rbtree --ops 150 --fault-model adversarial``) and
records those earlier numbers next to it.

Knobs:

* ``REPRO_SCALE=quick`` — a small workload (the CI smoke tier);
* ``REPRO_PERF_GATE=0`` — report the incremental-over-replay speedup
  instead of asserting it (CI boxes are noisy).  The differential
  contract and the copy accounting, which do not depend on machine
  speed, are asserted either way.
"""

import json
import os
import pathlib
import re
import subprocess
import sys
import time

from repro.apps import APPLICATIONS
from repro.core import Mumak, MumakConfig
from repro.obs.spans import SPAN_HISTOGRAM
from repro.pmem.faultmodel import FaultModelConfig, variant_family
from repro.pmem.incremental import (
    ENGINE_IMAGE_INCREMENTAL,
    ENGINE_IMAGE_REPLAY,
)
from repro.workloads import generate_workload

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_adversarial.json"

SEED = 4
TARGETS = ("btree", "rbtree")
FAULT_MODELS = {
    "torn": FaultModelConfig(model="torn"),
    "reorder": FaultModelConfig(model="reorder"),
    "media": FaultModelConfig(media_errors=True),
    "adversarial": FaultModelConfig(model="adversarial"),
}
OPS_BENCH = 40
OPS_QUICK = 8

#: Incremental must beat replay by at least this factor on every
#: adversarial-model row (bench scale, gate on).
GATE_SPEEDUP = 5.0

#: The campaign the earlier numbers below were measured on.
REFERENCE_COMMAND = "mumak analyze rbtree --ops 150 --fault-model adversarial"
#: Earlier wall-clock measurements of ``REFERENCE_COMMAND`` (serial,
#: 2-core VM).
EARLIER = {
    "roadmap_reanchor_2f9b398": {
        "wall_seconds": 73.5,
        "injections": 660,
        "ms_per_injection": 111.0,
        "materialise_seconds": 42.0,
        "recovery_seconds": 30.0,
    },
    "before_copy_free_variants_87d3e29": {
        "wall_seconds": 86.1,
        "injections": 660,
        "ms_per_injection": 130.5,
        "materialise_seconds": 49.1,
        "recovery_seconds": 34.8,
    },
}


def _campaign(target, n_ops, fault_model, engine):
    config = MumakConfig(
        seed=SEED,
        run_trace_analysis=False,
        fault_model=fault_model,
        image_engine=engine,
        obs_enabled=True,
    )
    workload = generate_workload(n_ops, seed=SEED)
    start = time.perf_counter()
    result = Mumak(config).analyze(APPLICATIONS[target], workload)
    return result, time.perf_counter() - start


def _family_rates(result) -> dict:
    """Images and images/s per variant family, from the registry."""
    totals = {}
    for metric in result.telemetry.registry.find(
        SPAN_HISTOGRAM, span="campaign/injection/materialise"
    ):
        family = variant_family(dict(metric.labels)["variant"])
        count, seconds = totals.get(family, (0, 0.0))
        totals[family] = (count + metric.count, seconds + metric.sum)
    return {
        family: {
            "images": count,
            "seconds": round(seconds, 4),
            "images_per_second": (
                round(count / seconds, 1) if seconds > 0 else None
            ),
        }
        for family, (count, seconds) in sorted(totals.items())
    }


def _row(result, wall) -> dict:
    stats = result.fault_injection.stats
    campaign = result.resources.phase_seconds["fault_injection"]
    return {
        "wall_seconds": round(wall, 4),
        "campaign_seconds": round(campaign, 4),
        "injections": stats.injections,
        "adversarial_injections": stats.adversarial_injections,
        "ms_per_injection": round(1000 * campaign / stats.injections, 3),
        "materialise_seconds": round(stats.materialise_seconds, 4),
        "recovery_seconds": round(stats.recovery_seconds, 4),
        "families": _family_rates(result),
        "bytes_copied": stats.image_bytes_copied,
        "pool_misses": stats.image_pool_misses,
    }


def _reference_rerun() -> dict:
    """Time ``REFERENCE_COMMAND`` as a user runs it: a fresh CLI
    process, wall clock from spawn to exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    argv = REFERENCE_COMMAND.split()[1:]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        env=env, capture_output=True, text=True, timeout=1800,
    )
    wall = time.perf_counter() - start
    assert proc.returncode in (0, 1), proc.stderr
    summary = proc.stdout.strip().splitlines()[-1]
    injections = int(re.search(r"injections: (\d+)", summary).group(1))
    split = re.search(
        r"materialise ([\d.]+)s, recovery ([\d.]+)s", summary
    )
    return {
        "wall_seconds": round(wall, 3),
        "injections": injections,
        "ms_per_injection": round(1000 * wall / injections, 3),
        "materialise_seconds": float(split.group(1)),
        "recovery_seconds": float(split.group(2)),
    }


def _fingerprint(result):
    return [
        (f.variant, f.seq, f.stack, f.message, f.recovery_error)
        for f in result.report.findings
    ]


def test_adversarial_hotpath(record_result):
    quick = os.environ.get("REPRO_SCALE") == "quick"
    n_ops = OPS_QUICK if quick else OPS_BENCH
    gate = os.environ.get("REPRO_PERF_GATE", "1") != "0"

    payload = {
        "benchmark": "adversarial_hotpath",
        "seed": SEED,
        "scale": "quick" if quick else "bench",
        "n_ops": n_ops,
        "gate_speedup": GATE_SPEEDUP,
        "rows": [],
        "reference": {"command": REFERENCE_COMMAND, "earlier": EARLIER},
    }
    lines = []
    for target in TARGETS:
        pool_size = APPLICATIONS[target]().pool_size
        for name, fault_model in FAULT_MODELS.items():
            replay_result, replay_wall = _campaign(
                target, n_ops, fault_model, ENGINE_IMAGE_REPLAY
            )
            incr_result, incr_wall = _campaign(
                target, n_ops, fault_model, ENGINE_IMAGE_INCREMENTAL
            )
            # The benchmark is only meaningful if the engines agree.
            assert _fingerprint(replay_result) == _fingerprint(incr_result)
            replay = _row(replay_result, replay_wall)
            incremental = _row(incr_result, incr_wall)
            # Copy-free: the whole pool is copied only when the snapshot
            # pool misses, never per variant.
            assert incremental["bytes_copied"] == (
                incremental["pool_misses"] * pool_size
            )
            # Replay copies the pool at least twice per variant.
            assert replay["bytes_copied"] >= (
                2 * replay["adversarial_injections"] * pool_size
            )
            speedup = (
                replay["campaign_seconds"] / incremental["campaign_seconds"]
                if incremental["campaign_seconds"] > 0
                else float("inf")
            )
            payload["rows"].append({
                "target": target,
                "fault_model": name,
                "findings": len(incr_result.report.findings),
                "engines": {
                    "replay": replay,
                    "incremental": incremental,
                },
                "campaign_speedup": round(speedup, 1),
            })
            lines.append(
                f"{target:7} {name:12} {incremental['injections']:6d} "
                f"{replay['ms_per_injection']:9.2f} "
                f"{incremental['ms_per_injection']:9.2f} {speedup:8.1f}x "
                f"{replay['bytes_copied'] / 2**20:10.0f} "
                f"{incremental['bytes_copied'] / 2**20:6.0f}"
            )

    rerun = _reference_rerun() if not quick else None
    if rerun is not None:
        payload["reference"]["now"] = rerun

    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    header = (
        f"{'target':7} {'model':12} {'inj':>6} {'replay ms':>9} "
        f"{'incr ms':>9} {'speedup':>9} {'replay MiB':>10} {'incr MiB':>6}"
    )
    footer = f"\n-> {OUTPUT_PATH.name}"
    if rerun is not None:
        footer = (
            f"\n{REFERENCE_COMMAND}: {rerun['wall_seconds']:.2f}s wall, "
            f"{rerun['injections']} injections, "
            f"{rerun['ms_per_injection']:.2f} ms/injection "
            "(earlier: 73.5s / 111 ms, then 86.1s)" + footer
        )
    record_result(
        "adversarial_hotpath",
        f"adversarial hot path at {n_ops} ops (replay vs incremental)\n"
        + header + "\n" + "\n".join(lines) + footer,
    )

    if gate and not quick:
        for row in payload["rows"]:
            if row["fault_model"] != "adversarial":
                continue
            assert row["campaign_speedup"] >= GATE_SPEEDUP, (
                f"{row['target']}: incremental is only "
                f"{row['campaign_speedup']}x faster than replay "
                f"(gate: {GATE_SPEEDUP}x); hot-path regression?"
            )
