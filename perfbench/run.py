"""The repository benchmark: verdict-checked ``mumak analyze`` campaigns.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload prefix_btree --seed 1 \\
        --seconds 25 --trace 0

Workloads: ``prefix_btree``, ``adversarial_hashmap``, ``sharded_rbtree``
(see ``perfbench/NOTES.md``).  The run times ``SETUP_SAMPLES`` fresh
interpreters importing ``repro.cli`` and building the target, around the
campaign loop, which runs in ``perfbench/campaigns.py`` as a child
process (so its peak RSS is the workload's own).  It prints one JSON
object as its last stdout line: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or per-layer metrics (``--trace 1``).

It reads and writes only inside the checkout: scratch files, the
sharded workload's journals and the span dump live under
``.perfbench/``.  Exits non-zero without a result line when the
checkout holds no ``src/repro`` to measure or any step fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Workload -> the target the set-up probe builds.  Mirrors
#: ``workloads.py``, which this process does not import so that it never
#: loads ``repro`` itself.
WORKLOADS = {
    "prefix_btree": "btree",
    "adversarial_hashmap": "hashmap_atomic",
    "sharded_rbtree": "rbtree",
}
#: Timed set-up samples per run, half before and half after the campaign
#: loop so they see more of the machine's speed swings.  One more,
#: untimed, warms the pycache first.
SETUP_SAMPLES = 12
#: Hard limit for the whole run; the campaign loop gets what is left.
RUN_LIMIT_SECONDS = 170.0


class BenchError(Exception):
    pass


def setup_samples(target: str, env: dict, deadline: float, count: int):
    """Wall time from spawning an interpreter to its target being built,
    and the probe's own import time, for ``count`` fresh interpreters."""
    probe = os.path.join(HERE, "setup_probe.py")
    walls, imports = [], []
    for _ in range(count):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, probe, target],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = child.stdout.readline()
            wall = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        if code != 0 or not line:
            raise BenchError(f"set-up probe exited {code}")
        report = json.loads(line)
        if not report["repro"].startswith(SRC + os.sep):
            raise BenchError(f"repro imported from {report['repro']}")
        walls.append(wall)
        imports.append(report["import_s"])
    return walls, imports


def run_campaigns(args, env: dict, spans_path: str, deadline: float):
    command = [
        sys.executable, os.path.join(HERE, "campaigns.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.trace:
        command += ["--spans", spans_path]
    child = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = child.communicate(
            timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise BenchError("campaign loop exceeded the run's time limit")
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise BenchError(f"campaign loop exited {child.returncode}")
    return lines[:-1], json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_SECONDS

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no repro package under {SRC}; nothing to measure",
              file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".perfbench")
    tmp = os.path.join(work, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    spans_path = os.path.join(
        work, f"spans-{args.workload}-seed{args.seed}.jsonl"
    )
    try:
        target = WORKLOADS[args.workload]
        setup_samples(target, env, deadline, 1)
        walls, imports = setup_samples(
            target, env, deadline, SETUP_SAMPLES // 2
        )
        notes, result = run_campaigns(args, env, spans_path, deadline)
        more = setup_samples(target, env, deadline, SETUP_SAMPLES // 2)
        walls += more[0]
        imports += more[1]
    except (BenchError, OSError, ValueError,
            subprocess.SubprocessError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        metrics = {"cli.import_s": {"value": statistics.median(imports),
                                    "unit": "s"}}
        metrics.update(result["metrics"])
        notes.append(f"cli.import_s: median of {len(imports)} samples; "
                     f"spans written to {os.path.relpath(spans_path, ROOT)}")
    else:
        metrics = {"setup_s": {"value": statistics.median(walls),
                               "unit": "s"}}
        metrics.update(result["metrics"])
        notes.append(f"setup_s: median of {len(walls)} fresh interpreters")
    result["metrics"] = metrics
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
