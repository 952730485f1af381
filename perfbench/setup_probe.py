"""One set-up sample: import ``repro.cli`` and build the target.

Run as ``python3 perfbench/setup_probe.py <target>`` from the checkout
root.  Prints one JSON line as soon as the target is built — the parent
stops its clock when the line arrives — with the in-process import time
and where ``repro`` was imported from.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

import repro.cli  # noqa: E402

_IMPORTED = time.perf_counter()

target = repro.cli.resolve_application(sys.argv[1])()
print(
    json.dumps(
        {
            "import_s": _IMPORTED - _START,
            "repro": os.path.abspath(repro.__file__),
            "target": target.name,
        }
    ),
    flush=True,
)
