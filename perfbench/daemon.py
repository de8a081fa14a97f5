"""Run ``repro serve`` with the layer tracer installed.

``python perfbench/daemon.py OUT.json <repro serve flags>``: the
traced run of serve-mixed starts the daemon through this file instead
of ``python -m repro serve``.  Spans are recorded on the daemon's worker
threads (``repro-serve-worker-*``), which decode and decide requests;
with one request in flight at a time they do not overlap.
The totals are written to ``OUT.json`` once the daemon has drained.
"""

import json
import sys
import threading
from pathlib import Path

from tracer import Tracer


def main() -> int:
    out = Path(sys.argv[1])
    tracer = Tracer(
        root_thread=lambda: threading.current_thread().name.startswith(
            "repro-serve-worker-"
        )
    )
    tracer.install()
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", *sys.argv[2:]])
    finally:
        out.write_text(json.dumps(tracer.totals()))


if __name__ == "__main__":
    sys.exit(main())
