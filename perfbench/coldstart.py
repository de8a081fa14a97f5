"""One cold start of a workload's entry point, for ``setup_s``.

``python perfbench/coldstart.py WORKLOAD DIR``: the harness times this
whole process from the outside (interpreter start, importing the entry
modules, opening the store, and the first call's lazy initialisation on
a tiny input).  For ``serve-mixed`` the set-up a user pays is from
spawning the daemon until its first ``ping`` answers; this process
measures that span itself and prints it.
"""

import io
import sys
import tempfile


def _tiny_trace() -> bytes:
    from repro.core.serialize_bin import dumps_bin
    from repro.core.types import Execution, Operation, OpKind, ProcessHistory

    ops = (
        Operation(OpKind.WRITE, 0, 0, 0, value_written=1),
        Operation(OpKind.READ, 0, 0, 1, value_read=1),
    )
    return dumps_bin(Execution([ProcessHistory(0, ops)]))


def offline_cold(store_dir):
    from repro.core.serialize import parse_trace_bytes
    from repro.engine import ResultCache, ResultStore, verify_vmc

    store = ResultStore(store_dir)
    ex = parse_trace_bytes(_tiny_trace(), "<tiny>")
    verify_vmc(ex, certify="on", jobs=1, cache=ResultCache(store=store))
    store.close()


def stream_monitor(_store_dir):
    from repro.core.serialize_bin import FrameReader, StreamWriter
    from repro.core.types import OpKind
    from repro.engine.streaming import StreamingVerifier

    buf = io.BytesIO()
    w = StreamWriter(buf, 1)
    w.append(OpKind.WRITE, 0, 0, value_written=1)
    w.finish(final={0: 1})
    reader = FrameReader()
    reader.feed(buf.getvalue())
    list(StreamingVerifier(1, certify="on").feed(reader.events()))


def campaign_cold(store_dir):
    from repro.engine import ResultStore
    from repro.memsys.campaign import run_campaign
    from repro.memsys.faults import supported_faults

    store = ResultStore(store_dir)
    run_campaign(
        sites=[supported_faults("bus")[0]], substrates=["bus"],
        runs_per_cell=0, ops_per_processor=4, certify="on", jobs=1,
        store=store,
    )
    store.close()


def serve_mixed(store_dir):
    import os

    from worker import start_daemon, stop_daemon

    os.chdir(tempfile.mkdtemp(dir=store_dir))
    proc, seconds = start_daemon(os.path.join(store_dir, "store"))
    stop_daemon(proc)
    print(f"{seconds!r}")


if __name__ == "__main__":
    workload, directory = sys.argv[1], sys.argv[2]
    {
        "offline-cold": offline_cold,
        "stream-monitor": stream_monitor,
        "campaign-cold": campaign_cold,
        "serve-mixed": serve_mixed,
    }[workload](directory)
