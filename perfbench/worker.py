"""The timed phase of one workload, in a fresh interpreter.

``python perfbench/worker.py SPEC.json OUT.json``: the harness
(``run.py``) writes the inputs and a spec, then runs this process, so
the peak RSS it reports is the pipeline's and not the generator's.  The
process makes one untimed warm-up call, collects garbage, runs the
timed phase through the pipeline's public entry points, and checks
every verdict against the label the inputs were built with outside the
timed spans.

With ``"traced": true`` the layer tracer (``tracer.py``) is installed
first; the checks, which call ``validate_result`` themselves, run after
its totals are taken or with it suspended.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
#: The CPUs this process may run on, taken before any pass pins it.
CPUS = sorted(os.sched_getaffinity(0))

#: Every workload's timed phase is REPS passes over the same units,
#: each pass on fresh state, and a unit's time is the fastest of its
#: passes.  A shared 2-vCPU machine changes speed from moment to
#: moment: a fixed 15 ms loop, timed back to back for 100 s, ran at
#: 1.0-1.6x its floor, and the median of 2 s windows moved between
#: 1.03x and 1.64x.  A unit's passes are spread over the run, so its
#: fastest sample comes from the fastest moments the run saw, and the
#: more samples a unit has the likelier that every unit, not only
#: most, has one there: p90 is set by the units whose every sample
#: was slow.  So units are small (5-20 ms) and passes many.  With
#: eight passes over 20 ms streams, stream-monitor's p50 and p90
#: spread 0.45 and 0.37 over five seeds; with 24 passes over 5 ms
#: streams, in the same hour, 0.08 and 0.10.  The counts below fill
#: a run of 20-30 s in a slow hour; ``pin_pass`` spreads each unit's
#: passes over the CPUs.
REPS = {
    "offline-cold": 14,
    "campaign-cold": 16,
    "stream-monitor": 24,
    "serve-mixed": 10,
}


def pin_pass(r: int) -> None:
    """Pin this process, and the processes it starts from now on, to
    one CPU, a different one for each pass in turn.  Steadiness: the
    host slows one vCPU at a time.  A fixed loop timed in alternating
    half-second windows on each vCPU for 40 s found one vCPU at
    1.5-1.9x its floor while the other ran at 1.0-1.1x,
    and which one was slow changed every few seconds.  Left to itself,
    the scheduler keeps a single-threaded worker on one vCPU, and a
    whole run could fall on the slow one: stream-monitor's p50 read
    8.1 ms in such a run against 5.0-5.8 ms in the others.  Alternating
    puts every unit's samples on every vCPU, so its fastest sample
    comes from the faster one."""
    os.sched_setaffinity(0, {CPUS[r % len(CPUS)]})


def cold_start(spec) -> float:
    """One cold start of the workload's entry point (``coldstart.py``)
    in a fresh interpreter, in seconds: the set-up a user pays before
    the first input."""
    d = tempfile.mkdtemp(dir=spec["setup_dir"])
    t0 = perf_counter()
    out = subprocess.run(
        [sys.executable, str(HERE / "coldstart.py"), spec["workload"], d],
        check=True, timeout=120, stdout=subprocess.PIPE, text=True,
    )
    outside = perf_counter() - t0
    shutil.rmtree(d, ignore_errors=True)
    # serve-mixed's cold start times itself: spawn to first ping.
    return float(out.stdout.split()[-1]) if spec["workload"] == "serve-mixed" else outside


def setup_sampler(spec):
    """Returns ``(between, samples)``.  The pipeline calls ``between()``
    before its first timed pass and after each pass, never inside one;
    the calls spread ``spec["setup_starts"]`` cold starts evenly over
    these gaps, appending their times to ``samples``.  Steadiness: the
    machine's speed drifts over seconds, and 7 cold starts taken in two
    blocks (before and after the timed phase) left setup_s spreading
    0.29 between seeds; spread through the run, the samples' median
    sees the run's whole span."""
    samples: list[float] = []
    total = spec.get("setup_starts", 0)
    gaps = REPS[spec["workload"]] + 1
    calls = 0
    if total:
        cold_start(spec)  # untimed: compiles bytecode (0.28 s, later 0.12 s)

    def between():
        nonlocal calls
        n = total * (calls + 1) // gaps - total * calls // gaps
        calls += 1
        for _ in range(n):
            samples.append(cold_start(spec))
        if n:
            gc.collect()

    return between, samples


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _dir_bytes(path) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(dirpath, f))
    return total


class Gate:
    """Counts attempted/failed operations and keeps the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, why: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(why)
        return ok


def _validate_per_address(execution, result, write_orders=None, seen=None,
                          name=""):
    """Re-check every per-address verdict (and so every VIOLATED
    certificate) with the solver-free checker.

    ``seen``, when given, is the set of outputs already checked, keyed
    by the input's ``name``, the address, and a digest of everything the
    checker reads from the result (verdict, certificate, witness).  The
    checker is a pure function of those, so an output identical to one
    that passed is not checked again.  A later pass of the same inputs
    mostly repeats the first one's certificates, and re-checking their
    RUP proofs took about a third of a pass."""
    from repro.engine import validate_result

    per = getattr(result, "per_address", None) or {}
    if not per:
        per = {getattr(result, "address", None): result}
    for addr, res in per.items():
        if res.unknown:
            return f"address {addr!r} UNKNOWN"
        if res.certificate is None:
            return f"address {addr!r} carries no certificate"
        order = (write_orders or {}).get(addr)
        key = None
        if seen is not None:
            key = (name, repr(addr), _digest([repr((
                res.holds, res.violated, res.certificate.kind,
                res.certificate.payload,
                tuple(res.schedule or ()), tuple(order or ()),
            ))]))
            if key in seen:
                continue
        sub = execution if addr is None else execution.restrict_to_address(addr)
        check = validate_result(sub, res, write_order=order)
        if not check.ok:
            return f"address {addr!r}: {check.reason}"
        if key is not None:
            seen.add(key)
    return None


# ---------------------------------------------------------------------
# offline-cold: what `repro verify --certify on --store DIR` does
# ---------------------------------------------------------------------
def offline_cold(spec, tracer, between=lambda: None):
    reps = REPS[spec["workload"]]
    from repro.core.serialize import parse_trace_bytes
    from repro.engine import ResultCache, ResultStore, verify_vmc

    def verify(path, cache):
        raw = Path(path).read_bytes()
        ex = parse_trace_bytes(raw, str(path))
        return ex, verify_vmc(ex, certify="on", jobs=1, cache=cache)

    warm = ResultStore(spec["warmup_store"])
    verify(spec["warmup"], ResultCache(store=warm))
    warm.close()
    gc.collect()
    if tracer:
        tracer.reset()

    # ``reps`` passes over the traces, each pass with its own fresh store
    # and cache; a trace's time is the fastest of its cold
    # verifications, taken a pass (seconds) apart.  Each pass is
    # checked after it ends, outside the timed spans, so no more than
    # one pass of results is held at a time.
    items = spec["items"]
    times = [[] for _ in items]
    gate = Gate()
    stores, verdicts, ops, certified, fallbacks = [], [], 0, 0, 0
    checked: set = set()
    for r in range(reps):
        pin_pass(r)
        between()
        st = ResultStore(f"{spec['store']}-{r}")
        cache = ResultCache(store=st)
        outcomes = []
        for item, ts in zip(items, times):
            t0 = perf_counter()
            try:
                outcomes.append(verify(item["path"], cache))
            except Exception as e:  # noqa: BLE001 — counted as a failed op
                outcomes.append((None, e))
            ts.append(perf_counter() - t0)
        st.close()
        stores.append(st)
        with suspended(tracer):
            for item, (ex, res) in zip(items, outcomes):
                if isinstance(res, Exception):
                    gate.check(False, f"{item['name']}: {type(res).__name__}: {res}")
                    verdicts.append("error")
                    continue
                verdict = "UNKNOWN" if res.unknown else (
                    "holds" if res.holds else "VIOLATED"
                )
                verdicts.append(verdict)
                want = "VIOLATED" if item["violated"] else "holds"
                problem = None if verdict == want else f"{verdict}, built {want}"
                problem = problem or _validate_per_address(
                    ex, res, seen=checked, name=item["name"]
                )
                if gate.check(problem is None, f"{item['name']}: {problem}"):
                    ops += item["ops"]
                for a in (res.per_address or {}).values():
                    certified += a.certificate is not None
                    fallbacks += "certificate_via" in a.stats
    between()
    layers = tracer.totals() if tracer else None
    unit_s = [min(ts) for ts in times]
    return {
        "unit_s": unit_s,
        "wall_s": sum(unit_s),
        "timed_s": sum(map(sum, times)),
        "ops": ops // reps,
        "gate": gate,
        "layers": layers,
        "fingerprint": {
            "inputs": len(items),
            "ops": sum(i["ops"] for i in items),
            "verdicts": _digest(verdicts),
            "certified": certified,
            "certify.sat_fallbacks": fallbacks,
            "store.hits": [st.stats.hits for st in stores],
            "store.misses": [st.stats.misses for st in stores],
        },
        "extra": {"store.bytes": _dir_bytes(f"{spec['store']}-0")},
    }


# ---------------------------------------------------------------------
# campaign-cold: run_campaign over both substrates and every site
# ---------------------------------------------------------------------
def campaign_cold(spec, tracer, between=lambda: None):
    reps = REPS[spec["workload"]]
    import repro.memsys.campaign as campaign
    from repro.engine import ResultStore
    from repro.memsys.campaign import run_campaign

    # Keep each batch's inputs and outcomes until its campaign ends, so
    # the certificates can be re-checked outside the timed span.
    captured = []
    inner = campaign.verify_many

    def capture(executions, write_orders=None, **kw):
        outcomes = inner(executions, write_orders=write_orders, **kw)
        captured.append((executions, write_orders, outcomes))
        return outcomes

    campaign.verify_many = capture
    warm = ResultStore(spec["warmup_store"])
    run_campaign(
        substrates=["bus"], runs_per_cell=1, base_seed=10**6,
        certify="on", jobs=1, store=warm,
    )
    warm.close()
    captured.clear()
    tracer.reset()
    gc.collect()

    # ``reps`` identical campaigns, each on a fresh store.  A run's time
    # is the fastest of its simulations; the rest of a campaign (oracle,
    # the batch verification, the report) is one unit, timed as the
    # fastest campaign wall less that campaign's simulations.  The
    # fastest whole wall instead needs one campaign to fall entirely
    # in a fast step of the machine, and spread 0.21 between seeds.
    gate = Gate()
    reports, walls, runs, verdicts = [], [], [], []
    checked: set = set()
    for r in range(reps):
        pin_pass(r)
        between()
        store = ResultStore(f"{spec['store']}-{r}")
        mark = len(tracer.runs)
        t0 = perf_counter()
        report = run_campaign(
            runs_per_cell=spec["runs_per_cell"],
            base_seed=spec["base_seed"],
            ops_per_processor=spec["ops_per_processor"],
            certify="on",
            jobs=1,
            store=store,
        )
        walls.append(perf_counter() - t0)
        store.close()
        reports.append((report, store.stats))
        runs.append(tracer.runs[mark:])
        with suspended(tracer):
            for b, (execs, orders, outcomes) in enumerate(captured):
                for i, (ex, wo, out) in enumerate(zip(
                    execs, orders or [None] * len(execs), outcomes
                )):
                    verdicts.append(out.verdict)
                    if out.result is not None and out.result.violated:
                        problem = _validate_per_address(
                            ex, out.result, wo, seen=checked,
                            name=f"{b}/{i}/{out.label}",
                        )
                        if problem is not None:
                            gate.failed += 1
                            gate.reasons.append(f"{out.label}: {problem}")
        captured.clear()
    between()
    layers = tracer.totals()

    # One operation per simulated run: missed visible faults, false
    # alarms, UNKNOWNs and engine errors fail it; a breached contract
    # with none of those counted still fails the run.
    for report, _stats in reports:
        breaches = sum(
            c.missed_visible + c.false_alarms + c.unknown + c.errors
            for c in report.cells
        )
        if not report.contract_ok:
            breaches = max(breaches, 1)
            gate.reasons += report.contract_failures[:3]
        gate.attempted += report.total_runs
        gate.failed += breaches
    gate.failed = min(gate.attempted, gate.failed)
    report, stats = reports[0]
    ops = sum(r["ops"] for r in runs[0]) if gate.failed == 0 else 0
    cells = [
        (c.key, c.runs, c.injections, c.visible, c.latent,
         c.detected_visible, c.certified)
        for c in report.cells
    ]
    unit_s = [min(t["s"] for t in same) for same in zip(*runs)]
    rest_s = min(w - sum(t["s"] for t in rs) for w, rs in zip(walls, runs))
    return {
        "unit_s": unit_s,
        "wall_s": sum(unit_s) + rest_s,
        "timed_s": sum(walls),
        "ops": ops,
        "gate": gate,
        "layers": layers if spec["traced"] else None,
        "fingerprint": {
            "inputs": report.total_runs,
            "ops": sum(r["ops"] for r in runs[0]),
            "verdicts": _digest(verdicts),
            "certified": report.certified,
            "cells": _digest([json.dumps(cells)]),
            "simulate.events": sum(r["events"] for r in runs[0]),
            "simulate.messages": sum(r["messages"] for r in runs[0]),
            "campaign.provenance": dict(sorted(report.provenance.items())),
            "store.hits": stats.hits,
            "store.misses": stats.misses,
        },
        "extra": {
            "store.bytes": _dir_bytes(f"{spec['store']}-0"),
            "simulate_s": report.simulate_s,
            "verify_s": report.verify_s,
        },
    }


# ---------------------------------------------------------------------
# stream-monitor: FrameReader + StreamingVerifier(certify="on")
# ---------------------------------------------------------------------
CHUNK = 1 << 16


def _monitor_file(path, n_procs):
    """Monitor one stream file to its verdict; returns the verdict and
    the verifier's op count and peak window (not the verifier, whose
    window a long run would otherwise keep alive)."""
    from repro.core.serialize_bin import FrameReader
    from repro.engine.streaming import StreamingVerifier

    reader = FrameReader()
    sv = StreamingVerifier(n_procs, certify="on")
    last = None
    with open(path, "rb") as fh:
        while last is None or last.kind == "heartbeat":
            chunk = fh.read(CHUNK)
            if not chunk:
                break
            reader.feed(chunk)
            for verdict in sv.feed(reader.events()):
                last = verdict
    return last, sv.stats.ops, sv.stats.peak_window


def stream_monitor(spec, tracer, between=lambda: None):
    reps = REPS[spec["workload"]]
    from repro.engine import validate_result

    _monitor_file(spec["warmup"], spec["n_procs"])
    gc.collect()
    if tracer:
        tracer.reset()
    gate = Gate()
    items = spec["items"]
    times = [[] for _ in items]
    verdicts, ops, consumed, peak = [], 0, 0, 0
    # ``reps`` passes over the streams; a stream's time is the fastest
    # of its passes, taken a pass (seconds) apart.
    for r in range(reps):
        pin_pass(r)
        between()
        for item, ts in zip(items, times):
            t0 = perf_counter()
            try:
                last, n_ops, window = _monitor_file(item["path"], spec["n_procs"])
            except Exception as e:  # noqa: BLE001 — counted as a failed op
                last, n_ops, window = e, 0, 0
            ts.append(perf_counter() - t0)
            # Checked between units, outside the timed span, so the
            # window execution of a violation is not kept alive.
            with suspended(tracer):
                problem = _check_stream(item, last, validate_result)
            if gate.check(problem is None, f"{item['name']}: {problem}"):
                ops += n_ops
            verdicts.append(
                f"{last.kind}@{last.op_index}"
                if hasattr(last, "kind") else "error"
            )
            consumed += n_ops
            peak = max(peak, window)
    between()
    layers = tracer.totals() if tracer else None
    unit_s = [min(ts) for ts in times]
    return {
        "unit_s": unit_s,
        "wall_s": sum(unit_s),
        "timed_s": sum(map(sum, times)),
        "ops": ops // reps,
        "gate": gate,
        "layers": layers,
        "fingerprint": {
            "inputs": len(items),
            "ops": consumed // reps,
            "verdicts": _digest(verdicts[: len(items)]),
            "violations": sum(v.startswith("violation") for v in verdicts) // reps,
        },
        "extra": {"monitor.peak_window": peak},
    }


def _check_stream(item, last, validate_result):
    if not hasattr(last, "kind"):
        return f"no verdict: {last!r}"
    bad = item["bad_index"]
    if bad is None:
        if (
            last.kind == "final" and last.result.holds
            and last.op_index == item["ops"]
            and last.result.stats.get("certified")
        ):
            return None
        return f"{last.kind}@{last.op_index}, built coherent"
    if last.kind != "violation" or last.op_index != bad:
        return f"{last.kind}@{last.op_index}, built violated@{bad}"
    check = validate_result(last.execution, last.result)
    return None if check.ok else f"certificate: {check.reason}"


def suspended(tracer):
    return tracer.suspended() if tracer else contextlib.nullcontext()


# ---------------------------------------------------------------------
# serve-mixed: a `repro serve` daemon driven by one closed-loop client
# ---------------------------------------------------------------------
SOCKET = "d.sock"


def start_daemon(store, traced_out=None):
    """Spawn ``repro serve`` on ``SOCKET`` (cwd-relative, so the Unix
    socket path stays short) and return the process once it answers
    ``ping``, with the seconds that took."""
    from repro.service import ServiceClient

    if os.path.exists(SOCKET):
        os.unlink(SOCKET)
    # One worker: the client keeps one request in flight, and a second
    # worker would only overlap the store flush a worker runs after
    # replying with the next request, so the daemon's layer times
    # would no longer add up within the client's wall time.
    flags = [
        "--socket", SOCKET, "--certify", "on", "--store", store,
        "--workers", "1",
    ]
    if traced_out:
        cmd = [sys.executable, str(HERE / "daemon.py"), traced_out, *flags]
    else:
        cmd = [sys.executable, "-m", "repro", "serve", *flags]
    # The daemon's stderr goes to a file in the (cwd) work directory,
    # shown if the daemon fails to start or to stop.
    with tempfile.NamedTemporaryFile(
        prefix="daemon-", suffix=".log", dir=".", delete=False
    ) as log:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stderr=log)
    proc.log_path = log.name
    while True:
        if proc.poll() is not None:
            raise RuntimeError(
                f"daemon exited with {proc.returncode}; its stderr:\n"
                + _log_tail(proc)
            )
        try:
            with ServiceClient(SOCKET, timeout=5.0) as c:
                if c.ping().get("status") == "ok":
                    return proc, perf_counter() - t0
        except OSError:
            pass
        if perf_counter() - t0 > 60:
            stop_daemon(proc)
            raise RuntimeError("daemon did not answer ping within 60 s")
        time.sleep(0.002)


def _log_tail(proc) -> str:
    return Path(proc.log_path).read_text(errors="replace")[-4000:]


def stop_daemon(proc) -> bool:
    """Drain the daemon and wait for it; kill it if it has not exited
    10 s after the drain (rarely, one answers ``drain`` and stays up).
    A kill is a program defect: it is reported on stderr with the
    daemon's own stderr, and the harness reports the count as an
    ERROR line.  Returns whether it had to be killed."""
    from repro.service import ServiceClient

    try:
        with ServiceClient(SOCKET, timeout=5.0) as c:
            c.drain()
    except OSError:
        proc.terminate()
    try:
        proc.wait(timeout=10)
        return False
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(
            f"ERROR: daemon {proc.pid} still up 10 s after drain; killed. "
            "Its stderr:\n" + _log_tail(proc),
            file=sys.stderr, flush=True,
        )
        return True


def _raw_request(data: bytes) -> dict:
    """Raw REPROBIN framing: one trace per connection, answered at EOF."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(60.0)
        s.connect(SOCKET)
        s.sendall(data)
        s.shutdown(socket.SHUT_WR)
        buf = b""
        while b"\n" not in buf:
            got = s.recv(1 << 16)
            if not got:
                raise ConnectionError("daemon closed before answering")
            buf += got
    return json.loads(buf.split(b"\n", 1)[0])


def _peak_rss_of(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _prefill(spec, data, store):
    """Untimed: a daemon answers the prefill traces into ``store``, so
    a later daemon's first request for each is a store read."""
    from repro.service import ServiceClient

    proc, _ = start_daemon(store)
    try:
        with ServiceClient(SOCKET, timeout=60.0) as c:
            for name in spec["prefill"]:
                c.verify(trace_bytes=data[name])
    finally:
        stop_daemon(proc)


def _serve_pass(spec, data, store, traced_out):
    """One pass of the request sequence against a fresh daemon on a
    prefilled store."""
    from repro.service import ServiceClient

    proc, _ = start_daemon(store, traced_out)
    replies, unit_s = [], []
    try:
        client = ServiceClient(SOCKET, timeout=60.0)
        t0 = perf_counter()
        client.verify(trace_bytes=data[spec["warmup"]])
        # The traced daemon cannot tell the warm-up from the timed
        # requests, so its layer times are summed against both.
        warm_s = perf_counter() - t0
        gc.collect()
        for name, framing in spec["requests"]:
            t0 = perf_counter()
            try:
                if framing == "raw":
                    replies.append(_raw_request(data[name]))
                else:
                    replies.append(client.verify(trace_bytes=data[name]))
            except (OSError, ValueError) as e:
                replies.append({"status": "client-error", "reason": str(e)})
            unit_s.append(perf_counter() - t0)
        stats = client.stats().get("requests", {})
        client.close()
        rss = _peak_rss_of(proc.pid)
    finally:
        killed = stop_daemon(proc)
    layers = json.loads(Path(traced_out).read_text()) if traced_out else None
    return {
        "replies": replies, "unit_s": unit_s, "warm_s": warm_s,
        "stats": stats, "rss": rss, "layers": layers, "killed": killed,
    }


def _merge(totals):
    """Sum a list of tracer totals (nested dicts of numbers)."""
    out: dict = {}
    for t in totals:
        for key, sub in t.items():
            acc = out.setdefault(key, {})
            for k, v in sub.items():
                acc[k] = acc.get(k, 0) + v
    return out


def serve_mixed(spec, tracer, between=lambda: None):
    reps = REPS[spec["workload"]]
    os.chdir(spec["cwd"])
    data = {n: Path(p).read_bytes() for n, p in spec["paths"].items()}
    # ``reps`` passes, each on its own copy of one prefilled store: a
    # request's time is the fastest of its answers.
    stores = [f"{spec['store']}-{r}" for r in range(reps)]
    _prefill(spec, data, stores[0])
    for copy in stores[1:]:
        shutil.copytree(stores[0], copy)
    passes = []
    for r, store in enumerate(stores):
        # The daemon a pass spawns inherits the pass's CPU.
        pin_pass(r)
        between()
        passes.append(_serve_pass(
            spec, data, store,
            f"{spec['traced_out']}.{r}" if spec.get("traced_out") else None,
        ))
    between()

    requests, labels = spec["requests"], spec["labels"]
    gate = Gate()
    digests: dict[str, str] = {}
    ops = 0
    for p in passes:
        for (name, framing), reply in zip(requests, p["replies"]):
            want = "VIOLATED" if labels[name]["violated"] else "holds"
            problem = None
            if reply.get("status") != "ok":
                problem = f"status {reply.get('status')}: {reply.get('reason')}"
            elif reply.get("verdict") != want:
                problem = f"{reply.get('verdict')}, built {want}"
            elif not reply.get("certified") or not reply.get("certificate"):
                problem = "answer carries no certificate"
            elif digests.setdefault(name, reply["certificate"]) != reply["certificate"]:
                problem = "certificate differs from this trace's earlier answer"
            if gate.check(problem is None, f"{name} ({framing}): {problem}"):
                ops += labels[name]["ops"]
    provenance = [p["stats"].get("provenance", {}) for p in passes]
    if any(pr != provenance[0] for pr in provenance):
        gate.failed += 1
        gate.reasons.append(f"passes differ in provenance: {provenance}")
    svc: dict = {}
    for p in passes:
        st = p["stats"]
        for k, v in (
            ("batches", st.get("batches", 0)),
            ("retry_after", st.get("retry_after", 0)),
            *((f"provenance.{k}", v) for k, v in st.get("provenance", {}).items()),
        ):
            svc[k] = svc.get(k, 0) + v
    unit_s = [min(ts) for ts in zip(*(p["unit_s"] for p in passes))]
    first = passes[0]
    return {
        "unit_s": unit_s,
        "wall_s": sum(unit_s),
        "timed_s": sum(sum(p["unit_s"]) + p["warm_s"] for p in passes),
        "ops": ops // reps,
        "gate": gate,
        "layers": (
            _merge([p["layers"] for p in passes])
            if spec.get("traced_out") else None
        ),
        "peak_rss_mb": max(p["rss"] for p in passes),
        "fingerprint": {
            "inputs": len(requests),
            "ops": sum(labels[n]["ops"] for n, _ in requests),
            "verdicts": _digest([str(r.get("verdict")) for r in first["replies"]]),
            "certified": first["stats"].get("certified"),
            "service.provenance": {
                k: provenance[0].get(k, 0)
                for k in ("solved", "memory", "store", "dedup")
            },
        },
        "extra": {
            "service": svc,
            "store.bytes": _dir_bytes(f"{spec['store']}-0"),
            "daemons_killed": sum(p["killed"] for p in passes),
        },
    }


def _digest(items) -> str:
    return hashlib.sha256("\n".join(items).encode()).hexdigest()[:16]


PIPELINES = {
    "offline-cold": offline_cold,
    "campaign-cold": campaign_cold,
    "stream-monitor": stream_monitor,
    "serve-mixed": serve_mixed,
}


def main(spec_path: str, out_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    from tracer import Tracer

    tracer = None
    if spec["traced"] and spec["workload"] != "serve-mixed":
        tracer = Tracer()
        tracer.install()
    elif spec["workload"] == "campaign-cold":
        # The campaign is one batch call; its per-run latencies and the
        # simulate counters come from the simulate boundary alone.
        tracer = Tracer()
        tracer.install(layers=("simulate",))
    between, setup_s = setup_sampler(spec)
    out = PIPELINES[spec["workload"]](spec, tracer, between)
    out["setup_s"] = setup_s
    gate = out.pop("gate")
    out.setdefault("peak_rss_mb", _rss_mb())
    out.update(
        attempted=gate.attempted, failed=gate.failed, reasons=gate.reasons
    )
    Path(out_path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
