"""The repository's benchmark: four real pipelines, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``offline-cold``   — trace files -> parse -> ``verify_vmc(certify="on")``
  over a fresh ``ResultStore``, as ``repro verify --certify on --store``;
* ``campaign-cold``  — ``run_campaign`` over both substrates and every
  fault site, certified, on a fresh store;
* ``stream-monitor`` — REPROSTM streams -> ``FrameReader`` ->
  ``StreamingVerifier(certify="on")``;
* ``serve-mixed``    — a ``repro serve`` daemon driven by one closed-loop
  client, one request in four cold.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
inputs untraced and then traced, and prints the per-layer metrics.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are
diagnostics (machine fingerprint, host-speed probe, work fingerprint).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("offline-cold", "campaign-cold", "stream-monitor", "serve-mixed")

#: Work per second of ``--seconds``, calibrated so a run's timed phase
#: (all of its repetitions, see ``worker.REPS``) lasts about that long on
#: a 2-vCPU Xeon in a fast hour (and up to twice that in a slow one).
#: The amount of work is fixed by (workload, seed, seconds), so every
#: count in the work fingerprint repeats exactly; only the times vary.
RATE = {
    "offline-cold": 10,  # traces, in REPS passes
    "campaign-cold": 0.6,  # runs per cell (16 cells + 1 control each), REPS campaigns
    "stream-monitor": 10,  # streams of STREAM_OPS operations, in REPS passes
    "serve-mixed": 10,  # requests, in REPS passes
}
#: At least 100 units, so at least 10 samples lie beyond p90.
MIN_UNITS = 100
#: About 5 ms of monitoring each, so 100 streams x REPS passes fit the
#: run (a 10^4-op stream takes 0.2-0.3 s).
STREAM_OPS = 500
#: Operations per processor in each simulated campaign run (the
#: campaign's default is 40): about 5 ms of simulation a run, so that
#: REPS campaigns fit the run.
CAMPAIGN_OPS = 20
#: Traces the serve-mixed store holds before the timed daemon starts.
SERVE_PREFILL = 40
#: Cold starts measured for setup_s, spread evenly over the gaps before
#: the first timed pass and after each pass (``worker.setup_sampler``),
#: after one untimed start that compiles bytecode.
SETUP_STARTS = 8
#: A worker (the timed phase) that runs longer than this is killed.
WORKER_TIMEOUT_S = 120
#: Fixed pure-Python loop timed at the start and end of each run.  A
#: diagnostic only: never gated on, never used to rescale a metric.
PROBE_N = 1_000_000


def host_probe() -> float:
    t0 = perf_counter()
    acc = 0
    for i in range(PROBE_N):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - t0


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile; refuses one with fewer than 10 samples
    beyond it, where single samples would move it run to run."""
    xs = sorted(samples)
    rank = math.ceil(q * len(xs))
    if len(xs) - rank < 10 and q < 1:
        raise ValueError(
            f"p{round(q * 100)} of {len(xs)} samples has fewer than 10 beyond it"
        )
    return xs[rank - 1]


def machine_fingerprint() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    from repro.core import kernels

    active = kernels.backend()
    kernel = next(
        (n for n in kernels.available_backends() if kernels.backend(n) is active),
        type(active).__name__,
    )
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "repro_kernel": kernel,
        "numpy": numpy_version,
        "git_sha": sha,
        "src_digest": tree_digest(SRC),
        "bench_digest": tree_digest(HERE),
    }


def tree_digest(root: Path) -> str:
    """Digest of the Python files under ``root`` (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for p in sorted(root.rglob("*.py")):
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------
def units(workload: str, seconds: int) -> int:
    return max(MIN_UNITS, round(RATE[workload] * seconds))


def write_inputs(workload, seed, seconds, smoke, work: Path) -> tuple[dict, str]:
    """Generate the workload's inputs under ``work``; returns the worker
    spec and the input digest."""
    import inputs

    spec = {
        "workload": workload,
        "src": str(SRC),
        "warmup_store": str(work / "warmup-store"),
        "store": str(work / "store"),
    }
    d = work / "in"
    d.mkdir(parents=True)

    def save(name, data):
        path = d / name
        path.write_bytes(data)
        return str(path)

    if workload == "offline-cold":
        traces = inputs.make_traces(seed, units(workload, seconds))
        spec["items"] = [
            {"name": t.name, "path": save(t.name, t.data), "ops": t.ops,
             "violated": t.violated}
            for t in traces
        ]
        spec["warmup"] = save("warmup", inputs.make_traces(-1 - seed, 1, "w")[0].data)
        blobs = [t.data for t in traces]
    elif workload == "stream-monitor":
        n_ops = 300 if smoke else STREAM_OPS
        streams = inputs.make_streams(seed, units(workload, seconds), n_ops)
        spec["items"] = [
            {"name": s.name, "path": save(s.name, s.data), "ops": s.ops,
             "bad_index": s.bad_index}
            for s in streams
        ]
        spec["warmup"] = save("warmup", inputs.make_streams(-1 - seed, 1, 500)[0].data)
        spec["n_procs"] = inputs.STREAM_PROCS
        blobs = [s.data for s in streams]
    elif workload == "campaign-cold":
        # The campaign simulates its own executions from these seeds;
        # its inputs are the parameters.
        # 16 cells x (runs + 1 control) >= MIN_UNITS simulated runs.
        spec["runs_per_cell"] = max(6, round(RATE[workload] * seconds))
        spec["base_seed"] = seed * 100_003
        spec["ops_per_processor"] = CAMPAIGN_OPS
        blobs = [json.dumps(spec["runs_per_cell"]).encode(),
                 json.dumps(spec["base_seed"]).encode(),
                 json.dumps(CAMPAIGN_OPS).encode()]
    else:
        n = units(workload, seconds)
        prefill, requests = inputs.serve_sequence(seed, n, SERVE_PREFILL)
        warm = inputs.make_traces(-1 - seed, 1, "w")[0]
        traces = {t.name: t for t in prefill}
        traces.update((t.name, t) for t, _ in requests)
        traces[warm.name] = warm
        spec["cwd"] = str(work)
        spec["paths"] = {n: save(n, t.data) for n, t in traces.items()}
        spec["labels"] = {
            n: {"violated": t.violated, "ops": t.ops} for n, t in traces.items()
        }
        spec["prefill"] = [t.name for t in prefill]
        spec["requests"] = [(t.name, framing) for t, framing in requests]
        spec["warmup"] = warm.name
        blobs = [t.data for t in prefill] + [
            t.data + framing.encode() for t, framing in requests
        ]
    return spec, inputs.digest(blobs)


# ---------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------
def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def run_worker(spec: dict, work: Path, tag: str) -> dict:
    spec_path = work / f"spec-{tag}.json"
    out_path = work / f"out-{tag}.json"
    spec_path.write_text(json.dumps(spec))
    # Own session, so a hung worker is killed with any daemon it spawned.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(spec_path), str(out_path)],
        env=child_env(), start_new_session=True,
    )
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise RuntimeError(f"worker exited with {code}")
    return json.loads(out_path.read_text())


# ---------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------
LAYER_NAMES = tuple(tracer.LAYERS)


def end_to_end(res: dict, setup: list[float]) -> dict:
    unit_ms = [s * 1000 for s in res["unit_s"]]
    return {
        "ops_per_s": {"value": res["ops"] / res["wall_s"], "unit": "ops/s"},
        "p50_ms": {"value": percentile(unit_ms, 0.5), "unit": "ms"},
        "p90_ms": {"value": percentile(unit_ms, 0.9), "unit": "ms"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(traced: dict, untraced: dict) -> tuple[dict, dict]:
    """The per-layer metrics, and the layer-sum check."""
    lay = traced["layers"] or {}
    self_s = lay.get("self_s", {})
    fn = lay.get("fn_self_s", {})
    c = lay.get("counts", {})
    extra = traced.get("extra", {})
    svc = extra.get("service", {})
    s = {name: self_s.get(name, 0.0) for name in LAYER_NAMES}
    wall = traced["timed_s"]
    other = wall - sum(s.values())

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "parse.self_s": (s["parse"], "s"),
        "parse.mb_per_s": (ratio(c.get("parse.bytes", 0) / 1e6, s["parse"]), "MB/s"),
        "canon.self_s": (s["canon"], "s"),
        "canon.calls": (c.get("call.canonicalize", 0) + c.get("call.fingerprint", 0), "count"),
        "plan.self_s": (s["plan"], "s"),
        "prepass.decided": (c.get("prepass.decided", 0), "count"),
        "prepass.ops_eliminated": (c.get("prepass.ops_eliminated", 0), "count"),
        "search.self_s": (s["search"], "s"),
        "search.tasks": (c.get("search.tasks", 0), "count"),
        "portfolio.races": (c.get("portfolio.races", 0), "count"),
        "certify.self_s": (s["certify"], "s"),
        "certify.sat_fallbacks": (c.get("certify.sat_fallbacks", 0), "count"),
        "certify.validated": (c.get("certify.validated", 0), "count"),
        "store.write_s": (fn.get("ResultStore.put", 0.0) + fn.get("ResultStore.flush", 0.0), "s"),
        "store.read_s": (fn.get("ResultStore.lookup", 0.0), "s"),
        "store.hits": (c.get("store.hits", 0), "count"),
        "store.misses": (c.get("store.misses", 0), "count"),
        "store.bytes": (extra.get("store.bytes", 0), "B"),
        "batch.self_s": (s["batch"], "s"),
        "batch.dedup_ratio": (ratio(c.get("batch.tasks", 0), c.get("batch.uniques", 0)), "ratio"),
        "monitor.self_s": (s["monitor"], "s"),
        "monitor.peak_window": (extra.get("monitor.peak_window", 0), "ops"),
        "monitor.refute_s": (c.get("monitor.refute_us", 0) / 1e6, "s"),
        "simulate.self_s": (s["simulate"], "s"),
        "simulate.events": (c.get("simulate.events", 0), "count"),
        "simulate.messages": (c.get("simulate.messages", 0), "count"),
        "simulate.us_per_event": (ratio(s["simulate"] * 1e6, c.get("simulate.events", 0)), "us"),
        "oracle.self_s": (s["oracle"], "s"),
        "service.batches": (svc.get("batches", 0), "count"),
        "service.provenance.solved": (svc.get("provenance.solved", 0), "count"),
        "service.provenance.memory": (svc.get("provenance.memory", 0), "count"),
        "service.provenance.store": (svc.get("provenance.store", 0), "count"),
        "service.provenance.dedup": (svc.get("provenance.dedup", 0), "count"),
        "service.retry_after": (svc.get("retry_after", 0), "count"),
        "other.self_s": (other, "s"),
        # Both passes' floors (the sum of their units' fastest times):
        # their whole timed walls differ by the machine's drift between
        # the two passes, which read as -24% overhead on stream-monitor.
        "trace.overhead_pct": (
            100.0 * (traced["wall_s"] / untraced["wall_s"] - 1.0), "%"
        ),
    }
    check = {
        "wall_s": wall,
        "layers_s": sum(s.values()),
        "other_s": other,
        "largest": max(s, key=s.get),
        "portfolio_winners": lay.get("winners", {}),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, check


# ---------------------------------------------------------------------
# Work fingerprint
# ---------------------------------------------------------------------
def check_fingerprint(key: str, fp: dict) -> str | None:
    """Compare with the fingerprint an earlier run of the same
    (workload, seed, seconds, program source) recorded in this
    checkout; the first run records it."""
    path = WORK / "fingerprints.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    if key in known and known[key] != fp:
        return f"work fingerprint changed for {key}: {known[key]} != {fp}"
    known[key] = fp
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    return None


def say(msg: str) -> None:
    print(f"# {msg}", flush=True)


def run(args) -> int:
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        machine = machine_fingerprint()
        say("machine " + json.dumps(machine, sort_keys=True))
        probe_start = host_probe()
        spec, input_digest = write_inputs(
            args.workload, args.seed, args.seconds, args.smoke, work
        )
        say(f"inputs digest={input_digest}")
        problems = []
        if args.trace:
            untraced = run_worker({**spec, "traced": False}, work, "untraced")
            for p in work.glob("*store*"):
                shutil.rmtree(p, ignore_errors=True)
            traced_spec = {**spec, "traced": True}
            if args.workload == "serve-mixed":
                traced_spec["traced_out"] = str(work / "daemon-layers.json")
            res = run_worker(traced_spec, work, "traced")
            if res["fingerprint"] != untraced["fingerprint"]:
                problems.append(
                    "traced and untraced passes did different work: "
                    f"{res['fingerprint']} != {untraced['fingerprint']}"
                )
            metrics, layer_check = per_layer(res, untraced)
            say("layers " + json.dumps(layer_check, sort_keys=True))
            if layer_check["other_s"] < 0:
                problems.append("layer self times exceed the traced wall time")
            attempted = res["attempted"] + untraced["attempted"]
            failed = res["failed"] + untraced["failed"]
            workers = (untraced, res)
        else:
            (work / "setup").mkdir()
            res = run_worker(
                {**spec, "traced": False, "setup_starts": SETUP_STARTS,
                 "setup_dir": str(work / "setup")},
                work, "run",
            )
            say("setup_s samples " + json.dumps(res["setup_s"]))
            metrics = end_to_end(res, res["setup_s"])
            attempted, failed = res["attempted"], res["failed"]
            workers = (res,)
        fp = {"inputs_digest": input_digest, **res["fingerprint"]}
        say("work " + json.dumps(fp, sort_keys=True))
        say(
            f"units={len(res['unit_s'])} best_wall_s={res['wall_s']:.3f} "
            f"timed_s={res['timed_s']:.3f}"
        )
        say("extra " + json.dumps(res.get("extra", {}), sort_keys=True))
        killed = sum(w["extra"].get("daemons_killed", 0) for w in workers)
        if killed:
            # Not a failed operation (every reply was checked), but a
            # defect of the program's drain path, kept visible.
            print(
                f"ERROR: {killed} daemon(s) still up 10 s after drain "
                "were killed; their stderr is above",
                file=sys.stderr,
            )
        key = (
            f"{args.workload}/seed={args.seed}/seconds={args.seconds}"
            f"/smoke={int(args.smoke)}/src={machine['src_digest']}"
            f"/bench={machine['bench_digest']}"
        )
        mismatch = check_fingerprint(key, fp)
        if mismatch:
            problems.append(mismatch)
        for reason in res.get("reasons", []):
            problems.append(f"failed: {reason}")
        probe_end = host_probe()
        say(f"host probe s start={probe_start:.4f} end={probe_end:.4f}")
        for p in problems:
            print(f"ERROR: {p}", file=sys.stderr)
        correct = failed == 0 and not problems
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--smoke", action="store_true",
        help="tiny streams, for the benchmark's own smoke test",
    )
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    # Steadiness: str hashes (and so dict/set iteration in the program)
    # vary with the hash seed; pin it and re-execute when it is unset.
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = {**os.environ, "PYTHONHASHSEED": "0"}
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.path.insert(0, str(SRC))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
