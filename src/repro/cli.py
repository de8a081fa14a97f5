"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``verify <trace>``       — decide coherence of a trace file
  (``.json`` in the serialize format — JSON-shaped content is sniffed
  under any suffix — or the compact text format); ``--sc`` checks
  sequential consistency instead; ``--model NAME`` checks a
  consistency model (TSO/PSO/RMO/SC/coherence); ``--method NAME``
  forces an engine backend (run alone: no pre-pass, no exact-vs-SAT
  race — the automatic planner decides both from the instance
  otherwise), ``--jobs N`` verifies addresses in parallel on worker
  processes when heavy tasks survive the pre-pass, ``--stats`` prints
  the run record (:mod:`repro.obs`).  Resilience knobs:
  ``--timeout S`` caps the whole run, ``--task-timeout S`` caps each
  per-address task, ``--retries N`` sets the crash-retry budget, and
  ``--chaos SPEC`` (gated behind the ``REPRO_CHAOS`` environment
  variable) injects deterministic faults for testing.
  ``--certify {off,on,strict}`` makes every verdict carry a
  certificate validated by the independent trusted checker
  (:mod:`repro.engine.certify`): ``on`` exits 3 loudly when a verdict
  cannot be certified; ``strict`` downgrades it to
  UNKNOWN(uncertified) and continues.
* ``batch <paths...>``     — verify a directory / manifest of trace
  files as one campaign: every (file, address) task is canonicalized
  and deduplicated batch-wide *before* any solving, heavy unique
  instances run on a process pool (``--jobs``), and verdicts are
  served from / written to a persistent content-addressed result
  store (``--store DIR``, ``--store-max-mb``) under the same key
  ``verify --store`` uses.  ``--dry-run`` prints the dedup plan and
  predicted store hits without solving; ``--json FILE`` writes the
  machine-readable report (per-file verdicts, hit provenance,
  certified counts).
* ``monitor <stream>``     — tail a growing commit-order stream (the
  framed REPROSTM format of :mod:`repro.core.serialize_bin`; ``-``
  reads stdin) and verify it *incrementally*: certified verdict on the
  first violation, periodic HOLDS-so-far heartbeats on clean prefixes
  (``--heartbeat N``), bounded memory via windowed eviction
  (``--window``).  ``--follow`` keeps tailing at EOF until the END
  frame arrives; ``--timeout S`` bounds the wait.  A non-stream trace
  (REPROBIN/JSON/text) is accepted too: it carries no commit order, so
  the monitor attempts a greedy merge and escalates to the offline
  engine when the interleaving choice bites.
* ``simulate``             — run a multiprocessor simulator (atomic
  snooping ``--substrate bus`` or split-transaction
  ``--substrate directory`` with seeded interconnect delay models) on
  a workload, verify the result, optionally dump the trace.
* ``campaign``             — ground-truth fault campaign: sweep seeds
  over every (fault site × substrate × delay model) cell, verify all
  runs as one deduplicated batch (``--jobs``, ``--store``,
  ``--certify``), and hold the verifier to the latency oracle's
  contract — every visible injection flagged VIOLATED, every latent
  injection and control run HOLDS, zero false alarms.  Exit 0 iff the
  contract holds.
* ``solve <file.cnf>``     — decide a DIMACS formula with the built-in
  CDCL solver (``--via-vmc`` routes it through the Figure 4.1
  reduction instead, as a demonstration).
* ``litmus``               — print the litmus-test model table.

``verify`` and ``monitor`` accept ``-`` for the trace argument and
read stdin; the format is sniffed from the magic bytes exactly as for
a file (REPROSTM stream, then REPROBIN, then JSON-shaped text, then
the line-oriented text format).

Exit status: 0 = property holds / SAT, 1 = violated / UNSAT,
2 = usage or input error, 3 = UNKNOWN (deadline, budget, or crash
quarantine prevented a verdict — never a guess).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro import obs
from repro.core.serialize import save as save_json
from repro.core.types import Execution, schedule_str
from repro.core.vmc import verify_coherence
from repro.core.vsc import verify_sequential_consistency
from repro.engine import (
    CERTIFY_MODES,
    CHAOS_ENV,
    DEFAULT_WINDOW,
    CertificationError,
    ChaosSpec,
    ResiliencePolicy,
)

#: Exit status for a verification abandoned without a verdict.
EXIT_UNKNOWN = 3


def _at_least_one(what: str):
    """argparse type factory for integer arguments that must be >= 1."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < 1:
            raise argparse.ArgumentTypeError(
                f"{what} must be >= 1, got {value}"
            )
        return value

    return parse


_positive_int = _at_least_one("jobs")
_window_int = _at_least_one("window")


def _nonneg_float(text: str) -> float:
    """argparse type for ``--timeout`` / ``--task-timeout``: seconds >= 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    """argparse type for ``--retries``: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _parse_trace_bytes(raw: bytes, source: str, suffix: str = "") -> Execution:
    """Decode trace bytes from any supported format (the shared
    sniffing decoder lives in :func:`repro.core.serialize.parse_trace_bytes`
    so the batch engine can use it without importing the CLI)."""
    from repro.core.serialize import parse_trace_bytes

    return parse_trace_bytes(raw, source, suffix)


def _load_trace(path_str: str) -> Execution:
    if path_str == "-":
        # stdin: buffer everything, then sniff the magic bytes exactly
        # as for a file.
        return _parse_trace_bytes(sys.stdin.buffer.read(), "<stdin>")
    path = Path(path_str)
    if not path.exists():
        raise FileNotFoundError(f"trace file {path} does not exist")
    return _parse_trace_bytes(path.read_bytes(), str(path), path.suffix)


def _resilience_from_args(args: argparse.Namespace) -> ResiliencePolicy | None:
    """Build the engine policy from the verify flags (None = defaults).

    ``--chaos`` is gated behind the ``REPRO_CHAOS`` environment
    variable so a stray flag in a production pipeline cannot inject
    faults; using it without the variable is a usage error.
    """
    chaos = None
    if args.chaos is not None:
        if not os.environ.get(CHAOS_ENV):
            raise ValueError(
                f"--chaos requires the {CHAOS_ENV} environment variable "
                f"to be set (fault injection is test-only)"
            )
        chaos = ChaosSpec.parse(args.chaos)
    if (
        args.timeout is None
        and args.task_timeout is None
        and args.retries is None
        and chaos is None
    ):
        return None
    policy = ResiliencePolicy(
        timeout=args.timeout,
        task_timeout=args.task_timeout,
        retries=args.retries if args.retries is not None else 2,
        chaos=chaos,
    )
    return policy


def _print_result(
    result, label: str, want_witness: bool, stats: obs.Record | None
) -> int:
    unknown = getattr(result, "unknown", False)
    verdict = "UNKNOWN" if unknown else "holds" if result else "VIOLATED"
    print(f"{label}: {verdict}  (method: {result.method})")
    if result and result.schedule and want_witness:
        print(f"witness: {schedule_str(result.schedule)}")
    if not result:
        print(f"reason: {result.reason}")
    if stats is not None:
        print(obs.render(stats))
    if unknown:
        return EXIT_UNKNOWN
    return 0 if result else 1


def _store_from_args(args: argparse.Namespace, resilience):
    """Open the persistent result store named by ``--store`` (None when
    the flag is absent); chaos store faults ride the resilience policy."""
    if not getattr(args, "store", None):
        return None
    from repro.engine.store import ResultStore

    chaos = resilience.chaos if resilience is not None else None
    return ResultStore(
        args.store, max_mb=args.store_max_mb, chaos=chaos
    )


def cmd_verify(args: argparse.Namespace) -> int:
    rec = obs.Record(rows=True)
    with obs.opened(rec):
        try:
            execution = _load_trace(args.trace)
        except (OSError, ValueError, FileNotFoundError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        store = None
        try:
            resilience = _resilience_from_args(args)
            store = _store_from_args(args, resilience)
            if store is not None and (args.sc or args.model):
                print(
                    "error: --store applies to coherence verification "
                    "(not --sc / --model)",
                    file=sys.stderr,
                )
                return 2
            cache = None
            if store is not None:
                from repro.engine import ResultCache

                cache = ResultCache(store=store)
            if args.model:
                from repro.consistency.restrict import verifier_for

                name = (
                    args.model
                    if args.model.lower() == "coherence"
                    else args.model.upper()
                )
                result, label = verifier_for(name)(execution), args.model
            elif args.sc:
                result = verify_sequential_consistency(
                    execution,
                    method=args.method,
                    resilience=resilience,
                    certify=args.certify,
                )
                label = "sequential consistency"
            else:
                result = verify_coherence(
                    execution,
                    method=args.method,
                    jobs=args.jobs,
                    cache=cache,
                    resilience=resilience,
                    certify=args.certify,
                )
                label = "coherence"
        except CertificationError as e:
            # --certify on: a verdict failed the trusted checker.  Producer
            # or checker is wrong — either way the verdict is untrustworthy,
            # and that is an UNKNOWN outcome, not a usage error.
            print(f"certification failed: {e}", file=sys.stderr)
            return EXIT_UNKNOWN
        except ValueError as e:
            # Unknown method names and inapplicable forced backends
            # (BackendInapplicableError, which lists the applicable ones)
            # are usage errors.
            print(f"error: {e}", file=sys.stderr)
            return 2
        finally:
            if store is not None:
                store.close()  # the command's one durability point
        return _print_result(
            result, label, args.witness, rec if args.stats else None
        )


def _expand_batch_paths(paths: list[str], manifest: str | None) -> list[str]:
    """Resolve the batch's inputs: explicit paths, directories (their
    non-hidden files, sorted), and/or a manifest file (one path per
    line, ``#`` comments)."""
    out: list[str] = []
    if manifest:
        text = Path(manifest).read_text(encoding="utf-8")
        for line in text.splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                out.append(line)
    for p in paths:
        path = Path(p)
        if path.is_dir():
            out.extend(
                str(q)
                for q in sorted(path.iterdir())
                if q.is_file() and not q.name.startswith(".")
            )
        else:
            out.append(p)
    return out


def cmd_batch(args: argparse.Namespace) -> int:
    from repro.engine.batch import batch_exit_code, run_batch

    try:
        resilience = _resilience_from_args(args)
        store = _store_from_args(args, resilience)
        paths = _expand_batch_paths(args.paths, args.manifest)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if not paths:
        print("error: no trace files to verify", file=sys.stderr)
        return 2
    if args.store_quota_report and store is None:
        print(
            "error: --store-quota-report needs a --store to report on",
            file=sys.stderr,
        )
        return 2
    try:
        report = run_batch(
            paths,
            jobs=args.jobs,
            store=store,
            resilience=resilience,
            certify=args.certify,
            dry_run=args.dry_run,
        )
        if args.store_quota_report and store is not None:
            report["store_quota"] = store.quota_report()
    finally:
        if store is not None:
            store.close()
    if args.json:
        text = json.dumps(report, indent=2, default=str)
        if args.json == "-":
            # Machine consumers pipe stdout: the report is the whole
            # output, no human-readable lines mixed in.
            print(text)
            return batch_exit_code(report)
        Path(args.json).write_text(text + "\n", encoding="utf-8")
    if args.dry_run:
        print(report["plan"]["text"])
        return batch_exit_code(report)
    if args.stats:
        print(report["plan"]["text"])
    for entry in report["files"]:
        prov = entry["provenance"]
        served = " ".join(
            f"{kind}={prov[kind]}"
            for kind in ("solved", "memory", "store", "dedup")
            if prov.get(kind)
        )
        line = f"{entry['path']}: {entry['verdict']}"
        if served:
            line += f"  ({served})"
        print(line)
        if entry["verdict"] in ("VIOLATED", "UNKNOWN", "error"):
            print(f"  reason: {entry['reason']}")
    (rec := obs.Record()).merge(report["record"])
    print(obs.render(rec))  # the summary is the batch's run record
    if args.store_quota_report and "store_quota" in report:
        _print_quota_report(report["store_quota"])
    return batch_exit_code(report)


def _format_age(age_s) -> str:
    if age_s is None:
        return "-"
    if age_s >= 3600:
        return f"{age_s / 3600:.1f}h"
    if age_s >= 60:
        return f"{age_s / 60:.1f}m"
    return f"{age_s:.1f}s"


def _print_quota_report(quota: dict) -> None:
    """Render per-shard occupancy + LRU ages (``--store-quota-report``)."""
    totals = quota["totals"]
    cap = (
        f", cap {totals['max_bytes'] / (1024 * 1024):.1f} MB"
        if totals.get("max_bytes") is not None
        else ", no cap"
    )
    print(
        f"store quota: {totals['entries']} entries, "
        f"{totals['bytes']} bytes{cap}"
    )
    print("  shard  entries      bytes    pct   lru-age   mru-age")
    for row in quota["shards"]:
        if not row["entries"] and not row["bytes"]:
            continue
        pct = f"{row['pct']:.1f}%" if row["pct"] is not None else "-"
        print(
            f"  {row['shard']:>5}  {row['entries']:>7}  {row['bytes']:>9}"
            f"  {pct:>5}  {_format_age(row['lru_age_s']):>8}"
            f"  {_format_age(row['mru_age_s']):>8}"
        )


def _print_heartbeat(verdict) -> None:
    s = verdict.stats
    print(
        f"holds so far: {s['ops']} ops, {s['addresses']} addresses, "
        f"window {s['window']} (peak {s['peak_window']}), "
        f"evicted {s['evicted']}, {s['ops_per_s']:,.0f} ops/s"
    )


def _finish_monitor(verdict, stats: obs.Record | None) -> int:
    """Print a closing stream verdict and map it to an exit status."""
    result = verdict.result
    if verdict.kind == "violation":
        where = f" at op {verdict.op_index}" if verdict.op_index >= 0 else ""
        print(f"coherence: VIOLATED{where}  (method: {result.method})")
        print(f"reason: {result.reason}")
        cert = result.certificate
        if cert is not None:
            print(f"certificate: {getattr(cert, 'kind', 'present')}")
        code = 1
    elif verdict.kind == "unknown":
        print(f"coherence: UNKNOWN  (method: {result.method})")
        print(f"reason: {result.reason or result.unknown_reason}")
        code = EXIT_UNKNOWN
    else:
        print(f"coherence: holds  (method: {result.method})")
        code = 0
    if stats is not None:
        escalated = verdict.stats.get("escalated")
        if escalated:
            print(f"escalated to the offline engine: {escalated}")
        print(obs.render(stats))
    return code


def _monitor_stream(fh, head: bytes, source: str, args, deadline):
    """Tail a framed REPROSTM stream through a StreamingVerifier;
    returns the closing verdict, or an exit status."""
    from time import monotonic, sleep

    from repro.core import serialize_bin
    from repro.engine.streaming import StreamingVerifier

    reader = serialize_bin.FrameReader()
    reader.feed(head)
    verifier = None
    while True:
        events = list(reader.events())
        if verifier is None and reader.n_procs is not None:
            verifier = StreamingVerifier(
                reader.n_procs,
                window=args.window,
                certify=args.certify,
                heartbeat=args.heartbeat,
            )
        if events:
            for verdict in verifier.feed(events):
                if verdict.kind == "heartbeat":
                    _print_heartbeat(verdict)
                else:
                    return verdict
        if deadline is not None and monotonic() >= deadline:
            ops = verifier.snapshot()["ops"] if verifier is not None else 0
            print(
                f"coherence: UNKNOWN  (deadline expired after {ops} ops; "
                f"the consumed prefix held)"
            )
            return EXIT_UNKNOWN
        data = fh.read(1 << 16)
        if data:
            reader.feed(data)
            continue
        if args.follow and not reader.ended:
            if fh.seekable():
                # A regular file can still grow — keep tailing.
                sleep(0.05)
                continue
            # A pipe at EOF is final: the writer is gone.  A clean
            # trailing frame boundary without END is the writer
            # choosing to stop mid-stream — fall through and decide
            # the consumed prefix like non-follow mode.  Dying *inside*
            # a frame is damage: report it with the byte offset and
            # exit 2, exactly like `verify` on the same bytes.
            if reader.pending_bytes:
                print(
                    f"error: {source}: stream is incomplete (writer "
                    f"exited mid-frame; {reader.pending_bytes} bytes "
                    f"still buffered) at byte {reader.bytes_consumed}",
                    file=sys.stderr,
                )
                return 2
        break
    # EOF without an END frame: the consumed prefix is still a sound
    # thing to decide — finalize on what arrived.
    if verifier is None:
        print(f"error: {source}: stream ends inside the header", file=sys.stderr)
        return 2
    if reader.pending_bytes:
        print(
            f"note: {source}: stream ends mid-frame "
            f"({reader.pending_bytes} bytes buffered); deciding the "
            f"consumed prefix"
        )
    return verifier.finalize()


def cmd_monitor(args: argparse.Namespace) -> int:
    rec = obs.Record()
    with obs.opened(rec), obs.span("monitor"):
        out = _monitor(args)
    if isinstance(out, int):
        return out
    return _finish_monitor(out, rec if args.stats else None)


def _monitor(args: argparse.Namespace):
    """Monitor ``args.stream`` to its closing verdict (or an exit
    status)."""
    from time import monotonic

    from repro.core import serialize_bin
    from repro.engine.streaming import monitor_execution

    deadline = monotonic() + args.timeout if args.timeout else None
    if args.stream == "-":
        fh, source, close = sys.stdin.buffer, "<stdin>", False
    else:
        path = Path(args.stream)
        if not path.exists():
            print(f"error: stream file {path} does not exist", file=sys.stderr)
            return 2
        fh, source, close = open(path, "rb"), str(path), True
    try:
        head = fh.read(len(serialize_bin.STREAM_MAGIC))
        if serialize_bin.sniff_stream(head):
            return _monitor_stream(fh, head, source, args, deadline)
        # Not a framed stream: buffer the rest and monitor the complete
        # trace (it carries no commit order, so the monitor chooses one
        # greedily and escalates to the offline engine when stuck).
        raw = head + fh.read()
        suffix = "" if source == "<stdin>" else Path(source).suffix
        execution = _parse_trace_bytes(raw, source, suffix)
        return monitor_execution(
            execution,
            window=args.window,
            certify=args.certify,
            heartbeat=args.heartbeat,
            on_heartbeat=_print_heartbeat,
        )
    except CertificationError as e:
        print(f"certification failed: {e}", file=sys.stderr)
        return EXIT_UNKNOWN
    except ValueError as e:
        # Malformed frames, out-of-program-order streams, bad traces.
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        if close:
            fh.close()


def _serve_heartbeat_line(status: dict) -> str:
    q = status["queue"]
    w = status["workers"]
    r = status["requests"]
    return (
        f"serve: {'ready' if status['ready'] else 'draining'} "
        f"uptime={status['uptime_s']:.0f}s "
        f"queue={q['depth']}/{q['limit']} "
        f"workers={w['alive']}/{w['configured']} "
        f"ok={r['ok']} retry_after={r['retry_after']} "
        f"errors={r['errors']} shutdown={r['shutdown']}"
    )


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ServiceConfig, VerificationServer

    try:
        resilience = _resilience_from_args(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if bool(args.socket) == bool(args.stdio):
        print(
            "error: pass exactly one of --socket PATH or --stdio",
            file=sys.stderr,
        )
        return 2

    def on_heartbeat(status: dict) -> None:
        print(_serve_heartbeat_line(status), file=sys.stderr, flush=True)

    config = ServiceConfig(
        socket_path=args.socket,
        stdio=args.stdio,
        workers=args.workers,
        queue_depth=args.queue_depth,
        max_request_bytes=int(args.max_request_mb * 1024 * 1024),
        store_root=args.store,
        store_quota_mb=args.store_max_mb,
        max_tenants=args.max_tenants,
        certify=args.certify,
        resilience=resilience,
        drain_grace_s=args.drain_grace,
        heartbeat_s=args.heartbeat,
        on_heartbeat=on_heartbeat if args.heartbeat else None,
    )
    server = VerificationServer(config)
    try:
        server.start()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.socket:
        print(
            f"serving on {args.socket} ({args.workers} workers, "
            f"queue depth {args.queue_depth})",
            file=sys.stderr,
            flush=True,
        )
    code = server.serve_forever()
    print(
        f"drained ({server.drain_reason or 'done'}): "
        + _serve_heartbeat_line(server.status()),
        file=sys.stderr,
    )
    return code


#: Default coherence protocol per simulator substrate.
_SUBSTRATE_PROTOCOLS = {"bus": "MESI", "directory": "MSI"}


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.memsys import (
        SUBSTRATES,
        FaultConfig,
        FaultKind,
        SystemConfig,
        random_shared_workload,
        supported_faults,
    )

    protocol = args.protocol or _SUBSTRATE_PROTOCOLS[args.substrate]
    if args.substrate == "directory" and protocol != "MSI":
        print(
            f"error: the directory substrate implements MSI only; "
            f"--protocol {protocol} is a bus-substrate option",
            file=sys.stderr,
        )
        return 2
    scripts, initial = random_shared_workload(
        num_processors=args.processors,
        ops_per_processor=args.ops,
        num_addresses=args.addresses,
        values=args.values,
        seed=args.seed,
    )
    faults = FaultConfig.none()
    if args.fault:
        supported = supported_faults(args.substrate)
        try:
            kind = FaultKind(args.fault)
        except ValueError:
            kind = None
        if kind is None or kind not in supported:
            print(
                f"error: fault {args.fault!r} is not a "
                f"{args.substrate}-substrate site; choose from "
                f"{sorted(k.value for k in supported)}",
                file=sys.stderr,
            )
            return 2
        faults = FaultConfig.single(kind, seed=args.seed, rate=args.fault_rate)
    cfg = SystemConfig(
        num_processors=args.processors,
        protocol=protocol,
        seed=args.seed,
        num_homes=args.homes,
        delay_model=args.delay_model,
    )
    rec = obs.Record(rows=True)
    try:
        with obs.opened(rec), obs.span("simulate"):
            run = SUBSTRATES[args.substrate](
                cfg, scripts, initial_memory=initial, faults=faults
            ).run()
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(run.summary())
    print(f"traffic: {run.bus_traffic}")
    if run.oracle is not None and run.fault_events:
        o = run.oracle
        print(
            f"oracle: expects {o.expected_verdict} — "
            f"{len(o.visible_events)} visible, "
            f"{len(o.latent_events)} latent injections"
        )
    with obs.opened(rec):
        result = verify_coherence(
            run.execution,
            write_orders=run.write_orders,
            jobs=args.jobs,
        )
    print(f"coherence: {'holds' if result else 'VIOLATED'}")
    if not result:
        print(f"reason: {result.reason}")
    if args.stats:
        print(obs.render(rec))
    if args.out:
        save_json(run.execution, args.out)
        print(f"trace written to {args.out}")
    return 0 if result else 1


def _parse_campaign_sites(text: str | None, substrates: list[str]):
    """Resolve ``--sites a,b,c`` to FaultKind members (None = all)."""
    from repro.memsys import FaultKind, supported_faults

    if text is None:
        return None
    anywhere = set()
    for s in substrates:
        anywhere |= set(supported_faults(s))
    sites = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            kind = FaultKind(token)
        except ValueError:
            kind = None
        if kind is None or kind not in anywhere:
            raise ValueError(
                f"unknown fault site {token!r} for substrates "
                f"{substrates}; choose from "
                f"{sorted(k.value for k in anywhere)}"
            )
        sites.append(kind)
    if not sites:
        raise ValueError("--sites named no fault sites")
    return sites


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.engine import ResultCache
    from repro.memsys import SUBSTRATES, campaign_table, run_campaign

    substrates = [
        s.strip() for s in args.substrates.split(",") if s.strip()
    ]
    try:
        for s in substrates:
            if s not in SUBSTRATES:
                raise ValueError(
                    f"unknown substrate {s!r}; choose from "
                    f"{sorted(SUBSTRATES)}"
                )
        sites = _parse_campaign_sites(args.sites, substrates)
        resilience = _resilience_from_args(args)
        store = _store_from_args(args, resilience)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    delay_models = [
        d.strip() for d in args.delay_models.split(",") if d.strip()
    ]
    cache = ResultCache(store=store)

    def say(msg: str) -> None:
        if not args.quiet:
            print(f"campaign: {msg}", file=sys.stderr, flush=True)

    try:
        report = run_campaign(
            sites=sites,
            substrates=substrates,
            runs_per_cell=args.runs_per_cell,
            num_processors=args.processors,
            ops_per_processor=args.ops,
            num_addresses=args.addresses,
            write_fraction=args.write_fraction,
            fault_rate=args.fault_rate,
            max_events=args.max_events if args.max_events else None,
            base_seed=args.seed,
            values=args.values,
            workload=args.workload,
            delay_models=delay_models,
            num_homes=args.homes,
            jobs=args.jobs,
            cache=cache,
            store=store,
            run_cache=args.run_cache,
            resilience=resilience,
            certify=args.certify,
            progress=say,
        )
    finally:
        if store is not None:
            store.close()
    if args.json:
        text = json.dumps(report.to_json(), indent=2, default=str)
        if args.json == "-":
            print(text)
            return 0 if report.contract_ok else 1
        Path(args.json).write_text(text + "\n", encoding="utf-8")
    print(campaign_table(report))
    return 0 if report.contract_ok else 1


def cmd_solve(args: argparse.Namespace) -> int:
    from repro.sat.dimacs import read_dimacs

    try:
        cnf = read_dimacs(args.cnf)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.via_vmc:
        from repro.reductions.decode import solve_sat_via_vmc

        model = solve_sat_via_vmc(cnf)
        how = "via the Figure 4.1 VMC reduction"
    else:
        from repro.sat import solve

        model = solve(cnf, solver=args.solver)
        how = f"with {args.solver}"
    if model is None:
        print(f"UNSAT ({how})")
        return 1
    lits = " ".join(
        str(v if model.get(v) else -v) for v in range(1, cnf.num_vars + 1)
    )
    print(f"SAT ({how})\nv {lits} 0")
    return 0


def cmd_litmus(_args: argparse.Namespace) -> int:
    from repro.consistency.litmus import litmus_table

    print(litmus_table())
    return 0


def _add_store_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="persistent content-addressed result store directory: "
        "verdicts are read through (and re-validated on load under "
        "--certify) and written through, so isomorphic instances are "
        "never solved twice across runs",
    )
    p.add_argument(
        "--store-max-mb",
        type=_nonneg_float,
        default=None,
        metavar="MB",
        help="cap the store's on-disk footprint; overweight shards are "
        "compacted LRU-style (least recently hit entries evicted)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Trace-based verification of memory coherence and "
        "consistency (Cantin, Lipasti & Smith, SPAA 2003)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify a trace file")
    p.add_argument(
        "trace",
        help="trace file in any supported format (REPROBIN, REPROSTM "
        "stream, JSON, or text); '-' reads stdin",
    )
    p.add_argument("--sc", action="store_true", help="check sequential consistency")
    p.add_argument("--model", help="check a consistency model (TSO/PSO/RMO)")
    p.add_argument("--witness", action="store_true", help="print the witness schedule")
    p.add_argument(
        "--method",
        default="auto",
        help="force a verification backend (e.g. exact, readmap, sat-cdcl), "
        "run alone with no pre-pass and no exact-vs-SAT race; errors with "
        "the applicable backends when it cannot decide the trace",
    )
    p.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="verify addresses in parallel on N worker processes when "
        "heavy exponential-tier tasks survive the pre-pass (must be >= 1)",
    )
    p.add_argument(
        "--certify",
        choices=CERTIFY_MODES,
        default="off",
        help="attach a certificate to every verdict and validate it "
        "with the independent trusted checker: 'on' fails loudly when "
        "a verdict cannot be certified (exit 3), 'strict' downgrades "
        "it to UNKNOWN(uncertified) (exit 3) and keeps going",
    )
    p.add_argument(
        "--stats",
        action="store_true",
        help="print the run record (backend per address, prepass "
        "counters, cache hits, UNKNOWN causes, time per stage)",
    )
    p.add_argument(
        "--timeout",
        type=_nonneg_float,
        default=None,
        metavar="S",
        help="wall-clock budget for the whole run in seconds; on expiry "
        "unfinished addresses report UNKNOWN (exit 3), never a guess",
    )
    p.add_argument(
        "--task-timeout",
        type=_nonneg_float,
        default=None,
        metavar="S",
        help="soft deadline per per-address task in seconds (observed "
        "cooperatively by every backend and portfolio leg)",
    )
    p.add_argument(
        "--retries",
        type=_nonneg_int,
        default=None,
        metavar="N",
        help="crash retries per task before it is quarantined to "
        "in-process execution (default 2)",
    )
    p.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="inject deterministic faults, e.g. "
        "'crash=0.2,stall=0.1,seed=7'; test-only, requires the "
        "REPRO_CHAOS environment variable to be set",
    )
    _add_store_args(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "batch",
        help="verify a directory/manifest of trace files as one "
        "deduplicated campaign",
    )
    p.add_argument(
        "paths",
        nargs="*",
        help="trace files and/or directories (a directory contributes "
        "its non-hidden files, sorted)",
    )
    p.add_argument(
        "--manifest",
        default=None,
        metavar="FILE",
        help="file listing trace paths, one per line ('#' comments)",
    )
    p.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="decide unique instances on N worker processes when heavy "
        "exponential-tier tasks survive the pre-pass",
    )
    p.add_argument(
        "--dry-run",
        action="store_true",
        help="print the dedup plan (N files -> M unique instances, "
        "predicted store hits) without solving",
    )
    p.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="write the machine-readable batch report to FILE "
        "('-' prints it to stdout)",
    )
    p.add_argument(
        "--certify",
        choices=CERTIFY_MODES,
        default="off",
        help="certify every verdict (including store hits, which are "
        "re-validated on load) with the independent trusted checker",
    )
    p.add_argument(
        "--stats",
        action="store_true",
        help="print the dedup plan with the per-file verdicts and the "
        "run record",
    )
    p.add_argument(
        "--timeout",
        type=_nonneg_float,
        default=None,
        metavar="S",
        help="wall-clock budget for the whole batch; instances not "
        "admitted before expiry report UNKNOWN(budget)",
    )
    p.add_argument(
        "--task-timeout",
        type=_nonneg_float,
        default=None,
        metavar="S",
        help="soft deadline per unique instance in seconds",
    )
    p.add_argument(
        "--retries",
        type=_nonneg_int,
        default=None,
        metavar="N",
        help="pool-breakage retries per task before it is quarantined "
        "to in-process execution (default 2)",
    )
    p.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="inject deterministic faults (includes slow-store / "
        "corrupt-store); test-only, requires REPRO_CHAOS",
    )
    _add_store_args(p)
    p.add_argument(
        "--store-quota-report",
        action="store_true",
        help="after the campaign, print per-shard store occupancy and "
        "LRU/MRU entry ages (the observability basis for tenant quota "
        "tuning; also lands in the --json report as 'store_quota')",
    )
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser(
        "monitor",
        help="tail a commit-order stream and verify it incrementally",
    )
    p.add_argument(
        "stream",
        help="framed REPROSTM stream file ('-' reads stdin); a plain "
        "trace in any verify format is accepted too and monitored "
        "via a greedy merge with offline escalation",
    )
    p.add_argument(
        "--window",
        type=_window_int,
        default=DEFAULT_WINDOW,
        metavar="N",
        help=f"certificate-window size per address (default "
        f"{DEFAULT_WINDOW}): decided prefixes beyond it are evicted "
        f"and summarized into the frontier",
    )
    p.add_argument(
        "--heartbeat",
        type=_nonneg_int,
        default=0,
        metavar="N",
        help="print a HOLDS-so-far heartbeat with throughput/memory "
        "stats every N operations (0 = off)",
    )
    p.add_argument(
        "--certify",
        choices=CERTIFY_MODES,
        default="off",
        help="certify every verdict with the independent trusted "
        "checker: violations carry a checked certificate over the "
        "retained window, heartbeats a replayed witness; 'on' exits 3 "
        "loudly on an uncertifiable verdict, 'strict' downgrades it to "
        "UNKNOWN(uncertified)",
    )
    p.add_argument(
        "--stats",
        action="store_true",
        help="print steady-state ops/s, peak window size and eviction "
        "counters with the closing verdict",
    )
    p.add_argument(
        "--timeout",
        type=_nonneg_float,
        default=None,
        metavar="S",
        help="wall-clock budget; on expiry the monitor reports UNKNOWN "
        "(exit 3) for the unconsumed suffix (checked between chunks)",
    )
    p.add_argument(
        "--follow",
        action="store_true",
        help="keep tailing the file at EOF until the END frame arrives "
        "(or --timeout expires)",
    )
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser(
        "serve",
        help="run the verification daemon: line-framed requests over a "
        "Unix socket (or stdin/stdout), certified verdicts back, "
        "bounded-queue backpressure, per-tenant store quotas, "
        "graceful SIGTERM drain",
    )
    p.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="listen on a Unix socket at PATH (NDJSON requests, or raw "
        "REPROSTM/REPROBIN — one trace per connection)",
    )
    p.add_argument(
        "--stdio",
        action="store_true",
        help="serve a single client over stdin/stdout instead of a "
        "socket (drains on EOF)",
    )
    p.add_argument(
        "--workers",
        type=_positive_int,
        default=2,
        help="worker threads draining the request queue in "
        "same-tenant batches through the dedup engine (default 2)",
    )
    p.add_argument(
        "--queue-depth",
        type=_positive_int,
        default=64,
        metavar="N",
        help="bounded request queue depth; overload answers "
        "RETRY_AFTER immediately instead of buffering (default 64)",
    )
    p.add_argument(
        "--max-request-mb",
        type=_nonneg_float,
        default=8.0,
        metavar="MB",
        help="per-request size cap; oversized requests are rejected "
        "with a byte-offset diagnostic (default 8)",
    )
    p.add_argument(
        "--max-tenants",
        type=_positive_int,
        default=64,
        metavar="N",
        help="cap on distinct tenant namespaces (default 64)",
    )
    p.add_argument(
        "--certify",
        choices=CERTIFY_MODES,
        default="off",
        help="default certification mode for requests that do not "
        "choose their own",
    )
    p.add_argument(
        "--timeout",
        type=_nonneg_float,
        default=None,
        metavar="S",
        help="wall-clock budget per worker batch; expiry answers "
        "UNKNOWN(timeout)/UNKNOWN(budget), never a guess",
    )
    p.add_argument(
        "--task-timeout",
        type=_nonneg_float,
        default=None,
        metavar="S",
        help="soft deadline per unique instance in seconds",
    )
    p.add_argument(
        "--retries",
        type=_nonneg_int,
        default=None,
        metavar="N",
        help="crash retries per task before quarantine (default 2)",
    )
    p.add_argument(
        "--drain-grace",
        type=_nonneg_float,
        default=5.0,
        metavar="S",
        help="seconds in-flight requests get to finish on "
        "SIGTERM/drain before being answered UNKNOWN(shutdown) "
        "(default 5)",
    )
    p.add_argument(
        "--heartbeat",
        type=_nonneg_float,
        default=0.0,
        metavar="S",
        help="print a liveness/readiness heartbeat line to stderr "
        "every S seconds (0 = off); the same payload answers the "
        "'ping' op",
    )
    p.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="inject deterministic faults (adds conn-drop to the "
        "engine sites); test-only, requires REPRO_CHAOS",
    )
    _add_store_args(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("simulate", help="run a multiprocessor simulator")
    p.add_argument(
        "--substrate",
        choices=["bus", "directory"],
        default="bus",
        help="memory system: 'bus' (atomic snooping MSI/MESI) or "
        "'directory' (split-transaction MSI over a message "
        "interconnect with NACK/retry and writeback races)",
    )
    p.add_argument("--processors", type=int, default=4)
    p.add_argument("--ops", type=int, default=100)
    p.add_argument("--addresses", type=int, default=4)
    p.add_argument("--values", choices=["unique", "small"], default="unique")
    p.add_argument(
        "--protocol",
        choices=["MSI", "MESI"],
        default=None,
        help="coherence protocol (default: MESI on the bus, MSI on the "
        "directory; the directory substrate is MSI-only)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--fault",
        help="inject a fault site (e.g. dropped-write, wb-race); must "
        "be one the chosen substrate supports",
    )
    p.add_argument("--fault-rate", type=float, default=0.05)
    p.add_argument(
        "--delay-model",
        default="fixed:1",
        metavar="SPEC",
        help="directory interconnect delays: fixed:T, uniform:LO:HI, "
        "or numa:LOCAL:REMOTE[:SOCKET] (ignored on the bus)",
    )
    p.add_argument(
        "--homes",
        type=_positive_int,
        default=2,
        help="directory home nodes sharding the address space "
        "(ignored on the bus)",
    )
    p.add_argument("--out", help="write the recorded trace to this JSON file")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="verify addresses in parallel on N worker "
                   "processes when heavy tasks survive the pre-pass")
    p.add_argument("--stats", action="store_true",
                   help="print the run record after verification")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "campaign",
        help="ground-truth fault campaign: sweep seeds over every "
        "(fault site x substrate x delay model) cell, verify all runs "
        "as one deduplicated batch, and hold the verifier to the "
        "oracle's visible=>VIOLATED / latent=>HOLDS contract",
    )
    p.add_argument(
        "--substrates",
        default="bus,directory",
        metavar="LIST",
        help="comma-separated substrates to sweep (default both)",
    )
    p.add_argument(
        "--sites",
        default=None,
        metavar="LIST",
        help="comma-separated fault sites (default: every site the "
        "chosen substrates support; sites a substrate lacks are "
        "skipped for it)",
    )
    p.add_argument(
        "--runs-per-cell",
        type=_positive_int,
        default=20,
        metavar="N",
        help="seeded fault-injected runs per cell, plus one fault-free "
        "control run (default 20)",
    )
    p.add_argument("--processors", type=_positive_int, default=4)
    p.add_argument("--ops", type=_positive_int, default=40,
                   help="operations per processor per run (default 40)")
    p.add_argument("--addresses", type=_positive_int, default=3)
    p.add_argument("--write-fraction", type=_nonneg_float, default=0.35)
    p.add_argument("--fault-rate", type=_nonneg_float, default=0.1)
    p.add_argument(
        "--max-events",
        type=_nonneg_int,
        default=1,
        metavar="N",
        help="cap injections per run (0 = uncapped; default 1)",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="base seed; every run derives a distinct seed")
    p.add_argument("--values", choices=["unique", "small"], default="unique")
    p.add_argument(
        "--workload",
        choices=["random", "producer-consumer", "false-sharing", "lock"],
        default="random",
        help="workload shape per run: uniform random mix, chain-style "
        "producer/consumer, one hammered line, or test-and-set lock "
        "contention (default random)",
    )
    p.add_argument(
        "--delay-models",
        default="fixed:1",
        metavar="LIST",
        help="comma-separated interconnect delay models for the "
        "directory substrate (the bus is atomic); e.g. "
        "'fixed:1,uniform:1:4,numa:1:6'",
    )
    p.add_argument("--homes", type=_positive_int, default=2,
                   help="directory home nodes (default 2)")
    p.add_argument(
        "--run-cache",
        default=None,
        metavar="DIR",
        help="per-run outcome cache directory: a repeated sweep with "
        "the same parameters replays recorded verdicts instead of "
        "re-simulating and re-verifying (resume/extend mega-campaigns)",
    )
    p.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="decide deduplicated instances on N worker processes when "
        "heavy tasks survive the pre-pass",
    )
    p.add_argument(
        "--certify",
        choices=CERTIFY_MODES,
        default="off",
        help="certify every verdict with the independent trusted "
        "checker; the ground-truth contract then rides on "
        "proof-carrying verdicts end to end",
    )
    p.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="write the machine-readable campaign report to FILE "
        "('-' prints it to stdout)",
    )
    p.add_argument("--quiet", action="store_true",
                   help="suppress progress lines on stderr")
    p.add_argument(
        "--timeout",
        type=_nonneg_float,
        default=None,
        metavar="S",
        help="wall-clock budget for the verification sweep; runs not "
        "decided in time report UNKNOWN (a contract breach only when "
        "the oracle expected VIOLATED)",
    )
    p.add_argument("--task-timeout", type=_nonneg_float, default=None,
                   metavar="S", help="soft deadline per unique instance")
    p.add_argument("--retries", type=_nonneg_int, default=None, metavar="N",
                   help="pool-breakage retries per task (default 2)")
    p.add_argument("--chaos", default=None, metavar="SPEC",
                   help="inject engine faults; test-only, needs REPRO_CHAOS")
    _add_store_args(p)
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("solve", help="decide a DIMACS CNF formula")
    p.add_argument("cnf")
    p.add_argument("--solver", choices=["cdcl", "dpll", "brute"], default="cdcl")
    p.add_argument(
        "--via-vmc",
        action="store_true",
        help="solve through the SAT-to-coherence reduction",
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("litmus", help="print the litmus/model table")
    p.set_defaults(func=cmd_litmus)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
