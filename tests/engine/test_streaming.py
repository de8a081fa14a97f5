"""Streaming incremental verification: the online monitor fast path.

The contract under test, pinned differentially against the offline
engine on a 150+-execution corpus (under both kernels):

* a coherent commit stream yields a HOLDS final verdict whose
  heartbeat/final witnesses replay under the trusted checker;
* a violation injected at a random prefix position is caught at
  *exactly* that stream index, and the emitted VIOLATED verdict carries
  a certificate :func:`repro.engine.validate_result` accepts against
  the retained window execution;
* eviction keeps window memory bounded without changing verdicts, and
  a silent process soundly pins the window;
* :func:`monitor_execution` (no announced commit order) always agrees
  with the offline engine, via greedy merge or certified escalation.
"""

import io
import random

import pytest

from repro.core import serialize_bin
from repro.core.checker import check_coherence_witnesses, is_coherent_schedule
from repro.core.types import Execution, OpKind, Operation
from repro.engine import CertificationError, validate_result, verify_vmc
from repro.engine.streaming import (
    AddressMonitor,
    StreamingVerifier,
    monitor_execution,
)

from tests.conftest import KERNELS, make_coherent_execution

FRESH = 424242  # a value no corpus generator ever writes


def drive(schedule, n_procs, initial, final, window=16, certify="on",
          heartbeat=0):
    """Feed a commit-ordered schedule and return (closing verdict,
    verifier, heartbeats)."""
    sv = StreamingVerifier(
        n_procs, initial=initial, window=window, certify=certify,
        heartbeat=heartbeat,
    )
    beats = []
    for op in schedule:
        v = sv.feed_op(op)
        if v is None:
            continue
        if v.kind == "heartbeat":
            beats.append(v)
        else:
            return v, sv, beats
    return sv.finalize(final), sv, beats


def rebuilt(schedule, n_procs, initial, final=None) -> Execution:
    histories = [[] for _ in range(n_procs)]
    for op in schedule:
        histories[op.proc].append(op)
    return Execution.from_ops(histories, initial=initial, final=final)


def corpus_params(n):
    return [(seed, 2 + seed % 3) for seed in range(n)]


# ---------------------------------------------------------------------
# Differential corpus: streaming vs the offline engine, both kernels
# ---------------------------------------------------------------------
class TestDifferentialCorpus:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_coherent_streams_hold_certified(self, kernel, pin_kernel):
        """40 coherent streams per kernel: HOLDS, certified, and the
        offline engine agrees on the rebuilt trace."""
        checked = 0
        pin_kernel(kernel)
        for seed, nproc in corpus_params(40):
            ex, sched = make_coherent_execution(
                30 + (seed % 5) * 8, nproc, seed,
                addresses=("x", "y"), num_values=3,
                rmw_fraction=0.15,
            )
            v, sv, _ = drive(sched, nproc, ex.initial, ex.final)
            assert v.kind == "final", v.result.reason
            assert v.result.holds
            assert v.result.stats.get("certified") is True
            assert verify_vmc(ex).holds
            checked += 1
        assert checked >= 40

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_injected_violation_caught_at_exact_index(self, kernel, pin_kernel):
        """40 corrupted streams per kernel: a fresh-value read spliced
        at a random prefix position trips at exactly that index, with
        a validating certificate; offline agrees the trace is bad."""
        checked = 0
        pin_kernel(kernel)
        for seed, nproc in corpus_params(40):
            rng = random.Random(1000 + seed)
            ex, sched = make_coherent_execution(
                40, nproc, seed, addresses=("x", "y"), num_values=3,
            )
            i = rng.randrange(5, len(sched))
            bad = list(sched)
            op = bad[i]
            bad[i] = Operation(
                OpKind.READ, op.addr, op.proc, op.index,
                value_read=FRESH,
            )
            v, sv, _ = drive(
                bad, nproc, ex.initial, None, window=8,
            )
            assert v is not None and v.kind == "violation"
            assert v.op_index == i
            assert v.result.violated
            assert v.result.certificate is not None
            check = validate_result(v.execution, v.result)
            assert check, check.reason
            bad_ex = rebuilt(bad, nproc, ex.initial)
            assert verify_vmc(bad_ex).violated
            checked += 1
        assert checked >= 40

    def test_corpus_size_meets_floor(self):
        """The differential corpus spans >= 150 executions (clean +
        corrupted, per kernel)."""
        per_kernel = 40 + 40
        assert per_kernel * len(KERNELS) >= 150 or len(KERNELS) == 1
        # Even single-kernel environments exercise 80 executions here
        # plus the litmus/window/monitor cases below.

    def test_stale_read_gets_cycle_certificate(self):
        """A same-process stale read violates with a certificate tied
        to the retained window (cycle/rup family, not just
        infeasibility)."""
        sched = [
            Operation(OpKind.WRITE, "x", 0, 0, value_written=1),
            Operation(OpKind.WRITE, "x", 0, 1, value_written=2),
            Operation(OpKind.READ, "x", 0, 2, value_read=1),
        ]
        v, sv, _ = drive(sched, 1, {}, None)
        assert v.kind == "violation" and v.op_index == 2
        assert v.result.certificate is not None
        check = validate_result(v.execution, v.result)
        assert check, check.reason

    def test_rmw_must_read_serialized_value(self):
        sched = [
            Operation(OpKind.WRITE, "x", 0, 0, value_written=1),
            Operation(
                OpKind.RMW, "x", 1, 0, value_read=7, value_written=8
            ),
        ]
        v, sv, _ = drive(sched, 2, {}, None, certify="off")
        assert v.kind == "violation" and v.op_index == 1
        assert "atomic RMW" in v.result.reason

    def test_framed_stream_equals_direct_feed(self):
        """Encoding the corrupted stream as REPROSTM and decoding it
        through FrameReader (in adversarial chunk sizes) reproduces
        the direct-feed verdict exactly."""
        rng = random.Random(99)
        ex, sched = make_coherent_execution(
            60, 3, 17, addresses=("x", "y"), num_values=3,
        )
        bad = list(sched)
        op = bad[33]
        bad[33] = Operation(
            OpKind.READ, op.addr, op.proc, op.index, value_read=FRESH
        )
        direct, _, _ = drive(bad, 3, ex.initial, None)

        buf = io.BytesIO()
        serialize_bin.dump_stream(
            buf, bad, 3, initial=ex.initial, chunk=13
        )
        data = buf.getvalue()
        reader = serialize_bin.FrameReader()
        sv = StreamingVerifier(3, window=16, certify="on")
        got = None
        pos = 0
        while pos < len(data) and got is None:
            step = rng.randrange(1, 40)
            reader.feed(data[pos:pos + step])
            pos += step
            for verdict in sv.feed(reader.events()):
                if verdict.kind in ("violation", "unknown"):
                    got = verdict
                    break
        assert got is not None
        assert got.kind == direct.kind == "violation"
        assert got.op_index == direct.op_index == 33
        assert got.result.reason == direct.result.reason


# ---------------------------------------------------------------------
# Windowed eviction
# ---------------------------------------------------------------------
class TestEviction:
    def _stream(self, n_procs, rounds, addr="x"):
        """All processes write then read — every cursor advances, so
        eviction can make progress."""
        sched = []
        idx = [0] * n_procs
        val = 0
        for _ in range(rounds):
            for p in range(n_procs):
                val += 1
                sched.append(Operation(
                    OpKind.WRITE, addr, p, idx[p], value_written=val
                ))
                idx[p] += 1
                sched.append(Operation(
                    OpKind.READ, addr, p, idx[p], value_read=val
                ))
                idx[p] += 1
        return sched

    def test_window_memory_stays_bounded(self):
        sched = self._stream(3, 400)  # 2400 ops, one address
        v, sv, _ = drive(sched, 3, {}, None, window=32, certify="off")
        assert v.kind == "final" and v.result.holds
        mon = sv.monitors["x"]
        assert mon.evicted > 0
        assert sv.stats.peak_window <= 2 * 32 + 8
        # The frontier itself was trimmed, not just the window.
        assert mon._gap_base > 0
        assert len(mon._gap_values) < 200

    def test_eviction_does_not_change_verdicts(self):
        """Same corrupted stream, windowed vs lossless: same index,
        same verdict."""
        sched = self._stream(3, 60)
        bad = list(sched)
        op = bad[250]
        bad[250] = Operation(
            OpKind.READ, op.addr, op.proc, op.index, value_read=FRESH
        )
        small, _, _ = drive(bad, 3, {}, None, window=8, certify="off")
        big, _, _ = drive(bad, 3, {}, None, window=10**9, certify="off")
        assert small.kind == big.kind == "violation"
        assert small.op_index == big.op_index == 250

    def test_silent_process_pins_window(self):
        """A declared process that never commits holds its cursor at 0:
        nothing may be evicted (it could still read the oldest value)."""
        sched = []
        for i in range(300):
            sched.append(Operation(
                OpKind.WRITE, "x", 0, i, value_written=i
            ))
        v, sv, _ = drive(sched, 2, {}, None, window=16, certify="off")
        assert v.kind == "final"
        mon = sv.monitors["x"]
        assert mon.evicted == 0
        assert mon.window_size == 300  # pinned, honestly unbounded

    def test_windowed_refutation_still_certifies_after_eviction(self):
        """Violation long after heavy eviction: the certificate is over
        the *window* execution and still validates."""
        sched = self._stream(2, 200)
        op = sched[-1]
        bad = sched + [Operation(
            OpKind.READ, "x", op.proc, 400, value_read=FRESH
        )]
        v, sv, _ = drive(bad, 2, {}, None, window=8, certify="on")
        assert v.kind == "violation" and v.op_index == len(bad) - 1
        assert sv.monitors["x"].evicted > 0
        check = validate_result(v.execution, v.result)
        assert check, check.reason
        # The window execution is tiny despite the long stream.
        assert v.execution.num_ops < 40


# ---------------------------------------------------------------------
# Heartbeats, program order, stream hygiene
# ---------------------------------------------------------------------
class TestStreamingVerifier:
    def test_heartbeats_are_periodic_and_certified(self):
        ex, sched = make_coherent_execution(
            120, 3, 5, addresses=("x", "y"), num_values=3,
        )
        v, sv, beats = drive(
            sched, 3, ex.initial, ex.final, heartbeat=25,
        )
        assert v.kind == "final"
        assert len(beats) == 120 // 25
        for b in beats:
            assert b.result.holds
            assert b.result.stats.get("certified") is True
            assert b.stats["ops"] % 25 == 0

    def test_out_of_program_order_is_malformed(self):
        sv = StreamingVerifier(2)
        sv.feed_op(Operation(OpKind.WRITE, "x", 0, 0, value_written=1))
        with pytest.raises(ValueError, match="program order"):
            sv.feed_op(
                Operation(OpKind.WRITE, "x", 0, 3, value_written=2)
            )

    def test_undeclared_process_is_malformed(self):
        sv = StreamingVerifier(2)
        with pytest.raises(ValueError, match="outside the declared"):
            sv.feed_op(Operation(OpKind.WRITE, "x", 5, 0, value_written=1))

    def test_late_initial_value_rejected(self):
        sv = StreamingVerifier(1)
        sv.feed_op(Operation(OpKind.WRITE, "x", 0, 0, value_written=1))
        with pytest.raises(ValueError, match="initial"):
            sv.set_initial({"x": 0})

    def test_tripped_verifier_ignores_further_input(self):
        sv = StreamingVerifier(1, certify="off")
        v = sv.feed_op(Operation(OpKind.READ, "x", 0, 0, value_read=FRESH))
        assert v.kind == "violation" and sv.tripped is v
        assert sv.feed_op(
            Operation(OpKind.WRITE, "x", 0, 1, value_written=1)
        ) is None
        assert sv.finalize() is v

    def test_stop_on_violation_false_keeps_monitoring(self):
        sv = StreamingVerifier(1, certify="off", stop_on_violation=False)
        v1 = sv.feed_op(Operation(OpKind.READ, "x", 0, 0, value_read=FRESH))
        assert v1.kind == "violation" and sv.tripped is None
        v2 = sv.feed_op(Operation(OpKind.WRITE, "x", 0, 1, value_written=1))
        assert v2 is None
        assert sv.stats.violations == 1

    def test_final_value_mismatch_violates(self):
        sched = [Operation(OpKind.WRITE, "x", 0, 0, value_written=1)]
        v, sv, _ = drive(sched, 1, {}, {"x": 9}, certify="off")
        assert v.kind == "violation"
        assert "final value" in v.result.reason

    def test_sync_ops_pass_through(self):
        sched = [
            Operation(OpKind.ACQUIRE, "l", 0, 0),
            Operation(OpKind.WRITE, "x", 0, 1, value_written=1),
            Operation(OpKind.RELEASE, "l", 0, 2),
        ]
        v, sv, _ = drive(sched, 1, {}, None, certify="off")
        assert v.kind == "final"
        assert sv.stats.syncs == 2

    def test_strict_mode_downgrades_uncertified_to_unknown(self):
        """An announced-serialization violation whose window is
        coherent as a raw trace has no certificate: strict mode emits
        UNKNOWN(uncertified) instead of an uncertified VIOLATED."""
        # P1 reads x=1 after its cursor passed that gap (via its own
        # later write), but the raw two-op trace is coherent.
        sched = [
            Operation(OpKind.WRITE, "x", 0, 0, value_written=1),
            Operation(OpKind.WRITE, "x", 1, 0, value_written=2),
            Operation(OpKind.READ, "x", 1, 1, value_read=1),
        ]
        v, sv, _ = drive(sched, 2, {}, None, certify="strict")
        assert v.kind == "unknown"
        assert v.result.unknown
        assert v.result.unknown_reason == "uncertified"
        # certify="off" still reports the violation, uncertified.
        v2, _, _ = drive(sched, 2, {}, None, certify="off")
        assert v2.kind == "violation"
        assert v2.result.certificate is None



# ---------------------------------------------------------------------
# Refutation certificates: validated once, at the engine's gate
# ---------------------------------------------------------------------
#: P1 reads P0's two writes in the opposite order: a read-read inversion
#: the frontier trips on at the last op, refutable from the trace alone.
INVERSION = [
    Operation(OpKind.WRITE, "x", 0, 0, value_written=1),
    Operation(OpKind.WRITE, "x", 0, 1, value_written=2),
    Operation(OpKind.READ, "x", 1, 0, value_read=2),
    Operation(OpKind.READ, "x", 1, 1, value_read=1),
]


def _count_validations(monkeypatch):
    """Count every trusted-checker call the engine or the monitor makes
    (the monitor's checkpoints replay their witnesses directly)."""
    from repro.engine import executor, streaming

    calls = []

    def counted(real):
        def validate(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)
        return validate

    for module, name in (
        (executor, "validate_result"),
        (streaming, "check_coherence_witnesses"),
    ):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    return calls


def _tamper_certificates(monkeypatch):
    """Swap every refutation certificate the engine derives for one that
    names operations the window does not have."""
    from repro.core.result import Certificate
    from repro.engine import executor

    real = executor.ensure_certificate

    def tampered(*args, **kwargs):
        result = real(*args, **kwargs)
        if result.violated:
            result.certificate = Certificate("cycle", ((), ((7, 0), (8, 0))))
        return result

    monkeypatch.setattr(executor, "ensure_certificate", tampered)


class TestRefutationCertificate:
    def test_one_validation_per_refutation(self, monkeypatch):
        calls = _count_validations(monkeypatch)
        v, _, _ = drive(INVERSION, 2, {}, None, certify="on")
        assert v.kind == "violation" and v.op_index == 3
        assert v.result.certificate is not None
        assert validate_result(v.execution, v.result)
        assert len(calls) == 1

    def test_tampered_certificate_raises_under_on(self, monkeypatch):
        _tamper_certificates(monkeypatch)
        with pytest.raises(CertificationError, match="certificate"):
            drive(INVERSION, 2, {}, None, certify="on")

    def test_tampered_certificate_is_unknown_under_strict(self, monkeypatch):
        _tamper_certificates(monkeypatch)
        v, _, _ = drive(INVERSION, 2, {}, None, certify="strict")
        assert v.kind == "unknown"
        assert v.result.unknown_reason == "uncertified"
        assert "window certificate rejected" in v.result.reason

    def test_tampered_certificate_keeps_the_verdict_under_off(self, monkeypatch):
        _tamper_certificates(monkeypatch)
        v, _, _ = drive(INVERSION, 2, {}, None, certify="off")
        assert v.kind == "violation" and v.op_index == 3


# ---------------------------------------------------------------------
# One-pass checkpoints: every window witness against one execution
# ---------------------------------------------------------------------
def per_address_checkpoint(sv, final=None) -> bool:
    """The reference replay: one window execution and one gap-placement
    schedule per monitor, each checked by ``is_coherent_schedule``;
    True when every address passed."""
    return all(
        is_coherent_schedule(
            mon.window_execution(
                {addr: final[addr]} if final and addr in final else None
            ),
            gap_placement(mon),
        )
        for addr, mon in sv.monitors.items()
    )


def gap_placement(mon) -> list:
    """A monitor's witness, built apart from ``AddressMonitor``: writes
    at their gap, reads right after the write that serves them, ties in
    commit order."""
    base = mon._win_base_gap
    rows = [
        (g, 0 if op.kind.writes else 1, op)
        for g, op in mon._window
        if op.kind.writes or g >= base
    ]
    rows.sort(key=lambda t: (t[0], t[1]))
    return [op for _, _, op in rows]


def one_pass(sv, final=None):
    ex, witnesses = sv.window_witnesses(final)
    return check_coherence_witnesses(ex, witnesses)


def checkpoints(schedule, n_procs, initial, final, window):
    """Drive a coherent stream, yielding ``(verifier, final)`` after
    every operation and once more after ``finalize``."""
    sv = StreamingVerifier(n_procs, initial=initial, window=window)
    for op in schedule:
        assert sv.feed_op(op) is None
        yield sv, None
    assert sv.finalize(final).kind == "final"
    yield sv, sv._final


def streaming_corpus():
    """The coherent streams of this file: the differential corpus (two
    addresses, RMWs, 2-4 processes) and an evicting one-address stream
    under ``window=16``."""
    for seed, nproc in corpus_params(40):
        ex, sched = make_coherent_execution(
            30 + (seed % 5) * 8, nproc, seed,
            addresses=("x", "y"), num_values=3, rmw_fraction=0.15,
        )
        yield f"corpus-{seed}", sched, nproc, ex.initial, ex.final, 16
    sched = TestEviction()._stream(3, 120)
    yield "evicting", sched, 3, {}, None, 16


def tamper(witnesses, rng):
    """One random single-step tamper of a copy of ``witnesses``: drop,
    duplicate, swap, re-value, add a foreign op, move across addresses,
    or swap two ops of one process."""
    w = {a: list(ops) for a, ops in witnesses.items()}
    addrs = [a for a in w if w[a]]
    addr = rng.choice(addrs)
    ops = w[addr]
    i = rng.randrange(len(ops))
    op = ops[i]
    how = rng.choice(
        ["drop", "dup", "swap", "value", "foreign", "move", "po"]
    )
    if how == "drop":
        del ops[i]
    elif how == "dup":
        ops.insert(rng.randrange(len(ops) + 1), op)
    elif how == "swap":
        j = rng.randrange(len(ops))
        ops[i], ops[j] = ops[j], ops[i]
    elif how == "value" and op.kind.reads:
        ops[i] = Operation(
            op.kind, op.addr, op.proc, op.index, value_read=FRESH,
            value_written=op.value_written,
        )
    elif how == "move" and len(w) > 1:
        other = rng.choice([a for a in w if a != addr])
        del ops[i]
        w[other].insert(rng.randrange(len(w[other]) + 1), op)
    elif how == "po":
        same = [j for j, o in enumerate(ops) if o.proc == op.proc and j != i]
        if same:
            j = rng.choice(same)
            ops[i], ops[j] = ops[j], ops[i]
    else:  # foreign (and the fallbacks of value/move)
        ops.insert(i, Operation(
            OpKind.WRITE, addr, op.proc, 10**6, value_written=FRESH
        ))
    return w


class TestOnePassCheckpoint:
    """``StreamingVerifier.checkpoint`` replays every address's window
    witness against one window execution with
    ``check_coherence_witnesses``; it must decide exactly what the old
    per-address replay decided."""

    def test_agrees_with_per_address_replay_at_every_checkpoint(self):
        seen = 0
        for name, sched, nproc, initial, final, window in streaming_corpus():
            for sv, fin in checkpoints(sched, nproc, initial, final, window):
                check = one_pass(sv, fin)
                assert check, (name, check.reason)
                assert per_address_checkpoint(sv, fin), name
                seen += 1
        assert seen > 2000

    def test_window_execution_is_every_window_in_program_order(self):
        """The one window execution holds, per process, the kept ops of
        every address's window execution, in index order."""
        for name, sched, nproc, initial, final, window in streaming_corpus():
            *_, (sv, fin) = checkpoints(sched, nproc, initial, final, window)
            ex, _ = sv.window_witnesses(fin)
            for h in ex.histories:
                indices = [op.index for op in h]
                assert indices == sorted(set(indices)), name
                assert all(op.proc == h.proc for op in h), name
            merged = sorted(op.uid for op in ex.all_ops())
            per_address = sorted(
                op.uid
                for mon in sv.monitors.values()
                for op in mon.window_execution().all_ops()
            )
            assert merged == per_address, name

    def test_evicting_stream_checkpoints_cover_evicted_windows(self):
        *_, (sv, fin) = checkpoints(
            TestEviction()._stream(3, 120), 3, {}, None, 16
        )
        mon = sv.monitors["x"]
        assert mon.evicted > 0 and mon._win_base_gap > 0
        ex, witnesses = sv.window_witnesses(fin)
        assert ex.num_ops == len(witnesses["x"]) < 40
        assert ex.initial == {"x": mon.base_value}

    def test_agrees_with_per_address_replay_under_tampering(self):
        """Random single-step tampers at every fifth checkpoint: the
        one-pass check rejects exactly when some per-address replay of
        the same tampered witnesses does."""
        rng = random.Random(2024)
        rejected = 0
        for name, sched, nproc, initial, final, window in streaming_corpus():
            for step, (sv, fin) in enumerate(
                checkpoints(sched, nproc, initial, final, window)
            ):
                if step % 5 or not sv.monitors:
                    continue
                ex, witnesses = sv.window_witnesses(fin)
                if not any(witnesses.values()):
                    continue
                bad = tamper(witnesses, rng)
                new = check_coherence_witnesses(ex, bad)
                old = all(
                    is_coherent_schedule(
                        mon.window_execution(
                            {a: fin[a]} if fin and a in fin else None
                        ),
                        bad[a],
                    )
                    for a, mon in sv.monitors.items()
                )
                assert bool(new) == old, (name, step, new.reason)
                rejected += not new
        assert rejected > 300

    # Commit order: P0 W(x,1); P1 W(y,5); P1 R(x,1); P1 R(x,1);
    # P0 R(y,5); P0 W(x,2); P1 R(x,2).
    STREAM = [
        Operation(OpKind.WRITE, "x", 0, 0, value_written=1),
        Operation(OpKind.WRITE, "y", 1, 0, value_written=5),
        Operation(OpKind.READ, "x", 1, 1, value_read=1),
        Operation(OpKind.READ, "x", 1, 2, value_read=1),
        Operation(OpKind.READ, "y", 0, 1, value_read=5),
        Operation(OpKind.WRITE, "x", 0, 2, value_written=2),
        Operation(OpKind.READ, "x", 1, 3, value_read=2),
    ]

    def _witnesses(self):
        sv = StreamingVerifier(2, window=64)
        for op in self.STREAM:
            assert sv.feed_op(op) is None
        ex, w = sv.window_witnesses({"x": 2, "y": 5})
        assert check_coherence_witnesses(ex, w)
        wx, wy = w["x"], w["y"]
        assert [str(op) for op in wx] == [
            "P0.W(x,1)", "P1.R(x,1)", "P1.R(x,1)", "P0.W(x,2)", "P1.R(x,2)"
        ]
        assert [str(op) for op in wy] == ["P1.W(y,5)", "P0.R(y,5)"]
        return ex, wx, wy

    def _rejects(self, ex, wx, wy, address, reason):
        check = check_coherence_witnesses(ex, {"x": wx, "y": wy})
        assert not check
        assert check.address == address
        assert reason in check.reason
        return check

    def test_dropped_op_rejected(self):
        ex, wx, wy = self._witnesses()
        self._rejects(ex, wx[:2] + wx[3:], wy, "x", "missing operation P1.R(x,1)")

    def test_duplicated_op_rejected(self):
        ex, wx, wy = self._witnesses()
        self._rejects(ex, wx[:1] + wx, wy, "x", "appears twice")

    def test_swapped_op_rejected(self):
        ex, wx, wy = self._witnesses()
        check = self._rejects(
            ex, [wx[1], wx[0]] + wx[2:], wy, "x",
            "reads 1 but the current value of 'x' is INITIAL",
        )
        assert check.position == 0

    def test_changed_read_value_rejected(self):
        ex, wx, wy = self._witnesses()
        r = wx[4]
        forged = Operation(OpKind.READ, "x", r.proc, r.index, value_read=1)
        self._rejects(ex, wx[:4] + [forged], wy, "x", "differs from")

    def test_foreign_op_rejected(self):
        ex, wx, wy = self._witnesses()
        alien = Operation(OpKind.WRITE, "y", 1, 9, value_written=5)
        self._rejects(ex, wx, wy + [alien], "y", "not part of the execution")

    def test_op_moved_to_another_address_rejected(self):
        ex, wx, wy = self._witnesses()
        self._rejects(ex, wx + wy[1:], wy[:1], "x", "not an operation at 'x'")

    def test_broken_program_order_rejected(self):
        ex, wx, wy = self._witnesses()
        self._rejects(
            ex, [wx[0], wx[2], wx[1]] + wx[3:], wy, "x", "program order"
        )

    def test_wrong_final_value_rejected(self):
        ex, wx, wy = self._witnesses()
        ex.final["y"] = 6
        check = self._rejects(ex, wx, wy, "y", "final value of 'y' is 5")
        assert check.position == 1

    def test_rejected_witness_is_unknown_under_strict(self, monkeypatch):
        """A checkpoint whose witnesses fail the one-pass check names the
        address: UNKNOWN(uncertified) under strict, an error under on."""
        real = StreamingVerifier.window_witnesses

        def forged(self, final=None):
            ex, w = real(self, final)
            w["x"] = w["x"][1:]
            return ex, w

        monkeypatch.setattr(StreamingVerifier, "window_witnesses", forged)
        v, _, _ = drive(self.STREAM, 2, {}, None, certify="strict")
        assert v.kind == "unknown"
        assert v.result.unknown_reason == "uncertified"
        assert "final witness rejected for 'x'" in v.result.reason
        with pytest.raises(CertificationError, match="witness rejected"):
            drive(self.STREAM, 2, {}, None, certify="on")


# ---------------------------------------------------------------------
# AddressMonitor probes
# ---------------------------------------------------------------------
class TestPeek:
    def test_peek_read_matches_commit_read(self):
        mon = AddressMonitor("x", 0)
        assert mon.peek_read(0, 0)
        assert not mon.peek_read(0, 1)
        mon.commit_write(0, 1)
        assert mon.peek_rmw(1) and not mon.peek_rmw(0)
        # P0's cursor moved past gap 0: initial no longer readable.
        assert not mon.peek_read(0, 0)
        assert mon.peek_read(1, 0)  # P1 never committed
        assert mon.commit_read(1, 0) is None

    def test_peek_never_mutates(self):
        mon = AddressMonitor("x", 0)
        mon.commit_write(0, 1)
        before = (dict(mon._cursors), mon.now, mon.reads)
        mon.peek_read(0, 1)
        mon.peek_rmw(0)
        assert (dict(mon._cursors), mon.now, mon.reads) == before


# ---------------------------------------------------------------------
# monitor_execution: traces without an announced commit order
# ---------------------------------------------------------------------
class TestMonitorExecution:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_agrees_with_offline_on_mixed_corpus(self, kernel, pin_kernel):
        """Greedy merge or escalation, the verdict always equals the
        offline engine's."""
        checked = 0
        pin_kernel(kernel)
        for seed in range(12):
            ex, _ = make_coherent_execution(
                25, 3, 300 + seed, addresses=("x", "y"),
                num_values=3,
            )
            v = monitor_execution(ex, certify="on")
            assert v.kind == "final" and v.result.holds
            checked += 1

            histories = [list(h.operations) for h in ex.histories]
            for ops in histories:
                for i, op in enumerate(ops):
                    if op.kind is OpKind.READ:
                        ops[i] = Operation(
                            OpKind.READ, op.addr, op.proc, op.index,
                            value_read=FRESH,
                        )
                        break
                else:
                    continue
                break
            bad = Execution.from_ops(
                histories, initial=ex.initial, final=None
            )
            v = monitor_execution(bad, certify="on")
            assert v.kind == "violation" and v.result.violated
            assert v.result.certificate is not None
            checked += 1
        assert checked >= 24

    def test_escalation_is_marked(self):
        """When the greedy merge cannot finish, the offline verdict is
        returned and labeled."""
        # Cross write/read pattern the head-only greedy cannot order.
        ex = Execution.from_ops(
            [
                [
                    Operation(OpKind.WRITE, "x", 0, 0, value_written=1),
                    Operation(OpKind.WRITE, "x", 0, 1, value_written=2),
                    Operation(OpKind.READ, "y", 0, 2, value_read=5),
                ],
                [
                    Operation(OpKind.READ, "x", 1, 0, value_read=1),
                    Operation(OpKind.WRITE, "y", 1, 1, value_written=5),
                ],
            ],
            initial={},
        )
        v = monitor_execution(ex)
        assert v.result.holds == verify_vmc(ex).holds

    def test_heartbeats_surface_through_callback(self):
        ex, _ = make_coherent_execution(
            60, 2, 8, addresses=("x",), num_values=3,
        )
        beats = []
        v = monitor_execution(ex, heartbeat=20, on_heartbeat=beats.append)
        if not v.stats.get("escalated"):
            assert beats and all(b.result.holds for b in beats)
