"""Engine benchmark: the default engine (pre-pass, then exact-vs-SAT
race where the planner races) against forced backends.

Two comparison matrices:

* **Pre-pass / jobs matrix**: a corpus of multi-address coherent
  executions shaped like the worst case the pre-pass targets — per
  address, a message-passing write chain spread over many processes,
  closed by a re-write of the initial value with a final-value
  constraint.  The ``baseline-*`` arms force ``method="sat-cdcl"``
  (what the router picks for these tasks, run without a pre-pass) and
  pay the O(n^3)-clause CNF encoding; under the default engine every
  task downgrades to the O(n log n) Section 5.2 backend.

* **Portfolio matrix**: a *mixed* corpus — chains (the frontier search
  wins in milliseconds; SAT pays the cubic encoding), wide all-writer
  instances with an unreachable final value (SAT refutes fast; the
  uncapped search must exhaust ~10^5.8 states), the
  ``consistency.generate`` sweep (tiny instances, race cutoff
  territory) and Figure 4.1 SAT -> VMC reductions (the paper's hard
  shape: the pre-pass shrinks them but cannot decide them, so the
  default engine races on them).  ``race-portfolio`` runs the default
  engine, ``race-exact-solo`` / ``race-sat-solo`` force each leg with
  ``method=``; the default must be no slower than 1.25x the better
  solo leg (the CI regression guard) and in practice beats both, since
  neither leg wins on every family.

* **Kernel-scaling ladder**: one execution per size from 1k to 200k
  ops (chain blocks of ~1.6k ops per address), verified on the
  default path (the engine picks the kernel per saturation: ``numpy``
  packed matrices on these blocks when installed) and with every
  saturation pinned to the ``python`` int-bitset kernel.  Records the
  fitted log-log wall-time-vs-ops exponent per arm; with numpy
  installed the default path must be >= 3x faster than the pinned one
  at the largest size.

* **Persistent-store arms**: a solve-heavy corpus (chains forced onto
  ``method="sat-cdcl"``, so every unique instance pays the SAT route)
  verified
  through the batch engine (``repro.engine.verify_many``) under four
  arms — store disabled, cold (empty store), warm (same store
  directory, fresh process) and a cold run at ``--jobs N`` (the
  executor's process pool; the parent does every store read/write).
  Guards: warm must beat cold by >= 3x (in practice it is orders of
  magnitude — a disk read versus a SAT solve), every warm verdict must
  be served from the store (zero solves, zero revalidation failures),
  the disabled arm may cost at most 1.05x the direct ``verify_vmc``
  loop, and on machines with >= 4 cores the pool must beat the serial
  cold arm by >= 2x (single-core containers skip that guard — a pool
  cannot outrun serial there).

* **Fault-campaign arms**: a certified ground-truth campaign (fault
  sites × substrates, seeded simulations, oracle-classified
  injections) swept cold against a fresh persistent store and run
  cache, then re-swept warm.  Simulation is seeded and deterministic,
  so the warm pass replays every decided run from the campaign run
  cache — no simulation, no solving.  Guards: the ground-truth
  contract holds on both passes (every oracle-visible fault flagged,
  zero false alarms, full coverage, certificates attached), the warm
  pass replays everything and solves nothing, and the warm sweep beats
  the cold one by >= 3x past a measurement floor.

* **Service arms**: satisfiable Figure 4.1 reductions (solve-heavy
  under the default engine, which races on them) sent as
  one-request-per-execution campaigns through a live ``repro serve``
  daemon (Unix socket, store-backed tenant tier) — a cold pass where
  every request pays a solve, then a warm re-run that must be answered
  entirely off the memory/store tier, then the drain handshake.
  Guards: all three arms (direct loop, cold, warm) agree on every
  verdict, the warm pass solves nothing, warm beats cold by >= 2x
  (skipped when cold is under the measurement floor), and the idle
  drain completes cleanly within its latency bound.

* **Streaming ladder**: a commit-ordered stream from 1.6k to 1M ops
  fed to the incremental monitor (:class:`repro.engine.StreamingVerifier`,
  windowed eviction on) versus a from-scratch arm that re-verifies the
  growing prefix with the batch engine at ten checkpoints per rung
  (capped at the re-verify rung limit — the arm is quadratic in
  stream length, which is the point).  Records steady-state ops/s and
  peak retained window per rung.  Guards: the incremental arm must
  beat from-scratch by >= 10x at the top shared rung, throughput
  across eviction-active rungs may not degrade past 2x, and the
  peak window may not grow with stream length (no superlinear memory).

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py [--quick] [--jobs N]
        [--repeats R] [--out BENCH_engine.json]

Writes ``BENCH_engine.json`` (repo root by default) with per-config
median wall-clock times, UTC timestamp and git revision.  Exit status
1 on any verdict mismatch or portfolio regression.  Not a pytest
module — run directly.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if not any((Path(p) / "repro").is_dir() for p in sys.path if p):
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import obs  # noqa: E402
from repro.core.types import Execution, OpKind, Operation  # noqa: E402
from repro.engine import (  # noqa: E402
    ChaosSpec,
    ResiliencePolicy,
    ResultCache,
    verify_many,
    verify_vmc,
)
from repro.engine.store import ResultStore  # noqa: E402
from repro.util.timing import fit_loglog_slope  # noqa: E402


def chain_address(
    addr: str, nproc: int, length: int, proc_offset: int = 0
) -> list[list[Operation]]:
    """One address's operations: a cross-process message-passing chain.

    Writer i+1 first reads value i (forcing reads-from), then writes
    i+1; the chain ends with a read of the last value and a re-write of
    the initial value 0, whose final-value constraint pins it last.
    """
    ops: list[list[Operation]] = [[] for _ in range(nproc)]
    for i in range(length):
        p = (i + proc_offset) % nproc
        if i > 0:
            ops[p].append(Operation(OpKind.READ, addr, p, 0, value_read=i))
        ops[p].append(
            Operation(OpKind.WRITE, addr, p, 0, value_written=i + 1)
        )
    p = (length + proc_offset) % nproc
    ops[p].append(Operation(OpKind.READ, addr, p, 0, value_read=length))
    ops[p].append(Operation(OpKind.WRITE, addr, p, 0, value_written=0))
    return ops


def corpus_execution(
    n_addr: int, nproc: int, base_length: int, seed: int
) -> Execution:
    """A multi-address execution; lengths vary per address so the
    per-address instances are not cache-isomorphic."""
    ops: list[list[Operation]] = [[] for _ in range(nproc)]
    initial: dict = {}
    final: dict = {}
    for a in range(n_addr):
        addr = f"a{a}"
        sub = chain_address(
            addr, nproc, base_length + a, proc_offset=seed + a
        )
        for p in range(nproc):
            ops[p].extend(sub[p])
        initial[addr] = 0
        final[addr] = 0
    return Execution.from_ops(ops, initial=initial, final=final)


def build_corpus(quick: bool) -> list[Execution]:
    # nproc=8, length>=23 puts the per-address state estimate past the
    # exact-search budget, so the no-pre-pass baseline routes to SAT.
    if quick:
        return [corpus_execution(2, 8, 23, seed=0)]
    return [corpus_execution(4, 8, 23, seed=s) for s in range(3)]


# Skeletons with duplicated writes (so the read-map row cannot decide
# them) whose unknown reads enumerate into a mixed coherent/incoherent
# sweep — the `consistency.generate` corpus.
SKELETONS = [
    "P0: W(x,1) W(x,1) R(x,?) R(x,?)\nP1: W(x,2) R(x,?) W(x,1)",
    "P0: W(x,1) R(x,?) W(y,2) R(y,?)\n"
    "P1: W(y,2) R(y,?) W(x,1) R(x,?)",
    "P0: W(x,3) W(x,3) W(x,1) R(x,?)\nP1: W(x,2) R(x,?) R(x,?)",
]


def build_sweep(quick: bool) -> list[Execution]:
    from repro.consistency.generate import candidate_executions, skeleton

    programs = SKELETONS[:1] if quick else SKELETONS
    out: list[Execution] = []
    for text in programs:
        out.extend(candidate_executions(skeleton(text)))
    return out


def wide_execution(nproc: int, length: int) -> Execution:
    """All-writer instance with an unreachable final value.

    Every interleaving is a legal prefix (no reads to constrain
    anything), so the uncapped frontier search must exhaust the whole
    ~(length+1)^nproc state space to refute; the CNF route refutes at
    encoding time (the final value is never written).  The SAT leg's
    home turf — the complement of the chain family.  One value is
    written twice so the polynomial read-map row cannot decide it.
    """
    ops: list[list[Operation]] = []
    v = 1
    for p in range(nproc):
        row = []
        for i in range(length):
            val = 1 if p == nproc - 1 and i == length - 1 else v
            row.append(Operation(OpKind.WRITE, "w", p, i, value_written=val))
            v += 1
        ops.append(row)
    return Execution.from_ops(ops, initial={"w": 0}, final={"w": 999})


def build_fig_4_1_corpus(
    n: int, num_vars: int = 4, num_clauses: int = 12,
    satisfiable: bool | None = None,
) -> list[Execution]:
    """``n`` Figure 4.1 SAT -> VMC reductions of random 3-SAT formulas:
    the pre-pass shrinks each one but cannot decide or downgrade it, so
    the default engine races exact search against SAT on every one.
    ``satisfiable`` keeps only the formulas a brute-force enumeration
    labels so (coherent reductions)."""
    from repro.reductions.sat_to_vmc import SatToVmc
    from repro.sat.enumerate_models import brute_force_satisfiable
    from repro.sat.random_sat import random_ksat

    out: list[Execution] = []
    seed = 0
    while len(out) < n:
        cnf = random_ksat(num_vars, num_clauses, k=3, seed=seed)
        seed += 1
        if satisfiable is None or (
            (brute_force_satisfiable(cnf) is not None) == satisfiable
        ):
            out.append(SatToVmc(cnf).execution)
    return out


def build_race_corpus(quick: bool) -> list[Execution]:
    """Mixed corpus for the portfolio matrix: chain executions (exact
    wins), wide executions (SAT wins), the generate sweep (tiny, below
    the race cutoff) and Figure 4.1 reductions (raced)."""
    return (
        build_corpus(quick=True)
        + [wide_execution(6, 6)]
        + build_sweep(quick)
        + (
            build_fig_4_1_corpus(2, 3, 6) if quick
            else build_fig_4_1_corpus(4, 4, 8)
        )
    )


# The pre-pass/jobs matrix: the default engine against the SAT backend
# its router picks when nothing pre-passes.  ``jobs: 0`` means
# ``--jobs``; the engine then runs the process pool exactly when heavy
# tasks survive the pre-pass, and each arm records which loop ran.
CONFIGS: dict[str, dict] = {
    "baseline-serial": {"method": "sat-cdcl", "jobs": 1},
    "baseline-jobs": {"method": "sat-cdcl", "jobs": 0},
    "prepass-serial": {"jobs": 1},
    "prepass-jobs": {"jobs": 0},
}

# The portfolio matrix: the default engine vs each leg forced solo.
RACE_CONFIGS: dict[str, dict] = {
    "race-portfolio": {"jobs": 1},
    "race-exact-solo": {"method": "exact", "jobs": 1},
    "race-sat-solo": {"method": "sat-cdcl", "jobs": 1},
}

#: The regression guard: the race may cost at most this factor over the
#: better solo leg...
PORTFOLIO_GUARD_RATIO = 1.25
#: ...with an absolute slack floor, so sub-second medians (where race
#: startup overhead is proportionally large and noise dominates) cannot
#: false-fail CI.
PORTFOLIO_GUARD_SLACK_S = 0.25

# The resilience scenario: the mixed corpus under deterministic fault
# injection (worker crashes recovered by retry, plus stalled legs of
# the races on its Figure 4.1 reductions) versus the same corpus
# fault-free.  Rolls are seeded and keyed
# on (address, plan order), so the injected fault set is identical on
# every run and machine; seed 2 is chosen so the sweep tasks keyed
# 'x'#0 crash on their first attempt and recover on retry.
class _CountedChaos(ChaosSpec):
    """A chaos spec that counts the race legs it stalls, so the bench
    can tell a spec that still injects from one that drifted."""

    def leg_stall_s(self, key: str, leg: str) -> float:
        stall = super().leg_stall_s(key, leg)
        LEG_STALLS[0] += stall > 0
        return stall


LEG_STALLS = [0]
RESILIENCE_CHAOS = _CountedChaos(
    crash=0.1, leg_stall=0.5, stall_s=0.02, seed=2
)
RESILIENCE_CONFIGS: dict[str, dict] = {
    "resilience-faultfree": {
        "jobs": 1,
        "resilience": ResiliencePolicy(retries=3, backoff_s=0.001),
    },
    "resilience-chaos": {
        "jobs": 1,
        "resilience": ResiliencePolicy(
            retries=3, backoff_s=0.001, chaos=RESILIENCE_CHAOS
        ),
    },
}

#: Injected faults (crash retries + stalled legs) may cost at most this
#: factor over the fault-free run — recovery must stay cheap.
RESILIENCE_GUARD_RATIO = 1.3
RESILIENCE_GUARD_SLACK_S = 0.25

# The certification scenario: the mixed corpus verified with proof-
# carrying verdicts (witness replays, hb-cycle and infeasibility
# re-checks, DRAT-logged SAT refutations) versus the same corpus
# uncertified.  Certification trades the solver-side shortcuts (order
# hints, preprocessing) for an auditable proof, so it is not free — the
# guard keeps the premium honest.
CERTIFY_CONFIGS: dict[str, dict] = {
    "certify-off": {"jobs": 1, "certify": "off"},
    "certify-on": {"jobs": 1, "certify": "on"},
    "certify-strict": {"jobs": 1, "certify": "strict"},
}

#: Producing + validating certificates may cost at most this factor
#: over the uncertified run (the ISSUE's acceptance bound)...
CERTIFY_GUARD_RATIO = 1.25
#: ...with the same absolute slack floor as the other guards.
CERTIFY_GUARD_SLACK_S = 0.25

# The kernel-scaling scenario: one execution per size, chain blocks of
# ~1.6k ops per address (~800 forced reads-from pairs each, where the
# selection rule picks the packed-uint64 numpy saturation), verified
# twice: on the default path, where the rule picks the kernel, and with
# every saturation pinned to the int-bitset kernel.  The fitted log-log
# slope of wall time vs total ops is recorded — with bounded
# per-address blocks the data plane should scale ~linearly — and, when
# numpy is installed, the default path must beat the python-pinned one
# by SCALING_GUARD_SPEEDUP at the largest size.
SCALING_SIZES_FULL = [1_000, 5_000, 25_000, 100_000, 200_000]
SCALING_SIZES_QUICK = [1_000, 5_000, 25_000]
#: Chain length per address: ~2*len+1 ops per address block.
SCALING_BLOCK_LEN = 800
#: Required default-over-python-pinned speedup at the largest size.
SCALING_GUARD_SPEEDUP = 3.0


def build_scaling_execution(total_ops: int) -> Execution:
    """One multi-address execution of ~``total_ops`` operations, split
    into per-address chain blocks of ``2*SCALING_BLOCK_LEN + 1`` ops."""
    block_ops = 2 * SCALING_BLOCK_LEN + 1
    n_addr = max(1, round(total_ops / block_ops))
    nproc = 8
    ops: list[list[Operation]] = [[] for _ in range(nproc)]
    initial: dict = {}
    final: dict = {}
    for a in range(n_addr):
        addr = f"s{a}"
        sub = chain_address(addr, nproc, SCALING_BLOCK_LEN, proc_offset=a)
        for p in range(nproc):
            ops[p].extend(sub[p])
        initial[addr] = 0
        final[addr] = 0
    return Execution.from_ops(ops, initial=initial, final=final)


def run_scaling(quick: bool) -> tuple[dict, bool]:
    """Time the default path and the python-pinned path across the size
    ladder (one repeat — the large sizes dominate and the comparison is
    across arms on identical instances, not across noisy repeats)."""
    from repro.core import infer, kernels

    sizes = SCALING_SIZES_QUICK if quick else SCALING_SIZES_FULL
    arms = {"python": math.inf, "default": infer.NUMPY_MIN_FORCED}
    times: dict[str, list[float]] = {arm: [] for arm in arms}
    actual_ops: list[int] = []
    try:
        for size in sizes:
            ex = build_scaling_execution(size)
            actual_ops.append(ex.num_ops)
            for arm, limit in arms.items():
                infer.NUMPY_MIN_FORCED = limit
                t0 = time.perf_counter()
                r = verify_vmc(ex, jobs=1, cache=False)
                dt = time.perf_counter() - t0
                times[arm].append(round(dt, 4))
                if not r:
                    print(
                        f"error: the {arm} arm flagged the {size}-op "
                        f"scaling execution", file=sys.stderr,
                    )
                    raise SystemExit(1)
            row = "  ".join(
                f"{arm}={times[arm][-1] * 1e3:>9.1f}ms" for arm in arms
            )
            print(f"scaling {actual_ops[-1]:>7} ops  {row}")
    finally:
        infer.NUMPY_MIN_FORCED = arms["default"]

    exponents = {
        arm: round(fit_loglog_slope(actual_ops, times[arm]), 3) for arm in arms
    }
    print(
        "scaling exponents (fitted wall-time vs ops): "
        + ", ".join(f"{arm}={e}" for arm, e in exponents.items())
    )
    speedup = None
    guard_ok = True
    if "numpy" in kernels.available_backends():
        speedup = (
            round(times["python"][-1] / times["default"][-1], 2)
            if times["default"][-1]
            else None
        )
        guard_ok = speedup is not None and speedup >= SCALING_GUARD_SPEEDUP
        print(
            f"scaling default-path speedup over python-pinned at "
            f"{actual_ops[-1]} ops: {speedup}x "
            f"({'ok' if guard_ok else 'REGRESSION'}; guard "
            f">={SCALING_GUARD_SPEEDUP}x)"
        )
    else:
        print("scaling: numpy unavailable, speedup guard skipped")
    payload = {
        "sizes_requested": sizes,
        "ops": actual_ops,
        "block_ops": 2 * SCALING_BLOCK_LEN + 1,
        "times_s": times,
        "fitted_exponent": exponents,
        "numpy_speedup_at_max": speedup,
        "guard_ok": guard_ok,
    }
    return payload, guard_ok


# The streaming scenario: a commit-ordered multi-address stream where
# every process keeps touching every address, so the monitor's
# eviction horizon (the minimum per-process cursor) advances and the
# retained window stays bounded.  The from-scratch arm re-verifies the
# whole growing prefix at STREAMING_CHECKPOINTS evenly spaced points —
# what a monitor without incremental state would have to do — and is
# quadratic in stream length, so it is capped at
# STREAMING_RESCAN_CAP ops; rungs above it time the incremental arm
# only.
STREAMING_SIZES_FULL = [1_600, 12_800, 102_400, 1_024_000]
STREAMING_SIZES_QUICK = [1_600, 12_800]
STREAMING_WINDOW = 1_024
STREAMING_NPROC = 4
STREAMING_NADDR = 8
STREAMING_CHECKPOINTS = 10
STREAMING_RESCAN_CAP = 102_400
#: Incremental must beat from-scratch by this factor at the top rung
#: both arms run (the ISSUE acceptance bound).
STREAMING_GUARD_SPEEDUP = 10.0
#: Steady-state throughput may not *degrade* past this factor from the
#: first eviction-active rung to the last — the superlinear-cost
#: signal.  Single-run rung timings swing ~1.3-1.7x on busy machines
#: (the small rungs are tens-of-ms measurements), so the cap is set
#: where only real asymptotic drift can reach it: quadratic cost
#: would degrade ~10x per decade of stream length, not 2x across the
#: whole ladder.  The window guard below is the sharp superlinear
#: signal; this one catches gross per-op cost growth.
STREAMING_GUARD_RATIO = 2.0
#: The retained window may not grow with stream length: the top rung's
#: peak must stay within this factor of the first eviction-active rung.
STREAMING_GUARD_WINDOW = 2.0


def streaming_schedule(total_ops: int) -> list:
    """A coherent commit-ordered stream of ``total_ops`` operations.

    Round ``r`` writes a fresh value to address ``r % NADDR`` and has
    the next process read it back; the writing process rotates
    *independently* of the address (``r // NADDR + r``), so every
    process keeps touching every address — otherwise a never-seen
    process would soundly pin each monitor's eviction horizon at gap 0
    and the window would grow without bound.
    """
    ops: list[Operation] = []
    val = [0] * STREAMING_NADDR
    nxt = [0] * STREAMING_NPROC
    r = 0
    while len(ops) < total_ops:
        a = r % STREAMING_NADDR
        addr = f"m{a}"
        p = (r // STREAMING_NADDR + r) % STREAMING_NPROC
        val[a] += 1
        ops.append(
            Operation(OpKind.WRITE, addr, p, nxt[p], value_written=val[a])
        )
        nxt[p] += 1
        if len(ops) >= total_ops:
            break
        q = (p + 1) % STREAMING_NPROC
        ops.append(
            Operation(OpKind.READ, addr, q, nxt[q], value_read=val[a])
        )
        nxt[q] += 1
        r += 1
    return ops


def _streaming_initial() -> dict:
    return {f"m{a}": 0 for a in range(STREAMING_NADDR)}


def _prefix_execution(schedule: list, k: int) -> Execution:
    hist: list[list[Operation]] = [[] for _ in range(STREAMING_NPROC)]
    for op in schedule[:k]:
        hist[op.proc].append(op)
    return Execution.from_ops(hist, initial=_streaming_initial())


def run_streaming(quick: bool) -> tuple[dict, bool]:
    """Time the incremental monitor against from-scratch re-verification
    across the stream-length ladder."""
    from repro.engine import StreamingVerifier

    sizes = STREAMING_SIZES_QUICK if quick else STREAMING_SIZES_FULL
    rungs: list[dict] = []
    for size in sizes:
        schedule = streaming_schedule(size)

        sv = StreamingVerifier(
            STREAMING_NPROC,
            initial=_streaming_initial(),
            window=STREAMING_WINDOW,
        )
        t0 = time.perf_counter()
        for op in schedule:
            sv.feed_op(op)
        verdict = sv.finalize()
        inc_s = time.perf_counter() - t0
        snap = sv.snapshot()
        if verdict.kind != "final" or not verdict.result.holds:
            print(
                f"error: streaming monitor flagged the coherent "
                f"{size}-op stream ({verdict.kind})", file=sys.stderr,
            )
            raise SystemExit(1)

        rescan_s = None
        if size <= STREAMING_RESCAN_CAP:
            step = max(1, size // STREAMING_CHECKPOINTS)
            t0 = time.perf_counter()
            for k in range(step, size + 1, step):
                r = verify_vmc(_prefix_execution(schedule, k), cache=False)
                if not r:
                    print(
                        f"error: from-scratch arm flagged a coherent "
                        f"{k}-op prefix", file=sys.stderr,
                    )
                    raise SystemExit(1)
            rescan_s = round(time.perf_counter() - t0, 4)

        rung = {
            "ops": size,
            "incremental_s": round(inc_s, 4),
            "ops_per_s": round(size / inc_s) if inc_s else None,
            "peak_window": snap["peak_window"],
            "evicted": snap["evicted"],
            "rescan_s": rescan_s,
            "rescan_speedup": (
                round(rescan_s / inc_s, 1) if rescan_s and inc_s else None
            ),
        }
        rungs.append(rung)
        rs = f"{rescan_s:>9.3f}s" if rescan_s is not None else "   (skip)"
        print(
            f"streaming {size:>9} ops  incremental {inc_s:>8.3f}s "
            f"({rung['ops_per_s']:>9,} ops/s)  from-scratch {rs}  "
            f"peak window {snap['peak_window']}  evicted {snap['evicted']}"
        )
        del schedule

    shared = [r for r in rungs if r["rescan_speedup"] is not None]
    speedup = shared[-1]["rescan_speedup"] if shared else None
    speedup_ok = speedup is not None and speedup >= STREAMING_GUARD_SPEEDUP

    steady = [r for r in rungs if r["evicted"]]
    if len(steady) >= 2:
        rates = [r["ops_per_s"] for r in steady]
        throughput_ok = rates[0] <= STREAMING_GUARD_RATIO * rates[-1]
        window_ok = (
            steady[-1]["peak_window"]
            <= STREAMING_GUARD_WINDOW * steady[0]["peak_window"]
        )
    else:
        throughput_ok = window_ok = True

    guard_ok = speedup_ok and throughput_ok and window_ok
    print(
        f"streaming speedup at top shared rung: {speedup}x "
        f"({'ok' if speedup_ok else 'REGRESSION'}; guard "
        f">={STREAMING_GUARD_SPEEDUP}x), steady-state throughput "
        f"{'ok' if throughput_ok else 'REGRESSION'} (guard "
        f"{STREAMING_GUARD_RATIO}x), window "
        f"{'bounded' if window_ok else 'GROWING'}"
    )
    payload = {
        "window": STREAMING_WINDOW,
        "nproc": STREAMING_NPROC,
        "addresses": STREAMING_NADDR,
        "checkpoints": STREAMING_CHECKPOINTS,
        "rescan_cap_ops": STREAMING_RESCAN_CAP,
        "rungs": rungs,
        "speedup_at_top_shared_rung": speedup,
        "steady_state_ops_per_s": (
            steady[-1]["ops_per_s"] if steady else rungs[-1]["ops_per_s"]
        ),
        "guard_ok": guard_ok,
    }
    return payload, guard_ok


# The persistent-store scenario: chain executions forced onto the SAT
# backend (``method="sat-cdcl"``: no pre-pass, no race), so every
# unique (execution, address) instance pays a deterministic SAT solve
# that dominates the canonicalization both cold and warm arms share.
# Lengths vary per seed so no two instances canonicalize to the same
# fingerprint — the arms measure store round-trips, not batch-internal
# dedup (that has its own tests).
#: Warm (store-served) must beat cold (store-populating) by this
#: factor.  The headline result is far larger — a disk read versus a
#: SAT solve — but CI machines are noisy, so the guard is conservative.
STORE_GUARD_WARM_SPEEDUP = 3.0
#: Routing through the batch engine with the store disabled may cost
#: at most this factor over the direct ``verify_vmc`` loop...
STORE_GUARD_DISABLED_RATIO = 1.05
#: ...with an absolute slack floor for sub-second noise.
STORE_GUARD_DISABLED_SLACK_S = 0.1
#: The process-pool cold arm must beat the serial cold arm by this
#: factor — enforced only on machines with >= STORE_JOBS_MIN_CPUS
#: cores, since a pool cannot outrun serial on a single-core container.
STORE_GUARD_JOBS_SPEEDUP = 2.0
STORE_JOBS_MIN_CPUS = 4


def build_store_corpus(quick: bool) -> list[Execution]:
    """Solve-heavy chain executions whose per-address lengths are all
    distinct, so every (execution, address) task is store-unique."""
    if quick:
        return [
            corpus_execution(1, 8, 23 + 2 * s, seed=s) for s in range(2)
        ]
    return [corpus_execution(2, 8, 23 + 2 * s, seed=s) for s in range(3)]


def run_store(quick: bool, jobs: int) -> tuple[dict, bool]:
    """Time the persistent result store: disabled vs cold vs warm vs a
    process-pool cold run (store I/O stays in the parent), against the
    direct-loop baseline."""
    import os
    import tempfile

    corpus = build_store_corpus(quick)
    n_tasks = sum(len(ex.constrained_addresses()) for ex in corpus)
    print(
        f"store corpus: {len(corpus)} executions, {n_tasks} unique "
        f"address instances"
    )

    def arm(cache: ResultCache, store, njobs: int = 1):
        """One timed batch; returns its wall, holds count and record."""
        t0 = time.perf_counter()
        with obs.opened() as rec:
            outcomes = verify_many(
                corpus, jobs=njobs, cache=cache, store=store,
                method="sat-cdcl",
            )
        dt = time.perf_counter() - t0
        holds = sum(
            o.error is None and o.result is not None and o.result.holds
            for o in outcomes
        )
        return round(dt, 4), holds, rec

    # Direct-loop baseline: the corpus without the batch engine at all
    # — what the disabled arm's overhead is guarded against.
    t0 = time.perf_counter()
    base_holds = 0
    for ex in corpus:
        r = verify_vmc(ex, method="sat-cdcl", jobs=1, cache=False)
        base_holds += bool(r)
    baseline_s = round(time.perf_counter() - t0, 4)
    print(f"store baseline-loop   {baseline_s * 1e3:>9.1f}ms")

    disabled_s, disabled_holds, _ = arm(ResultCache(), None)
    print(f"store disabled        {disabled_s * 1e3:>9.1f}ms")

    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as tmp:
        serial_dir = os.path.join(tmp, "serial")
        with ResultStore(serial_dir) as store:
            cold_s, cold_holds, cold_rec = arm(
                ResultCache(store=store), store
            )
            cold_stores = cold_rec["store.stores"]
        print(
            f"store cold            {cold_s * 1e3:>9.1f}ms  "
            f"(stored {cold_stores} records)"
        )
        # Warm: same store directory, fresh store handle and fresh
        # cache — every verdict must come off disk, none re-solved.
        with ResultStore(serial_dir) as store:
            warm_s, warm_holds, warm_rec = arm(ResultCache(store=store), store)
            warm_prov = {
                k: v for k, v in warm_rec.group("provenance").items() if v
            }
            warm_hits = warm_rec["cache.store_hits"]
            warm_failures = warm_rec["cache.store_revalidation_failures"]
        print(
            f"store warm            {warm_s * 1e3:>9.1f}ms  "
            f"(store hits {warm_hits}, solved "
            f"{warm_prov.get('solved', 0)})"
        )
        with ResultStore(os.path.join(tmp, "pool")) as store:
            jobs_s, jobs_holds, _ = arm(
                ResultCache(store=store), store, njobs=jobs
            )
        print(f"store cold jobs={jobs}   {jobs_s * 1e3:>9.1f}ms")

    warm_speedup = round(cold_s / warm_s, 2) if warm_s else None
    disabled_overhead = (
        round(disabled_s / baseline_s, 3) if baseline_s else None
    )
    jobs_speedup = round(cold_s / jobs_s, 2) if jobs_s else None
    cpus = os.cpu_count() or 1

    verdict_ok = (
        base_holds == len(corpus)
        and disabled_holds == len(corpus)
        and cold_holds == warm_holds == jobs_holds == len(corpus)
    )
    if not verdict_ok:
        print("error: store arms disagree on verdicts", file=sys.stderr)
    warm_ok = (
        warm_speedup is not None
        and warm_speedup >= STORE_GUARD_WARM_SPEEDUP
    )
    served_ok = (
        "solved" not in warm_prov
        and warm_hits == cold_stores
        and warm_failures == 0
    )
    if not served_ok:
        print(
            f"error: warm arm was not fully store-served (hits "
            f"{warm_hits}/{cold_stores}, solved "
            f"{warm_prov.get('solved', 0)}, revalidation failures "
            f"{warm_failures})", file=sys.stderr,
        )
    disabled_ok = (
        disabled_s <= STORE_GUARD_DISABLED_RATIO * baseline_s
        or disabled_s - baseline_s <= STORE_GUARD_DISABLED_SLACK_S
    )
    jobs_enforced = cpus >= STORE_JOBS_MIN_CPUS
    jobs_ok = not jobs_enforced or (
        jobs_speedup is not None
        and jobs_speedup >= STORE_GUARD_JOBS_SPEEDUP
    )
    guard_ok = (
        verdict_ok and warm_ok and served_ok and disabled_ok and jobs_ok
    )
    jobs_note = (
        f"{jobs_speedup}x ({'ok' if jobs_ok else 'REGRESSION'}; guard "
        f">={STORE_GUARD_JOBS_SPEEDUP}x)"
        if jobs_enforced
        else f"{jobs_speedup}x (guard skipped: {cpus} cpu)"
    )
    print(
        f"store warm speedup {warm_speedup}x "
        f"({'ok' if warm_ok else 'REGRESSION'}; guard "
        f">={STORE_GUARD_WARM_SPEEDUP}x), disabled overhead "
        f"{disabled_overhead}x "
        f"({'ok' if disabled_ok else 'REGRESSION'}; guard "
        f"{STORE_GUARD_DISABLED_RATIO}x + "
        f"{STORE_GUARD_DISABLED_SLACK_S}s slack), pool {jobs_note}"
    )
    payload = {
        "executions": len(corpus),
        "unique_instances": n_tasks,
        "jobs": jobs,
        "cpu_count": cpus,
        "baseline_loop_s": baseline_s,
        "disabled_s": disabled_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "cold_jobs_s": jobs_s,
        "cold_records_stored": cold_stores,
        "warm_store_hits": warm_hits,
        "warm_revalidation_failures": warm_failures,
        "warm_speedup": warm_speedup,
        "disabled_overhead": disabled_overhead,
        "jobs_speedup": jobs_speedup,
        "jobs_guard_enforced": jobs_enforced,
        "guard_ok": guard_ok,
    }
    return payload, guard_ok


#: Warm daemon requests (served from the tenant's memory/store tier)
#: must beat the cold solve pass by this factor; the ratio guard is
#: skipped when the cold pass is too fast for it to mean anything.
SERVICE_GUARD_WARM_SPEEDUP = 2.0
SERVICE_COLD_FLOOR_S = 0.5
#: An idle daemon must finish its drain handshake within this bound.
SERVICE_GUARD_DRAIN_S = 10.0


def build_service_corpus(quick: bool) -> list[Execution]:
    """Solve-heavy coherent executions, one request each — cold
    requests pay a race, warm re-runs must be answered off the tenant
    tier."""
    return build_fig_4_1_corpus(6 if quick else 10, satisfiable=True)


def run_service(quick: bool) -> tuple[dict, bool]:
    """Daemon round-trip throughput: a cold pass over a fresh tenant vs
    a warm re-run of the same corpus through one ``repro serve``
    instance, plus the latency of the final drain handshake."""
    import os
    import tempfile

    from repro.service import (
        ServiceClient,
        ServiceConfig,
        VerificationServer,
    )

    corpus = build_service_corpus(quick)
    print(f"service corpus: {len(corpus)} executions (one request each)")

    direct_holds = sum(
        bool(verify_vmc(ex, jobs=1, cache=False)) for ex in corpus
    )

    def campaign(sock: str, tag: str):
        t0 = time.perf_counter()
        resps = []
        with ServiceClient(sock, timeout=120) as client:
            for i, ex in enumerate(corpus):
                resps.append(
                    client.verify(
                        ex, req_id=f"{tag}-{i}", retries=200,
                        retry_wait_s=0.02,
                    )
                )
        return round(time.perf_counter() - t0, 4), resps

    with tempfile.TemporaryDirectory(prefix="repro-bench-service-") as tmp:
        sock = os.path.join(tmp, "bench.sock")
        srv = VerificationServer(
            ServiceConfig(
                socket_path=sock,
                workers=2,
                store_root=os.path.join(tmp, "stores"),
            )
        )
        srv.start()
        deadline = time.monotonic() + 10
        while not os.path.exists(sock):
            if time.monotonic() > deadline:
                print("error: service socket never appeared",
                      file=sys.stderr)
                return {"guard_ok": False}, False
            time.sleep(0.01)

        cold_s, cold = campaign(sock, "cold")
        warm_s, warm = campaign(sock, "warm")
        t0 = time.perf_counter()
        srv.request_drain("bench complete")
        drained = srv.wait(timeout=30)
        drain_s = round(time.perf_counter() - t0, 4)

    cold_holds = sum(r["verdict"] == "holds" for r in cold)
    warm_holds = sum(r["verdict"] == "holds" for r in warm)
    warm_solved = sum(r["provenance"].get("solved", 0) for r in warm)
    warm_served = sum(
        r["provenance"].get("memory", 0) + r["provenance"].get("store", 0)
        for r in warm
    )
    cold_rps = round(len(corpus) / cold_s, 2) if cold_s else None
    warm_rps = round(len(corpus) / warm_s, 2) if warm_s else None
    warm_speedup = round(cold_s / warm_s, 2) if warm_s else None
    print(f"service cold          {cold_s * 1e3:>9.1f}ms  ({cold_rps} req/s)")
    print(f"service warm          {warm_s * 1e3:>9.1f}ms  ({warm_rps} req/s)")
    print(f"service drain         {drain_s * 1e3:>9.1f}ms")

    verdict_ok = (
        direct_holds == cold_holds == warm_holds == len(corpus)
    )
    if not verdict_ok:
        print(
            f"error: service arms disagree on verdicts (direct "
            f"{direct_holds}, cold {cold_holds}, warm {warm_holds} of "
            f"{len(corpus)})", file=sys.stderr,
        )
    served_ok = warm_solved == 0 and warm_served >= len(corpus)
    if not served_ok:
        print(
            f"error: warm requests were not tier-served (solved "
            f"{warm_solved}, memory/store {warm_served})", file=sys.stderr,
        )
    warm_ok = (
        cold_s < SERVICE_COLD_FLOOR_S
        or (
            warm_speedup is not None
            and warm_speedup >= SERVICE_GUARD_WARM_SPEEDUP
        )
    )
    drain_ok = drained and drain_s <= SERVICE_GUARD_DRAIN_S
    guard_ok = verdict_ok and served_ok and warm_ok and drain_ok
    print(
        f"service warm speedup {warm_speedup}x "
        f"({'ok' if warm_ok else 'REGRESSION'}; guard "
        f">={SERVICE_GUARD_WARM_SPEEDUP}x past the "
        f"{SERVICE_COLD_FLOOR_S}s cold floor), drain "
        f"{'ok' if drain_ok else 'REGRESSION'} (guard "
        f"<={SERVICE_GUARD_DRAIN_S}s)"
    )
    payload = {
        "requests": len(corpus),
        "cold_s": cold_s,
        "warm_s": warm_s,
        "cold_requests_per_s": cold_rps,
        "warm_requests_per_s": warm_rps,
        "warm_speedup": warm_speedup,
        "warm_solved": warm_solved,
        "warm_tier_served": warm_served,
        "drain_s": drain_s,
        "drain_clean": bool(drained),
        "guard_ok": guard_ok,
    }
    return payload, guard_ok


#: A warm campaign re-run (same run cache and store, fresh in-memory
#: state) must beat the cold sweep's wall clock by this factor.
#: Simulation is seeded and deterministic, so every decided run is
#: replayed from the campaign run cache — the warm pass neither
#: simulates nor solves, it just re-aggregates recorded outcomes.  The
#: ratio guard is skipped when the cold sweep is too fast to measure.
CAMPAIGN_GUARD_WARM_SPEEDUP = 3.0
CAMPAIGN_COLD_FLOOR_S = 0.2


def run_campaign_bench(quick: bool, jobs: int) -> tuple[dict, bool]:
    """Fault-campaign scenario: a certified fault-injection sweep
    against a fresh persistent store and run cache, then a warm re-run
    of the identical sweep.  Guards: the ground-truth contract holds on
    both passes (zero false alarms, zero missed visibles, full
    coverage), the warm pass replays every run from the cache without
    solving anything, and the warm sweep beats the cold one by the
    factor above."""
    import tempfile

    from repro.memsys.campaign import campaign_table, run_campaign
    from repro.memsys.faults import FaultKind

    kwargs = dict(
        # A representative mixed corpus: visible-prone sites (dropped
        # or corrupted data, writeback races) alongside a latent-prone
        # directory site, with ambiguous small-value traces so the
        # verifier works for its verdicts.
        sites=[
            FaultKind.DROPPED_WRITE,
            FaultKind.CORRUPTED_VALUE,
            FaultKind.WB_RACE_CORRUPT,
            FaultKind.STALE_SHARER,
        ],
        substrates=["directory"],
        runs_per_cell=8 if quick else 16,
        num_processors=8,
        ops_per_processor=40,
        values="small",
        fault_rate=0.15,
        certify="on",
        # Serial verification: pool spawn noise would swamp the
        # cold-vs-warm ratio on small corpora (the pool scenario is the
        # store matrix's job, not this one's).
        jobs=1,
    )

    def sweep(store: ResultStore, run_cache: Path):
        # A fresh result cache per pass: the second sweep may only
        # warm-start from what the first persisted, not shared memory.
        cache = ResultCache(store=store)
        t0 = time.perf_counter()
        report = run_campaign(
            cache=cache, store=store, run_cache=run_cache, **kwargs
        )
        return round(time.perf_counter() - t0, 4), report

    with tempfile.TemporaryDirectory(prefix="repro-bench-campaign-") as tmp:
        store = ResultStore(Path(tmp) / "store")
        run_cache = Path(tmp) / "runs"
        cold_s, cold = sweep(store, run_cache)
        warm_s, warm = sweep(store, run_cache)

    cold_eps = round(cold.total_runs / cold_s, 1) if cold_s else None
    warm_eps = round(cold.total_runs / warm_s, 1) if warm_s else None
    print(
        f"campaign corpus: {cold.total_runs} runs over "
        f"{len(cold.cells)} cells, {cold.total_injections} injections"
    )
    print(
        f"campaign cold         {cold_s * 1e3:>9.1f}ms  "
        f"({cold_eps} exec/s; verify {cold.verify_s * 1e3:.1f}ms)"
    )
    print(
        f"campaign warm         {warm_s * 1e3:>9.1f}ms  "
        f"({warm_eps} exec/s; "
        f"{warm.provenance.get('run-cache', 0)} replayed)"
    )

    contract_ok = cold.contract_ok and warm.contract_ok
    if not contract_ok:
        print("error: campaign ground-truth contract breached:",
              file=sys.stderr)
        for failure in (cold.contract_failures + warm.contract_failures)[:10]:
            print(f"  {failure}", file=sys.stderr)
        print(campaign_table(cold), file=sys.stderr)
    alarms_ok = all(c.false_alarms == 0 for c in cold.cells + warm.cells)
    injected_ok = (
        cold.total_injections > 0
        and any(c.latent > 0 for c in cold.cells)
        and sum(c.detected_visible for c in cold.cells) > 0
    )
    if not injected_ok:
        print("error: campaign injected no classified faults (injector "
              "or oracle drifted?)", file=sys.stderr)
    certified_ok = cold.certified > 0 and cold.errors == 0 and warm.errors == 0
    if not certified_ok:
        print(
            f"error: campaign certification/coverage failed (certified "
            f"{cold.certified}, errors {cold.errors}/{warm.errors})",
            file=sys.stderr,
        )
    warm_replayed = warm.provenance.get("run-cache", 0)
    warm_solved = warm.provenance.get("solved", 0)
    served_ok = warm_solved == 0 and warm_replayed == warm.total_runs
    if not served_ok:
        print(
            f"error: warm campaign replayed {warm_replayed}/"
            f"{warm.total_runs} runs and solved {warm_solved} instances "
            f"instead of replaying everything from the run cache",
            file=sys.stderr,
        )
    warm_speedup = round(cold_s / warm_s, 2) if warm_s else None
    warm_ok = (
        cold_s < CAMPAIGN_COLD_FLOOR_S
        or (
            warm_speedup is not None
            and warm_speedup >= CAMPAIGN_GUARD_WARM_SPEEDUP
        )
    )
    guard_ok = (
        contract_ok and alarms_ok and injected_ok and certified_ok
        and served_ok and warm_ok
    )
    print(
        f"campaign contract {'OK' if contract_ok else 'BREACHED'}, warm "
        f"sweep speedup {warm_speedup}x "
        f"({'ok' if warm_ok else 'REGRESSION'}; guard "
        f">={CAMPAIGN_GUARD_WARM_SPEEDUP}x past the "
        f"{CAMPAIGN_COLD_FLOOR_S}s cold floor)"
    )
    payload = {
        "runs": cold.total_runs,
        "cells": len(cold.cells),
        "injections": cold.total_injections,
        "visible_runs": sum(c.visible_runs for c in cold.cells),
        "detected_visible": sum(c.detected_visible for c in cold.cells),
        "latent_events": sum(c.latent for c in cold.cells),
        "false_alarms": sum(c.false_alarms for c in cold.cells),
        "certified": cold.certified,
        "contract_ok": contract_ok,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "cold_executions_per_s": cold_eps,
        "warm_executions_per_s": warm_eps,
        "cold_verify_s": cold.verify_s,
        "warm_replayed": warm_replayed,
        "warm_solved": warm_solved,
        "warm_speedup": warm_speedup,
        "guard_ok": guard_ok,
    }
    return payload, guard_ok


def run_config(
    corpus: list[Execution], cfg: dict, jobs: int, repeats: int
) -> dict:
    njobs = cfg["jobs"] or jobs
    method = cfg.get("method", "auto")
    resilience = cfg.get("resilience")
    certify = cfg.get("certify", "off")
    times: list[float] = []
    holds = 0
    unknowns = 0
    crashes = retries = quarantined = 0
    pools: set[str] = set()
    certified = uncertified = 0
    prepass_stats: dict[str, int] = {}
    races = 0
    race_wins: dict[str, int] = {}
    for rep in range(repeats):
        t0 = time.perf_counter()
        for ex in corpus:
            r = verify_vmc(
                ex,
                method=method,
                jobs=njobs,
                cache=False,
                resilience=resilience,
                certify=certify,
            )
            if rep == 0:
                rec = r.report
                pools.add(rec.info["pool"])
                holds += bool(r)
                unknowns += r.unknown
                crashes += rec["resilience.crashes"]
                retries += rec["resilience.retries"]
                quarantined += rec["resilience.quarantined"]
                certified += rec["certify.certified"]
                uncertified += rec["certify.uncertified"]
                for k, v in rec.group("prepass").items():
                    prepass_stats[k] = prepass_stats.get(k, 0) + v
                for k, v in rec.group("portfolio").items():
                    if k == "races":
                        races += v
                    elif k.startswith("wins."):
                        leg = k[len("wins."):]
                        race_wins[leg] = race_wins.get(leg, 0) + v
        times.append(time.perf_counter() - t0)
    out = {
        "method": method,
        "jobs": njobs,
        "pool": "+".join(sorted(pools)),
        "times_s": [round(t, 4) for t in times],
        "median_s": round(statistics.median(times), 4),
        "holds": holds,
        "instances": len(corpus),
        "prepass_counters": prepass_stats,
    }
    if races:
        out["races"] = races
        out["race_wins"] = race_wins
    if resilience is not None:
        out["unknown"] = unknowns
        out["crashes"] = crashes
        out["retries"] = retries
        out["quarantined"] = quarantined
    if certify != "off":
        out["certify"] = certify
        out["unknown"] = unknowns
        out["certified"] = certified
        out["uncertified"] = uncertified
    return out


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        ).stdout.strip()
    except Exception:
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--quick", action="store_true",
        help="small corpus / fewer repeats (the CI configuration)",
    )
    ap.add_argument("--jobs", type=int, default=4, help="pool width")
    ap.add_argument(
        "--repeats", type=int, default=0,
        help="timing repeats per configuration (default 2 quick / 3 full)",
    )
    ap.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_engine.json"),
        help="output JSON path",
    )
    args = ap.parse_args(argv)
    repeats = args.repeats or (2 if args.quick else 3)

    corpus = build_corpus(args.quick)
    total_ops = sum(ex.num_ops for ex in corpus)
    n_addr = sum(len(ex.constrained_addresses()) for ex in corpus)
    print(
        f"chain corpus: {len(corpus)} executions, {n_addr} addresses, "
        f"{total_ops} ops; jobs={args.jobs}, repeats={repeats}"
    )

    results: dict[str, dict] = {}
    for name, cfg in CONFIGS.items():
        results[name] = run_config(corpus, cfg, args.jobs, repeats)
        r = results[name]
        print(
            f"{name:<18} median {r['median_s'] * 1e3:>9.1f}ms  "
            f"(method={r['method']}, "
            f"jobs={r['jobs']}, pool={r['pool']})"
        )
        if r["holds"] != r["instances"]:
            print(f"error: {name} flagged a coherent chain execution",
                  file=sys.stderr)
            return 1

    base = results["baseline-serial"]["median_s"]
    speedups = {
        name: round(base / r["median_s"], 2) if r["median_s"] else None
        for name, r in results.items()
    }
    print("speedup vs baseline-serial: " + ", ".join(
        f"{n}={s}x" for n, s in speedups.items() if n != "baseline-serial"
    ))

    # Mixed-verdict sweep over consistency.generate candidates: the
    # verdict distribution must be identical under every configuration
    # (a bench-embedded differential check), timed serially per config.
    sweep = build_sweep(args.quick)
    print(f"sweep corpus: {len(sweep)} candidate executions")
    sweep_results: dict[str, dict] = {}
    for name in ("baseline-serial", "prepass-serial"):
        sweep_results[name] = run_config(
            sweep, CONFIGS[name], args.jobs, repeats
        )
        r = sweep_results[name]
        print(
            f"sweep {name:<16} median {r['median_s'] * 1e3:>8.1f}ms  "
            f"coherent {r['holds']}/{r['instances']}"
        )
    if (
        sweep_results["baseline-serial"]["holds"]
        != sweep_results["prepass-serial"]["holds"]
    ):
        print("error: pre-pass changed sweep verdicts", file=sys.stderr)
        return 1

    # Portfolio matrix: race vs each solo leg on the mixed corpus.
    race_corpus = build_race_corpus(args.quick)
    print(f"race corpus: {len(race_corpus)} executions (mixed families)")
    race_results: dict[str, dict] = {}
    for name, cfg in RACE_CONFIGS.items():
        race_results[name] = run_config(race_corpus, cfg, args.jobs, repeats)
        r = race_results[name]
        extra = (
            f"  races={r['races']} wins={r['race_wins']}"
            if r.get("races")
            else ""
        )
        print(
            f"{name:<18} median {r['median_s'] * 1e3:>9.1f}ms  "
            f"coherent {r['holds']}/{r['instances']}{extra}"
        )
    arms = list(race_results.values())
    if any(a["holds"] != arms[0]["holds"] for a in arms[1:]):
        print("error: portfolio arms disagree on verdicts", file=sys.stderr)
        return 1
    if not race_results["race-portfolio"].get("races"):
        print("error: the default engine raced nothing on the race corpus",
              file=sys.stderr)
        return 1

    portfolio_median = race_results["race-portfolio"]["median_s"]
    best_solo = min(
        race_results["race-exact-solo"]["median_s"],
        race_results["race-sat-solo"]["median_s"],
    )
    guard_ok = (
        portfolio_median <= PORTFOLIO_GUARD_RATIO * best_solo
        or portfolio_median - best_solo <= PORTFOLIO_GUARD_SLACK_S
    )
    print(
        f"portfolio {portfolio_median * 1e3:.1f}ms vs best solo "
        f"{best_solo * 1e3:.1f}ms "
        f"({'ok' if guard_ok else 'REGRESSION'}; guard "
        f"{PORTFOLIO_GUARD_RATIO}x + {PORTFOLIO_GUARD_SLACK_S}s slack)"
    )

    # Resilience scenario: the same mixed corpus with deterministic
    # injected crashes and stalled legs — recovery overhead is guarded.
    resilience_results: dict[str, dict] = {}
    for name, cfg in RESILIENCE_CONFIGS.items():
        LEG_STALLS[0] = 0
        resilience_results[name] = run_config(
            race_corpus, cfg, args.jobs, repeats
        )
        r = resilience_results[name]
        r["leg_stalls"] = LEG_STALLS[0]
        print(
            f"{name:<22} median {r['median_s'] * 1e3:>9.1f}ms  "
            f"coherent {r['holds']}/{r['instances']}  "
            f"crashes={r['crashes']} retries={r['retries']} "
            f"quarantined={r['quarantined']} unknown={r['unknown']} "
            f"leg_stalls={r['leg_stalls']}"
        )
    faultfree = resilience_results["resilience-faultfree"]
    chaotic = resilience_results["resilience-chaos"]
    if chaotic["crashes"] == 0:
        print("error: chaos arm injected no crashes (spec drifted?)",
              file=sys.stderr)
        return 1
    if chaotic["leg_stalls"] == 0:
        print("error: chaos arm stalled no race leg (spec drifted?)",
              file=sys.stderr)
        return 1
    if chaotic["unknown"] or chaotic["holds"] != faultfree["holds"]:
        print("error: injected faults changed verdicts", file=sys.stderr)
        return 1
    resilience_ok = (
        chaotic["median_s"]
        <= RESILIENCE_GUARD_RATIO * faultfree["median_s"]
        or chaotic["median_s"] - faultfree["median_s"]
        <= RESILIENCE_GUARD_SLACK_S
    )
    print(
        f"resilience {chaotic['median_s'] * 1e3:.1f}ms vs fault-free "
        f"{faultfree['median_s'] * 1e3:.1f}ms "
        f"({'ok' if resilience_ok else 'REGRESSION'}; guard "
        f"{RESILIENCE_GUARD_RATIO}x + {RESILIENCE_GUARD_SLACK_S}s slack)"
    )

    # Certification scenario: the same mixed corpus with proof-carrying
    # verdicts on and strict vs off — verdicts must not move, every
    # decided verdict must certify, and the premium is guarded.
    certify_results: dict[str, dict] = {}
    for name, cfg in CERTIFY_CONFIGS.items():
        certify_results[name] = run_config(
            race_corpus, cfg, args.jobs, repeats
        )
        r = certify_results[name]
        extra = (
            f"  certified={r['certified']} uncertified={r['uncertified']}"
            if "certified" in r
            else ""
        )
        print(
            f"{name:<18} median {r['median_s'] * 1e3:>9.1f}ms  "
            f"coherent {r['holds']}/{r['instances']}{extra}"
        )
    uncert = certify_results["certify-off"]
    cert_on = certify_results["certify-on"]
    strict = certify_results["certify-strict"]
    if cert_on["holds"] != uncert["holds"] or strict["holds"] != uncert["holds"]:
        print("error: certification changed verdicts", file=sys.stderr)
        return 1
    if cert_on["certified"] == 0:
        print("error: certify-on arm produced no certificates",
              file=sys.stderr)
        return 1
    if strict["uncertified"] or strict["unknown"]:
        print(
            "error: strict certification left verdicts uncertified on an "
            "honest run", file=sys.stderr,
        )
        return 1
    certify_median = cert_on["median_s"]
    uncert_median = uncert["median_s"]
    certify_ok = (
        certify_median <= CERTIFY_GUARD_RATIO * uncert_median
        or certify_median - uncert_median <= CERTIFY_GUARD_SLACK_S
    )
    print(
        f"certification {certify_median * 1e3:.1f}ms vs uncertified "
        f"{uncert_median * 1e3:.1f}ms "
        f"({'ok' if certify_ok else 'REGRESSION'}; guard "
        f"{CERTIFY_GUARD_RATIO}x + {CERTIFY_GUARD_SLACK_S}s slack)"
    )

    # Kernel-scaling ladder: wall time vs total ops, default path vs
    # python-pinned, with the speedup guard at the top size.
    scaling_payload, scaling_ok = run_scaling(args.quick)

    # Streaming ladder: the incremental monitor vs from-scratch
    # re-verification, with throughput/window/speedup guards.
    streaming_payload, streaming_ok = run_streaming(args.quick)

    # Persistent-store arms: disabled vs cold vs warm vs process pool,
    # guarded on warm amortization and disabled overhead.
    store_payload, store_ok = run_store(args.quick, args.jobs)

    # Service arms: the ``repro serve`` daemon round-trip — warm vs
    # cold request throughput and drain latency, guarded.
    service_payload, service_ok = run_service(args.quick)

    # Fault-campaign arms: a certified ground-truth sweep cold vs a
    # warm store-backed re-run, guarded on contract and amortization.
    campaign_payload, campaign_ok = run_campaign_bench(
        args.quick, args.jobs
    )

    payload = {
        "benchmark": "engine-prepass-jobs-portfolio",
        "recorded_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "quick": args.quick,
        "jobs": args.jobs,
        "repeats": repeats,
        "corpus": {
            "executions": len(corpus),
            "addresses": n_addr,
            "ops": total_ops,
        },
        "configs": results,
        "speedup_vs_baseline_serial": speedups,
        "sweep": {
            "instances": len(sweep),
            "configs": sweep_results,
        },
        "race": {
            "instances": len(race_corpus),
            "configs": race_results,
            "portfolio_vs_best_solo": (
                round(portfolio_median / best_solo, 3) if best_solo else None
            ),
            "guard_ok": guard_ok,
        },
        "resilience": {
            "instances": len(race_corpus),
            "chaos": RESILIENCE_CHAOS.describe(),
            "configs": resilience_results,
            "chaos_vs_faultfree": (
                round(chaotic["median_s"] / faultfree["median_s"], 3)
                if faultfree["median_s"] else None
            ),
            "guard_ok": resilience_ok,
        },
        "certify": {
            "instances": len(race_corpus),
            "configs": certify_results,
            "certified_vs_uncertified": (
                round(certify_median / uncert_median, 3)
                if uncert_median else None
            ),
            "guard_ok": certify_ok,
        },
        "scaling": scaling_payload,
        "streaming": streaming_payload,
        "store": store_payload,
        "service": service_payload,
        "campaign": campaign_payload,
    }
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    target = speedups.get("prepass-jobs")
    if target is not None and target < 2.0:
        print(
            f"warning: prepass-jobs speedup {target}x is below the 2x "
            f"target", file=sys.stderr,
        )
    if not guard_ok:
        print(
            f"error: portfolio median {portfolio_median}s regressed past "
            f"{PORTFOLIO_GUARD_RATIO}x the better solo leg ({best_solo}s)",
            file=sys.stderr,
        )
        return 1
    if not resilience_ok:
        print(
            f"error: fault recovery cost {chaotic['median_s']}s vs "
            f"{faultfree['median_s']}s fault-free — past the "
            f"{RESILIENCE_GUARD_RATIO}x overhead guard",
            file=sys.stderr,
        )
        return 1
    if not certify_ok:
        print(
            f"error: certification cost {certify_median}s vs "
            f"{uncert_median}s uncertified — past the "
            f"{CERTIFY_GUARD_RATIO}x overhead guard",
            file=sys.stderr,
        )
        return 1
    if not scaling_ok:
        print(
            f"error: default-path speedup over python-pinned "
            f"{scaling_payload['numpy_speedup_at_max']}x at "
            f"{scaling_payload['ops'][-1]} ops is below the "
            f"{SCALING_GUARD_SPEEDUP}x guard",
            file=sys.stderr,
        )
        return 1
    if not streaming_ok:
        print(
            f"error: streaming guard failed — speedup "
            f"{streaming_payload['speedup_at_top_shared_rung']}x (need "
            f">={STREAMING_GUARD_SPEEDUP}x), steady-state "
            f"{streaming_payload['steady_state_ops_per_s']} ops/s; see "
            f"the streaming section of the report",
            file=sys.stderr,
        )
        return 1
    if not store_ok:
        print(
            f"error: store guard failed — warm speedup "
            f"{store_payload['warm_speedup']}x (need "
            f">={STORE_GUARD_WARM_SPEEDUP}x), disabled overhead "
            f"{store_payload['disabled_overhead']}x (cap "
            f"{STORE_GUARD_DISABLED_RATIO}x); see the store section "
            f"of the report",
            file=sys.stderr,
        )
        return 1
    if not service_ok:
        print(
            f"error: service guard failed — warm speedup "
            f"{service_payload.get('warm_speedup')}x (need "
            f">={SERVICE_GUARD_WARM_SPEEDUP}x), drain "
            f"{service_payload.get('drain_s')}s (cap "
            f"{SERVICE_GUARD_DRAIN_S}s); see the service section of "
            f"the report", file=sys.stderr,
        )
        return 1
    if not campaign_ok:
        print(
            f"error: campaign guard failed — contract_ok "
            f"{campaign_payload.get('contract_ok')}, warm sweep speedup "
            f"{campaign_payload.get('warm_speedup')}x (need "
            f">={CAMPAIGN_GUARD_WARM_SPEEDUP}x); see the campaign "
            f"section of the report", file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
