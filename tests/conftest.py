"""Shared fixtures and hypothesis strategies for the test suite.

The central generators build *known-coherent* (or known-SC) executions
by slicing random legal schedules, so solver verdicts have ground
truth; CNF strategies stay small enough for the brute-force oracle.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import strategies as st

from repro.core.checker import execution_from_schedule
from repro.core.kernels import NumpyKernel
from repro.core.types import Execution, OpKind, Operation
from repro.sat.cnf import CNF


def run_in_fresh_interpreter(*args: str, cwd=None) -> str:
    """Run ``python *args`` in a new interpreter on this test run's
    import path; assert it exits 0 and return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        os.path.abspath(p) for p in sys.path if p
    )
    proc = subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    return proc.stdout


# ---------------------------------------------------------------------
# Plain-random helpers (seeded, for non-hypothesis tests)
# ---------------------------------------------------------------------
def make_coherent_execution(
    n_ops: int,
    nproc: int,
    seed: int,
    addresses: tuple = ("x",),
    num_values: int = 4,
    rmw_fraction: float = 0.0,
    record_final: bool = True,
) -> tuple[Execution, list[Operation]]:
    """A random *legal* schedule sliced into an execution.

    Returns (execution, witness schedule).  The execution is coherent
    (single address) / sequentially consistent (multi-address) by
    construction.
    """
    rng = random.Random(seed)
    current: dict = {a: None for a in addresses}  # None = INITIAL-ish 0
    initial = {a: 0 for a in addresses}
    for a in addresses:
        current[a] = 0
    schedule: list[Operation] = []
    for _ in range(n_ops):
        p = rng.randrange(nproc)
        a = rng.choice(addresses)
        roll = rng.random()
        if roll < rmw_fraction:
            new = rng.randrange(num_values)
            schedule.append(
                Operation(
                    OpKind.RMW, a, p, 0, value_read=current[a], value_written=new
                )
            )
            current[a] = new
        elif roll < rmw_fraction + (1 - rmw_fraction) * 0.5:
            new = rng.randrange(num_values)
            schedule.append(Operation(OpKind.WRITE, a, p, 0, value_written=new))
            current[a] = new
        else:
            schedule.append(Operation(OpKind.READ, a, p, 0, value_read=current[a]))
    execution = execution_from_schedule(
        schedule, nproc, initial=initial, record_final=record_final
    )
    # Re-number the witness ops to match the rebuilt execution.
    counters = [0] * nproc
    witness = []
    for op in schedule:
        witness.append(execution.histories[op.proc][counters[op.proc]])
        counters[op.proc] += 1
    return execution, witness


def make_arbitrary_execution(
    seed: int,
    max_procs: int = 4,
    max_ops_per_proc: int = 6,
    addresses: tuple = ("x", "y"),
    values: tuple = (0, 1, 2),
    sync_locks: tuple = (),
    final_fraction: float = 0.5,
) -> Execution:
    """A seeded *arbitrary* execution: random values, random RMWs,
    optional sync ops and final constraints.  Unlike
    :func:`make_coherent_execution` there is no ground truth — both
    verdicts occur, which is what round-trip and differential tests
    want (they compare representations/backends, not verdicts)."""
    rng = random.Random(seed)
    histories: list[list[Operation]] = []
    for p in range(rng.randint(1, max_procs)):
        ops: list[Operation] = []
        for i in range(rng.randint(0, max_ops_per_proc)):
            if sync_locks and rng.random() < 0.15:
                kind = rng.choice([OpKind.ACQUIRE, OpKind.RELEASE])
                ops.append(Operation(kind, rng.choice(sync_locks), p, i))
                continue
            addr = rng.choice(addresses)
            roll = rng.random()
            if roll < 0.40:
                ops.append(
                    Operation(OpKind.WRITE, addr, p, i,
                              value_written=rng.choice(values))
                )
            elif roll < 0.85:
                ops.append(
                    Operation(OpKind.READ, addr, p, i,
                              value_read=rng.choice(values))
                )
            else:
                non_none = [v for v in values if v is not None] or [0]
                ops.append(
                    Operation(OpKind.RMW, addr, p, i,
                              value_read=rng.choice(non_none),
                              value_written=rng.choice(non_none))
                )
        histories.append(ops)
    initial = {a: rng.choice(values) for a in addresses if rng.random() < 0.8}
    final = None
    if rng.random() < final_fraction:
        final = {
            a: rng.choice(values) for a in addresses if rng.random() < 0.5
        }
    return Execution.from_ops(histories, initial=initial, final=final)


# ---------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------
@st.composite
def coherent_executions(
    draw,
    max_ops: int = 14,
    max_procs: int = 4,
    addresses: tuple = ("x",),
    num_values: int = 3,
    rmw: bool = False,
):
    """Strategy: known-coherent executions with their witness schedules."""
    n_ops = draw(st.integers(0, max_ops))
    nproc = draw(st.integers(1, max_procs))
    seed = draw(st.integers(0, 2**32 - 1))
    rmw_fraction = draw(st.sampled_from([0.0, 0.3, 1.0])) if rmw else 0.0
    return make_coherent_execution(
        n_ops, nproc, seed, addresses=addresses,
        num_values=num_values, rmw_fraction=rmw_fraction,
    )


@st.composite
def small_cnfs(draw, max_vars: int = 5, max_clauses: int = 8, max_len: int = 3):
    """Strategy: small CNF formulas for oracle comparison."""
    num_vars = draw(st.integers(1, max_vars))
    n_clauses = draw(st.integers(0, max_clauses))
    cnf = CNF(num_vars=num_vars)
    for _ in range(n_clauses):
        length = draw(st.integers(1, max_len))
        lits = draw(
            st.lists(
                st.integers(1, num_vars).flatmap(
                    lambda v: st.sampled_from([v, -v])
                ),
                min_size=length,
                max_size=length,
            )
        )
        cnf.add_clause(lits)
    return cnf


@pytest.fixture
def rng():
    return random.Random(12345)


@pytest.fixture
def force_pool(monkeypatch):
    """Send every multi-task ``jobs > 1`` engine run to the process
    pool, however light its tasks: by default the executor pools only
    plans with heavy exponential-tier work."""
    from repro.engine import executor

    monkeypatch.setattr(executor, "_is_heavy", lambda task: True)


#: The data-plane kernels that can run here: python always, numpy when
#: installed.
KERNELS = ["python"] + (["numpy"] if NumpyKernel.is_available() else [])


@pytest.fixture
def pin_kernel(monkeypatch):
    """``pin_kernel(name)`` runs every later saturation in this test's
    process on kernel ``name``, whatever the instance, by moving the
    engine's selection threshold (:data:`repro.core.infer.NUMPY_MIN_FORCED`)
    to 0 for numpy or out of reach for python.  Pinning numpy skips the
    test where numpy is not installed."""
    from repro.core import infer

    def pin(name: str) -> None:
        if name not in KERNELS:
            pytest.skip(f"kernel {name!r} not available")
        limit = 0 if name == "numpy" else math.inf
        monkeypatch.setattr(infer, "NUMPY_MIN_FORCED", limit)

    return pin
