"""E5.3 — Figure 5.3: the complexity summary table, validated empirically.

One benchmark per table cell.  For polynomial cells we time the
dedicated algorithm across sizes and fit the log-log exponent (it must
not exceed the paper's bound, with slack for interpreter noise); for
NP-complete cells we show the exact search's explored-state counts
growing super-polynomially on reduction-generated families while the
certificate check stays linear.  Cells the paper leaves open are
printed as '?'.

The final test assembles the whole table next to the paper's entries.
"""

from collections import Counter

import pytest

from repro.core.checker import is_coherent_schedule
from repro.core.exact import SearchBudgetExceeded, exact_vmc
from repro.core.readmap import readmap_vmc
from repro.core.single_op import single_op_vmc
from repro.core.types import Execution, read, rmw, write
from repro.core.writeorder import writeorder_vmc
from repro.reductions.tsat_to_vmc_restricted import TsatToVmcRestricted
from repro.reductions.tsat_to_vmc_rmw import TsatToVmcRmw
from repro.sat.cnf import CNF
from repro.util.rng import make_rng
from repro.util.timing import RepeatTimer

from benchmarks.conftest import coherent_trace, report

# Generous exponent slack: small-n timings carry constant overheads.
LINEAR_MAX = 1.45
QUAD_MAX = 2.45


# ---------------------------------------------------------------------
# Row 1: one operation per process.
# ---------------------------------------------------------------------
def _single_op_instance(n: int, seed: int, rmw_only: bool) -> Execution:
    rng = make_rng(seed)
    ops = []
    current = 0
    for i in range(n):
        if rmw_only:
            ops.append(rmw("x", current, i + 1))
            current = i + 1
        elif rng.random() < 0.5:
            ops.append(write("x", i + 1))
        else:
            ops.append(read("x", 0))
    # Reads of 0 are initial-value reads; coherent by construction.
    return Execution.from_ops([[op] for op in ops], initial={"x": 0})


def test_row1_single_op_simple(benchmark):
    timer = RepeatTimer()
    for n in (2000, 4000, 8000, 16000):
        ex = _single_op_instance(n, seed=n, rmw_only=False)
        timer.measure(n, lambda ex=ex: single_op_vmc(ex))
    slope = timer.slope()
    assert slope <= LINEAR_MAX, timer.table()
    report(
        "Fig 5.3 row '1 Operation/Process' (simple): paper O(n lg n)",
        timer.table() + f"\nfitted exponent: {slope:.2f}",
    )
    ex = _single_op_instance(8000, seed=1, rmw_only=False)
    benchmark(lambda: single_op_vmc(ex))


def test_row1_single_op_rmw(benchmark):
    timer = RepeatTimer()
    for n in (2000, 4000, 8000, 16000):
        ex = _single_op_instance(n, seed=n, rmw_only=True)
        timer.measure(n, lambda ex=ex: single_op_vmc(ex))
    slope = timer.slope()
    assert slope <= LINEAR_MAX, timer.table()
    report(
        "Fig 5.3 row '1 Operation/Process' (RMW): paper O(n^2), ours "
        "Eulerian-path O(n)",
        timer.table() + f"\nfitted exponent: {slope:.2f}",
    )
    ex = _single_op_instance(8000, seed=1, rmw_only=True)
    benchmark(lambda: single_op_vmc(ex))


# ---------------------------------------------------------------------
# Rows 2-3: few operations per process — the NP-complete cells.
#
# The rows claim worst-case blow-up, so they are measured on an
# unsatisfiable family: a satisfiable image can be decided by the first
# truth assignment the search tries, an unsatisfiable one only after
# every assignment was refuted.
# ---------------------------------------------------------------------
def _padded_unsat(m: int) -> CNF:
    """(x∨x∨x) ∧ (¬x∨¬x∨¬x) plus m-1 free variables: the exact search
    must explore every truth choice of the free variables (≈2^m states)
    before concluding the image is incoherent."""
    cnf = CNF(num_vars=m)
    cnf.clauses.append([1, 1, 1])
    cnf.clauses.append([-1, -1, -1])
    return cnf


def _states(reduction, budget: int) -> int:
    """Exact-search states explored on a reduction's image (a lower
    bound when the budget runs out)."""
    try:
        return exact_vmc(reduction.execution, max_states=budget).stats["states"]
    except SearchBudgetExceeded as e:
        return e.states


def _restricted_unsat_states(ms, budget: int = 400_000) -> list[int]:
    """States on padded-UNSAT Figure 5.1 images, each checked to have at
    most 3 operations per process and every value written at most
    twice."""
    counts = []
    for m in ms:
        red = TsatToVmcRestricted(_padded_unsat(m))
        ops = list(red.execution.all_ops())
        written = Counter(op.value_written for op in ops if op.kind.writes)
        assert max(len(h.operations) for h in red.execution.histories) <= 3
        assert max(written.values()) <= 2
        counts.append(_states(red, budget))
    return counts


def test_row3_three_ops_np_complete(benchmark):
    ms = (2, 3, 4, 5, 6)
    counts = _restricted_unsat_states(ms)
    rows = ["   m    explored states   (UNSAT family)"]
    rows += [f"{m:>4} {states:>18}" for m, states in zip(ms, counts)]
    assert counts[-1] > 20 * counts[0]  # super-polynomial blow-up
    report(
        "Fig 5.3 row '3+ Operations/Process': NP-Complete "
        "(exact-search growth on padded-UNSAT Figure 5.1 instances)",
        "\n".join(rows),
    )
    red = TsatToVmcRestricted(_padded_unsat(3))
    benchmark(lambda: exact_vmc(red.execution))


def test_row2_two_rmws_np_complete(benchmark):
    budget = 2_000_000
    rows = ["   m    explored states   (UNSAT family)"]
    counts = []
    for m in (2, 4, 6, 8, 10):
        states = _states(TsatToVmcRmw(_padded_unsat(m)), budget)
        counts.append(states)
        rows.append(f"{m:>4} {states:>18}")
    # Exponential in the number of free variables.
    assert counts[-1] > 10 * counts[0]
    assert counts[-1] > 4 * counts[-3]
    report(
        "Fig 5.3 row '2 Operations/Process' (RMW): NP-Complete "
        "(exact-search growth on padded-UNSAT Figure 5.2 instances)",
        "\n".join(rows),
    )
    red = TsatToVmcRmw(_padded_unsat(4))
    benchmark(lambda: exact_vmc(red.execution))


def test_row2_two_simple_ops_open_problem():
    pytest.skip(
        "Figure 5.3 cell '2 Operations/Process (simple)' is an open "
        "problem in the paper — nothing to reproduce"
    )


# ---------------------------------------------------------------------
# Row 4: constant number of processes — polynomial O(k n^k).
# ---------------------------------------------------------------------
def test_row4_constant_processes(benchmark):
    k = 3
    timer = RepeatTimer()
    for n in (60, 120, 240, 480):
        ex, _ = coherent_trace(n, k, seed=n, num_values=3)
        timer.measure(n, lambda ex=ex: exact_vmc(ex), repeats=2)
    slope = timer.slope()
    # Polynomial with degree at most ~k (memoized frontier search).
    assert slope <= k + 0.8, timer.table()
    report(
        f"Fig 5.3 row 'Constant Processes' (k={k}): paper O(n^k)",
        timer.table() + f"\nfitted exponent: {slope:.2f}  (bound: {k})",
    )
    ex, _ = coherent_trace(240, k, seed=7, num_values=3)
    benchmark(lambda: exact_vmc(ex))


# ---------------------------------------------------------------------
# Row 5: one write per value (read-map known) — O(n).
# ---------------------------------------------------------------------
def test_row5_readmap(benchmark):
    timer = RepeatTimer()
    for n in (1000, 2000, 4000, 8000):
        ex, _ = coherent_trace(n, 4, seed=n)  # unique values
        timer.measure(n, lambda ex=ex: readmap_vmc(ex))
    slope = timer.slope()
    assert slope <= LINEAR_MAX, timer.table()
    report(
        "Fig 5.3 row '1 Write/Value (Read-map)': paper O(n)",
        timer.table() + f"\nfitted exponent: {slope:.2f}",
    )
    ex, _ = coherent_trace(4000, 4, seed=3)
    result = benchmark(lambda: readmap_vmc(ex))
    assert result and is_coherent_schedule(ex, result.schedule)


# ---------------------------------------------------------------------
# Rows 6-7: few writes per value — NP-complete / open.
# ---------------------------------------------------------------------
def test_row6_two_writes_per_value_np_complete(benchmark):
    # The Figure 5.1 family *is* the 2-writes-per-value family.
    counts = _restricted_unsat_states((2, 4, 6))
    assert counts[-1] > 10 * counts[0]
    report(
        "Fig 5.3 row '2 Writes/Value': NP-Complete (same padded-UNSAT "
        "family as the 3-ops row; every value written at most twice)",
        f"explored states at m = 2, 4, 6: {counts}",
    )
    red = TsatToVmcRestricted(_padded_unsat(3))
    benchmark(lambda: exact_vmc(red.execution))


def test_row7_rmw_two_writes_open_problem():
    pytest.skip(
        "Figure 5.3 cell 'RMW, 2 Writes/Value' is an open problem in "
        "the paper — nothing to reproduce"
    )


# ---------------------------------------------------------------------
# Row 8: write-order given — O(n^2) simple / O(n) RMW.
# ---------------------------------------------------------------------
def test_row8_write_order_simple(benchmark):
    timer = RepeatTimer()
    for n in (1000, 2000, 4000, 8000):
        ex, witness = coherent_trace(n, 4, seed=n, num_values=4)
        order = [op for op in witness if op.kind.writes]
        timer.measure(n, lambda e=ex, o=order: writeorder_vmc(e, o))
    slope = timer.slope()
    assert slope <= QUAD_MAX, timer.table()
    report(
        "Fig 5.3 row 'Write-order Given' (simple): paper O(n^2), ours "
        "O(n log n)",
        timer.table() + f"\nfitted exponent: {slope:.2f}",
    )
    ex, witness = coherent_trace(4000, 4, seed=5, num_values=4)
    order = [op for op in witness if op.kind.writes]
    benchmark(lambda: writeorder_vmc(ex, order))


def test_row8_write_order_rmw(benchmark):
    timer = RepeatTimer()
    for n in (1000, 2000, 4000, 8000):
        ex, witness = coherent_trace(n, 4, seed=n, rmw_only=True)
        order = list(witness)  # all ops are writes
        timer.measure(n, lambda e=ex, o=order: writeorder_vmc(e, o))
    slope = timer.slope()
    assert slope <= LINEAR_MAX, timer.table()
    report(
        "Fig 5.3 row 'Write-order Given' (RMW): paper O(n)",
        timer.table() + f"\nfitted exponent: {slope:.2f}",
    )
    ex, witness = coherent_trace(4000, 4, seed=5, rmw_only=True)
    benchmark(lambda: writeorder_vmc(ex, list(witness)))


# ---------------------------------------------------------------------
# The assembled table.
# ---------------------------------------------------------------------
def test_assembled_figure_5_3(benchmark):
    def build_table() -> str:
        def slope_of(fn, sizes, repeats=2):
            timer = RepeatTimer()
            for n in sizes:
                timer.measure(n, fn(n), repeats=repeats)
            return timer.slope()

        s_row1 = slope_of(
            lambda n: (
                lambda ex=_single_op_instance(n, n, False): single_op_vmc(ex)
            ),
            (2000, 8000),
        )
        s_row1r = slope_of(
            lambda n: (
                lambda ex=_single_op_instance(n, n, True): single_op_vmc(ex)
            ),
            (2000, 8000),
        )
        s_read = slope_of(
            lambda n: (lambda ex=coherent_trace(n, 4, n)[0]: readmap_vmc(ex)),
            (1000, 4000),
        )

        def wo(n, rmw_only=False):
            ex, wit = coherent_trace(n, 4, n, num_values=0 if rmw_only else 4,
                                     rmw_only=rmw_only)
            order = [op for op in wit if op.kind.writes]
            return lambda: writeorder_vmc(ex, order)

        s_wo = slope_of(lambda n: wo(n), (1000, 4000))
        s_wor = slope_of(lambda n: wo(n, rmw_only=True), (1000, 4000))

        lines = [
            f"{'cell':<28} {'paper':<12} {'measured'}",
            f"{'1 op/proc (simple)':<28} {'O(n lg n)':<12} n^{s_row1:.2f}",
            f"{'1 op/proc (RMW)':<28} {'O(n^2)':<12} n^{s_row1r:.2f}",
            f"{'2 ops/proc (simple)':<28} {'?':<12} ? (open)",
            f"{'2 ops/proc (RMW)':<28} {'NP-Complete':<12} blow-up (Fig 5.2)",
            f"{'3+ ops/proc':<28} {'NP-Complete':<12} blow-up (Fig 5.1)",
            f"{'constant processes':<28} {'O(n^k)':<12} poly (see row test)",
            f"{'1 write/value':<28} {'O(n)':<12} n^{s_read:.2f}",
            f"{'2 writes/value':<28} {'NP-Complete':<12} blow-up (Fig 5.1)",
            f"{'RMW 2 writes/value':<28} {'?':<12} ? (open)",
            f"{'3+ writes/value':<28} {'NP-Complete':<12} blow-up",
            f"{'write-order (simple)':<28} {'O(n^2)':<12} n^{s_wo:.2f}",
            f"{'write-order (RMW)':<28} {'O(n)':<12} n^{s_wor:.2f}",
        ]
        return "\n".join(lines)

    table = benchmark.pedantic(build_table, rounds=1, iterations=1)
    report("Figure 5.3 — assembled complexity table", table)
