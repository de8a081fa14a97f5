"""E6.3C — Section 6.3: VSC-Conflict is O(n log n) but incomplete.

Regenerates both halves of the paper's closing argument:

* merging committed per-address coherent schedules into a sequentially
  consistent schedule is near-linear (we fit the exponent on growing
  simulator traces);
* the pipeline is *incomplete*: it can reject executions that are
  sequentially consistent under a different choice of per-address
  schedules ("like all NP-Complete problems, VSC is resistant to
  divide-and-conquer approaches").
"""

from repro.core.builder import parse_trace
from repro.core.conflict import vsc_conflict
from repro.core.exact import exact_vsc
from repro import vsc_via_conflict
from repro.util.timing import RepeatTimer

from benchmarks.conftest import coherent_trace, report


def test_conflict_merge_scales_near_linearly(benchmark):
    timer = RepeatTimer()
    for n in (1000, 2000, 4000, 8000):
        execution, witness = coherent_trace(
            n, 4, seed=n, addresses=("x", "y", "z")
        )
        schedules = {
            a: [op for op in witness if op.addr == a] for a in ("x", "y", "z")
        }
        timer.measure(
            n,
            lambda e=execution, s=schedules: vsc_conflict(
                e, s, validate_inputs=False
            ),
        )
    slope = timer.slope()
    assert slope <= 1.5, timer.table()
    report(
        "Section 6.3 — VSC-Conflict merge (paper: O(n log n))",
        timer.table() + f"\nfitted exponent: {slope:.2f}",
    )
    execution, witness = coherent_trace(4000, 4, seed=3, addresses=("x", "y"))
    schedules = {a: [op for op in witness if op.addr == a] for a in ("x", "y")}
    result = benchmark(
        lambda: vsc_conflict(execution, schedules, validate_inputs=False)
    )
    assert result


def test_conflict_pipeline_incompleteness(benchmark):
    """A hand-built SC execution whose 'wrong' choice of coherent
    schedules does not merge — the exact claim of Section 6.3."""
    ex = parse_trace(
        "P0: W(x,1) R(y,1)\nP1: W(y,1) R(x,1)",
        initial={"x": 0, "y": 0},
    )
    # This IS sequentially consistent: W(x,1) W(y,1) R(y,1) R(x,1).
    assert exact_vsc(ex)

    # A perverse (but individually coherent) choice: serialize x as
    # [R(x,1)?, ...] is illegal; instead pick coherent-but-unmergeable:
    # x: W(x,1) then R(x,1)  (forced)
    # y: W(y,1) then R(y,1)  (forced)
    # Here the committed schedules DO merge, so build the classic
    # failing shape instead: two writes per address where the chosen
    # serialization inverts across addresses.
    ex2 = parse_trace(
        "P0: W(x,1) W(y,2)\nP1: W(y,1) W(x,2)",
        initial={"x": 0, "y": 0},
    )
    assert exact_vsc(ex2)  # e.g. P0 entirely before P1

    bad_schedules = {
        # x: P1's write first, then P0's; y: P0's first, then P1's.
        "x": [ex2.histories[1][1], ex2.histories[0][0]],
        "y": [ex2.histories[0][1], ex2.histories[1][0]],
    }
    merge = vsc_conflict(ex2, bad_schedules)
    assert not merge  # cycle: the wrong commitments don't merge

    good_schedules = {
        "x": [ex2.histories[0][0], ex2.histories[1][1]],
        "y": [ex2.histories[0][1], ex2.histories[1][0]],
    }
    assert vsc_conflict(ex2, good_schedules)

    benchmark(lambda: vsc_conflict(ex2, good_schedules))
    report(
        "Section 6.3 — incompleteness of the conflict pipeline",
        "execution is SC, yet the {x: W2<W1, y: W1<W2} choice of\n"
        "coherent schedules fails to merge (cycle), while the opposite\n"
        "choice merges — failure only means the wrong schedules were\n"
        "committed, exactly as the paper warns",
    )


def test_pipeline_on_simulator_style_traces(benchmark):
    """vsc_via_conflict: sound yes-answers at near-linear cost."""
    def run() -> tuple[int, int]:
        sound = total = 0
        for seed in range(8):
            execution, _ = coherent_trace(
                120, 3, seed=seed, addresses=("x", "y")
            )
            r = vsc_via_conflict(execution)
            total += 1
            if r:
                # Yes answers must be certified.
                from repro.core.checker import is_sc_schedule

                assert is_sc_schedule(execution, r.schedule)
                sound += 1
        return sound, total

    sound, total = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "Section 6.3 — pipeline on generated traces",
        f"{sound}/{total} yes-answers, every witness certified",
    )
