"""Property-based cross-validation of every verifier backend.

These are the invariants that hold across the whole library:

* all decision backends agree on every instance in their common domain;
* every "yes" comes with a witness that the O(n) certificate checker
  accepts (so a solver bug cannot silently produce a wrong "yes");
* verdicts are invariant under process renaming and under commuting
  transformations that provably preserve coherence;
* mutations that provably break coherence are always rejected.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.checker import is_coherent_schedule
from repro.core.encode import sat_vmc
from repro.core.exact import exact_vmc, exact_vsc
from repro.core.readmap import applicable as readmap_applicable, readmap_vmc
from repro.core.types import Execution, OpKind, Operation
from repro import verify_coherence
from repro.core.writeorder import writeorder_vmc

from tests.conftest import coherent_executions, make_coherent_execution


@st.composite
def maybe_broken_executions(draw):
    """Coherent executions with an optional read-value mutation."""
    n_ops = draw(st.integers(1, 9))
    nproc = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    execution, witness = make_coherent_execution(
        n_ops, nproc, seed, num_values=2
    )
    mutate = draw(st.booleans())
    if mutate:
        histories = [list(h.operations) for h in execution.histories]
        reads = [
            (p, i)
            for p, h in enumerate(histories)
            for i, op in enumerate(h)
            if op.kind is OpKind.READ
        ]
        if reads:
            p, i = draw(st.sampled_from(reads))
            old = histories[p][i]
            histories[p][i] = Operation(
                OpKind.READ, old.addr, old.proc, old.index,
                value_read=(old.value_read + 1) % 2,
            )
            execution = Execution.from_ops(
                histories, initial=execution.initial, final=execution.final
            )
    return execution


class TestBackendAgreement:
    @given(maybe_broken_executions())
    @settings(max_examples=120, deadline=None)
    def test_exact_and_sat_agree_with_valid_witnesses(self, execution):
        e = exact_vmc(execution)
        s = sat_vmc(execution)
        assert bool(e) == bool(s)
        for r in (e, s):
            if r:
                assert is_coherent_schedule(execution, r.schedule)

    @given(maybe_broken_executions())
    @settings(max_examples=80, deadline=None)
    def test_dispatcher_agrees_with_exact(self, execution):
        assert bool(verify_coherence(execution)) == bool(exact_vmc(execution))

    @given(maybe_broken_executions())
    @settings(max_examples=60, deadline=None)
    def test_readmap_agrees_when_applicable(self, execution):
        if not readmap_applicable(execution):
            return
        addrs = execution.addresses()
        d_i = execution.initial_value(addrs[0]) if addrs else None
        if any(
            op.kind.writes and op.value_written == d_i
            for op in execution.all_ops()
        ):
            return  # read-map not forced; module raises by design
        assert bool(readmap_vmc(execution)) == bool(exact_vmc(execution))


class TestMetamorphic:
    @given(coherent_executions(max_ops=10, max_procs=3))
    @settings(max_examples=60, deadline=None)
    def test_process_renaming_preserves_verdict(self, pair):
        execution, _ = pair
        k = execution.num_processes
        perm = list(range(k))
        random.Random(0).shuffle(perm)
        renamed = Execution.from_ops(
            [list(execution.histories[perm[p]].operations) for p in range(k)],
            initial=execution.initial,
            final=execution.final,
        )
        assert bool(exact_vmc(renamed)) == bool(exact_vmc(execution))

    @given(coherent_executions(max_ops=8, max_procs=3))
    @settings(max_examples=60, deadline=None)
    def test_dropping_final_constraint_never_hurts(self, pair):
        execution, _ = pair
        relaxed = Execution.from_ops(
            [list(h.operations) for h in execution.histories],
            initial=execution.initial,
        )
        # Coherent with finals => coherent without.
        assert exact_vmc(relaxed).holds

    @given(coherent_executions(max_ops=8, max_procs=3))
    @settings(max_examples=60, deadline=None)
    def test_appending_a_fresh_writer_preserves_coherence(self, pair):
        execution, _ = pair
        histories = [list(h.operations) for h in execution.histories]
        fresh_value = "sentinel-value"
        histories.append(
            [Operation(OpKind.WRITE, "x", len(histories), 0,
                       value_written=fresh_value)]
        )
        final = dict(execution.final)
        final["x"] = fresh_value  # the new write can always go last
        extended = Execution.from_ops(
            histories, initial=execution.initial, final=final
        )
        assert exact_vmc(extended).holds

    @given(coherent_executions(max_ops=8, max_procs=2))
    @settings(max_examples=60, deadline=None)
    def test_new_then_old_read_always_breaks(self, pair):
        """Appending a CoRR-shaped observer (reads a value, then a value
        whose only writes precede it everywhere) must break coherence —
        unless the old value can legally recur."""
        execution, _ = pair
        writes = [op for op in execution.all_ops() if op.kind.writes]
        if len({op.value_written for op in writes}) < 2:
            return
        # Observer reads a never-written marker after a real value: the
        # marker read is unsatisfiable, so the execution must fail.
        histories = [list(h.operations) for h in execution.histories]
        p = len(histories)
        histories.append(
            [
                Operation(OpKind.READ, "x", p, 0,
                          value_read=writes[0].value_written),
                Operation(OpKind.READ, "x", p, 1, value_read="never-written"),
            ]
        )
        broken = Execution.from_ops(
            histories, initial=execution.initial, final=execution.final
        )
        assert not exact_vmc(broken)


class TestWitnessRoundTrip:
    @given(coherent_executions(max_ops=12, max_procs=3))
    @settings(max_examples=60, deadline=None)
    def test_witness_write_order_re_verifies(self, pair):
        """A witness schedule's write projection is a valid write-order
        for the Section 5.2 algorithm — and it must accept."""
        execution, _ = pair
        r = exact_vmc(execution)
        assert r
        order = [op for op in r.schedule if op.kind.writes]
        again = writeorder_vmc(execution, order)
        assert again.holds, again.reason

    @given(coherent_executions(addresses=("x", "y"), max_ops=10, max_procs=3))
    @settings(max_examples=40, deadline=None)
    def test_vsc_witness_restricts_to_coherent_schedules(self, pair):
        """An SC schedule's per-address projections are coherent
        schedules — SC implies coherence, operation by operation."""
        execution, _ = pair
        r = exact_vsc(execution)
        assert r
        for addr in execution.addresses():
            proj = [op for op in r.schedule if op.addr == addr]
            outcome = is_coherent_schedule(execution, proj, addr=addr)
            assert outcome, outcome.reason
