"""The 1-write-per-value fast path (known read-map, Figure 5.3 row 5)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.builder import ExecutionBuilder, parse_trace
from repro.core.checker import is_coherent_schedule
from repro.core.exact import exact_vmc
from repro.core.readmap import applicable, readmap_vmc
from repro.core.types import Execution
from repro.util.rng import make_rng


class TestApplicability:
    def test_unique_writes(self):
        ex = parse_trace("P0: W(x,1) W(x,2)")
        assert applicable(ex)

    def test_duplicate_write_value(self):
        ex = parse_trace("P0: W(x,1)\nP1: W(x,1)")
        assert not applicable(ex)

    def test_sync_ops_not_applicable(self):
        """A lock address has no read-map; the router must not pick
        the read-map for it (it used to, and crashed)."""
        ex = parse_trace("P0: ACQ(l) W(x,1) REL(l)\nP1: ACQ(l) R(x,1) REL(l)")
        assert not applicable(ex.restrict_to_address("l"))
        with pytest.raises(ValueError, match="sync operations"):
            readmap_vmc(ex.restrict_to_address("l"))
        from repro.engine import verify_vmc

        result = verify_vmc(ex, certify="on")
        assert result.holds
        assert result.per_address["l"].method == "exact"


class TestDecisions:
    def test_basic_coherent(self):
        ex = parse_trace(
            "P0: W(x,1) R(x,1)\nP1: R(x,0) R(x,1) W(x,2)\nP2: R(x,2)",
            initial={"x": 0},
        )
        r = readmap_vmc(ex)
        assert r and is_coherent_schedule(ex, r.schedule)

    def test_basic_violation(self):
        ex = parse_trace(
            "P0: W(x,1) R(x,1)\nP1: R(x,1) R(x,0)", initial={"x": 0}
        )
        r = readmap_vmc(ex)
        assert not r and "cyclic" in r.reason

    def test_unknown_value_read(self):
        ex = parse_trace("P0: R(x,42)", initial={"x": 0})
        r = readmap_vmc(ex)
        assert not r and "never written" in r.reason

    def test_read_before_own_write_in_po(self):
        # P0 reads 1 before writing 1 (the only write of 1): impossible.
        ex = parse_trace("P0: R(x,1) W(x,1)", initial={"x": 0})
        assert not readmap_vmc(ex)

    def test_write_recreating_initial_raises(self):
        ex = parse_trace("P0: W(x,0)", initial={"x": 0})
        with pytest.raises(ValueError):
            readmap_vmc(ex)

    def test_final_value(self):
        ex = parse_trace("P0: W(x,1)\nP1: W(x,2)", initial={"x": 0}, final={"x": 1})
        r = readmap_vmc(ex)
        assert r and r.schedule[-1].value_written == 1

    def test_final_value_unwritten(self):
        ex = parse_trace("P0: W(x,1)", initial={"x": 0}, final={"x": 5})
        assert not readmap_vmc(ex)

    def test_empty_execution(self):
        assert readmap_vmc(Execution.from_ops([]))


class TestRmwChains:
    def test_rmw_must_follow_its_source_block(self):
        ex = parse_trace(
            "P0: W(x,1)\nP1: R(x,1) RW(x,1,2)\nP2: R(x,2)", initial={"x": 0}
        )
        r = readmap_vmc(ex)
        assert r and is_coherent_schedule(ex, r.schedule)

    def test_two_rmws_reading_same_value_rejected(self):
        ex = parse_trace("P0: W(x,1)\nP1: RW(x,1,2)\nP2: RW(x,1,3)")
        r = readmap_vmc(ex)
        assert not r and "immediately follow" in r.reason

    def test_rmw_reading_own_written_value_rejected(self):
        ex = parse_trace("P0: RW(x,1,1)", initial={"x": 0})
        assert not readmap_vmc(ex)

    def test_rmw_chain_from_initial(self):
        ex = parse_trace("P0: RW(x,init,1) RW(x,2,3)\nP1: RW(x,1,2)")
        r = readmap_vmc(ex)
        assert r and is_coherent_schedule(ex, r.schedule)

    def test_final_value_inside_fused_chain_rejected(self):
        # The write of 1 is forcibly followed by the RMW writing 2, so
        # 1 can never be the final value.
        ex = parse_trace(
            "P0: W(x,1)\nP1: RW(x,1,2)", initial={"x": 0}, final={"x": 1}
        )
        assert not readmap_vmc(ex)


class TestAgainstExact:
    @given(st.integers(0, 10), st.integers(1, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_exact(self, n, nproc, seed):
        rng = make_rng(seed)
        # Unique-value writes; reads pick any value seen so far or junk.
        per_proc = [[] for _ in range(nproc)]
        written = []
        from repro.core.types import read, rmw, write

        next_val = [1]
        for _ in range(n):
            p = rng.randrange(nproc)
            roll = rng.random()
            if roll < 0.4:
                v = next_val[0]
                next_val[0] += 1
                per_proc[p].append(write("x", v))
                written.append(v)
            elif roll < 0.5 and written:
                v = next_val[0]
                next_val[0] += 1
                per_proc[p].append(rmw("x", rng.choice(written + [0]), v))
                written.append(v)
            else:
                pool = written + [0, 99]
                per_proc[p].append(read("x", rng.choice(pool)))
        ex = Execution.from_ops(per_proc, initial={"x": 0})
        if not applicable(ex):
            return
        fast = readmap_vmc(ex)
        slow = exact_vmc(ex)
        assert bool(fast) == bool(slow), ex.pretty()
        if fast:
            assert is_coherent_schedule(ex, fast.schedule)
