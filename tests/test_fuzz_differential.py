"""Differential fuzzing: arbitrary traces through every backend.

Unlike the generated-coherent strategies elsewhere, these traces are
*arbitrary* — random values, random RMWs, random final constraints —
so both verdicts occur and every disagreement between backends is a
bug in one of them.  Invariants:

* exact, CNF+CDCL, CNF+DPLL agree on VMC;
* special-case algorithms agree inside their applicability domains;
* every positive verdict carries a certificate-checker-approved witness;
* per-address coherence of a VSC-positive trace always holds (SC ⇒
  coherent), never the converse implication.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.checker import is_coherent_schedule, is_sc_schedule
from repro.core.encode import sat_vmc, sat_vsc
from repro.core.exact import exact_vmc, exact_vsc
from repro.core.single_op import applicable as single_op_applicable, single_op_vmc
from repro.core.types import Execution, OpKind, Operation
from repro import verify_coherence


@st.composite
def arbitrary_traces(
    draw,
    max_procs: int = 3,
    max_ops_per_proc: int = 4,
    addresses: tuple = ("x",),
    num_values: int = 3,
    allow_rmw: bool = True,
    allow_final: bool = True,
):
    nproc = draw(st.integers(1, max_procs))
    histories = []
    for p in range(nproc):
        n = draw(st.integers(0, max_ops_per_proc))
        ops = []
        for i in range(n):
            addr = draw(st.sampled_from(addresses))
            kind = draw(
                st.sampled_from(
                    [OpKind.READ, OpKind.WRITE]
                    + ([OpKind.RMW] if allow_rmw else [])
                )
            )
            if kind is OpKind.READ:
                ops.append(
                    Operation(kind, addr, p, i,
                              value_read=draw(st.integers(0, num_values - 1)))
                )
            elif kind is OpKind.WRITE:
                ops.append(
                    Operation(kind, addr, p, i,
                              value_written=draw(st.integers(0, num_values - 1)))
                )
            else:
                ops.append(
                    Operation(
                        kind, addr, p, i,
                        value_read=draw(st.integers(0, num_values - 1)),
                        value_written=draw(st.integers(0, num_values - 1)),
                    )
                )
        histories.append(ops)
    final = None
    if allow_final and draw(st.booleans()):
        final = {
            a: draw(st.integers(0, num_values - 1))
            for a in addresses
            if draw(st.booleans())
        }
    return Execution.from_ops(
        histories, initial={a: 0 for a in addresses}, final=final
    )


class TestVmcBackends:
    @given(arbitrary_traces())
    @settings(max_examples=150, deadline=None)
    def test_exact_vs_cdcl(self, execution):
        e = exact_vmc(execution)
        s = sat_vmc(execution)
        assert bool(e) == bool(s), execution.pretty()
        for r in (e, s):
            if r:
                outcome = is_coherent_schedule(execution, r.schedule)
                assert outcome, outcome.reason

    @given(arbitrary_traces(max_procs=2, max_ops_per_proc=3))
    @settings(max_examples=60, deadline=None)
    def test_exact_vs_dpll(self, execution):
        assert bool(exact_vmc(execution)) == bool(
            sat_vmc(execution, solver="dpll")
        )

    @given(arbitrary_traces())
    @settings(max_examples=80, deadline=None)
    def test_dispatcher_consistency(self, execution):
        """The engine agrees with the exact oracle — and, run certified
        by default, every verdict it returns validates independently."""
        from repro.engine import validate_result

        result = verify_coherence(execution, certify="on")
        assert bool(result) == bool(exact_vmc(execution))
        for addr, res in result.per_address.items():
            check = validate_result(
                execution.restrict_to_address(addr), res
            )
            assert check, check.reason

    @given(arbitrary_traces(max_procs=4, max_ops_per_proc=1))
    @settings(max_examples=100, deadline=None)
    def test_single_op_fast_path(self, execution):
        if not single_op_applicable(execution):
            return
        fast = single_op_vmc(execution)
        slow = exact_vmc(execution)
        assert bool(fast) == bool(slow), execution.pretty()
        if fast:
            assert is_coherent_schedule(execution, fast.schedule)


class TestVscRelations:
    @given(arbitrary_traces(addresses=("x", "y"), max_procs=2,
                            max_ops_per_proc=3, allow_final=False))
    @settings(max_examples=80, deadline=None)
    def test_sc_implies_per_address_coherence(self, execution):
        vsc = exact_vsc(execution)
        if vsc:
            assert is_sc_schedule(execution, vsc.schedule)
            coh = verify_coherence(execution)
            assert coh, coh.reason

    @given(arbitrary_traces(addresses=("x", "y"), max_procs=2,
                            max_ops_per_proc=3, allow_final=False,
                            allow_rmw=False))
    @settings(max_examples=50, deadline=None)
    def test_exact_vsc_vs_cnf_vsc(self, execution):
        assert bool(exact_vsc(execution)) == bool(sat_vsc(execution))


class TestSeededSoak:
    """A deterministic high-volume soak (no hypothesis shrinking cost)."""

    def test_five_hundred_arbitrary_traces(self):
        rng = random.Random(2003)
        mismatches = []
        for trial in range(500):
            nproc = rng.randint(1, 3)
            histories = []
            for p in range(nproc):
                ops = []
                for i in range(rng.randint(0, 4)):
                    roll = rng.random()
                    if roll < 0.4:
                        ops.append(Operation(OpKind.WRITE, "x", p, i,
                                             value_written=rng.randrange(3)))
                    elif roll < 0.85:
                        ops.append(Operation(OpKind.READ, "x", p, i,
                                             value_read=rng.randrange(3)))
                    else:
                        ops.append(Operation(OpKind.RMW, "x", p, i,
                                             value_read=rng.randrange(3),
                                             value_written=rng.randrange(3)))
                histories.append(ops)
            ex = Execution.from_ops(histories, initial={"x": 0})
            if bool(exact_vmc(ex)) != bool(sat_vmc(ex)):
                mismatches.append(trial)
        assert not mismatches
