"""Figure 6.2/6.3: SAT → VSCC (coherent by construction)."""

import pytest
from hypothesis import given, settings

from repro.core.checker import is_coherent_schedule, is_sc_schedule
from repro.core.exact import exact_vsc
from repro import verify_coherence
from repro.reductions.sat_to_vscc import SatToVscc
from repro.sat.cnf import CNF
from repro.sat.enumerate_models import brute_force_satisfiable, enumerate_models
from repro.sat.random_sat import random_ksat

from tests.conftest import small_cnfs


def tiny_cnfs():
    return small_cnfs(max_vars=3, max_clauses=3)


class TestShape:
    def test_processes_and_addresses(self):
        for m, n in [(1, 1), (2, 3), (4, 2)]:
            cnf = random_ksat(m, n, k=min(2, m), seed=m + n)
            red = SatToVscc(cnf)
            assert red.num_processes == 2 * m + 3
            assert red.num_addresses == m + n + 1

    def test_empty_clause_rejected_by_witnesses(self):
        cnf = CNF(num_vars=1)
        cnf.add_clause([])
        red = SatToVscc(cnf)
        with pytest.raises(ValueError):
            red.per_address_schedules()


class TestCoherenceByConstruction:
    @given(tiny_cnfs())
    @settings(max_examples=30, deadline=None)
    def test_every_address_has_an_explicit_coherent_schedule(self, cnf):
        if any(len(c) == 0 for c in cnf.clauses):
            return  # empty clauses break the promise, tested separately
        red = SatToVscc(cnf)
        for addr, sched in red.per_address_schedules().items():
            outcome = is_coherent_schedule(red.execution, sched, addr=addr)
            assert outcome, (addr, outcome.reason)

    @given(tiny_cnfs())
    @settings(max_examples=20, deadline=None)
    def test_dispatcher_confirms_coherence(self, cnf):
        if any(len(c) == 0 for c in cnf.clauses):
            return
        red = SatToVscc(cnf)
        assert verify_coherence(red.execution)


class TestEquivalence:
    @given(tiny_cnfs())
    @settings(max_examples=25, deadline=None)
    def test_sat_iff_sequentially_consistent(self, cnf):
        if any(len(c) == 0 for c in cnf.clauses):
            return
        red = SatToVscc(cnf)
        expected = brute_force_satisfiable(cnf) is not None
        result = exact_vsc(red.execution)
        assert bool(result) == expected
        if result:
            assert is_sc_schedule(red.execution, result.schedule)
            assert cnf.evaluate(red.decode_assignment(result.schedule))


class TestForwardConstruction:
    @given(tiny_cnfs())
    @settings(max_examples=20, deadline=None)
    def test_models_yield_sc_schedules(self, cnf):
        if any(len(c) == 0 for c in cnf.clauses):
            return
        red = SatToVscc(cnf)
        for model in enumerate_models(cnf, limit=2):
            schedule = red.schedule_from_assignment(model)
            outcome = is_sc_schedule(red.execution, schedule)
            assert outcome, outcome.reason
            assert red.decode_assignment(schedule) == model

    def test_non_model_rejected(self):
        cnf = CNF(num_vars=1)
        cnf.add_clause([1])
        red = SatToVscc(cnf)
        with pytest.raises(ValueError):
            red.schedule_from_assignment({1: False})
