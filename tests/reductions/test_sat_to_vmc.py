"""Figure 4.1/4.2: the general SAT → VMC reduction."""

import pytest
from hypothesis import given, settings

from repro.core.checker import is_coherent_schedule
from repro.core.exact import exact_vmc
from repro import verify_coherence
from repro.reductions.sat_to_vmc import SatToVmc, fig_4_2_example
from repro.sat.cnf import CNF
from repro.sat.enumerate_models import brute_force_satisfiable, enumerate_models
from repro.sat.random_sat import random_ksat, random_unsat_core

from tests.conftest import small_cnfs


class TestShape:
    def test_history_count_is_2m_plus_3(self):
        for m, n in [(1, 1), (3, 4), (5, 2)]:
            cnf = random_ksat(m, n, k=min(3, m), seed=m * 10 + n)
            red = SatToVmc(cnf)
            assert red.num_histories == 2 * m + 3

    def test_single_address(self):
        red = SatToVmc(random_ksat(3, 3, seed=0))
        assert red.execution.is_single_address()

    def test_operation_count_is_order_mn(self):
        # h1: m, h2: m, h3: n + 2m, literals: 2 each + occurrence writes.
        cnf = random_ksat(4, 6, k=3, seed=1)
        red = SatToVmc(cnf)
        occurrences = sum(len(set(c)) for c in cnf.clauses)
        expected = 4 + 4 + (6 + 8) + (2 * 4 * 2) + occurrences
        assert red.num_operations == expected

    def test_describe_mentions_sizes(self):
        text = SatToVmc(random_ksat(2, 2, k=2, seed=0)).describe()
        assert "2m+3" in text


class TestFig42Example:
    def test_structure_matches_figure(self):
        red = fig_4_2_example()
        ex = red.execution
        assert ex.num_processes == 5
        # h1 = [W(d_u)], h2 = [W(d_ū)], h3 = [R(d_c), W(d_u), W(d_ū)]
        assert len(ex.histories[red.H1]) == 1
        assert len(ex.histories[red.H2]) == 1
        assert len(ex.histories[red.H3]) == 3
        # literal histories: h_u has the clause write, h_ū does not.
        h_u = ex.histories[red.literal_proc[(1, True)]]
        h_nu = ex.histories[red.literal_proc[(1, False)]]
        assert len(h_u) == 3 and len(h_nu) == 2

    def test_coherent_iff_du_before_dnu(self):
        red = fig_4_2_example()
        r = exact_vmc(red.execution)
        assert r
        assert red.decode_assignment(r.schedule) == {1: True}


class TestEquivalence:
    @given(small_cnfs(max_vars=3, max_clauses=4))
    @settings(max_examples=40, deadline=None)
    def test_sat_iff_coherent(self, cnf):
        red = SatToVmc(cnf)
        expected = brute_force_satisfiable(cnf) is not None
        result = exact_vmc(red.execution)
        assert bool(result) == expected
        if result:
            assert is_coherent_schedule(red.execution, result.schedule)
            decoded = red.decode_assignment(result.schedule)
            assert cnf.evaluate(decoded)

    def test_unsat_core_maps_to_incoherent(self):
        red = SatToVmc(random_unsat_core(seed=1))
        assert not verify_coherence(red.execution, method="sat")

    def test_empty_clause_incoherent(self):
        cnf = CNF(num_vars=1)
        cnf.add_clause([])
        red = SatToVmc(cnf)
        assert not exact_vmc(red.execution)

    def test_no_clauses_always_coherent(self):
        cnf = CNF(num_vars=2)
        red = SatToVmc(cnf)
        assert exact_vmc(red.execution)


class TestForwardConstruction:
    @given(small_cnfs(max_vars=3, max_clauses=4))
    @settings(max_examples=40, deadline=None)
    def test_every_model_yields_a_valid_coherent_schedule(self, cnf):
        red = SatToVmc(cnf)
        for model in enumerate_models(cnf, limit=3):
            schedule = red.schedule_from_assignment(model)
            outcome = is_coherent_schedule(red.execution, schedule)
            assert outcome, outcome.reason
            # And the schedule decodes back to the same assignment.
            assert red.decode_assignment(schedule) == model

    def test_unsatisfying_assignment_rejected(self):
        cnf = CNF(num_vars=1)
        cnf.add_clause([1])
        red = SatToVmc(cnf)
        with pytest.raises(ValueError):
            red.schedule_from_assignment({1: False})

    def test_tautological_clause_handled(self):
        cnf = CNF(num_vars=1)
        cnf.clauses.append([1, -1])  # bypass tautology dropping
        red = SatToVmc(cnf)
        r = exact_vmc(red.execution)
        assert r  # always satisfiable
