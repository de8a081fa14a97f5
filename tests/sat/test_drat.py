"""DRAT proof logging and the trusted RUP checker.

The checker is the *trusted base* of the certification layer, so these
tests exercise it from both sides: proofs logged by the real CDCL
solver on real formulas must check, and every tampering we can think of
— truncation, literal corruption, dropped empty clause, proofs replayed
against a different formula — must be rejected.
"""

import random

import pytest
from hypothesis import given, settings

from repro.sat.cdcl import CDCLSolver, solve_cdcl
from repro.sat.enumerate_models import brute_force_satisfiable
from repro.sat.cnf import CNF
from repro.sat.drat import ProofLog, check_rup

from tests.conftest import small_cnfs


def _pigeonhole(holes: int) -> CNF:
    """PHP(holes+1, holes): unsatisfiable, non-trivially so."""
    pigeons = holes + 1
    cnf = CNF(num_vars=pigeons * holes)

    def var(p: int, h: int) -> int:
        return p * holes + h + 1

    for p in range(pigeons):
        cnf.add_clause([var(p, h) for h in range(holes)])
    for h in range(holes):
        for p in range(pigeons):
            for q in range(p + 1, pigeons):
                cnf.add_clause([-var(p, h), -var(q, h)])
    return cnf


def _random_cnf(rng: random.Random, num_vars: int, n_clauses: int) -> CNF:
    cnf = CNF(num_vars=num_vars)
    for _ in range(n_clauses):
        length = rng.randint(1, 3)
        lits = []
        for _ in range(length):
            v = rng.randint(1, num_vars)
            lits.append(v if rng.random() < 0.5 else -v)
        cnf.add_clause(lits)
    return cnf


class TestProofLog:
    def test_collects_lines(self):
        proof = ProofLog()
        proof.add([1, -2])
        proof.delete([1, -2])
        proof.add(())
        assert proof.lines == [("a", (1, -2)), ("d", (1, -2)), ("a", ())]
        assert len(proof) == 3
        assert list(proof) == proof.lines

    def test_proof_with_assumptions_rejected(self):
        """UNSAT under assumptions does not refute the formula, so the
        combination must be refused, not silently mislogged."""
        cnf = CNF(num_vars=2)
        cnf.add_clause([1, 2])
        with pytest.raises(ValueError, match="assumptions"):
            solve_cdcl(cnf, assumptions=[-1], proof=ProofLog())


class TestCheckRup:
    def test_trivial_conflict(self):
        cnf = CNF(num_vars=1)
        cnf.add_clause([1])
        cnf.add_clause([-1])
        proof = ProofLog()
        proof.add(())
        assert check_rup(cnf, proof)

    def test_empty_clause_in_cnf_needs_no_proof(self):
        cnf = CNF(num_vars=1)
        cnf.add_clause([])
        assert check_rup(cnf, [])

    def test_missing_empty_clause_rejected(self):
        cnf = CNF(num_vars=1)
        cnf.add_clause([1])
        cnf.add_clause([-1])
        verdict = check_rup(cnf, [])
        assert not verdict
        assert "empty clause" in verdict.reason

    def test_non_rup_addition_rejected(self):
        """An addition not entailed by unit propagation fails the step."""
        cnf = CNF(num_vars=2)
        cnf.add_clause([1, 2])
        verdict = check_rup(cnf, [("a", (1,)), ("a", ())])
        assert not verdict
        assert "not a RUP consequence" in verdict.reason
        assert verdict.steps == 1

    def test_unknown_line_kind_rejected(self):
        cnf = CNF(num_vars=1)
        cnf.add_clause([1])
        assert not check_rup(cnf, [("x", (1,))])

    def test_tautology_additions_allowed(self):
        cnf = CNF(num_vars=1)
        cnf.add_clause([1])
        cnf.add_clause([-1])
        assert check_rup(cnf, [("a", (1, -1)), ("a", ())])

    def test_deleting_a_needed_clause_breaks_the_proof(self):
        """Deletion really removes the clause from propagation."""
        cnf = CNF(num_vars=1)
        cnf.add_clause([1])
        cnf.add_clause([-1])
        assert check_rup(cnf, [("a", ())])
        assert not check_rup(cnf, [("d", (1,)), ("a", ())])

    def test_deleting_an_absent_clause_is_a_noop(self):
        cnf = CNF(num_vars=1)
        cnf.add_clause([1])
        cnf.add_clause([-1])
        assert check_rup(cnf, [("d", (9,)), ("a", ())])


class TestSolverProofs:
    def test_pigeonhole_proof_checks(self, monkeypatch):
        """PHP with 5 holes learns enough clauses for the solver to
        halve its learned-clause database: the proof then logs
        deletions, and it must still check."""
        reductions = []
        reduce_db = CDCLSolver._reduce_db

        def spy(solver):
            reductions.append(len(solver.learned))
            reduce_db(solver)

        monkeypatch.setattr(CDCLSolver, "_reduce_db", spy)
        for holes in (2, 3, 4, 5):
            cnf = _pigeonhole(holes)
            proof = ProofLog()
            assert solve_cdcl(cnf, proof=proof) is None
            verdict = check_rup(cnf, proof)
            assert verdict, verdict.reason
            assert proof.lines[-1] == ("a", ())
        assert reductions
        assert any(kind == "d" for kind, _lits in proof.lines)

    def test_sat_answers_log_nothing_misleading(self):
        """A satisfiable formula yields a model; whatever partial proof
        was logged must not accidentally check as a refutation."""
        cnf = CNF(num_vars=2)
        cnf.add_clause([1, 2])
        proof = ProofLog()
        model = solve_cdcl(cnf, proof=proof)
        assert model is not None
        assert not check_rup(cnf, proof)

    def test_seeded_fuzz_unsat_proofs_check(self):
        """Every UNSAT verdict over a seeded random corpus carries a
        checkable refutation; SAT verdicts agree with brute force."""
        rng = random.Random(20260805)
        unsat_seen = 0
        for _ in range(120):
            num_vars = rng.randint(2, 6)
            cnf = _random_cnf(rng, num_vars, rng.randint(num_vars, 5 * num_vars))
            proof = ProofLog()
            model = solve_cdcl(cnf, proof=proof)
            oracle = brute_force_satisfiable(cnf)
            assert (model is None) == (oracle is None)
            if model is None:
                unsat_seen += 1
                verdict = check_rup(cnf, proof)
                assert verdict, verdict.reason
        assert unsat_seen >= 10  # the corpus actually exercised the UNSAT path

    def test_tampered_proofs_rejected(self):
        """Truncation, literal corruption and empty-clause stripping all
        fail closed."""
        rng = random.Random(7)
        cnf = _pigeonhole(3)
        proof = ProofLog()
        assert solve_cdcl(cnf, proof=proof) is None
        lines = list(proof.lines)
        assert check_rup(cnf, lines)
        # Strip the final empty clause.
        assert not check_rup(cnf, [l for l in lines if l != ("a", ())])
        # Corrupt a random addition's literals.
        adds = [i for i, (k, lits) in enumerate(lines) if k == "a" and lits]
        for _ in range(5):
            i = rng.choice(adds)
            kind, lits = lines[i]
            bad = list(lines)
            bad[i] = (kind, tuple(-l for l in lits))
            tampered = check_rup(cnf, bad)
            if tampered:
                continue  # a lucky flip can stay RUP; most don't
            assert not tampered
        # Replay against a weaker formula missing a clause the proof needs.
        weaker = CNF(num_vars=cnf.num_vars)
        for clause in cnf.clauses[1:]:
            weaker.add_clause(clause)
        assert brute_force_satisfiable(weaker) is not None  # PHP minus one pigeon
        assert not check_rup(weaker, lines)

    @given(small_cnfs())
    @settings(max_examples=40, deadline=None)
    def test_random_unsat_proofs_check(self, cnf):
        proof = ProofLog()
        model = solve_cdcl(cnf, proof=proof)
        if model is None:
            verdict = check_rup(cnf, proof)
            assert verdict, verdict.reason
