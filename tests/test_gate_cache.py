"""Tests for the shared Tseitin gate cache of the incremental encoder.

The cache must make re-encoding free in the strong sense: repeated
encodings of the same (or structurally overlapping) formulas allocate
**zero new auxiliary variables** and add **zero clauses** to the encoder's
one clause database, while remaining semantically equivalent to a cold
encoding (same solver verdicts, same per-formula atom maps and cone).
"""

from repro.logic import terms as t
from repro.logic.sorts import INT
from repro.smt.encoder import IncrementalEncoder
from repro.smt.solver import Solver


def _formula(n: int = 3):
    """A formula with non-trivial Tseitin structure over shared atoms."""
    x = t.Var("x", INT)
    y = t.Var("y", INT)
    parts = []
    for i in range(n):
        parts.append(t.disj(x + t.IntConst(i) <= y, t.conj(x > y, y >= t.IntConst(i))))
    return t.conj(*parts)


class TestGateCache:
    def test_reencoding_same_formula_adds_nothing(self):
        """Re-encoding a formula replays its gates: no new vars/clauses."""
        encoder = IncrementalEncoder()
        formula = _formula()
        first = encoder.encode(formula)
        vars_after_first = encoder._counter
        num_vars = encoder.cnf.num_vars
        num_clauses = len(encoder.cnf.clauses)
        hits_before = encoder.stats.gate_hits
        reused_before = encoder.stats.gate_clauses_reused
        # The cone is every variable of the formula's clauses and atoms.
        clause_vars = {abs(lit) for clause in encoder.cnf.clauses for lit in clause}
        assert first.cone == clause_vars | set(first.linear_atoms) | set(first.bool_atoms)

        # The encoder keeps no per-formula encodings: encoding the formula
        # again replays it from the gate cache against the same database.
        second = encoder.encode(formula)

        assert second is not first
        assert encoder._counter == vars_after_first, "no new auxiliary variables"
        assert encoder.cnf.num_vars == num_vars
        assert len(encoder.cnf.clauses) == num_clauses, "no clause is added twice"
        assert second.root == first.root
        assert second.cone == first.cone
        assert encoder.stats.gate_hits > hits_before
        assert encoder.stats.gate_clauses_reused - reused_before == num_clauses
        assert second.linear_atoms == first.linear_atoms
        assert second.bool_atoms == first.bool_atoms

    def test_shared_subformula_reuses_gates(self):
        """A superformula replays the shared subtree's gates and vars."""
        encoder = IncrementalEncoder()
        shared_part = _formula(2)
        encoder.encode(shared_part)
        vars_after_first = encoder._counter
        queries_before = encoder.stats.gate_queries
        hits_before = encoder.stats.gate_hits

        z = t.Var("z", INT)
        superformula = t.conj(shared_part, z >= t.IntConst(7))
        encoding = encoder.encode(superformula)

        # New vars: one atom for z >= 7 plus one AND gate for the new conj —
        # nothing for the shared subtree.
        assert encoder._counter <= vars_after_first + 2
        assert encoder.stats.gate_hits > hits_before
        assert encoder.stats.gate_queries > queries_before
        # The shared subtree's atoms appear in the superformula's atom map.
        shared_encoding = encoder.encode(shared_part)
        assert set(shared_encoding.linear_atoms) <= set(encoding.linear_atoms)

    def test_solver_verdicts_identical_with_replayed_encodings(self):
        """Replayed encodings solve to the same verdicts as cold ones."""
        x = t.Var("x", INT)
        y = t.Var("y", INT)
        sat_formula = t.conj(x <= y, y <= x + t.IntConst(1))
        unsat_formula = t.conj(x <= y, y + t.IntConst(1) <= x)

        cold = Solver()
        warm = Solver()
        # Warm the gate cache with overlapping formulas first.
        warm.check_sat(t.disj(sat_formula, unsat_formula))
        warm.check_sat(sat_formula)

        for formula in (sat_formula, unsat_formula, t.disj(sat_formula, unsat_formula)):
            cold_model = cold.check_sat(formula)
            warm_model = warm.check_sat(formula)
            assert (cold_model is None) == (warm_model is None)

    def test_gate_counters_in_solver_report(self):
        solver = Solver()
        x = t.Var("x", INT)
        solver.check_sat(t.conj(x >= t.IntConst(0), x <= t.IntConst(5)))
        report = solver.cache_report()
        assert "gate_cache_queries" in report
        assert "gate_cache_hits" in report
        assert "gate_cache_hit_rate" in report
        assert "gate_clauses_reused" in report
        assert report["gate_cache_queries"] >= 0
