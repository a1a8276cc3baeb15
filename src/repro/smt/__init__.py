"""Self-contained SMT layer (SAT + linear integer arithmetic + set grounding).

This package replaces the off-the-shelf SMT solver (Z3) used by the paper's
implementation; see DESIGN.md for the substitution rationale.
"""

from repro.smt.encoder import EncodingError, linearize
from repro.smt.lia import BudgetExceeded, LIAResult, check_integer_feasible
from repro.smt.linexpr import Constraint, LinExpr, int_form
from repro.smt.solver import (
    Model,
    Solver,
    SolverError,
    theory_counters,
)

__all__ = [
    "int_form",
    "theory_counters",
    "EncodingError",
    "linearize",
    "BudgetExceeded",
    "LIAResult",
    "check_integer_feasible",
    "Constraint",
    "LinExpr",
    "Model",
    "Solver",
    "SolverError",
]
