"""Lazy DPLL(T) solver for the Re2 refinement logic.

This is the component that stands in for Z3 in the paper's tool chain: the
type checker and the CEGIS loop discharge their queries
through :meth:`Solver.check_sat` / :meth:`Solver.check_valid`.

The solver enumerates Boolean models of the Tseitin skeleton produced by
:mod:`repro.smt.encoder` and checks each model's asserted linear atoms for
integer feasibility with :mod:`repro.smt.lia`.  Theory conflicts are turned
into blocking clauses until either a theory-consistent model is found or the
skeleton becomes unsatisfiable.  The blocking clause negates the **minimal
unsat core** returned by the LIA engine (derived from Farkas provenance plus
a deletion pass inside :mod:`repro.smt.lia`) — the solver itself never
re-probes subsets of the atom assignment.

Key invariants the pipeline relies on:

* *Term interning* (:mod:`repro.logic.terms`): every `Term` constructor
  returns the unique interned node for its structure, so formulas are valid
  dictionary keys and the caches below compare by identity-backed equality.
* *One clause database per solver*
  (:class:`repro.smt.encoder.IncrementalEncoder`): a theory atom maps to one
  SAT variable and a formula node to one gate for the encoder's lifetime,
  and every gate's Tseitin clauses and every learned theory lemma enter one
  shared database exactly once.  Lemmas are ordinary problem clauses, which
  the SAT engine never deletes, so the DPLL(T) loop cannot rediscover the
  same conflict forever.

The cone rule.  A query solves under the assumption of its root literal,
restricted to its *cone* (every variable of its clauses and atoms): the SAT
engine branches only on cone variables and skips every clause whose largest
variable lies outside the cone.  For a Tseitin clause that variable is the
gate it defines, so the formula's own gate clauses propagate and no other
formula's do.  This is sound because every other problem clause is either
the functional definition of a gate over its children or a lemma valid in
linear integer arithmetic: any theory-consistent model of the formula
extends to a model of the whole database, so the database is a
conservative extension of every formula it encodes.  Clauses the SAT engine
learns are consequences of the database, and skipping a clause only
removes propagation.

The pipeline is *incremental* across queries (the property the paper's
T-NInc ablation shows to matter, Table 2):

* formula nodes are encoded once and re-solved against the shared database,
  so a repeated subformula adds no clauses and every query sees every
  theory lemma learned before it over its atoms;
* validity results and satisfying models are memoized per interned formula in
  bounded LRU caches, with hit/miss counters on :class:`SolverStats`.

There is one pipeline: every query goes through the shared encoder, the
shared database and the memoized LIA engine.  The memo tables are
transparent (a cold process synthesizes the same programs as a warm one);
the independent oracle for the theory layer is the Fraction-based
reference engine in ``tests/lia_reference.py``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.logic import terms as t
from repro.logic.terms import Term
from repro.obs import trace
from repro.smt import lia
from repro.smt import sat
from repro.smt.encoder import FormulaEncoding, IncrementalEncoder
from repro.smt.lia import BudgetExceeded, check_integer_feasible
from repro.smt.linexpr import Constraint, LinExpr


#: DPLL(T) rounds one query may take before it gives up with SolverError.
_THEORY_ITERATIONS_MAX = 2000
#: Bounds of the per-solver validity and model LRU caches.
_VALID_CACHE_MAX = 8192
_MODEL_CACHE_MAX = 8192


class SolverError(Exception):
    """Raised when a query exceeds the solver's resource budget."""


@dataclass
class Model:
    """A satisfying assignment for a refinement formula.

    ``ints`` maps variable names and flattened measure applications to integer
    values; ``bools`` maps opaque Boolean atoms (including grounded membership
    atoms) to truth values.  Models may be shared between callers through the
    solver's model cache and must be treated as read-only.
    """

    ints: Dict[object, int] = field(default_factory=dict)
    bools: Dict[Term, bool] = field(default_factory=dict)

    def value(self, name: str, default: int = 0) -> int:
        """The integer value of a named variable (0 if unconstrained)."""
        return int(self.ints.get(name, default))

    def named_values(self) -> Dict[str, int]:
        """Only the string-named integer variables of the model."""
        return {k: v for k, v in self.ints.items() if isinstance(k, str)}

    def __str__(self) -> str:
        parts = [f"{k}={v}" for k, v in sorted(self.named_values().items())]
        return "{" + ", ".join(parts) + "}"


@dataclass
class SolverStats:
    """Counters exposed for the evaluation harness."""

    sat_queries: int = 0
    validity_queries: int = 0
    theory_checks: int = 0
    theory_conflicts: int = 0
    sat_solves: int = 0
    valid_cache_hits: int = 0
    valid_cache_misses: int = 0
    model_cache_hits: int = 0
    model_cache_misses: int = 0
    lemmas_learned: int = 0

    def valid_cache_hit_rate(self) -> float:
        total = self.valid_cache_hits + self.valid_cache_misses
        return self.valid_cache_hits / total if total else 0.0

    def model_cache_hit_rate(self) -> float:
        total = self.model_cache_hits + self.model_cache_misses
        return self.model_cache_hits / total if total else 0.0


class Solver:
    """Satisfiability and validity checking for refinement formulas."""

    def __init__(self) -> None:
        self.stats = SolverStats()
        self._valid_cache: "OrderedDict[Term, bool]" = OrderedDict()
        self._model_cache: "OrderedDict[Term, Optional[Model]]" = OrderedDict()
        self._encoder = IncrementalEncoder()
        #: atom var -> negated linear atom (``expr >= 1`` as ``-expr+1 <= 0``).
        #: Atom vars are unique per encoder, so memoizing the negation keeps
        #: one stable LinExpr instance per atom across theory checks — which
        #: also keeps the per-instance integer-scaling memos hot.
        self._negated_atoms: Dict[int, LinExpr] = {}

    # -- public API -------------------------------------------------------
    def check_sat(self, formula: Term) -> Optional[Model]:
        """Return a model of ``formula`` or ``None`` when unsatisfiable."""
        self.stats.sat_queries += 1
        cached = self._model_cache.get(formula, _MISSING)
        if cached is not _MISSING:
            self._model_cache.move_to_end(formula)
            self.stats.model_cache_hits += 1
            return cached
        self.stats.model_cache_misses += 1
        encoding = self._encoder.encode(formula)
        if encoding.trivial is not None:
            result: Optional[Model] = Model() if encoding.trivial else None
        else:
            with trace.span("smt.solve"):
                result = self._solve(encoding)
        self._model_cache[formula] = result
        if len(self._model_cache) > _MODEL_CACHE_MAX:
            self._model_cache.popitem(last=False)
        return result

    def check_valid(self, formula: Term) -> bool:
        """Whether ``formula`` holds in all models (validity checking, App. B)."""
        cached = self._valid_cache.get(formula)
        if cached is not None:
            self._valid_cache.move_to_end(formula)
            self.stats.valid_cache_hits += 1
            return cached
        self.stats.valid_cache_misses += 1
        self.stats.validity_queries += 1
        result = self.check_sat(t.neg(formula)) is None
        self._valid_cache[formula] = result
        if len(self._valid_cache) > _VALID_CACHE_MAX:
            self._valid_cache.popitem(last=False)
        return result

    def counters_snapshot(self) -> Dict[str, int]:
        """Raw cumulative per-instance counters (solver + encoder).

        Monotonically increasing for the life of the instance, so a per-run
        report is the difference of two snapshots — this is what lets one
        warm solver serve many jobs while each job still reports only its
        own traffic (see :meth:`cache_report` and ``Synthesizer``).
        """
        stats, enc = self.stats, self._encoder.stats
        return {
            "sat_queries": stats.sat_queries,
            "validity_queries": stats.validity_queries,
            "theory_checks": stats.theory_checks,
            "theory_conflicts": stats.theory_conflicts,
            "sat_solves": stats.sat_solves,
            "valid_cache_hits": stats.valid_cache_hits,
            "valid_cache_misses": stats.valid_cache_misses,
            "model_cache_hits": stats.model_cache_hits,
            "model_cache_misses": stats.model_cache_misses,
            "lemmas_learned": stats.lemmas_learned,
            "gate_queries": enc.gate_queries,
            "gate_hits": enc.gate_hits,
            "gate_clauses_reused": enc.gate_clauses_reused,
            "database_resets": enc.database_resets,
        }

    def warm_sizes(self) -> Dict[str, int]:
        """Sizes of the reusable state a long-lived solver carries.

        Nonzero values at the *start* of a job are the proof that warm state
        from earlier jobs is being reused (the ``warm_state`` counter block
        of the synthesis server).
        """
        return {
            "gate_entries": len(self._encoder._gate_cache),
            "atom_entries": len(self._encoder._atom_cache),
            "sat_clauses": len(self._encoder.cnf.clauses),
            "valid_entries": len(self._valid_cache),
            "model_entries": len(self._model_cache),
        }

    def cache_report(self, since: Optional[Dict[str, int]] = None) -> Dict[str, float]:
        """Query counts and hit rates of every cache layer (for harnesses).

        Covers the per-instance counters only; the process-wide LIA/SAT
        counters are snapshotted via :func:`theory_counters` and
        reported as per-run deltas by the synthesis harness.

        ``since`` — a :meth:`counters_snapshot` taken earlier — scopes the
        report to the traffic after that snapshot.  On a fresh solver the
        delta equals the totals, so cold-path reports are byte-identical
        with or without it; on a warm (shared) solver it is what keeps
        per-job stats per-job.
        """
        d = delta(since or {}, self.counters_snapshot())

        def rate(hits: float, total: float) -> float:
            return round(hits / total, 4) if total else 0.0

        return {
            "sat_queries": d["sat_queries"],
            "validity_queries": d["validity_queries"],
            "theory_checks": d["theory_checks"],
            "theory_conflicts": d["theory_conflicts"],
            "sat_solves": d["sat_solves"],
            "valid_cache_hit_rate": rate(
                d["valid_cache_hits"], d["valid_cache_hits"] + d["valid_cache_misses"]
            ),
            "model_cache_hit_rate": rate(
                d["model_cache_hits"], d["model_cache_hits"] + d["model_cache_misses"]
            ),
            "gate_cache_queries": d["gate_queries"],
            "gate_cache_hits": d["gate_hits"],
            "gate_cache_hit_rate": rate(d["gate_hits"], d["gate_queries"]),
            "gate_clauses_reused": d["gate_clauses_reused"],
            "lemmas_learned": d["lemmas_learned"],
        }

    # -- DPLL(T) loop -------------------------------------------------------
    def _solve(self, encoding: FormulaEncoding) -> Optional[Model]:
        """The DPLL(T) loop for one formula, against the shared database."""
        sat_solver = self._encoder.sat
        database = self._encoder.cnf
        assumptions = (encoding.root,)
        cone = encoding.cone
        for _ in range(_THEORY_ITERATIONS_MAX):
            self.stats.sat_solves += 1
            with trace.span("sat.solve") as sat_span:
                if sat_span:
                    before = (sat.stats.propagations, sat.stats.decisions, sat.stats.conflicts)
                assignment = sat_solver.solve(assumptions, cone)
                if sat_span:
                    sat_span.count("propagations", sat.stats.propagations - before[0])
                    sat_span.count("decisions", sat.stats.decisions - before[1])
                    sat_span.count("conflicts", sat.stats.conflicts - before[2])
            if assignment is None:
                return None
            literals = self._theory_literals(encoding, assignment)
            self.stats.theory_checks += 1
            constraints = [Constraint(expr) for _, expr in literals]
            try:
                with trace.span("lia.check") as lia_span:
                    result = check_integer_feasible(constraints)
                    if lia_span:
                        lia_span.count("constraints", len(constraints))
            except BudgetExceeded as exc:
                raise SolverError(str(exc)) from exc
            if result.satisfiable:
                return self._build_model(encoding, assignment, result.model or {})
            self.stats.theory_conflicts += 1
            core = result.core
            if core:
                clause = tuple(
                    -var if positive else var
                    for (var, positive), expr in literals
                    if expr in core
                )
            else:  # defensive: block the whole assignment
                clause = tuple(-var if positive else var for (var, positive), _ in literals)
            database.add_clause(clause)
            self.stats.lemmas_learned += 1
        raise SolverError("exceeded theory iteration budget")

    def _theory_literals(
        self, encoding: FormulaEncoding, assignment: Dict[int, bool]
    ) -> List[Tuple[Tuple[int, bool], LinExpr]]:
        """Linear constraints asserted by a Boolean assignment.

        A positive linear atom ``expr <= 0`` contributes ``expr <= 0``;
        a negated one contributes ``-expr + 1 <= 0`` (i.e. ``expr >= 1``),
        which is the exact negation over the integers.  Atoms the SAT search
        left unassigned default to False, as in a total assignment.

        Negations are memoized per atom variable (``self._negated_atoms``):
        vars are encoder-unique, so the memo hands back the one interned
        negation instance, keeping its ``int_form`` memo warm.
        """
        literals: List[Tuple[Tuple[int, bool], LinExpr]] = []
        negated = self._negated_atoms
        one = LinExpr.const(1)
        for var, expr in encoding.linear_atoms.items():
            if assignment.get(var, False):
                literals.append(((var, True), expr))
            else:
                neg = negated.get(var)
                if neg is None:
                    neg = (-expr) + one
                    negated[var] = neg
                literals.append(((var, False), neg))
        return literals

    def _build_model(
        self,
        encoding: FormulaEncoding,
        assignment: Dict[int, bool],
        int_model: Dict[object, int],
    ) -> Model:
        model = Model()
        model.ints.update(int_model)
        for var, atom in encoding.bool_atoms.items():
            model.bools[atom] = assignment.get(var, False)
        return model


def theory_counters() -> Dict[str, float]:
    """Snapshot of the process-wide SMT counters (LIA and SAT).

    One flat dictionary under the exact key names ``SynthesisResult.stats``
    and the ``counters`` block of ``BENCH_synthesis.json`` use: LIA cache
    traffic, Fourier-Motzkin eliminations and tightenings, unsat-core
    counts/sizes/probes, and the SAT engine's decision/conflict/VSIDS/
    learned-clause activity and clause ingestion.
    All counters are monotonically increasing, so a per-run report is the
    :func:`delta` of two snapshots (see ``Synthesizer._collect_stats``).
    """
    return {
        "lia_queries": lia.stats.queries,
        "lia_cache_hits": lia.stats.cache_hits,
        "lia_eliminations": lia.stats.eliminations,
        "lia_tightenings": lia.stats.tightenings,
        "lia_cores": lia.stats.cores,
        "lia_core_size_total": lia.stats.core_size_total,
        "lia_core_probes": lia.stats.core_probes,
        "sat_decisions": sat.stats.decisions,
        "sat_propagations": sat.stats.propagations,
        "sat_conflicts": sat.stats.conflicts,
        "sat_var_bumps": sat.stats.var_bumps,
        "sat_rescales": sat.stats.rescales,
        "sat_learned_clauses": sat.stats.learned_clauses,
        "sat_deleted_clauses": sat.stats.deleted_clauses,
        "sat_db_reductions": sat.stats.db_reductions,
        "sat_ingested_clauses": sat.stats.ingested_clauses,
    }


def delta(before: Mapping[str, float], after: Mapping[str, float]) -> Dict[str, float]:
    """Per-run difference of two monotonic snapshots (keys taken from ``after``)."""
    return {key: value - before.get(key, 0) for key, value in after.items()}


#: Sentinel distinguishing "cached None" from "not cached" in the model cache.
_MISSING = object()

