"""A small CDCL SAT solver (watched literals, VSIDS, clause learning).

The Boolean skeletons produced by the Re2 validity checker are small (tens of
variables and clauses), but the DPLL(T) loop in :mod:`repro.smt.solver` solves
many closely related skeletons while theory lemmas accumulate.  The engine
here is therefore built for incremental use against **one** clause database
per solver:

* :class:`SatSolver` attaches to a :class:`CNF` clause database and ingests
  newly added clauses lazily, so every clause is attached exactly once, no
  matter how many queries it serves;
* queries are solved *under assumptions* (extra literals asserted for one call
  only), which is how the lazy DPLL(T) loop asserts the root literal of a
  Tseitin encoding against the shared database;
* a query may be restricted to a *cone* of variables: the solver branches
  only on cone variables, and propagation skips every clause (unit, problem
  or learned) whose largest variable lies outside the cone, so a query does
  not propagate through the parts of the database it does not mention.
  Skipping a clause only removes propagation, so the returned assignment
  covers the cone and satisfies every clause all of whose variables lie in
  it; whether the rest of the database may be ignored is the caller's
  argument to make (:mod:`repro.smt.solver` states it);
* unit propagation uses the two-watched-literals scheme, so propagating an
  assignment touches only the clauses watching the falsified literal instead
  of rescanning the whole clause list per decision level;
* conflicts are analyzed to the first unique implication point (1UIP),
  the resulting clause is learned and the solver backjumps non-chronologically;
* branching is VSIDS: every variable carries an exponentially-decayed
  activity score, bumped when the variable appears in conflict analysis.
  Decay is implemented by growing the bump increment (with a lazy rescale of
  all activities when the increment overflows ``1e100``) and decisions pop a
  lazily-filtered max-heap, so picking a branch variable is ``O(log V)``
  instead of the previous full scan over the clause database.  Decision
  polarity uses phase saving (last assigned polarity, default ``False``).

Learned clauses carry their own activity (bumped when they participate in
conflict analysis, with the same lazy-rescale trick) and the learned database
is periodically *reduced*: the least active half is detached and deleted,
keeping binary clauses and clauses currently locked as propagation reasons.
Clauses learned at the SAT level are logical consequences of the attached
database, so deleting them never affects soundness — unlike the theory lemmas
of the DPLL(T) loop, which arrive through :meth:`CNF.add_clause` and are kept
as ordinary problem clauses precisely so that they can never be deleted (the
theory loop relies on them to block theory-infeasible assignments for good).

Because the synthesis pipeline accepts candidates on sat/unsat *verdicts*
(never on which model comes back first), the change of search order relative
to the previous MOMS heuristic does not change synthesized programs — the
regression suite checks the benchmark programs byte-for-byte.

Literals follow the DIMACS convention: variables are positive integers and a
negative literal ``-v`` denotes the negation of variable ``v``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Collection, Dict, Iterable, List, Optional, Sequence, Tuple


Clause = Tuple[int, ...]

#: Variable-activity decay: each conflict multiplies the bump increment by
#: ``1 / _VAR_DECAY`` (equivalent to decaying every activity by ``_VAR_DECAY``).
_VAR_DECAY = 0.95
_CLAUSE_DECAY = 0.999
_RESCALE_LIMIT = 1e100
_RESCALE_FACTOR = 1e-100


@dataclass
class SatStats:
    """Process-wide counters for the SAT engine (read by the harness)."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    #: VSIDS activity bumps performed during conflict analysis.
    var_bumps: int = 0
    #: lazy rescales of the activity table (increment overflow).
    rescales: int = 0
    learned_clauses: int = 0
    deleted_clauses: int = 0
    db_reductions: int = 0
    #: problem clauses a solver took in from its database (set-up work).
    ingested_clauses: int = 0


stats = SatStats()


@dataclass
class CNF:
    """A CNF formula with a mutable clause database."""

    num_vars: int = 0
    clauses: List[Clause] = field(default_factory=list)
    #: Reusable scratch state for :meth:`add_clause` (clause ingestion is the
    #: hottest allocation site of the encoder: one dict + one intermediate
    #: tuple per Tseitin clause before this buffer existed).  Excluded from
    #: equality/repr.
    _buf: List[int] = field(default_factory=list, init=False, repr=False, compare=False)
    _seen: set = field(default_factory=set, init=False, repr=False, compare=False)

    def add_clause(self, literals: Iterable[int]) -> None:
        """Append a clause, deduplicating literals and dropping tautologies.

        Single pass over ``literals`` into a reused buffer: dedupe and the
        tautology check share one membership set, the literal order of first
        occurrence is kept (determinism), and the only allocation that
        survives is the stored clause tuple itself.
        """
        buf = self._buf
        seen = self._seen
        buf.clear()
        seen.clear()
        num_vars = self.num_vars
        for lit in literals:
            if lit in seen:
                continue
            if -lit in seen:
                return  # tautology
            seen.add(lit)
            buf.append(lit)
            var = lit if lit > 0 else -lit
            if var > num_vars:
                num_vars = var
        self.num_vars = num_vars
        self.clauses.append(tuple(buf))


class _Clause:
    """A watched clause; ``lits[0]`` and ``lits[1]`` are the watched literals.

    ``top`` is the clause's largest variable (the cone test of
    :meth:`SatSolver._propagate`).
    """

    __slots__ = ("lits", "learned", "activity", "top")

    def __init__(self, lits: Sequence[int], learned: bool = False) -> None:
        self.lits = list(lits)
        self.learned = learned
        self.activity = 0.0
        self.top = max(abs(lit) for lit in lits)


class SatSolver:
    """Incremental CDCL engine over one (growing) clause database.

    The solver never copies the database: clauses added to the attached
    :class:`CNF` after construction are ingested on the next :meth:`solve`
    call, once each, and per-query state (assignment trail, decision levels,
    implication reasons) is rebuilt from the assumptions each time.  Watch
    lists, variable activities, saved phases and the learned-clause database
    persist across calls: learned clauses are consequences of the database
    alone (assumption literals appear *inside* learned clauses rather than
    being assumed), so reusing them under different assumptions and cones is
    sound.
    """

    def __init__(self, cnf: CNF) -> None:
        self.cnf = cnf
        self._ingested = 0
        self._watch: Dict[int, List[_Clause]] = {}
        #: unit clauses, problem and learned alike.
        self._units: List[int] = []
        self._has_empty = False
        self._activity: Dict[int, float] = {}
        self._phase: Dict[int, bool] = {}
        self._var_inc = 1.0
        self._learned: List[_Clause] = []
        self._cla_inc = 1.0
        self._max_learned = 256
        self._qhead = 0
        #: the variables of the query in progress (branching universe).
        self._cone: Collection[int] = ()

    # -- clause ingestion ---------------------------------------------------
    def _ingest(self) -> None:
        clauses = self.cnf.clauses
        stats.ingested_clauses += len(clauses) - self._ingested
        for index in range(self._ingested, len(clauses)):
            clause = clauses[index]
            if not clause:
                self._has_empty = True
            elif len(clause) == 1:
                self._units.append(clause[0])
            else:
                self._attach(_Clause(clause))
        self._ingested = len(clauses)

    def _attach(self, clause: _Clause) -> None:
        self._watch.setdefault(clause.lits[0], []).append(clause)
        self._watch.setdefault(clause.lits[1], []).append(clause)

    def _detach(self, clause: _Clause) -> None:
        self._watch[clause.lits[0]].remove(clause)
        self._watch[clause.lits[1]].remove(clause)

    # -- solving --------------------------------------------------------------
    def solve(
        self, assumptions: Sequence[int] = (), cone: Optional[Collection[int]] = None
    ) -> Optional[Dict[int, bool]]:
        """A satisfying assignment extending ``assumptions``, or ``None``.

        ``cone`` restricts the query to those variables (it must contain the
        assumptions' variables); ``None`` means every variable of the
        database.  The returned assignment covers the whole cone and may
        assign further variables; callers default the remaining variables as
        they see fit.  The dictionary is freshly
        allocated and safe to mutate.
        """
        self._ingest()
        if self._has_empty:
            return None
        if cone is None:
            top = max((abs(lit) for lit in assumptions), default=0)
            cone = range(1, max(top, self.cnf.num_vars) + 1)
        self._cone = cone

        assign: Dict[int, bool] = {}
        level: Dict[int, int] = {}
        reason: Dict[int, Optional[_Clause]] = {}
        trail: List[int] = []
        trail_lim: List[int] = []
        self._qhead = 0

        def enqueue(literal: int, why: Optional[_Clause]) -> bool:
            var = abs(literal)
            value = literal > 0
            existing = assign.get(var)
            if existing is None:
                assign[var] = value
                level[var] = len(trail_lim)
                reason[var] = why
                trail.append(literal)
                return True
            return existing == value

        for literal in self._units:
            if abs(literal) in cone and not enqueue(literal, None):
                return None

        # Branching heap over the cone; stale entries (assigned, or superseded
        # by a later activity bump) are filtered on pop.
        activity = self._activity
        heap = [(-activity.get(v, 0.0), v) for v in cone]
        heapq.heapify(heap)

        def backtrack(target: int) -> None:
            mark = trail_lim[target]
            for lit in trail[mark:]:
                var = abs(lit)
                self._phase[var] = assign[var]
                del assign[var]
                reason[var] = None
                heapq.heappush(heap, (-activity.get(var, 0.0), var))
            del trail[mark:]
            del trail_lim[target:]
            self._qhead = mark

        while True:
            conflict = self._propagate(assign, level, reason, trail, trail_lim)
            if conflict is not None:
                stats.conflicts += 1
                if not trail_lim:
                    return None  # conflict under unit clauses alone
                learnt, bt_level = self._analyze(
                    conflict, assign, level, reason, trail, trail_lim, heap
                )
                backtrack(bt_level)
                if len(learnt) == 1:
                    # Globally valid unit: persists for future solve() calls.
                    self._units.append(learnt[0])
                    enqueue(learnt[0], None)
                else:
                    clause = _Clause(learnt, learned=True)
                    clause.activity = self._cla_inc
                    self._attach(clause)
                    self._learned.append(clause)
                    enqueue(learnt[0], clause)
                stats.learned_clauses += 1
                self._decay_activities()
                if len(self._learned) > self._max_learned:
                    self._reduce_db(reason)
                continue
            decision_level = len(trail_lim)
            if decision_level < len(assumptions):
                literal = assumptions[decision_level]
                existing = assign.get(abs(literal))
                if existing is not None:
                    if existing != (literal > 0):
                        return None  # assumption refuted by the database
                    trail_lim.append(len(trail))  # keep assumption levels aligned
                else:
                    trail_lim.append(len(trail))
                    enqueue(literal, None)
                continue
            var = self._pick_branch_var(heap, assign, activity)
            if var is None:
                return dict(assign)
            stats.decisions += 1
            literal = var if self._phase.get(var, False) else -var
            trail_lim.append(len(trail))
            enqueue(literal, None)

    # -- unit propagation (two watched literals) ------------------------------
    def _propagate(
        self,
        assign: Dict[int, bool],
        level: Dict[int, int],
        reason: Dict[int, Optional[_Clause]],
        trail: List[int],
        trail_lim: List[int],
    ) -> Optional[_Clause]:
        """Propagate to fixpoint; the conflicting clause, or ``None``.

        The propagation queue head lives in ``self._qhead`` (reset by
        :meth:`solve`, rewound by its ``backtrack``) so that re-entering after
        a conflict resumes where the trail was cut.  Problem clauses whose
        largest variable lies outside the query's cone are skipped.
        """
        watch = self._watch
        cone = self._cone
        qhead = self._qhead
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            watching = watch.get(false_lit)
            if not watching:
                continue
            i = 0
            while i < len(watching):
                clause = watching[i]
                if clause.top not in cone:
                    i += 1
                    continue
                lits = clause.lits
                if lits[0] == false_lit:
                    lits[0], lits[1] = lits[1], lits[0]
                other = lits[0]
                value = assign.get(abs(other))
                if value is not None and value == (other > 0):
                    i += 1
                    continue  # clause already satisfied by its other watch
                for j in range(2, len(lits)):
                    lj = lits[j]
                    vj = assign.get(abs(lj))
                    if vj is None or vj == (lj > 0):
                        lits[1], lits[j] = lj, lits[1]
                        watch.setdefault(lj, []).append(clause)
                        watching[i] = watching[-1]
                        watching.pop()
                        break
                else:
                    if value is not None:
                        self._qhead = qhead
                        return clause  # both watches false: conflict
                    stats.propagations += 1
                    assign[abs(other)] = other > 0
                    level[abs(other)] = len(trail_lim)
                    reason[abs(other)] = clause
                    trail.append(other)
                    i += 1
        self._qhead = qhead
        return None

    # -- conflict analysis (first UIP) ----------------------------------------
    def _analyze(
        self,
        conflict: _Clause,
        assign: Dict[int, bool],
        level: Dict[int, int],
        reason: Dict[int, Optional[_Clause]],
        trail: List[int],
        trail_lim: List[int],
        heap: List[Tuple[float, int]],
    ) -> Tuple[List[int], int]:
        """Derive the 1UIP clause and its backjump level.

        Resolves the conflicting clause backwards along the trail until a
        single literal of the current decision level remains; that literal
        (negated) asserts at the backjump level.  Variables met on the way get
        their VSIDS activity bumped; learned clauses met on the way get their
        clause activity bumped.
        """
        current = len(trail_lim)
        learnt: List[int] = []
        seen: set = set()
        counter = 0
        resolve_lit: Optional[int] = None
        index = len(trail) - 1
        clause: Optional[_Clause] = conflict
        while True:
            assert clause is not None
            if clause.learned:
                self._bump_clause(clause)
            for q in clause.lits:
                if q == resolve_lit:
                    continue
                var = abs(q)
                if var in seen or level.get(var, 0) == 0:
                    continue
                seen.add(var)
                self._bump_var(var, heap, assign)
                if level[var] == current:
                    counter += 1
                else:
                    learnt.append(q)
            while abs(trail[index]) not in seen:
                index -= 1
            resolve_lit = trail[index]
            index -= 1
            clause = reason[abs(resolve_lit)]
            counter -= 1
            if counter == 0:
                break
        learnt.insert(0, -resolve_lit)
        if len(learnt) == 1:
            return learnt, 0
        # Watch invariant: learnt[1] must sit at the backjump level.
        best = max(range(1, len(learnt)), key=lambda i: level[abs(learnt[i])])
        bt_level = level[abs(learnt[best])]
        learnt[1], learnt[best] = learnt[best], learnt[1]
        return learnt, bt_level

    # -- VSIDS ---------------------------------------------------------------
    def _bump_var(self, var: int, heap: List[Tuple[float, int]], assign: Dict[int, bool]) -> None:
        activity = self._activity
        value = activity.get(var, 0.0) + self._var_inc
        activity[var] = value
        stats.var_bumps += 1
        if value > _RESCALE_LIMIT:
            self._rescale(heap, assign)
        else:
            heapq.heappush(heap, (-value, var))

    def _rescale(self, heap: List[Tuple[float, int]], assign: Dict[int, bool]) -> None:
        """Scale every activity down when the bump increment overflows."""
        stats.rescales += 1
        activity = self._activity
        for var in activity:
            activity[var] *= _RESCALE_FACTOR
        self._var_inc *= _RESCALE_FACTOR
        for var in self._cone:
            if var not in assign:
                heapq.heappush(heap, (-activity.get(var, 0.0), var))

    def _decay_activities(self) -> None:
        self._var_inc /= _VAR_DECAY
        self._cla_inc /= _CLAUSE_DECAY

    def _pick_branch_var(
        self,
        heap: List[Tuple[float, int]],
        assign: Dict[int, bool],
        activity: Dict[int, float],
    ) -> Optional[int]:
        """Pop the most active unassigned cone variable (lazy-heap filtering).

        A clause whose largest variable lies in the cone may still assign a
        variable outside it, and conflict analysis and backtracking push such
        variables too; they are never branched on.
        """
        cone = self._cone
        while heap:
            neg_act, var = heapq.heappop(heap)
            if var in assign or var not in cone:
                continue
            if -neg_act != activity.get(var, 0.0):
                continue  # stale entry; the bump pushed a fresh one
            return var
        return None

    # -- learned-clause management --------------------------------------------
    def _bump_clause(self, clause: _Clause) -> None:
        clause.activity += self._cla_inc
        if clause.activity > _RESCALE_LIMIT:
            for learned in self._learned:
                learned.activity *= _RESCALE_FACTOR
            self._cla_inc *= _RESCALE_FACTOR

    def _reduce_db(self, reason: Dict[int, Optional[_Clause]]) -> None:
        """Delete the least-active half of the learned clauses.

        Binary clauses are always kept (cheap and strong), as are clauses
        currently locked as the propagation reason of their first watch.
        Everything deleted is a logical consequence of the remaining database,
        so deletion trades propagation strength for watch-list size only.
        """
        stats.db_reductions += 1
        self._learned.sort(key=lambda c: c.activity)
        keep: List[_Clause] = []
        target = len(self._learned) // 2
        deleted = 0
        for clause in self._learned:
            locked = reason.get(abs(clause.lits[0])) is clause
            if deleted >= target or len(clause.lits) <= 2 or locked:
                keep.append(clause)
            else:
                self._detach(clause)
                deleted += 1
        self._learned = keep
        stats.deleted_clauses += deleted
        self._max_learned = int(self._max_learned * 1.5)


def solve(cnf: CNF, assumptions: Sequence[int] = ()) -> Optional[Dict[int, bool]]:
    """Return a satisfying assignment (as ``var -> bool``) or ``None``.

    One-shot convenience wrapper over the whole database; long-lived callers
    should keep a :class:`SatSolver` attached to their CNF instead.
    """
    model = SatSolver(cnf).solve(assumptions)
    if model is None:
        return None
    # Default unconstrained variables to False for a total assignment.
    for var in range(1, cnf.num_vars + 1):
        model.setdefault(var, False)
    return model
