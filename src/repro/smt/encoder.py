"""Encoding of refinement-logic formulas into SAT + linear integer arithmetic.

The paper discharges validity and CEGIS queries with Z3 (Sec. 2.1, 4.2, 4.3).
This module implements the corresponding reduction for the Re2 fragment:

* numeric ``Ite`` terms are lifted out of atoms,
* equalities between data-sorted terms are interpreted as equality of all
  measures occurring in the query (the standard liquid-types treatment of
  algebraic values),
* set atoms (equality, subset, membership, bounded quantification) are
  *grounded* over the finite universe of element terms occurring in the query,
  with Skolem constants for negative occurrences — the classical reduction of
  the array/set property fragment to quantifier-free reasoning,
* measure applications are flattened into opaque integer variables, with
  congruence axioms instantiated explicitly (exactly the strategy described in
  Sec. 4.3 of the paper), and
* the resulting propositional structure is Tseitin-encoded into CNF whose
  theory atoms are linear constraints ``expr <= 0``.

:class:`IncrementalEncoder` is the only entry point.  It encodes each formula
once against a persistent atom table and Tseitin gate cache, and its output
feeds the lazy DPLL(T) loop in :mod:`repro.smt.solver`.  The preprocessing
passes are memoized per interned term in bounded module-wide tables; since
they are pure term-to-term maps, the memos are always on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.logic import terms as t
from repro.logic.simplify import simplify
from repro.logic.sorts import BOOL, DATA, INT, SET, Sort
from repro.logic.terms import Term
from repro.obs import metrics, trace
from repro.smt.linexpr import LinExpr
from repro.smt.sat import CNF


class EncodingError(Exception):
    """Raised when a query falls outside the supported (linear) fragment."""


#: Name of the synthetic membership predicate produced by set grounding.
MEMBER_FUNC = "__mem"

#: Unary measures equated when two data-sorted terms are asserted equal.
_UNARY_DATA_MEASURES = ("len", "elems", "selems", "size", "telems", "sumlen", "numuniq")


@dataclass
class EncoderStats:
    """Cache counters for the evaluation harness."""

    encode_calls: int = 0
    encode_cache_hits: int = 0
    preprocess_calls: int = 0
    preprocess_cache_hits: int = 0
    #: shared Tseitin gate cache traffic (per formula node, atoms included).
    gate_queries: int = 0
    gate_hits: int = 0
    #: clauses replayed from the gate cache instead of being rebuilt.
    gate_clauses_reused: int = 0

    def gate_hit_rate(self) -> float:
        return self.gate_hits / self.gate_queries if self.gate_queries else 0.0


#: formula -> preprocessed (pre-Tseitin) formula, shared by all encoders.
_PRE_CACHE: Dict[Term, Term] = {}
#: per-node memos of the preprocessing passes (pure term -> term maps).
_ITE_CACHE: Dict[Term, Term] = {}
_ITE_NUMERIC_CACHE: Dict[Term, Term] = {}
_NNF_CACHE: Dict[Tuple[Term, bool], Term] = {}
#: Bound for the module-level caches; cleared wholesale when exceeded.
_MODULE_CACHE_MAX = 1 << 16

stats = EncoderStats()

#: Module-wide preprocessing counters surfaced through the metrics registry
#: (the per-encoder gate/encode counters live on each instance and flow
#: through ``Solver.cache_report`` instead).
metrics.REGISTRY.register_view(
    "smt.encoder",
    lambda: {
        "preprocess_calls": stats.preprocess_calls,
        "preprocess_cache_hits": stats.preprocess_cache_hits,
    },
)


def _bounded_store(cache: Dict, key, value) -> None:
    """Insert into a module cache, clearing it wholesale at the bound."""
    if len(cache) >= _MODULE_CACHE_MAX:
        cache.clear()
    cache[key] = value


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def _preprocess(formula: Term) -> Term:
    """Simplify + Ite-elimination + data equalities + NNF + set grounding.

    The result is either a :class:`~repro.logic.terms.BoolConst` (trivial
    query) or a ground, NNF, Ite-free formula ready for Tseitin encoding.
    Cached per interned formula: the synthesizer re-checks the same subtyping
    and consistency queries many times along different search branches.
    """
    stats.preprocess_calls += 1
    cached = _PRE_CACHE.get(formula)
    if cached is not None:
        stats.preprocess_cache_hits += 1
        return cached
    with trace.span("smt.preprocess"):
        result = simplify(formula)
        if not isinstance(result, t.BoolConst):
            fresh = _FreshNames()
            result = _eliminate_ite(result)
            result = _expand_data_equalities(result)
            result = _nnf(result, positive=True)
            result = _ground_sets(result, fresh)
            result = simplify(result)
    _bounded_store(_PRE_CACHE, formula, result)
    return result


@dataclass
class FormulaEncoding:
    """A formula's encoding against a shared atom table.

    ``cnf`` holds only this formula's Tseitin gate clauses (plus any theory
    lemmas the solver appends); the root literal is *not* asserted as a unit
    clause — the DPLL(T) loop solves under the assumption ``root`` instead,
    so learned lemmas live alongside reusable gate clauses.
    """

    root: int
    cnf: CNF
    #: relevant theory atoms of this formula (subsets of the shared tables).
    linear_atoms: Dict[int, LinExpr]
    bool_atoms: Dict[int, Term]
    atom_vars: frozenset
    trivial: Optional[bool] = None
    #: per-encoding solver state, attached lazily by repro.smt.solver.
    sat: Optional[object] = None
    lemma_pos: int = 0
    lemma_seen: set = field(default_factory=set)


@dataclass
class _GateEntry:
    """The shared-cache record of one encoded formula node.

    ``literal`` is the node's Tseitin literal against the encoder's persistent
    variable space; ``clauses`` are the node's *own* gate clauses (children
    keep theirs in their own entries — replay recurses through ``deps``);
    ``lin_atoms``/``bool_atoms`` are the theory atoms registered directly by
    this node, and ``max_var`` the largest variable the replay introduces.
    """

    literal: int
    clauses: Tuple[Tuple[int, ...], ...]
    lin_atoms: Tuple[Tuple[int, LinExpr], ...]
    bool_atoms: Tuple[Tuple[int, Term], ...]
    deps: Tuple[Term, ...]
    max_var: int


class IncrementalEncoder:
    """Persistent encoder whose atom table is shared across queries.

    Every theory atom (a normalized linear constraint or an opaque Boolean
    term) maps to one SAT variable for the lifetime of the encoder, no matter
    how many formulas mention it.  This is what makes theory lemmas portable:
    a blocking clause learned while solving one query speaks about the same
    variables in every later query, so the solver can replay it wherever the
    lemma's atoms all occur (see ``Solver._sync_lemmas``).

    On top of the atom table sits the **shared Tseitin gate cache**
    (``_gate_cache``): every non-atom formula node keeps its gate output
    variable and defining clauses for the lifetime of the encoder, keyed on
    the hash-consed (interned) term.  A subformula that reappears in a later
    query — the norm across CEGIS iterations and enumeration branches, which
    re-check conjunctions sharing most of their structure — is *replayed*:
    its existing clauses are appended to the new formula's clause group with
    no new auxiliary variables and no newly built clause tuples.
    """

    def __init__(self) -> None:
        self._counter = 0
        self._atom_cache: Dict[object, int] = {}
        #: global atom tables (var -> atom), across all formulas.
        self.linear_atoms: Dict[int, LinExpr] = {}
        self.bool_atoms: Dict[int, Term] = {}
        self._cache: Dict[Term, FormulaEncoding] = {}
        #: shared Tseitin gate cache: preprocessed node -> gate entry.
        self._gate_cache: Dict[Term, _GateEntry] = {}
        self.stats = EncoderStats()

    def new_var(self) -> int:
        self._counter += 1
        return self._counter

    def forget_formulas(self) -> None:
        """Drop the per-formula encodings, keeping atoms and gates (tests)."""
        self._cache.clear()

    def encode(self, formula: Term) -> FormulaEncoding:
        self.stats.encode_calls += 1
        cached = self._cache.get(formula)
        if cached is not None:
            self.stats.encode_cache_hits += 1
            return cached
        with trace.span("smt.encode") as sp:
            # Bound the gate cache *between* formula builds only: mid-build
            # eviction could orphan a parent entry whose children are gone.
            if len(self._gate_cache) >= _MODULE_CACHE_MAX:
                self._gate_cache.clear()
            preprocessed = _preprocess(formula)
            if isinstance(preprocessed, t.BoolConst):
                encoding = FormulaEncoding(
                    0, CNF(), {}, {}, frozenset(), trivial=preprocessed.value
                )
            else:
                builder = _CnfBuilder(shared=self)
                root = builder.literal_for(preprocessed)
                encoding = FormulaEncoding(
                    root,
                    builder.cnf,
                    builder.linear_atoms,
                    builder.bool_atoms,
                    frozenset(builder.linear_atoms) | frozenset(builder.bool_atoms),
                )
            if sp:
                sp.count("clauses", len(encoding.cnf.clauses))
        self._cache[formula] = encoding
        return encoding


class _FreshNames:
    """Generator of fresh Skolem variable names."""

    def __init__(self) -> None:
        self._counter = itertools.count()

    def fresh(self, prefix: str) -> str:
        return f"{prefix}%{next(self._counter)}"


# ---------------------------------------------------------------------------
# Step 1: Ite elimination
# ---------------------------------------------------------------------------


def _eliminate_ite(term: Term) -> Term:
    """Remove ``Ite`` nodes by case-splitting the enclosing atom (memoized)."""
    result = _ITE_CACHE.get(term)
    if result is None:
        result = _eliminate_ite_uncached(term)
        _bounded_store(_ITE_CACHE, term, result)
    return result


def _eliminate_ite_uncached(term: Term) -> Term:
    if isinstance(term, t.Ite) and term.sort == BOOL:
        return _eliminate_ite(
            t.disj(
                t.conj(term.cond, term.then_branch),
                t.conj(t.neg(term.cond), term.else_branch),
            )
        )
    if isinstance(term, (t.And, t.Or)):
        rebuilt = t._rebuild(term, tuple(_eliminate_ite(a) for a in term.children()))
        return rebuilt
    if isinstance(term, (t.Not, t.Implies, t.Iff)):
        return t._rebuild(term, tuple(_eliminate_ite(a) for a in term.children()))
    if isinstance(term, t.SetAll):
        return t.SetAll(term.var, _eliminate_ite_numeric(term.set_term), _eliminate_ite(term.body))
    # ``term`` is an atom; lift any numeric Ite occurring inside it.
    ite = _find_numeric_ite(term)
    if ite is None:
        return term
    then_atom = _replace(term, ite, ite.then_branch)
    else_atom = _replace(term, ite, ite.else_branch)
    split = t.disj(
        t.conj(ite.cond, then_atom),
        t.conj(t.neg(ite.cond), else_atom),
    )
    return _eliminate_ite(split)


def _eliminate_ite_numeric(term: Term) -> Term:
    """Ite elimination for non-Boolean positions (sets): only recurse."""
    children = term.children()
    if not children:
        return term
    result = _ITE_NUMERIC_CACHE.get(term)
    if result is None:
        result = t._rebuild(term, tuple(_eliminate_ite_numeric(c) for c in children))
        _bounded_store(_ITE_NUMERIC_CACHE, term, result)
    return result


def _find_numeric_ite(term: Term) -> Optional[t.Ite]:
    for sub in term.walk():
        if isinstance(sub, t.Ite) and sub.sort != BOOL:
            return sub
    return None


def _replace(term: Term, target: Term, replacement: Term) -> Term:
    if term == target:
        return replacement
    children = term.children()
    if not children:
        return term
    new_children = tuple(_replace(c, target, replacement) for c in children)
    if isinstance(term, t.SetAll):
        return t.SetAll(term.var, new_children[0], new_children[1])
    return t._rebuild(term, new_children)


# ---------------------------------------------------------------------------
# Step 2: data equalities
# ---------------------------------------------------------------------------


def _term_sort(term: Term) -> Sort:
    return term.sort


def _expand_data_equalities(formula: Term) -> Term:
    """Interpret ``l == r`` between data-sorted terms as measure equality."""
    apps = t.apps_in(formula)

    def expand(term: Term) -> Term:
        if (
            isinstance(term, t.Eq)
            and _term_sort(term.left) == DATA
            and _term_sort(term.right) == DATA
        ):
            return _measure_equalities(term.left, term.right, apps)
        children = term.children()
        if not children:
            return term
        new_children = tuple(expand(c) for c in children)
        if isinstance(term, t.SetAll):
            return t.SetAll(term.var, new_children[0], new_children[1])
        return t._rebuild(term, new_children)

    return expand(formula)


def _measure_equalities(left: Term, right: Term, apps: frozenset[t.App]) -> Term:
    clauses: List[Term] = []
    unary_present = {a.func for a in apps if len(a.args) == 1} & set(_UNARY_DATA_MEASURES)
    if not unary_present:
        unary_present = {"len", "elems"}
    for func in sorted(unary_present):
        sort = SET if func in ("elems", "selems", "telems") else INT
        clauses.append(t.Eq(t.App(func, (left,), sort), t.App(func, (right,), sort)))
    # Binary measures (e.g. numgt): equate applications whose data argument is
    # one of the two sides, at the same first argument.
    for app in apps:
        if len(app.args) == 2 and app.args[1] in (left, right):
            clauses.append(
                t.Eq(
                    t.App(app.func, (app.args[0], left), app.sort),
                    t.App(app.func, (app.args[0], right), app.sort),
                )
            )
    return t.conj(*clauses)


# ---------------------------------------------------------------------------
# Step 3: negation normal form
# ---------------------------------------------------------------------------


def _nnf(term: Term, positive: bool) -> Term:
    key = (term, positive)
    result = _NNF_CACHE.get(key)
    if result is None:
        result = _nnf_uncached(term, positive)
        _bounded_store(_NNF_CACHE, key, result)
    return result


def _nnf_uncached(term: Term, positive: bool) -> Term:
    if isinstance(term, t.Not):
        return _nnf(term.arg, not positive)
    if isinstance(term, t.And):
        parts = tuple(_nnf(a, positive) for a in term.args)
        return t.conj(*parts) if positive else t.disj(*parts)
    if isinstance(term, t.Or):
        parts = tuple(_nnf(a, positive) for a in term.args)
        return t.disj(*parts) if positive else t.conj(*parts)
    if isinstance(term, t.Implies):
        if positive:
            return t.disj(_nnf(term.antecedent, False), _nnf(term.consequent, True))
        return t.conj(_nnf(term.antecedent, True), _nnf(term.consequent, False))
    if isinstance(term, t.Iff):
        both = t.conj(
            t.disj(_nnf(term.left, False), _nnf(term.right, True)),
            t.disj(_nnf(term.right, False), _nnf(term.left, True)),
        )
        if positive:
            return both
        return t.disj(
            t.conj(_nnf(term.left, True), _nnf(term.right, False)),
            t.conj(_nnf(term.right, True), _nnf(term.left, False)),
        )
    if isinstance(term, t.BoolConst):
        return term if positive else t.BoolConst(not term.value)
    # Atom.
    return term if positive else t.Not(term)


# ---------------------------------------------------------------------------
# Step 4: set grounding
# ---------------------------------------------------------------------------


def _is_set_sorted(term: Term) -> bool:
    return term.sort == SET


def _ground_sets(formula: Term, fresh: _FreshNames) -> Term:
    """Ground set reasoning over the finite universe of element terms."""
    if not _mentions_sets(formula):
        return formula

    elements = _collect_element_terms(formula)
    skolems: List[Term] = []
    _assign_skolems(formula, positive=True, fresh=fresh, out=skolems)
    universe: List[Term] = list(dict.fromkeys(elements + skolems))
    skolem_iter = iter(skolems)
    grounded = _ground(formula, positive=True, universe=universe, skolems=skolem_iter)
    axioms = _element_congruence_axioms(grounded, universe)
    return t.conj(grounded, *axioms)


def _mentions_sets(formula: Term) -> bool:
    return any(
        isinstance(
            sub,
            (
                t.SetMember,
                t.SetSubset,
                t.SetAll,
                t.EmptySet,
                t.SetSingleton,
                t.SetUnion,
                t.SetIntersect,
                t.SetDiff,
            ),
        )
        or (isinstance(sub, t.Eq) and _is_set_sorted(sub.left))
        for sub in formula.walk()
    )


def _collect_element_terms(formula: Term) -> List[Term]:
    result: List[Term] = []
    for sub in formula.walk():
        if isinstance(sub, t.SetSingleton):
            result.append(sub.elem)
        elif isinstance(sub, t.SetMember):
            result.append(sub.elem)
    return list(dict.fromkeys(result))


def _is_negative_set_atom(term: Term) -> bool:
    return isinstance(term, (t.SetSubset, t.SetAll)) or (
        isinstance(term, t.Eq) and _is_set_sorted(term.left)
    )


def _assign_skolems(term: Term, positive: bool, fresh: _FreshNames, out: List[Term]) -> None:
    """Pre-pass: create one Skolem element per negative-polarity set atom."""
    if isinstance(term, t.Not):
        _assign_skolems(term.arg, not positive, fresh, out)
        return
    if isinstance(term, (t.And, t.Or)):
        for child in term.args:
            _assign_skolems(child, positive, fresh, out)
        return
    if not positive and _is_negative_set_atom(term):
        out.append(t.Var(fresh.fresh("__skolem"), INT))


def _ground(term: Term, positive: bool, universe: List[Term], skolems) -> Term:
    if isinstance(term, t.Not):
        return _ground(term.arg, not positive, universe, skolems)
    if isinstance(term, (t.And, t.Or)):
        parts = tuple(_ground(child, positive, universe, skolems) for child in term.args)
        conjunctive = isinstance(term, t.And) if positive else isinstance(term, t.Or)
        return t.conj(*parts) if conjunctive else t.disj(*parts)

    if isinstance(term, t.Eq) and _is_set_sorted(term.left):
        if positive:
            clauses = [
                t.Iff(_membership(e, term.left), _membership(e, term.right)) for e in universe
            ]
            return t.conj(*clauses)
        witness = next(skolems)
        return t.neg(t.Iff(_membership(witness, term.left), _membership(witness, term.right)))

    if isinstance(term, t.SetSubset):
        if positive:
            clauses = [
                t.implies(_membership(e, term.left), _membership(e, term.right)) for e in universe
            ]
            return t.conj(*clauses)
        witness = next(skolems)
        return t.conj(_membership(witness, term.left), t.neg(_membership(witness, term.right)))

    if isinstance(term, t.SetAll):
        if positive:
            clauses = [
                t.implies(_membership(e, term.set_term), t.substitute(term.body, {term.var: e}))
                for e in universe
            ]
            return t.conj(*clauses)
        witness = next(skolems)
        return t.conj(
            _membership(witness, term.set_term),
            t.neg(t.substitute(term.body, {term.var: witness})),
        )

    if isinstance(term, t.SetMember):
        expanded = _membership(term.elem, term.set_term)
        return expanded if positive else t.neg(expanded)

    # Ordinary atom: restore polarity.
    return term if positive else t.neg(term)


def _membership(elem: Term, set_term: Term) -> Term:
    """Expand ``elem ∈ set_term`` structurally down to base sets."""
    if isinstance(set_term, t.EmptySet):
        return t.FALSE
    if isinstance(set_term, t.SetSingleton):
        return t.Eq(elem, set_term.elem)
    if isinstance(set_term, t.SetUnion):
        return t.disj(_membership(elem, set_term.left), _membership(elem, set_term.right))
    if isinstance(set_term, t.SetIntersect):
        return t.conj(_membership(elem, set_term.left), _membership(elem, set_term.right))
    if isinstance(set_term, t.SetDiff):
        return t.conj(_membership(elem, set_term.left), t.neg(_membership(elem, set_term.right)))
    if isinstance(set_term, t.Ite):
        return t.disj(
            t.conj(set_term.cond, _membership(elem, set_term.then_branch)),
            t.conj(t.neg(set_term.cond), _membership(elem, set_term.else_branch)),
        )
    # Base set: a measure application or a set variable.
    return t.App(MEMBER_FUNC, (elem, set_term), BOOL)


def _element_congruence_axioms(grounded: Term, universe: List[Term]) -> List[Term]:
    """``e1 = e2 ==> (e1 ∈ S <=> e2 ∈ S)`` for base sets S in the query."""
    base_sets = list(
        dict.fromkeys(
            sub.args[1]
            for sub in grounded.walk()
            if isinstance(sub, t.App) and sub.func == MEMBER_FUNC
        )
    )
    axioms: List[Term] = []
    for e1, e2 in itertools.combinations(universe, 2):
        for base in base_sets:
            axioms.append(
                t.implies(
                    t.Eq(e1, e2),
                    t.Iff(
                        t.App(MEMBER_FUNC, (e1, base), BOOL),
                        t.App(MEMBER_FUNC, (e2, base), BOOL),
                    ),
                )
            )
    return axioms


# ---------------------------------------------------------------------------
# Step 5: Tseitin CNF with theory atoms
# ---------------------------------------------------------------------------


class _Frame:
    """Capture record for one gate-cache miss (one formula node being built)."""

    __slots__ = ("clauses", "lin_atoms", "bool_atoms", "deps")

    def __init__(self) -> None:
        self.clauses: List[Tuple[int, ...]] = []
        self.lin_atoms: List[Tuple[int, LinExpr]] = []
        self.bool_atoms: List[Tuple[int, Term]] = []
        self.deps: List[Term] = []


class _CnfBuilder:
    """Tseitin transformation of one formula against an :class:`IncrementalEncoder`.

    Theory-atom variables come from the encoder's persistent table — the same
    atom in two formulas maps to the same variable — gate variables are drawn
    from the shared counter (so all clause groups live in one variable
    space), and every non-atom node consults the encoder's persistent gate
    cache: a node already encoded by *any* earlier formula replays its cached
    literal and clause tuples into this formula's clause group instead of
    allocating fresh auxiliary variables and rebuilding clauses.
    """

    def __init__(self, shared: IncrementalEncoder) -> None:
        self.cnf = CNF()
        self._shared = shared
        self.linear_atoms: Dict[int, LinExpr] = {}
        self.bool_atoms: Dict[int, Term] = {}
        self._atom_cache: Dict[object, int] = shared._atom_cache
        self._node_cache: Dict[Term, int] = {}
        #: capture stack: one frame per in-flight gate-cache miss.
        self._frames: List[_Frame] = []

    def _new_var(self) -> int:
        var = self._shared.new_var()
        if var > self.cnf.num_vars:
            self.cnf.num_vars = var
        return var

    # -- atoms ------------------------------------------------------------
    def _linear_atom_var(self, expr: LinExpr) -> int:
        key = ("lin", expr)
        var = self._atom_cache.get(key)
        if var is None:
            var = self._new_var()
            self._atom_cache[key] = var
            self._shared.linear_atoms[var] = expr
        self.linear_atoms.setdefault(var, expr)
        if self._frames:
            self._frames[-1].lin_atoms.append((var, expr))
        return var

    def _bool_atom_var(self, atom: Term) -> int:
        key = ("bool", atom)
        var = self._atom_cache.get(key)
        if var is None:
            var = self._new_var()
            self._atom_cache[key] = var
            self._shared.bool_atoms[var] = atom
        self.bool_atoms.setdefault(var, atom)
        if self._frames:
            self._frames[-1].bool_atoms.append((var, atom))
        return var

    # -- formula structure --------------------------------------------------
    def literal_for(self, term: Term) -> int:
        frames = self._frames
        if frames:
            frames[-1].deps.append(term)
        literal = self._node_cache.get(term)
        if literal is not None:
            return literal
        shared = self._shared
        shared.stats.gate_queries += 1
        entry = shared._gate_cache.get(term)
        if entry is not None:
            shared.stats.gate_hits += 1
            self._replay(term, entry)
            return entry.literal
        frame = _Frame()
        frames.append(frame)
        try:
            literal = self._build(term)
        finally:
            frames.pop()
        self._node_cache[term] = literal
        max_var = abs(literal)
        for clause in frame.clauses:
            for lit in clause:
                if lit > max_var:
                    max_var = lit
                elif -lit > max_var:
                    max_var = -lit
        shared._gate_cache[term] = _GateEntry(
            literal,
            tuple(frame.clauses),
            tuple(frame.lin_atoms),
            tuple(frame.bool_atoms),
            tuple(frame.deps),
            max_var,
        )
        return literal

    def _replay(self, term: Term, entry: _GateEntry) -> None:
        """Emit a cached node into this formula: atoms, clauses, children.

        Recursion goes through the cached dependency list with the formula's
        node cache as the visited set, so every clause group the subtree needs
        lands in this formula exactly once — with zero new variables and zero
        newly constructed clause tuples.
        """
        self._node_cache[term] = entry.literal
        shared = self._shared
        for dep in entry.deps:
            if dep in self._node_cache:
                continue
            dep_entry = shared._gate_cache.get(dep)
            if dep_entry is None:
                # Children are stored before their parents and the cache is
                # only ever cleared wholesale between formula builds, so a
                # cached parent implies cached children.  Rebuilding the dep
                # here would mint a fresh literal while the parent's clauses
                # still reference the old one — unsound — so fail loudly if
                # the invariant is ever broken (e.g. by per-entry eviction).
                raise EncodingError(
                    f"gate cache invariant violated: dependency {dep} of a cached "
                    "node is missing (partial eviction is not supported)"
                )
            shared.stats.gate_queries += 1
            shared.stats.gate_hits += 1
            self._replay(dep, dep_entry)
        for var, expr in entry.lin_atoms:
            self.linear_atoms.setdefault(var, expr)
        for var, atom in entry.bool_atoms:
            self.bool_atoms.setdefault(var, atom)
        cnf = self.cnf
        cnf.clauses.extend(entry.clauses)
        if entry.max_var > cnf.num_vars:
            cnf.num_vars = entry.max_var
        shared.stats.gate_clauses_reused += len(entry.clauses)

    def _build(self, term: Term) -> int:
        if isinstance(term, t.BoolConst):
            var = self._new_var()
            self._emit((var,) if term.value else (-var,))
            return var
        if isinstance(term, t.Not):
            return -self.literal_for(term.arg)
        if isinstance(term, t.And):
            return self._gate([self.literal_for(a) for a in term.args], is_and=True)
        if isinstance(term, t.Or):
            return self._gate([self.literal_for(a) for a in term.args], is_and=False)
        if isinstance(term, t.Implies):
            return self._gate(
                [-self.literal_for(term.antecedent), self.literal_for(term.consequent)],
                is_and=False,
            )
        if isinstance(term, t.Iff):
            a = self.literal_for(term.left)
            b = self.literal_for(term.right)
            both = self._gate([a, b], is_and=True)
            neither = self._gate([-a, -b], is_and=True)
            return self._gate([both, neither], is_and=False)
        return self._atom_literal(term)

    def _emit(self, literals: Tuple[int, ...]) -> None:
        """Add a clause, crediting it to the node being captured (if any)."""
        cnf = self.cnf
        before = len(cnf.clauses)
        cnf.add_clause(literals)
        if self._frames and len(cnf.clauses) > before:
            self._frames[-1].clauses.append(cnf.clauses[-1])

    def _gate(self, literals: List[int], is_and: bool) -> int:
        out = self._new_var()
        if is_and:
            for lit in literals:
                self._emit((-out, lit))
            self._emit(tuple(-lit for lit in literals) + (out,))
        else:
            for lit in literals:
                self._emit((-lit, out))
            self._emit((-out,) + tuple(literals))
        return out

    def _atom_literal(self, atom: Term) -> int:
        if isinstance(atom, (t.Le, t.Lt, t.Ge, t.Gt)):
            expr = self._normalize_comparison(atom)
            return self._linear_atom_var(expr)
        if isinstance(atom, t.Eq):
            left_sort, right_sort = atom.left.sort, atom.right.sort
            if left_sort == BOOL or right_sort == BOOL:
                return self.literal_for(t.Iff(atom.left, atom.right))
            # Numeric equality: conjunction of two inequalities.
            le = self._linear_atom_var(self._normalize_comparison(t.Le(atom.left, atom.right)))
            ge = self._linear_atom_var(self._normalize_comparison(t.Ge(atom.left, atom.right)))
            return self._gate([le, ge], is_and=True)
        if isinstance(atom, (t.Var, t.App)) and atom.sort == BOOL:
            return self._bool_atom_var(atom)
        raise EncodingError(f"unsupported atom in SMT encoding: {atom}")

    def _normalize_comparison(self, atom: Term) -> LinExpr:
        """Normalize a comparison to the form ``expr <= 0`` over the integers."""
        left = linearize(atom.left)
        right = linearize(atom.right)
        if isinstance(atom, t.Le):
            return left - right
        if isinstance(atom, t.Lt):
            return left - right + LinExpr.const(1)
        if isinstance(atom, t.Ge):
            return right - left
        if isinstance(atom, t.Gt):
            return right - left + LinExpr.const(1)
        raise EncodingError(f"not a comparison: {atom}")


def linearize(term: Term) -> LinExpr:
    """Convert a numeric refinement term into a :class:`LinExpr`.

    Variable keys are variable names (strings); measure applications become
    opaque keys (the application term itself).  Non-linear multiplications are
    rejected, matching the implementation restriction described in Sec. 4.3.
    """
    if isinstance(term, t.IntConst):
        return LinExpr.const(term.value)
    if isinstance(term, t.BoolConst):
        return LinExpr.const(1 if term.value else 0)
    if isinstance(term, t.Var):
        return LinExpr.var(term.name)
    if isinstance(term, t.App):
        return LinExpr.var(term)
    if isinstance(term, t.Add):
        return linearize(term.left) + linearize(term.right)
    if isinstance(term, t.Sub):
        return linearize(term.left) - linearize(term.right)
    if isinstance(term, t.Mul):
        left = linearize(term.left)
        right = linearize(term.right)
        if left.is_constant():
            return right * left.constant
        if right.is_constant():
            return left * right.constant
        raise EncodingError(f"non-linear multiplication: {term}")
    raise EncodingError(f"cannot linearize term: {term}")
