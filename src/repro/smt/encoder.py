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

:class:`IncrementalEncoder` is the only entry point.  It owns one clause
database and one :class:`~repro.smt.sat.SatSolver` for its lifetime, plus a
persistent atom table and Tseitin gate cache.  Each formula node's gate
clauses enter the database once, when the node is first encoded; encoding a
formula afterwards only collects its root literal, its theory atoms and its
*cone* (the variables of its clauses and atoms), which the lazy DPLL(T) loop
in :mod:`repro.smt.solver` solves against.  The preprocessing passes are
memoized per interned term in bounded module-wide tables, and the facts they
scan for (data equalities, set atoms, element terms, base sets) are cached
on the interned nodes themselves, so a shared subterm is walked once.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.logic import terms as t
from repro.logic.simplify import simplify
from repro.logic.sorts import BOOL, DATA, INT, SET, Sort
from repro.logic.terms import Term
from repro.obs import trace
from repro.smt.linexpr import LinExpr
from repro.smt.sat import CNF, SatSolver


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
    #: shared Tseitin gate cache traffic (per formula node, atoms included).
    gate_queries: int = 0
    gate_hits: int = 0
    #: gate clauses a cache hit found in the database instead of re-adding.
    gate_clauses_reused: int = 0
    #: times the clause database was dropped at its bound and started afresh.
    database_resets: int = 0


#: formula -> preprocessed (pre-Tseitin) formula, shared by all encoders.
_PRE_CACHE: Dict[Term, Term] = {}
#: per-node memos of the preprocessing passes (pure term -> term maps).
_ITE_CACHE: Dict[Term, Term] = {}
_ITE_NUMERIC_CACHE: Dict[Term, Term] = {}
_NNF_CACHE: Dict[Tuple[Term, bool], Term] = {}
#: Bound for the module-level caches; cleared wholesale when exceeded.  An
#: encoder's gate cache uses the same bound, and rebuilds its clause
#: database when it clears.
_MODULE_CACHE_MAX = 1 << 16
#: Bound on an encoder's clause database.  Propagation walks past every
#: clause outside a query's cone that shares a watched literal with it, so
#: per-solve cost grows with the database; at the bound the encoder starts a
#: new one.  A synthesis of a fast committed goal stays far below it (the
#: largest, the ``O(n)[c=1]`` rung of ``asym_subset``, peaks near 8,000
#: clauses); long CEGIS runs such as ``t1_insert_sorted`` and long-lived warm
#: workers reach it.
_DATABASE_MAX = 1 << 16
#: Bound on the per-formula encodings one encoder keeps (an LRU, sized like
#: the solver's validity cache).
_FORMULA_CACHE_MAX = 8192


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
    cached = _PRE_CACHE.get(formula)
    if cached is not None:
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
    """A formula's encoding against its encoder's shared clause database.

    The formula owns no clauses: its gate clauses live in the encoder's
    database, and the root literal is *not* asserted there — the DPLL(T)
    loop solves under the assumption ``root``, restricted to ``cone``.
    """

    root: int
    #: theory atoms of this formula (subsets of the shared tables).
    linear_atoms: Dict[int, LinExpr]
    bool_atoms: Dict[int, Term]
    #: every variable of the formula's clauses and atoms.
    cone: frozenset
    trivial: Optional[bool] = None


@dataclass
class _GateEntry:
    """The shared-cache record of one encoded formula node.

    ``literal`` is the node's Tseitin literal against the encoder's persistent
    variable space.  The node's *own* gate clauses were added to the database
    when it was built (children keep theirs in their own entries — replay
    recurses through ``deps``); ``num_clauses`` counts them and ``cone`` holds
    their variables together with the theory atoms registered directly by
    this node (``lin_atoms``/``bool_atoms``).
    """

    literal: int
    num_clauses: int
    cone: Tuple[int, ...]
    lin_atoms: Tuple[Tuple[int, LinExpr], ...]
    bool_atoms: Tuple[Tuple[int, Term], ...]
    deps: Tuple[Term, ...]


class IncrementalEncoder:
    """Persistent encoder that owns one clause database and SAT solver.

    Every theory atom (a normalized linear constraint or an opaque Boolean
    term) maps to one SAT variable for the lifetime of the encoder, no matter
    how many formulas mention it.  This is what makes theory lemmas portable:
    a blocking clause learned while solving one query is a fact about the
    theory over the same variables every later query uses, so the solver adds
    it to the shared database once (see :mod:`repro.smt.solver`).

    On top of the atom table sits the **shared Tseitin gate cache**
    (``_gate_cache``): every formula node keeps its gate output variable for
    the lifetime of the encoder, keyed on the hash-consed (interned) term,
    and its defining clauses are added to ``cnf`` exactly once.  A subformula
    that reappears in a later query — the norm across CEGIS iterations and
    enumeration branches, which re-check conjunctions sharing most of their
    structure — is *replayed*: replay collects its atoms and cone and adds no
    variable and no clause.

    The database stays bounded, and with it memory and per-solve cost: the
    per-formula encodings are an LRU of :data:`_FORMULA_CACHE_MAX` entries,
    and when the database reaches :data:`_DATABASE_MAX` clauses or the gate
    cache :data:`_MODULE_CACHE_MAX` nodes, the gate cache, the encodings, the
    clause database and the SAT solver are all started afresh.  The atom
    table is kept.
    """

    def __init__(self) -> None:
        self._counter = 0
        self._atom_cache: Dict[object, int] = {}
        #: global atom tables (var -> atom), across all formulas.
        self.linear_atoms: Dict[int, LinExpr] = {}
        self.bool_atoms: Dict[int, Term] = {}
        self._cache: "OrderedDict[Term, FormulaEncoding]" = OrderedDict()
        #: shared Tseitin gate cache: preprocessed node -> gate entry.
        self._gate_cache: Dict[Term, _GateEntry] = {}
        self.stats = EncoderStats()
        self._new_database()

    def _new_database(self) -> None:
        """Start an empty clause database and SAT solver (same variable space)."""
        self.cnf = CNF(num_vars=self._counter)
        self.sat = SatSolver(self.cnf)

    def new_var(self) -> int:
        self._counter += 1
        self.cnf.num_vars = self._counter
        return self._counter

    def forget_formulas(self) -> None:
        """Drop the per-formula encodings, keeping atoms and gates (tests)."""
        self._cache.clear()

    def encode(self, formula: Term) -> FormulaEncoding:
        self.stats.encode_calls += 1
        cache = self._cache
        cached = cache.get(formula)
        if cached is not None:
            cache.move_to_end(formula)
            self.stats.encode_cache_hits += 1
            return cached
        with trace.span("smt.encode") as sp:
            # Bound the database and gate cache *between* formula builds only:
            # mid-build eviction could orphan a parent entry whose children
            # are gone.  The gates, encodings and theory lemmas all speak
            # about the database's clauses, so they go together.
            if (
                len(self.cnf.clauses) >= _DATABASE_MAX
                or len(self._gate_cache) >= _MODULE_CACHE_MAX
            ):
                self._gate_cache.clear()
                cache.clear()
                self._new_database()
                self.stats.database_resets += 1
            clauses_before = len(self.cnf.clauses)
            preprocessed = _preprocess(formula)
            if isinstance(preprocessed, t.BoolConst):
                encoding = FormulaEncoding(0, {}, {}, frozenset(), trivial=preprocessed.value)
            else:
                builder = _CnfBuilder(shared=self)
                root = builder.literal_for(preprocessed)
                encoding = FormulaEncoding(
                    root, builder.linear_atoms, builder.bool_atoms, frozenset(builder.cone)
                )
            if sp:
                sp.count("clauses", len(self.cnf.clauses) - clauses_before)
        cache[formula] = encoding
        if len(cache) > _FORMULA_CACHE_MAX:
            cache.popitem(last=False)
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


def _is_data_equality(term: Term) -> bool:
    return (
        isinstance(term, t.Eq)
        and _term_sort(term.left) == DATA
        and _term_sort(term.right) == DATA
    )


def _has_data_equality(term: Term) -> bool:
    """Whether ``term`` contains a data equality (cached on the node)."""
    cached = term.__dict__.get("_has_data_eq")
    if cached is None:
        cached = _is_data_equality(term) or any(_has_data_equality(c) for c in term.children())
        object.__setattr__(term, "_has_data_eq", cached)
    return cached


def _expand_data_equalities(formula: Term) -> Term:
    """Interpret ``l == r`` between data-sorted terms as measure equality."""
    if not _has_data_equality(formula):
        return formula
    apps = t.apps_in(formula)

    def expand(term: Term) -> Term:
        if _is_data_equality(term):
            return _measure_equalities(term.left, term.right, apps)
        if not _has_data_equality(term):
            return term
        children = term.children()
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

    skolems: List[Term] = []
    _assign_skolems(formula, positive=True, fresh=fresh, out=skolems)
    universe: List[Term] = list(dict.fromkeys(_element_terms(formula) + tuple(skolems)))
    skolem_iter = iter(skolems)
    grounded = _ground(formula, positive=True, universe=universe, skolems=skolem_iter)
    axioms = _element_congruence_axioms(grounded, universe)
    return t.conj(grounded, *axioms)


_SET_NODES = (
    t.SetMember,
    t.SetSubset,
    t.SetAll,
    t.EmptySet,
    t.SetSingleton,
    t.SetUnion,
    t.SetIntersect,
    t.SetDiff,
)


def _mentions_sets(term: Term) -> bool:
    """Whether ``term`` contains a set node or set equality (cached on the node)."""
    cached = term.__dict__.get("_mentions_sets")
    if cached is None:
        cached = (
            isinstance(term, _SET_NODES)
            or (isinstance(term, t.Eq) and _is_set_sorted(term.left))
            or any(_mentions_sets(c) for c in term.children())
        )
        object.__setattr__(term, "_mentions_sets", cached)
    return cached


def _first_occurrences(own: Tuple[Term, ...], children: Iterable[Term], fact) -> Tuple[Term, ...]:
    """``own`` then each child's ``fact`` tuple, keeping first occurrences.

    Equal to deduplicating the pre-order walk, since each child's tuple is
    already deduplicated in its own pre-order.
    """
    parts = [part for part in (own, *(fact(c) for c in children)) if part]
    if len(parts) <= 1:
        return parts[0] if parts else ()
    return tuple(dict.fromkeys(itertools.chain.from_iterable(parts)))


def _element_terms(term: Term) -> Tuple[Term, ...]:
    """Elements of singletons and memberships, in pre-order (cached on the node)."""
    cached = term.__dict__.get("_element_terms")
    if cached is None:
        own = (term.elem,) if isinstance(term, (t.SetSingleton, t.SetMember)) else ()
        cached = _first_occurrences(own, term.children(), _element_terms)
        object.__setattr__(term, "_element_terms", cached)
    return cached


def _member_base_sets(term: Term) -> Tuple[Term, ...]:
    """Base sets of grounded membership atoms, in pre-order (cached on the node)."""
    cached = term.__dict__.get("_member_base_sets")
    if cached is None:
        is_member = isinstance(term, t.App) and term.func == MEMBER_FUNC
        own = (term.args[1],) if is_member else ()
        cached = _first_occurrences(own, term.children(), _member_base_sets)
        object.__setattr__(term, "_member_base_sets", cached)
    return cached


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
    base_sets = _member_base_sets(grounded)
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

    __slots__ = ("num_clauses", "cone", "lin_atoms", "bool_atoms", "deps")

    def __init__(self) -> None:
        self.num_clauses = 0
        self.cone: set = set()
        self.lin_atoms: List[Tuple[int, LinExpr]] = []
        self.bool_atoms: List[Tuple[int, Term]] = []
        self.deps: List[Term] = []


class _CnfBuilder:
    """Tseitin transformation of one formula against an :class:`IncrementalEncoder`.

    Theory-atom variables come from the encoder's persistent table — the same
    atom in two formulas maps to the same variable — and gate variables from
    its shared counter.  Every node consults the encoder's persistent gate
    cache: a node no earlier formula encoded adds its gate clauses to the
    encoder's database; a node already encoded by *any* earlier formula is
    replayed, which collects its literal, atoms and cone and adds nothing.
    A gate's output variable is drawn after its children's literals, so it
    is the largest variable of each clause defining it — the property the
    cone-restricted SAT search relies on.
    """

    def __init__(self, shared: IncrementalEncoder) -> None:
        self._shared = shared
        self._cnf = shared.cnf
        self.linear_atoms: Dict[int, LinExpr] = {}
        self.bool_atoms: Dict[int, Term] = {}
        self.cone: set = set()
        self._atom_cache: Dict[object, int] = shared._atom_cache
        self._node_cache: Dict[Term, int] = {}
        #: capture stack: one frame per in-flight gate-cache miss.
        self._frames: List[_Frame] = []

    # -- atoms ------------------------------------------------------------
    def _linear_atom_var(self, expr: LinExpr) -> int:
        key = ("lin", expr)
        var = self._atom_cache.get(key)
        if var is None:
            var = self._shared.new_var()
            self._atom_cache[key] = var
            self._shared.linear_atoms[var] = expr
        self.linear_atoms.setdefault(var, expr)
        frame = self._frames[-1]
        frame.lin_atoms.append((var, expr))
        frame.cone.add(var)
        return var

    def _bool_atom_var(self, atom: Term) -> int:
        key = ("bool", atom)
        var = self._atom_cache.get(key)
        if var is None:
            var = self._shared.new_var()
            self._atom_cache[key] = var
            self._shared.bool_atoms[var] = atom
        self.bool_atoms.setdefault(var, atom)
        frame = self._frames[-1]
        frame.bool_atoms.append((var, atom))
        frame.cone.add(var)
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
        cone = tuple(frame.cone)
        self.cone.update(cone)
        shared._gate_cache[term] = _GateEntry(
            literal,
            frame.num_clauses,
            cone,
            tuple(frame.lin_atoms),
            tuple(frame.bool_atoms),
            tuple(frame.deps),
        )
        return literal

    def _replay(self, term: Term, entry: _GateEntry) -> None:
        """Collect a cached node into this formula: atoms, cone, children.

        Recursion goes through the cached dependency list with the formula's
        node cache as the visited set, so every node of the subtree is
        collected exactly once — with zero new variables and zero clauses,
        since the node's clauses are already in the database.
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
        self.cone.update(entry.cone)
        shared.stats.gate_clauses_reused += entry.num_clauses

    def _build(self, term: Term) -> int:
        if isinstance(term, t.BoolConst):
            var = self._shared.new_var()
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
        """Add a clause to the database, crediting it to the node being built."""
        cnf = self._cnf
        before = len(cnf.clauses)
        cnf.add_clause(literals)
        if len(cnf.clauses) > before:
            frame = self._frames[-1]
            frame.num_clauses += 1
            frame.cone.update(lit if lit > 0 else -lit for lit in literals)

    def _gate(self, literals: List[int], is_and: bool) -> int:
        out = self._shared.new_var()
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
