"""Term language of the Re2 refinement logic.

Refinement terms (``psi`` and ``phi`` in Fig. 5 of the paper) are first-order
terms over program variables.  Logical refinements have sort ``BOOL`` and
potential annotations have sort ``INT`` (restricted to non-negative values by
well-formedness constraints, see :mod:`repro.typing.wellformed`).

The term language implemented here covers the fragment used by the ReSyn
implementation (Sec. 4.3):

* linear integer arithmetic with conditionals (``Ite``),
* Boolean connectives,
* applications of *measures* (``len``, ``elems``, ``numgt``, ...) and other
  uninterpreted functions,
* finite-set operations and a bounded set quantifier ``SetAll`` used to state
  element-wise facts such as sortedness ("every element of ``xs`` is greater
  than ``x``").

Terms are immutable (frozen dataclasses) and hashable, so they can be used as
dictionary keys by the SMT layer and the constraint solvers.

Terms are also *hash-consed*: every constructor call is keyed by its class
and its full tuple of init-field values (children are themselves interned, so
the key holds child identities and leaf values), and the per-class intern
table maps that key to the one node built for it.  A call that hits the table
returns the existing node without building anything, so structurally equal
terms built anywhere in the system are the same Python object.  This gives
three things the synthesis hot path needs:

* equality checks and dictionary lookups degenerate to pointer comparisons in
  the common case,
* per-node derived data (structural hash, free variables, node size, the
  simplified form) can be cached directly on the node, and
* downstream caches (SMT encodings, validity results, CEGIS groundings) can be
  keyed on term identity and stay coherent across queries.

Interning is an invariant, not a mode: there is no uncached construction path.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from typing import Dict, Iterator, Mapping, Optional, Tuple

from repro.logic.sorts import BOOL, DATA, INT, SET, Sort


class _TermMeta(type):
    """Metaclass that hash-conses term construction, keyed before construction.

    A constructor call first normalizes its arguments to the class's full
    tuple of init fields (positional arguments at full arity are the key
    as-is; keywords and defaults are filled in otherwise).  That tuple is
    looked up in the class's intern table, and the node is built only on a
    miss, then stored under the tuple.  A hit builds nothing: the key's hash
    combines the children's cached hashes with the leaf values.  Every
    argument spelling of one term normalizes to the same key, hence to one
    instance.
    """

    def __init__(cls, name: str, bases: tuple, namespace: dict) -> None:
        super().__init__(name, bases, namespace)
        cls._intern_table: Dict[tuple, object] = {}

    def __call__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls._init_fields):
            args = cls._full_args(args, kwargs)
        table = cls._intern_table
        node = table.get(args)
        if node is None:
            node = table[args] = super().__call__(*args)
        return node

    def _full_args(cls, args: tuple, kwargs: dict) -> tuple:
        """The init-field tuple of one call; bad spellings raise ``TypeError``."""
        names = cls._init_fields
        if len(args) > len(names):
            raise TypeError(
                f"{cls.__name__}() takes at most {len(names)} arguments ({len(args)} given)"
            )
        full = list(args)
        for name in names[len(args) :]:
            if name in kwargs:
                full.append(kwargs.pop(name))
            elif name in cls._init_defaults:
                full.append(cls._init_defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
        for name in kwargs:
            problem = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{cls.__name__}() got {problem} argument {name!r}")
        return tuple(full)


def _term_node(cls: type) -> type:
    """Decorator for concrete term nodes: frozen dataclass + cached hash.

    Also records the init fields (in order) and their defaults, which
    :class:`_TermMeta` uses to turn any constructor call into its intern key.

    The dataclass-generated ``__hash__`` walks the whole subtree; we compute
    it once per node and store it on the instance (children are interned, so
    their hashes are already cached and the computation is O(arity), not
    O(tree)).  ``__eq__`` gets an identity fast path: with interning,
    structurally equal terms *are* identical, so the structural comparison
    only runs on distinct nodes (a hash collision in a dict, say).
    """

    cls = dataclass(frozen=True)(cls)
    init_fields = [f for f in fields(cls) if f.init]
    cls._init_fields = tuple(f.name for f in init_fields)
    cls._init_defaults = {f.name: f.default for f in init_fields if f.default is not MISSING}
    structural_hash = cls.__hash__
    structural_eq = cls.__eq__

    def __hash__(self):  # noqa: ANN001 - dataclass protocol
        h = self.__dict__.get("_hash")
        if h is None:
            h = structural_hash(self)
            object.__setattr__(self, "_hash", h)
        return h

    def __eq__(self, other):  # noqa: ANN001
        if self is other:
            return True
        return structural_eq(self, other)

    cls.__hash__ = __hash__
    cls.__eq__ = __eq__
    return cls


class Term(metaclass=_TermMeta):
    """Base class of refinement terms.

    Subclasses are frozen dataclasses; all children of a term are themselves
    terms (or plain Python values for leaves).  The class provides operator
    overloading for the arithmetic and logical connectives so that refinements
    can be written compactly when building component libraries, e.g.::

        len_(nu) == len_(xs) + len_(ys)
    """

    sort: Sort

    # -- arithmetic -----------------------------------------------------
    def __add__(self, other: "Term | int") -> "Term":
        return Add(self, _coerce(other))

    def __radd__(self, other: "Term | int") -> "Term":
        return Add(_coerce(other), self)

    def __sub__(self, other: "Term | int") -> "Term":
        return Sub(self, _coerce(other))

    def __rsub__(self, other: "Term | int") -> "Term":
        return Sub(_coerce(other), self)

    def __mul__(self, other: "Term | int") -> "Term":
        return Mul(self, _coerce(other))

    def __rmul__(self, other: "Term | int") -> "Term":
        return Mul(_coerce(other), self)

    def __neg__(self) -> "Term":
        return Sub(IntConst(0), self)

    # -- comparisons (note: __eq__ is reserved for structural equality) --
    def __le__(self, other: "Term | int") -> "Term":
        return Le(self, _coerce(other))

    def __lt__(self, other: "Term | int") -> "Term":
        return Lt(self, _coerce(other))

    def __ge__(self, other: "Term | int") -> "Term":
        return Ge(self, _coerce(other))

    def __gt__(self, other: "Term | int") -> "Term":
        return Gt(self, _coerce(other))

    def eq(self, other: "Term | int") -> "Term":
        """The logical equality atom ``self = other``."""
        return Eq(self, _coerce(other))

    def neq(self, other: "Term | int") -> "Term":
        """The logical disequality atom ``self != other``."""
        return Not(Eq(self, _coerce(other)))

    # -- boolean connectives ---------------------------------------------
    def __and__(self, other: "Term") -> "Term":
        return And((self, _coerce(other)))

    def __or__(self, other: "Term") -> "Term":
        return Or((self, _coerce(other)))

    def __invert__(self) -> "Term":
        return Not(self)

    def implies(self, other: "Term") -> "Term":
        """The implication ``self ==> other``."""
        return Implies(self, other)

    def iff(self, other: "Term") -> "Term":
        """The bi-implication ``self <=> other``."""
        return Iff(self, other)

    # -- traversal --------------------------------------------------------
    def children(self) -> Tuple["Term", ...]:
        """Immediate sub-terms of this term."""
        return ()

    def walk(self) -> Iterator["Term"]:
        """All sub-terms (including this one), pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()


def _coerce(value: "Term | int | bool") -> Term:
    """Turn Python literals into term constants."""
    if isinstance(value, Term):
        return value
    if isinstance(value, bool):
        return BoolConst(value)
    if isinstance(value, int):
        return IntConst(value)
    raise TypeError(f"cannot coerce {value!r} to a refinement term")


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


@_term_node
class Var(Term):
    """A program variable (or the value variable ``nu``) of a given sort."""

    name: str
    sort: Sort = INT

    def __str__(self) -> str:
        return self.name


@_term_node
class IntConst(Term):
    """An integer literal."""

    value: int
    sort: Sort = field(default=INT, init=False)

    def __str__(self) -> str:
        return str(self.value)


@_term_node
class BoolConst(Term):
    """A Boolean literal (``True`` or ``False``)."""

    value: bool
    sort: Sort = field(default=BOOL, init=False)

    def __str__(self) -> str:
        return "true" if self.value else "false"


TRUE = BoolConst(True)
FALSE = BoolConst(False)
ZERO = IntConst(0)
ONE = IntConst(1)

#: The canonical value variable of refinement types.
NU = Var("_v", INT)


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------


@_term_node
class Add(Term):
    """Integer addition."""

    left: Term
    right: Term
    sort: Sort = field(default=INT, init=False)

    def children(self) -> Tuple[Term, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} + {self.right})"


@_term_node
class Sub(Term):
    """Integer subtraction."""

    left: Term
    right: Term
    sort: Sort = field(default=INT, init=False)

    def children(self) -> Tuple[Term, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} - {self.right})"


@_term_node
class Mul(Term):
    """Multiplication.

    The resource fragment of Re2 is linear, so at least one operand of every
    multiplication must eventually simplify to a constant; this is checked by
    the linearizer in :mod:`repro.smt.linearize`, not here.
    """

    left: Term
    right: Term
    sort: Sort = field(default=INT, init=False)

    def children(self) -> Tuple[Term, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} * {self.right})"


@_term_node
class Ite(Term):
    """Conditional term ``if cond then then_branch else else_branch``.

    Used by dependent potential annotations such as ``ite(nu < x, 1, 0)``
    (Sec. 2.3, benchmark 9 of Table 2).
    """

    cond: Term
    then_branch: Term
    else_branch: Term
    sort: Sort = INT

    def children(self) -> Tuple[Term, ...]:
        return (self.cond, self.then_branch, self.else_branch)

    def __str__(self) -> str:
        return f"(if {self.cond} then {self.then_branch} else {self.else_branch})"


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------


@_term_node
class Le(Term):
    left: Term
    right: Term
    sort: Sort = field(default=BOOL, init=False)

    def children(self) -> Tuple[Term, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} <= {self.right})"


@_term_node
class Lt(Term):
    left: Term
    right: Term
    sort: Sort = field(default=BOOL, init=False)

    def children(self) -> Tuple[Term, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} < {self.right})"


@_term_node
class Ge(Term):
    left: Term
    right: Term
    sort: Sort = field(default=BOOL, init=False)

    def children(self) -> Tuple[Term, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} >= {self.right})"


@_term_node
class Gt(Term):
    left: Term
    right: Term
    sort: Sort = field(default=BOOL, init=False)

    def children(self) -> Tuple[Term, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} > {self.right})"


@_term_node
class Eq(Term):
    """Equality; both operands must have the same sort.

    Equality between data-sorted terms is interpreted by the SMT encoder as
    equality of all registered measures of the two terms.
    """

    left: Term
    right: Term
    sort: Sort = field(default=BOOL, init=False)

    def children(self) -> Tuple[Term, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} == {self.right})"


# ---------------------------------------------------------------------------
# Boolean connectives
# ---------------------------------------------------------------------------


@_term_node
class Not(Term):
    arg: Term
    sort: Sort = field(default=BOOL, init=False)

    def children(self) -> Tuple[Term, ...]:
        return (self.arg,)

    def __str__(self) -> str:
        return f"(not {self.arg})"


@_term_node
class And(Term):
    args: Tuple[Term, ...]
    sort: Sort = field(default=BOOL, init=False)

    def children(self) -> Tuple[Term, ...]:
        return self.args

    def __str__(self) -> str:
        if not self.args:
            return "true"
        return "(" + " && ".join(str(a) for a in self.args) + ")"


@_term_node
class Or(Term):
    args: Tuple[Term, ...]
    sort: Sort = field(default=BOOL, init=False)

    def children(self) -> Tuple[Term, ...]:
        return self.args

    def __str__(self) -> str:
        if not self.args:
            return "false"
        return "(" + " || ".join(str(a) for a in self.args) + ")"


@_term_node
class Implies(Term):
    antecedent: Term
    consequent: Term
    sort: Sort = field(default=BOOL, init=False)

    def children(self) -> Tuple[Term, ...]:
        return (self.antecedent, self.consequent)

    def __str__(self) -> str:
        return f"({self.antecedent} ==> {self.consequent})"


@_term_node
class Iff(Term):
    left: Term
    right: Term
    sort: Sort = field(default=BOOL, init=False)

    def children(self) -> Tuple[Term, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} <=> {self.right})"


# ---------------------------------------------------------------------------
# Measures and uninterpreted applications
# ---------------------------------------------------------------------------


@_term_node
class App(Term):
    """Application of a measure or uninterpreted function, e.g. ``len xs``.

    Measures are the logic-level functions of Synquid (Sec. 2.1): ``len``,
    ``elems``, ``selems``, ``numgt`` and so on.  The SMT layer treats each
    application as an opaque variable and instantiates congruence axioms
    explicitly, as described in Sec. 4.3 of the paper.
    """

    func: str
    args: Tuple[Term, ...]
    sort: Sort = INT

    def children(self) -> Tuple[Term, ...]:
        return self.args

    def __str__(self) -> str:
        return f"{self.func}({', '.join(str(a) for a in self.args)})"


# ---------------------------------------------------------------------------
# Sets
# ---------------------------------------------------------------------------


@_term_node
class EmptySet(Term):
    """The empty set literal ``{}``."""

    sort: Sort = field(default=SET, init=False)

    def __str__(self) -> str:
        return "{}"


@_term_node
class SetSingleton(Term):
    """The singleton set ``{elem}``."""

    elem: Term
    sort: Sort = field(default=SET, init=False)

    def children(self) -> Tuple[Term, ...]:
        return (self.elem,)

    def __str__(self) -> str:
        return f"{{{self.elem}}}"


@_term_node
class SetUnion(Term):
    left: Term
    right: Term
    sort: Sort = field(default=SET, init=False)

    def children(self) -> Tuple[Term, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} ∪ {self.right})"


@_term_node
class SetIntersect(Term):
    left: Term
    right: Term
    sort: Sort = field(default=SET, init=False)

    def children(self) -> Tuple[Term, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} ∩ {self.right})"


@_term_node
class SetDiff(Term):
    left: Term
    right: Term
    sort: Sort = field(default=SET, init=False)

    def children(self) -> Tuple[Term, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} − {self.right})"


@_term_node
class SetMember(Term):
    """Membership atom ``elem in set_term``."""

    elem: Term
    set_term: Term
    sort: Sort = field(default=BOOL, init=False)

    def children(self) -> Tuple[Term, ...]:
        return (self.elem, self.set_term)

    def __str__(self) -> str:
        return f"({self.elem} ∈ {self.set_term})"


@_term_node
class SetSubset(Term):
    """Subset atom ``left ⊆ right``."""

    left: Term
    right: Term
    sort: Sort = field(default=BOOL, init=False)

    def children(self) -> Tuple[Term, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} ⊆ {self.right})"


@_term_node
class SetAll(Term):
    """Bounded quantification ``forall var in set_term. body``.

    Used to state element-wise invariants such as sortedness of a list tail
    ("every element of ``selems xs`` is greater than ``x``").  The SMT encoder
    instantiates the quantifier over the finite set of element terms occurring
    in the query, which is sound for validity checking (Appendix B reduces the
    full logic to Presburger arithmetic in the same spirit).
    """

    var: str
    set_term: Term
    body: Term
    sort: Sort = field(default=BOOL, init=False)

    def children(self) -> Tuple[Term, ...]:
        return (self.set_term, self.body)

    def __str__(self) -> str:
        return f"(∀{self.var} ∈ {self.set_term}. {self.body})"


def intern_nodes() -> int:
    """Interned nodes alive over all term classes (the term layer's size)."""
    return sum(len(cls._intern_table) for cls in Term.__subclasses__())


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------


def conj(*terms: Term) -> Term:
    """Conjunction with unit/absorption simplification."""
    flat: list[Term] = []
    for t in terms:
        if isinstance(t, BoolConst):
            if not t.value:
                return FALSE
            continue
        if isinstance(t, And):
            flat.extend(t.args)
        else:
            flat.append(t)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(*terms: Term) -> Term:
    """Disjunction with unit/absorption simplification."""
    flat: list[Term] = []
    for t in terms:
        if isinstance(t, BoolConst):
            if t.value:
                return TRUE
            continue
        if isinstance(t, Or):
            flat.extend(t.args)
        else:
            flat.append(t)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def neg(term: Term) -> Term:
    """Negation with double-negation and constant simplification."""
    if isinstance(term, BoolConst):
        return BoolConst(not term.value)
    if isinstance(term, Not):
        return term.arg
    return Not(term)


def implies(antecedent: Term, consequent: Term) -> Term:
    """Implication with constant simplification."""
    if isinstance(antecedent, BoolConst):
        return consequent if antecedent.value else TRUE
    if isinstance(consequent, BoolConst) and consequent.value:
        return TRUE
    return Implies(antecedent, consequent)


def add(*terms: "Term | int") -> Term:
    """N-ary sum with constant folding of zero."""
    result: Optional[Term] = None
    const = 0
    for t in terms:
        t = _coerce(t)
        if isinstance(t, IntConst):
            const += t.value
            continue
        result = t if result is None else Add(result, t)
    if result is None:
        return IntConst(const)
    if const == 0:
        return result
    return Add(result, IntConst(const))


def int_var(name: str) -> Var:
    """An integer-sorted refinement variable."""
    return Var(name, INT)


def bool_var(name: str) -> Var:
    """A Boolean-sorted refinement variable."""
    return Var(name, BOOL)


def data_var(name: str) -> Var:
    """A data-sorted refinement variable (argument of measures)."""
    return Var(name, DATA)


# -- measure helpers used throughout the code base ---------------------------


def len_(term: Term) -> App:
    """The length measure of a list-valued term."""
    return App("len", (term,), INT)


def elems(term: Term) -> App:
    """The set-of-elements measure of a list-valued term."""
    return App("elems", (term,), SET)


def numgt(pivot: Term, term: Term) -> App:
    """Number of elements of ``term`` strictly greater than ``pivot``.

    Used by the ``insert'`` case study (benchmark 8 of Table 2).
    """
    return App("numgt", (pivot, term), INT)


def numlt(pivot: Term, term: Term) -> App:
    """Number of elements of ``term`` strictly smaller than ``pivot``."""
    return App("numlt", (pivot, term), INT)


def heads(term: Term) -> App:
    """Lower bound certificate measure used for sorted lists (internal)."""
    return App("lbound", (term,), INT)


# ---------------------------------------------------------------------------
# Free variables and substitution
# ---------------------------------------------------------------------------


def free_vars(term: Term) -> frozenset[str]:
    """Names of free variables of ``term`` (cached on the node).

    The only binder in the logic is :class:`SetAll`; its bound variable is
    removed from the free variables of its body.
    """
    cached = term.__dict__.get("_free_vars")
    if cached is not None:
        return cached
    if isinstance(term, Var):
        result: frozenset[str] = frozenset((term.name,))
    elif isinstance(term, SetAll):
        result = free_vars(term.set_term) | (free_vars(term.body) - {term.var})
    else:
        result = frozenset()
        for child in term.children():
            result |= free_vars(child)
    object.__setattr__(term, "_free_vars", result)
    return result


def free_var_terms(term: Term) -> frozenset[Var]:
    """Free variables of ``term`` as :class:`Var` nodes (with their sorts)."""
    cached = term.__dict__.get("_free_var_terms")
    if cached is not None:
        return cached
    if isinstance(term, Var):
        result: frozenset[Var] = frozenset((term,))
    elif isinstance(term, SetAll):
        inner = frozenset(v for v in free_var_terms(term.body) if v.name != term.var)
        result = free_var_terms(term.set_term) | inner
    else:
        result = frozenset()
        for child in term.children():
            result |= free_var_terms(child)
    object.__setattr__(term, "_free_var_terms", result)
    return result


def node_size(term: Term) -> int:
    """Number of nodes in the term tree (cached on the node)."""
    cached = term.__dict__.get("_node_size")
    if cached is not None:
        return cached
    result = 1 + sum(node_size(child) for child in term.children())
    object.__setattr__(term, "_node_size", result)
    return result


#: Memo for :func:`substitute`, keyed on (term, relevant mapping items).
#: Interning makes both components cheap to hash; the table is cleared
#: wholesale when it grows past the bound (simple, and the working set of a
#: synthesis run is far below it).
_SUBST_CACHE: Dict[Tuple[Term, Tuple[Tuple[str, Term], ...]], Term] = {}
_SUBST_CACHE_MAX = 1 << 17


def substitute(term: Term, mapping: Mapping[str, Term]) -> Term:
    """Capture-avoiding substitution of variables by terms.

    ``mapping`` maps variable *names* to replacement terms.  Substitution under
    a :class:`SetAll` binder removes the bound variable from the mapping (the
    bound variable is always chosen fresh by construction, so no renaming is
    needed).

    The walk prunes on cached free-variable sets — subtrees that mention no
    mapped variable are returned as-is without traversal — and memoizes
    (term, relevant-mapping) pairs, so the repeated ``NU``-substitutions of the
    type checker are amortised O(changed nodes) instead of O(tree) per call.
    """
    if not mapping:
        return term
    fvs = free_vars(term)
    relevant = {k: v for k, v in mapping.items() if k in fvs}
    if not relevant:
        return term
    key = (term, tuple(sorted(relevant.items())))
    cached = _SUBST_CACHE.get(key)
    if cached is not None:
        return cached
    if isinstance(term, Var):
        result = relevant.get(term.name, term)
    elif isinstance(term, SetAll):
        inner = {k: v for k, v in relevant.items() if k != term.var}
        result = SetAll(term.var, substitute(term.set_term, relevant), substitute(term.body, inner))
    else:
        children = term.children()
        new_children = tuple(substitute(c, relevant) for c in children)
        result = term if new_children == children else _rebuild(term, new_children)
    if len(_SUBST_CACHE) >= _SUBST_CACHE_MAX:
        _SUBST_CACHE.clear()
    _SUBST_CACHE[key] = result
    return result


def _rebuild(term: Term, children: Tuple[Term, ...]) -> Term:
    """Rebuild a term node with new children (same shape)."""
    rebuilder = _REBUILDERS.get(type(term))
    if rebuilder is None:
        raise TypeError(f"cannot rebuild term of type {type(term).__name__}")
    return rebuilder(term, children)


#: type -> rebuild function; a dispatch table instead of an isinstance chain.
_REBUILDERS: Dict[type, "object"] = {
    Add: lambda term, c: Add(*c),
    Sub: lambda term, c: Sub(*c),
    Mul: lambda term, c: Mul(*c),
    Ite: lambda term, c: Ite(c[0], c[1], c[2], term.sort),
    Le: lambda term, c: Le(*c),
    Lt: lambda term, c: Lt(*c),
    Ge: lambda term, c: Ge(*c),
    Gt: lambda term, c: Gt(*c),
    Eq: lambda term, c: Eq(*c),
    Not: lambda term, c: Not(c[0]),
    And: lambda term, c: And(c),
    Or: lambda term, c: Or(c),
    Implies: lambda term, c: Implies(*c),
    Iff: lambda term, c: Iff(*c),
    App: lambda term, c: App(term.func, c, term.sort),
    SetSingleton: lambda term, c: SetSingleton(c[0]),
    SetUnion: lambda term, c: SetUnion(*c),
    SetIntersect: lambda term, c: SetIntersect(*c),
    SetDiff: lambda term, c: SetDiff(*c),
    SetMember: lambda term, c: SetMember(*c),
    SetSubset: lambda term, c: SetSubset(*c),
}


def rename(term: Term, mapping: Mapping[str, str]) -> Term:
    """Rename free variables, preserving their sorts."""
    substitution: dict[str, Term] = {}
    for var in free_var_terms(term):
        if var.name in mapping:
            substitution[var.name] = Var(mapping[var.name], var.sort)
    return substitute(term, substitution)


def apps_in(term: Term) -> frozenset[App]:
    """All measure/uninterpreted applications occurring in ``term``."""
    return frozenset(t for t in term.walk() if isinstance(t, App))
