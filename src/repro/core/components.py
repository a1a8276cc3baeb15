"""Component libraries for synthesis.

A *component* (Sec. 2.1) is a library function or data constructor the
synthesizer may call: it has a Re2 type schema (with refinements, potential
annotations and an application cost) and, for the evaluation harness, an
executable semantics plus a cost function describing how many recursive calls
the component itself performs on given inputs.

This module defines the components used by the paper's benchmark suite
(Tables 1 and 2): comparisons, arithmetic on naturals, ``member``, ``append``
and friends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from repro.logic import terms as t
from repro.logic.sorts import BOOL, DATA, INT
from repro.logic.terms import Term
from repro.semantics.values import Builtin, Value
from repro.typing.types import (
    ArrowType,
    NU_NAME,
    TypeSchema,
    arrow,
    bool_type,
    int_type,
    list_type,
    monotype,
    tvar_type,
)


@dataclass(frozen=True)
class Component:
    """A synthesis component: type schema plus executable semantics."""

    name: str
    schema: TypeSchema
    impl: Callable[..., Value]
    #: Abstract cost the component itself incurs on given inputs (used by the
    #: interpreter to measure the true cost of synthesized programs).
    runtime_cost: Callable[..., int] = field(default=lambda *args: 0)

    def builtin(self) -> Builtin:
        arity = len(self.schema.body.params()) if isinstance(self.schema.body, ArrowType) else 0
        return Builtin(self.name, arity, self.impl, self.runtime_cost)


def _nu(sort=INT) -> t.Var:
    return t.Var(NU_NAME, sort)


def _nu_bool() -> t.Var:
    return t.Var(NU_NAME, BOOL)


def _nu_data() -> t.Var:
    return t.Var(NU_NAME, DATA)


# ---------------------------------------------------------------------------
# Scalar components
# ---------------------------------------------------------------------------


def comparison(
    name: str, relation: Callable[[Term, Term], Term], impl: Callable[[int, int], bool]
) -> Component:
    """A polymorphic comparison component ``x -> y -> {Bool | nu <=> x R y}``."""
    x = t.Var("x", INT)
    y = t.Var("y", INT)
    schema = TypeSchema(
        ("a",),
        arrow(
            ("x", tvar_type("a")),
            ("y", tvar_type("a")),
            bool_type(t.Iff(_nu_bool(), relation(x, y))),
        ),
    )
    return Component(name, schema, impl)


LT = comparison("lt", lambda x, y: x < y, lambda x, y: x < y)
LEQ = comparison("leq", lambda x, y: x <= y, lambda x, y: x <= y)
GT = comparison("gt", lambda x, y: x > y, lambda x, y: x > y)
GEQ = comparison("geq", lambda x, y: x >= y, lambda x, y: x >= y)
EQ = comparison("eq", lambda x, y: x.eq(y), lambda x, y: x == y)
NEQ = comparison("neq", lambda x, y: t.neg(x.eq(y)), lambda x, y: x != y)

NOT = Component(
    "not",
    monotype(arrow(("b", bool_type()), bool_type(t.Iff(_nu_bool(), t.neg(t.Var("b", BOOL)))))),
    lambda b: not b,
)

AND = Component(
    "and",
    monotype(
        arrow(
            ("p", bool_type()),
            ("q", bool_type()),
            bool_type(t.Iff(_nu_bool(), t.conj(t.Var("p", BOOL), t.Var("q", BOOL)))),
        )
    ),
    lambda p, q: p and q,
)

OR = Component(
    "or",
    monotype(
        arrow(
            ("p", bool_type()),
            ("q", bool_type()),
            bool_type(t.Iff(_nu_bool(), t.disj(t.Var("p", BOOL), t.Var("q", BOOL)))),
        )
    ),
    lambda p, q: p or q,
)

INC = Component(
    "inc",
    monotype(arrow(("x", int_type()), int_type(_nu().eq(t.Var("x", INT) + 1)))),
    lambda x: x + 1,
)

DEC = Component(
    "dec",
    monotype(arrow(("x", int_type()), int_type(_nu().eq(t.Var("x", INT) - 1)))),
    lambda x: x - 1,
)

PLUS = Component(
    "plus",
    monotype(
        arrow(
            ("x", int_type()),
            ("y", int_type()),
            int_type(_nu().eq(t.Var("x", INT) + t.Var("y", INT))),
        )
    ),
    lambda x, y: x + y,
)

ABS = Component(
    "abs",
    monotype(
        arrow(
            ("x", int_type()),
            int_type(
                t.conj(_nu() >= 0, t.disj(_nu().eq(t.Var("x", INT)), _nu().eq(-t.Var("x", INT))))
            ),
        )
    ),
    lambda x: abs(x),
)


# ---------------------------------------------------------------------------
# List components
# ---------------------------------------------------------------------------


def member_component(potential: int = 1) -> Component:
    """``member :: x:a -> l:List a^potential -> {Bool | nu <=> x in elems l}``.

    The potential requirement on ``l`` reflects that ``member`` performs a
    linear scan (one recursive call per element), Sec. 2.3.
    """
    x = t.Var("x", INT)
    arg = t.Var("l", DATA)
    schema = TypeSchema(
        ("a",),
        arrow(
            ("x", tvar_type("a")),
            ("l", list_type(tvar_type("a", potential=t.IntConst(potential)))),
            bool_type(t.Iff(_nu_bool(), t.SetMember(x, t.elems(arg)))),
        ),
    )
    return Component("member", schema, lambda x, xs: x in xs, runtime_cost=lambda x, xs: len(xs))


MEMBER = member_component()


def append_component(name: str = "append", traverse_first: bool = True) -> Component:
    """``append :: xs:List a^1 -> ys:List a -> {...}`` (Fig. 3).

    ``traverse_first=False`` gives the ``append'`` variant of Table 2
    (benchmark 2), which traverses — and therefore demands potential on — its
    *second* argument.
    """
    xs = t.Var("xs", DATA)
    ys = t.Var("ys", DATA)
    result_refinement = t.conj(
        t.len_(_nu_data()).eq(t.len_(xs) + t.len_(ys)),
        t.Eq(t.elems(_nu_data()), t.SetUnion(t.elems(xs), t.elems(ys))),
    )
    first_pot = t.ONE if traverse_first else t.ZERO
    second_pot = t.ZERO if traverse_first else t.ONE
    schema = TypeSchema(
        ("a",),
        arrow(
            ("xs", list_type(tvar_type("a", potential=first_pot))),
            ("ys", list_type(tvar_type("a", potential=second_pot))),
            list_type(tvar_type("a"), result_refinement),
        ),
    )
    cost = (lambda xs, ys: len(xs)) if traverse_first else (lambda xs, ys: len(ys))
    return Component(name, schema, lambda xs, ys: tuple(xs) + tuple(ys), runtime_cost=cost)


APPEND = append_component()
APPEND_SND = append_component("append2", traverse_first=False)


#: The standard library, indexed by name, from which benchmark definitions
#: pick their component sets.
STANDARD_COMPONENTS: Dict[str, Component] = {
    c.name: c
    for c in (
        LT,
        LEQ,
        GT,
        GEQ,
        EQ,
        NEQ,
        NOT,
        AND,
        OR,
        INC,
        DEC,
        PLUS,
        ABS,
        MEMBER,
        APPEND,
        APPEND_SND,
    )
}


def library(*names: str, extra: Sequence[Component] = ()) -> List[Component]:
    """Select components by name from the standard library."""
    components = [STANDARD_COMPONENTS[name] for name in names]
    components.extend(extra)
    return components


def schemas_of(components: Sequence[Component]) -> Dict[str, TypeSchema]:
    """Name-to-schema mapping used by the type checker."""
    return {c.name: c.schema for c in components}


def builtins_of(components: Sequence[Component]) -> Dict[str, Builtin]:
    """Name-to-implementation mapping used by the interpreter."""
    return {c.name: c.builtin() for c in components}
