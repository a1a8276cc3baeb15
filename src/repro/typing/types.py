"""Types of the Re2 type system (Fig. 5 of the paper).

The type language combines Synquid-style polymorphic refinement types with
AARA potential annotations:

* *base types* ``B``: Booleans, integers, type variables, lists and binary
  trees (lists/trees carry the refinement type of their elements, which is
  where per-element potential lives, exactly as in ``L(a^1)``),
* *refinement types* ``{B | psi}``: subset types over a value variable ``nu``,
* *resource-annotated types* ``R^phi``: a refinement type carrying ``phi``
  units of potential (``phi`` may mention ``nu`` and program variables —
  the "dependent potential annotations" of Sec. 2.3),
* *arrow types* ``x:Tx -> T`` with an application cost annotation (Sec. 4.1,
  "Cost Metrics"), and
* *type schemas* ``forall a. S``.

Sorted lists (``SList``) are list types with ``sorted=True``; the sortedness
invariant is materialised as logical facts when such a list is matched or
constructed (see :mod:`repro.typing.checker`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple, Union

from repro.logic import terms as t
from repro.logic.sorts import BOOL, DATA, INT, Sort
from repro.logic.terms import Term

#: The reserved value variable of refinement types.
NU_NAME = "_v"


# ---------------------------------------------------------------------------
# Base types
# ---------------------------------------------------------------------------


class BaseType:
    """Base class for Re2 base types."""

    def nu_sort(self) -> Sort:
        """Sort of the value variable for refinements over this base type."""
        raise NotImplementedError


@dataclass(frozen=True)
class BoolBase(BaseType):
    def nu_sort(self) -> Sort:
        return BOOL

    def __str__(self) -> str:
        return "Bool"


@dataclass(frozen=True)
class IntBase(BaseType):
    def nu_sort(self) -> Sort:
        return INT

    def __str__(self) -> str:
        return "Int"


@dataclass(frozen=True)
class TypeVarBase(BaseType):
    """A type variable ``a``.  Its values support equality and ordering only.

    A type variable is *rigid* by default: a goal ``forall a. ...`` is
    parametric in ``a``, so ``a`` matches only itself (see
    :func:`base_compatible`).  The one *flexible* variable is
    :data:`ANY_SCALAR`, which stands for a type the checker instantiates on
    use and matches any scalar.
    """

    name: str
    flexible: bool = False

    def nu_sort(self) -> Sort:
        # Type-variable values are modelled as integers in the refinement
        # logic (they admit equality and ordering, Sec. 2.1 footnote 2).
        return INT

    def __str__(self) -> str:
        return self.name


#: The flexible scalar wildcard.  It is the element type of ``Nil`` and, at
#: enumeration, the type of a component parameter typed by the component's
#: own quantified variable; the checker instantiates both on use.
ANY_SCALAR = TypeVarBase("_", flexible=True)


@dataclass(frozen=True)
class ListBase(BaseType):
    """Lists ``L(T)``; ``sorted=True`` is the ``SList`` datatype of Sec. 2.1."""

    elem: "RType"
    sorted: bool = False

    def nu_sort(self) -> Sort:
        return DATA

    def __str__(self) -> str:
        name = "SList" if self.sorted else "List"
        return f"{name} {self.elem}"


@dataclass(frozen=True)
class TreeBase(BaseType):
    """Binary trees with elements of the given type."""

    elem: "RType"

    def nu_sort(self) -> Sort:
        return DATA

    def __str__(self) -> str:
        return f"Tree {self.elem}"


# ---------------------------------------------------------------------------
# Refinement / resource-annotated types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RType:
    """A resource-annotated refinement type ``{B | psi}^phi``.

    ``refinement`` and ``potential`` are refinement terms over the value
    variable :data:`NU_NAME` and the program variables in scope.  For list and
    tree types, per-element potential lives in the element type's
    ``potential`` field (the type ``L(a^1)``).
    """

    base: BaseType
    refinement: Term = t.TRUE
    potential: Term = t.ZERO

    def nu(self) -> t.Var:
        """The value variable of this type, with the appropriate sort."""
        return t.Var(NU_NAME, self.base.nu_sort())

    def with_refinement(self, refinement: Term) -> "RType":
        return replace(self, refinement=refinement)

    def with_potential(self, potential: Term) -> "RType":
        return replace(self, potential=potential)

    def with_elem_potential(self, potential: Term) -> "RType":
        """Replace the per-element potential of a list/tree type."""
        if not isinstance(self.base, (ListBase, TreeBase)):
            raise TypeError(f"{self} is not a container type")
        new_elem = replace(self.base.elem, potential=potential)
        return replace(self, base=replace(self.base, elem=new_elem))

    def __str__(self) -> str:
        text = str(self.base)
        if not (isinstance(self.refinement, t.BoolConst) and self.refinement.value):
            text = f"{{{self.base} | {self.refinement}}}"
        if not (isinstance(self.potential, t.IntConst) and self.potential.value == 0):
            text = f"{text}^{self.potential}"
        return text


@dataclass(frozen=True)
class ArrowType:
    """A dependent arrow type ``x:Tx -> T`` with an application cost."""

    param: str
    param_type: "Type"
    result: "Type"
    cost: int = 0

    def __str__(self) -> str:
        return f"({self.param}:{self.param_type} -> {self.result})"

    def params(self) -> Tuple[Tuple[str, "Type"], ...]:
        """Flatten a curried arrow into its parameter list."""
        params: list = [(self.param, self.param_type)]
        result = self.result
        while isinstance(result, ArrowType):
            params.append((result.param, result.param_type))
            result = result.result
        return tuple(params)

    def final_result(self) -> "RType":
        """The (scalar) result type at the end of the curried chain."""
        result: Type = self.result
        while isinstance(result, ArrowType):
            result = result.result
        assert isinstance(result, RType)
        return result

    def total_cost(self) -> int:
        """Summed cost annotations along the curried chain."""
        total = self.cost
        result = self.result
        while isinstance(result, ArrowType):
            total += result.cost
            result = result.result
        return total


Type = Union[RType, ArrowType]


@dataclass(frozen=True)
class TypeSchema:
    """A (possibly) polymorphic type ``forall a1 ... an. T``."""

    tvars: Tuple[str, ...]
    body: Type

    def __str__(self) -> str:
        if not self.tvars:
            return str(self.body)
        return f"forall {' '.join(self.tvars)}. {self.body}"


def monotype(body: Type) -> TypeSchema:
    """A schema with no quantified type variables."""
    return TypeSchema((), body)


# ---------------------------------------------------------------------------
# Convenience constructors used by component libraries and benchmarks
# ---------------------------------------------------------------------------


def bool_type(refinement: Term = t.TRUE, potential: Term = t.ZERO) -> RType:
    return RType(BoolBase(), refinement, potential)


def int_type(refinement: Term = t.TRUE, potential: Term = t.ZERO) -> RType:
    return RType(IntBase(), refinement, potential)


def nat_type(potential: Term = t.ZERO) -> RType:
    """Natural numbers ``{Int | nu >= 0}``."""
    nu = t.Var(NU_NAME, INT)
    return RType(IntBase(), nu >= 0, potential)


def tvar_type(name: str, refinement: Term = t.TRUE, potential: Term = t.ZERO) -> RType:
    return RType(TypeVarBase(name), refinement, potential)


def list_type(
    elem: RType,
    refinement: Term = t.TRUE,
    potential: Term = t.ZERO,
    sorted: bool = False,
) -> RType:
    return RType(ListBase(elem, sorted), refinement, potential)


def slist_type(elem: RType, refinement: Term = t.TRUE, potential: Term = t.ZERO) -> RType:
    return list_type(elem, refinement, potential, sorted=True)


def arrow(*params_and_result, cost: int = 0) -> ArrowType:
    """Build a curried arrow type from ``(name, type)`` pairs plus a result.

    The ``cost`` annotation is attached to the innermost arrow, so it is
    charged once per complete application, matching the implementation
    described in Sec. 4.1.
    """
    *params, result = params_and_result
    if not params:
        raise ValueError("arrow needs at least one parameter")
    current: Type = result
    first = True
    for name, ptype in reversed(params):
        current = ArrowType(name, ptype, current, cost=cost if first else 0)
        first = False
    assert isinstance(current, ArrowType)
    return current


def nu(sort: Sort = INT) -> t.Var:
    """The value variable with an explicit sort."""
    return t.Var(NU_NAME, sort)


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------


def substitute_in_type(rtype: Type, mapping: Dict[str, Term]) -> Type:
    """Substitute program variables inside refinements and potentials.

    The value variable :data:`NU_NAME` is never substituted (it is bound by
    the type itself), and parameter names bound by inner arrows shadow the
    mapping.
    """
    if isinstance(rtype, RType):
        clean = {k: v for k, v in mapping.items() if k != NU_NAME}
        if not clean:
            return rtype
        base = rtype.base
        if isinstance(base, ListBase):
            new_elem = substitute_in_type(base.elem, clean)
            if new_elem is not base.elem:
                base = ListBase(new_elem, base.sorted)  # type: ignore[arg-type]
        elif isinstance(base, TreeBase):
            new_elem = substitute_in_type(base.elem, clean)
            if new_elem is not base.elem:
                base = TreeBase(new_elem)  # type: ignore[arg-type]
        refinement = t.substitute(rtype.refinement, clean)
        potential = t.substitute(rtype.potential, clean)
        # Terms are interned, so unchanged substitutions return the same
        # objects and the whole type can be reused without reallocation.
        if base is rtype.base and refinement is rtype.refinement and potential is rtype.potential:
            return rtype
        return RType(base, refinement, potential)
    if isinstance(rtype, ArrowType):
        clean = {k: v for k, v in mapping.items() if k != rtype.param}
        param_type = substitute_in_type(rtype.param_type, mapping)
        result = substitute_in_type(rtype.result, clean)
        if param_type is rtype.param_type and result is rtype.result:
            return rtype
        return ArrowType(rtype.param, param_type, result, rtype.cost)
    raise TypeError(f"not a type: {rtype!r}")


def instantiate_schema(schema: TypeSchema, instantiation: Dict[str, RType]) -> Type:
    """Instantiate the quantified type variables of a schema.

    Instantiating ``a`` with ``{B | psi}^phi`` replaces every occurrence of the
    type variable by that type, *adding* the instantiation's potential to any
    potential already attached to the occurrence (the type-substitution rule
    of Appendix A.7): this is what gives resource polymorphism for free.
    """
    return _instantiate(schema.body, instantiation)


def _instantiate(rtype: Type, instantiation: Dict[str, RType]) -> Type:
    if isinstance(rtype, RType):
        base = rtype.base
        if isinstance(base, TypeVarBase) and base.name in instantiation:
            replacement = instantiation[base.name]
            return RType(
                replacement.base,
                t.conj(replacement.refinement, rtype.refinement),
                t.add(replacement.potential, rtype.potential),
            )
        if isinstance(base, ListBase):
            new_elem = _instantiate(base.elem, instantiation)
            assert isinstance(new_elem, RType)
            return replace(rtype, base=ListBase(new_elem, base.sorted))
        if isinstance(base, TreeBase):
            new_elem = _instantiate(base.elem, instantiation)
            assert isinstance(new_elem, RType)
            return replace(rtype, base=TreeBase(new_elem))
        return rtype
    if isinstance(rtype, ArrowType):
        return ArrowType(
            rtype.param,
            _instantiate(rtype.param_type, instantiation),
            _instantiate(rtype.result, instantiation),
            rtype.cost,
        )
    raise TypeError(f"not a type: {rtype!r}")


def base_compatible(actual: BaseType, expected: BaseType) -> bool:
    """Shape compatibility of base types (ignoring refinements/potentials).

    A sorted list may be used where an unsorted list is expected (forgetting
    the invariant), but not the other way around.  A rigid type variable is
    compatible only with itself: neither an integer nor another type variable
    may stand in for it.  The flexible :data:`ANY_SCALAR` is compatible, in
    both directions, with every *ordered* scalar (Sec. 2.1, footnote 2):
    integers and type variables, but not Booleans and not containers.
    """
    if is_flexible(actual) or is_flexible(expected):
        other = expected if is_flexible(actual) else actual
        return isinstance(other, (IntBase, TypeVarBase))
    if isinstance(actual, ListBase) and isinstance(expected, ListBase):
        if expected.sorted and not actual.sorted:
            return False
        return base_compatible(actual.elem.base, expected.elem.base)
    if isinstance(actual, TreeBase) and isinstance(expected, TreeBase):
        return base_compatible(actual.elem.base, expected.elem.base)
    if isinstance(actual, TypeVarBase) or isinstance(expected, TypeVarBase):
        return actual == expected
    return type(actual) is type(expected)


def is_flexible(base: BaseType) -> bool:
    """Whether ``base`` is a flexible type variable (see :data:`ANY_SCALAR`)."""
    return isinstance(base, TypeVarBase) and base.flexible


def free_type_vars(rtype: Type) -> frozenset[str]:
    """Names of type variables occurring in a type."""
    if isinstance(rtype, RType):
        base = rtype.base
        if isinstance(base, TypeVarBase):
            return frozenset((base.name,))
        if isinstance(base, (ListBase, TreeBase)):
            return free_type_vars(base.elem)
        return frozenset()
    if isinstance(rtype, ArrowType):
        return free_type_vars(rtype.param_type) | free_type_vars(rtype.result)
    return frozenset()
