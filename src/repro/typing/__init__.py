"""The Re2 type system: types, contexts, and the constraint-generating checker."""

from repro.typing.checker import CheckerConfig, CheckerStats, TypeChecker
from repro.typing.context import Context, FixInfo, var_term
from repro.typing.types import (
    ANY_SCALAR,
    ArrowType,
    BaseType,
    BoolBase,
    IntBase,
    ListBase,
    NU_NAME,
    RType,
    TreeBase,
    Type,
    TypeSchema,
    TypeVarBase,
    arrow,
    base_compatible,
    bool_type,
    free_type_vars,
    instantiate_schema,
    int_type,
    is_flexible,
    list_type,
    monotype,
    nat_type,
    nu,
    slist_type,
    substitute_in_type,
    tvar_type,
)

__all__ = [name for name in dir() if not name.startswith("_")]
