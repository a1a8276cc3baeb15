"""Typing contexts for Re2 (the ``Γ`` of Fig. 6).

A context tracks

* variable bindings with their *remaining* resource annotations (the affine
  accounting of potential: using a variable's potential updates the binding),
* path conditions collected from conditionals and pattern matches,
* the *free potential* of the context (the ``phi`` bindings of the formal
  system), represented as a single symbolic term, and
* information about the function currently being synthesized (its name,
  parameters and arrow type), used to type recursive calls and to check
  termination in the resource-agnostic baseline.

Contexts are immutable: every operation returns a new context.  This makes
backtracking in the synthesizer trivial — dropping a context restores the
previous resource state, while the constraint store is rolled back separately
with its push/pop markers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Tuple

from repro.logic import terms as t
from repro.logic.simplify import simplify
from repro.logic.terms import Term
from repro.typing.types import (
    ArrowType,
    ListBase,
    NU_NAME,
    RType,
    TreeBase,
)


def var_term(name: str, rtype: RType) -> t.Var:
    """The refinement-logic variable standing for program variable ``name``."""
    return t.Var(name, rtype.base.nu_sort())


@dataclass(frozen=True)
class FixInfo:
    """The function being synthesized: used for recursive calls."""

    name: str
    params: Tuple[str, ...]
    arrow: ArrowType


@dataclass(frozen=True)
class Context:
    """An immutable Re2 typing context."""

    bindings: Tuple[Tuple[str, RType], ...] = ()
    path: Tuple[Term, ...] = ()
    free_potential: Term = t.ZERO
    tvars: Tuple[str, ...] = ()
    fix: Optional[FixInfo] = None
    matched: Tuple[str, ...] = ()
    fresh_counter: int = 0

    # -- bindings ----------------------------------------------------------
    def lookup(self, name: str) -> Optional[RType]:
        for bound_name, rtype in self.bindings:
            if bound_name == name:
                return rtype
        return None

    def bind(self, name: str, rtype: RType, release_potential: bool = True) -> "Context":
        """Bind a scalar/container variable.

        Scalar self-potential is released into the free-potential pool
        immediately (the eager S-Transfer strategy described in DESIGN.md);
        per-element potential of containers stays attached to the binding.
        """
        free = self.free_potential
        if release_potential and not isinstance(rtype.base, (ListBase, TreeBase)):
            released = t.substitute(rtype.potential, {NU_NAME: var_term(name, rtype)})
            free = simplify(t.add(free, released))
            rtype = rtype.with_potential(t.ZERO)
        elif release_potential and not _is_zero(rtype.potential):
            # Containers may additionally carry "whole value" potential.
            released = t.substitute(rtype.potential, {NU_NAME: var_term(name, rtype)})
            free = simplify(t.add(free, released))
            rtype = rtype.with_potential(t.ZERO)
        return replace(self, bindings=self.bindings + ((name, rtype),), free_potential=free)

    def update_binding(self, name: str, rtype: RType) -> "Context":
        new_bindings = tuple((n, rtype if n == name else rt) for n, rt in self.bindings)
        return replace(self, bindings=new_bindings)

    def container_vars(self) -> List[Tuple[str, RType]]:
        """Bindings of list/tree type."""
        return [
            (name, rtype)
            for name, rtype in self.bindings
            if isinstance(rtype.base, (ListBase, TreeBase))
        ]

    def int_scope_terms(self) -> List[Term]:
        """Numeric terms usable in potential templates (Sec. 4.2)."""
        terms: List[Term] = []
        for name, rtype in self.bindings:
            if isinstance(rtype.base, (ListBase, TreeBase)):
                terms.append(t.len_(var_term(name, rtype)))
            elif rtype.base.nu_sort().is_numeric:
                terms.append(var_term(name, rtype))
        return terms

    # -- path conditions ----------------------------------------------------
    def with_path(self, *facts: Term) -> "Context":
        keep = tuple(f for f in facts if not (isinstance(f, t.BoolConst) and f.value))
        return replace(self, path=self.path + keep)

    def with_matched(self, name: str) -> "Context":
        return replace(self, matched=self.matched + (name,))

    # -- potential pool -------------------------------------------------------
    def add_free(self, amount: Term) -> "Context":
        return replace(self, free_potential=simplify(t.add(self.free_potential, amount)))

    def spend_free(self, amount: Term) -> "Context":
        return replace(self, free_potential=simplify(t.Sub(self.free_potential, amount)))

    # -- misc -----------------------------------------------------------------
    def with_fix(self, fix: FixInfo) -> "Context":
        return replace(self, fix=fix)

    def with_tvars(self, names: Iterable[str]) -> "Context":
        return replace(self, tvars=self.tvars + tuple(names))

    def fresh_name(self, prefix: str) -> Tuple[str, "Context"]:
        name = f"{prefix}#{self.fresh_counter}"
        return name, replace(self, fresh_counter=self.fresh_counter + 1)

    # -- logical assumptions ---------------------------------------------------
    def assumptions(self) -> Term:
        """The conjunction of all facts known in this context.

        This is the formula ``B(Γ)`` of Appendix B: every binding contributes
        its refinement (with ``nu`` substituted by the variable), containers
        contribute non-negativity of ``len`` and the element-wise facts implied
        by their element refinement, and path conditions are included as-is.

        The result is memoized: contexts are immutable, and the synthesizer
        issues many validity queries against the same context.
        """
        cached = getattr(self, "_assumptions_cache", None)
        if cached is not None:
            return cached
        result = self._compute_assumptions()
        object.__setattr__(self, "_assumptions_cache", result)
        return result

    def _compute_assumptions(self) -> Term:
        facts: List[Term] = []
        for name, rtype in self.bindings:
            var = var_term(name, rtype)
            refinement = t.substitute(rtype.refinement, {NU_NAME: var})
            if not _is_true(refinement):
                facts.append(refinement)
            if isinstance(rtype.base, (ListBase, TreeBase)):
                measure = t.len_(var) if isinstance(rtype.base, ListBase) else t.App("size", (var,))
                facts.append(measure >= 0)
                elem = rtype.base.elem
                if not _is_true(elem.refinement):
                    elem_var = "_e"
                    body = t.substitute(elem.refinement, {NU_NAME: t.Var(elem_var, t.INT)})
                    facts.append(t.SetAll(elem_var, t.elems(var), body))
        facts.extend(self.path)
        return t.conj(*facts)

    def __str__(self) -> str:
        bindings = ", ".join(f"{n}:{rt}" for n, rt in self.bindings)
        return f"[{bindings} | path={list(map(str, self.path))} | free={self.free_potential}]"


def _is_true(term: Term) -> bool:
    return isinstance(term, t.BoolConst) and term.value


def _is_zero(term: Term) -> bool:
    return isinstance(term, t.IntConst) and term.value == 0
