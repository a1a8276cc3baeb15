"""Resource constraints and the incremental constraint store.

Sec. 4.2 of the paper reduces typing constraints to Horn constraints plus
*resource constraints* of the form ``psi ==> phi >= 0``, where ``psi`` is a
known refinement formula (the path condition / context assumptions) and
``phi`` is a sum of potential terms that may contain unknown numeric
coefficients (from linear templates for unknown potential annotations).

The synthesizer type-checks candidate programs incrementally; the
:class:`ConstraintStore` therefore supports ``push``/``pop`` checkpoints so a
rejected partial program's constraints can be rolled back cheaply while the
CEGIS solver keeps its accumulated solution and examples (Algorithm 1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

from repro.logic import terms as t
from repro.logic.terms import Term


from repro.logic.sorts import INT

#: Prefix of unknown coefficient variables introduced by linear templates.
COEFF_PREFIX = "C!"

_coeff_counter = itertools.count()


def fresh_coefficient_var() -> t.Var:
    """A fresh unknown coefficient variable (sort INT)."""
    return t.Var(f"{COEFF_PREFIX}{next(_coeff_counter)}", INT)


def is_coefficient(name: str) -> bool:
    """Whether a variable name denotes an unknown template coefficient."""
    return name.startswith(COEFF_PREFIX)


def coefficients_in(term: Term) -> frozenset[str]:
    """Unknown coefficient variables occurring in a term."""
    return frozenset(name for name in t.free_vars(term) if is_coefficient(name))


def linear_template(scope_vars: Tuple[Term, ...]) -> Tuple[Term, List[t.Var]]:
    """Build a linear template ``C0 + C1*x1 + ... + Cn*xn`` over scope variables.

    Returns the template term and the list of fresh coefficient variables, in
    the order ``[C0, C1, ..., Cn]``.  This is the template shape described in
    Sec. 4.2 ("we can replace each unknown term with a linear template").
    """
    coeffs = [fresh_coefficient_var()]
    template: Term = coeffs[0]
    for var in scope_vars:
        coeff = fresh_coefficient_var()
        coeffs.append(coeff)
        template = template + t.Mul(coeff, var)
    return template, coeffs


@dataclass(frozen=True)
class ResourceConstraint:
    """A single resource constraint ``guard ==> expr >= 0``.

    ``guard`` contains no unknown coefficients; ``expr`` may.  ``equality``
    marks constant-resource constraints (``guard ==> expr == 0``), used by the
    constant-time extension of Sec. 3 / Sec. 5.2.
    """

    guard: Term
    expr: Term
    equality: bool = False
    origin: str = ""

    def formula(self) -> Term:
        """The constraint as a single refinement formula."""
        relation = self.expr.eq(0) if self.equality else (self.expr >= 0)
        return t.implies(self.guard, relation)

    def has_unknowns(self) -> bool:
        return bool(coefficients_in(self.expr))

    def __hash__(self) -> int:
        # CEGIS grounding looks a constraint up once per (constraint,
        # example) pair, so the field-tuple hash is computed once.
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.guard, self.expr, self.equality, self.origin))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self) -> str:
        rel = "==" if self.equality else ">="
        return f"{self.guard}  ==>  {self.expr} {rel} 0  [{self.origin}]"


@dataclass
class ConstraintStore:
    """An append-only store of resource constraints with checkpointing."""

    constraints: List[ResourceConstraint] = field(default_factory=list)

    def add(self, constraint: ResourceConstraint) -> None:
        self.constraints.append(constraint)

    def push(self) -> int:
        """Return a checkpoint marker to restore with :meth:`pop`."""
        return len(self.constraints)

    def pop(self, marker: int) -> None:
        """Discard all constraints added after ``marker``."""
        del self.constraints[marker:]

    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self) -> Iterator[ResourceConstraint]:
        return iter(self.constraints)

    def with_unknowns(self) -> List[ResourceConstraint]:
        return [c for c in self.constraints if c.has_unknowns()]
