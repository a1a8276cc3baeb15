"""Sorts of the Re2 refinement logic.

The refinement language of Re2 (Sec. 3 of the paper, Fig. 5) classifies
refinement terms by *sorts*: Booleans ``B``, natural numbers ``N`` and
uninterpreted sorts ``delta_alpha`` for type variables.  The implementation
described in Sec. 4.3 additionally supports integers, sets (for ``elems``-style
measures) and user-defined measures, so the sort language here is slightly
richer than the formal core calculus:

* ``BOOL``  -- logical refinements,
* ``INT``   -- integer refinements and potential annotations (the paper's ``N``
  is represented as ``INT`` plus explicit non-negativity constraints where
  required),
* ``SET``   -- finite sets of elements (the codomain of the ``elems`` measure),
* ``DATA``  -- values of inductive datatypes (lists, trees); these are only
  meaningful as arguments of measures and are never interpreted directly,
* ``UNINTERPRETED(name)`` -- the sort ``delta_alpha`` of a type variable
  ``alpha``; elements of such sorts support equality and ordering only
  (the paper's implicit ``Ord`` constraint on type variables).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Sort:
    """A sort of the refinement logic.

    ``name`` identifies the sort; for uninterpreted sorts it is the name of
    the originating type variable.  Two sorts are equal iff their kinds and
    names are equal, which is what the ``frozen`` dataclass gives us.
    """

    kind: str
    name: str = ""

    def __str__(self) -> str:
        if self.kind == "uninterpreted":
            return f"δ{self.name}"
        return self.kind

    @property
    def is_numeric(self) -> bool:
        """Whether terms of this sort may appear in linear arithmetic."""
        return self.kind in ("int", "uninterpreted")


#: The Boolean sort ``B``.
BOOL = Sort("bool")
#: The integer sort (the paper's ``N`` plus negative integers).
INT = Sort("int")
#: Finite sets of elements (codomain of ``elems``).
SET = Sort("set")
#: Values of inductive datatypes, used only as measure arguments.
DATA = Sort("data")


def uninterpreted(name: str) -> Sort:
    """The uninterpreted sort ``delta_name`` of a type variable."""
    return Sort("uninterpreted", name)
