"""Runtime values of the Re2 core language.

Values (Fig. 4): Booleans, integers (surface language), lists, trees and
closures.  Lists and trees are represented as plain Python tuples so that they
are hashable and cheap to compare in tests; closures close over an environment
and remember their own name for recursive calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple, Union


#: Runtime representation of Re2 values: Python ``bool``/``int`` for scalars,
#: tuples for lists, :class:`VTree` for trees and :class:`Closure`/:class:`Builtin`
#: for functions.
Value = Union[bool, int, tuple, "VTree", "Closure", "Builtin"]


@dataclass(frozen=True)
class VTree:
    """A binary tree value: either empty or ``Node(left, value, right)``."""

    left: Optional["VTree"] = None
    value: Optional[Value] = None
    right: Optional["VTree"] = None

    @property
    def is_leaf(self) -> bool:
        return self.value is None and self.left is None and self.right is None

    def size(self) -> int:
        if self.is_leaf:
            return 0
        assert self.left is not None and self.right is not None
        return 1 + self.left.size() + self.right.size()

    def elements(self) -> frozenset:
        if self.is_leaf:
            return frozenset()
        assert self.left is not None and self.right is not None
        return self.left.elements() | {self.value} | self.right.elements()

    def __str__(self) -> str:
        if self.is_leaf:
            return "Leaf"
        return f"(Node {self.left} {self.value} {self.right})"


LEAF = VTree()


@dataclass
class Closure:
    """A user-defined (possibly recursive) function value."""

    name: str
    params: Tuple[str, ...]
    body: Any  # Expr; avoids a circular import
    env: Dict[str, Value]


@dataclass
class Builtin:
    """A component supplied by the library, with an explicit cost model.

    ``fn`` computes the result from the argument values.  ``cost`` maps the
    argument values to the abstract cost the component itself incurs (e.g.
    ``member x l`` performs ``len(l)`` recursive calls); this is how the
    evaluation harness measures the true cost of programs that call
    library components.
    """

    name: str
    arity: int
    fn: Callable[..., Value]
    cost: Callable[..., int] = lambda *args: 0

    def __call__(self, *args: Value) -> Value:
        return self.fn(*args)


def tree_from_sorted(items) -> VTree:
    """Build a balanced binary search tree from sorted items (test helper)."""
    items = list(items)
    if not items:
        return LEAF
    mid = len(items) // 2
    return VTree(tree_from_sorted(items[:mid]), items[mid], tree_from_sorted(items[mid + 1 :]))
