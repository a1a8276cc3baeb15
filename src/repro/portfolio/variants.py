"""Expanding one logical goal into a deterministic list of race variants.

A *variant* is a concrete ``(goal, config)`` pair the supervisor can
race against the others.  Expansion is a pure function of the logical goal and
base configuration — the variant list, its order, and every label are
deterministic, because the variant order doubles as the winner priority
(:mod:`repro.portfolio.runner`): among successful variants the one with the
lowest index wins, regardless of which finished first.

:func:`expand_goal` is the dispatcher the ladder policy uses: an
:class:`repro.core.goals.AsymptoticGoal` expands into its bound ladder
(:func:`ladder_variants`: concrete potential-annotated rungs compiled by
:func:`repro.portfolio.bounds.compile_ladder`, tightest first); anything
else stays a single variant.
"""

from __future__ import annotations

from typing import List

from repro.core.config import SynthesisConfig
from repro.core.goals import AsymptoticGoal, SynthesisGoal
from repro.portfolio.bounds import compile_ladder


class Variant:
    """One concrete entrant of a portfolio race.

    ``index`` is the winner priority (lower wins among successes); ``label``
    is the stable human-readable name used in events, stats and bench blocks.
    """

    __slots__ = ("index", "label", "goal", "config")

    def __init__(
        self, index: int, label: str, goal: SynthesisGoal, config: SynthesisConfig
    ) -> None:
        self.index = index
        self.label = label
        self.goal = goal
        self.config = config

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Variant({self.index}, {self.label!r}, {self.goal.name!r})"


def ladder_variants(goal: AsymptoticGoal, config: SynthesisConfig) -> List[Variant]:
    """Bound-ladder variants of an asymptotic goal, tightest rung first."""
    return [Variant(rung.index, rung.label, rung.goal, config) for rung in compile_ladder(goal)]


def expand_goal(goal: SynthesisGoal, config: SynthesisConfig) -> List[Variant]:
    """The default expansion: asymptotic goals race their bound ladder.

    Plain goals (including example goals) expand to a single variant — the
    portfolio layer never changes what a non-asymptotic goal means.
    """
    if isinstance(goal, AsymptoticGoal):
        return ladder_variants(goal, config)
    return [Variant(0, "goal", goal, config)]
