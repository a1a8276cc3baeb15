"""Expanding one logical goal into a deterministic list of race variants.

A *variant* is a concrete ``(goal, config)`` pair the supervisor can
race against the others.  Expansion is a pure function of the logical goal and
base configuration — the variant list, its order, and every label are
deterministic, because the variant order doubles as the winner priority
(:mod:`repro.portfolio.runner`): among successful variants the one with the
lowest index wins, regardless of which finished first.

Expansion strategies, all tightest-variant-first:

* :func:`ladder_variants` — the headline: compile an
  :class:`repro.core.goals.AsymptoticGoal`'s bound class into a ladder of
  concrete potential-annotated rungs (:func:`repro.portfolio.bounds.compile_ladder`);
* :func:`mode_variants` — race resource-guided synthesis (resyn) against the
  resource-agnostic baseline (synquid) on the same goal;
* :func:`component_variants` — race restrictions of the component library
  (smallest subset first);
* :func:`relax_variants` — race cost-bound relaxations of the search
  configuration (tightest depth caps first).

:func:`expand_goal` is the dispatcher the ladder policy uses: asymptotic
goals expand into their ladder, anything else stays a single variant.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

from repro.core.components import library
from repro.core.config import SynthesisConfig
from repro.core.goals import AsymptoticGoal, SynthesisGoal
from repro.portfolio.bounds import compile_ladder
from repro.typing.checker import CheckerConfig


class Variant:
    """One concrete entrant of a portfolio race.

    ``index`` is the winner priority (lower wins among successes); ``label``
    is the stable human-readable name used in events, stats and bench blocks.
    """

    __slots__ = ("index", "label", "kind", "goal", "config")

    def __init__(
        self, index: int, label: str, kind: str, goal: SynthesisGoal, config: SynthesisConfig
    ) -> None:
        self.index = index
        self.label = label
        self.kind = kind
        self.goal = goal
        self.config = config

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Variant({self.index}, {self.label!r}, {self.kind!r}, {self.goal.name!r})"


def ladder_variants(goal: AsymptoticGoal, config: SynthesisConfig) -> List[Variant]:
    """Bound-ladder variants of an asymptotic goal, tightest rung first."""
    return [
        Variant(rung.index, rung.label, "ladder", rung.goal, config)
        for rung in compile_ladder(goal)
    ]


def mode_variants(goal: SynthesisGoal, config: SynthesisConfig) -> List[Variant]:
    """Race resource-guided search (resyn) against the synquid baseline.

    The resyn variant keeps the caller's checker configuration and has winner
    priority — when both succeed, the resource-certified program is reported.
    """
    synquid_config = replace(
        config, checker=CheckerConfig(resource_aware=False, check_termination=True)
    )
    return [
        Variant(0, "mode:resyn", "mode", goal, config),
        Variant(1, "mode:synquid", "mode", goal, synquid_config),
    ]


def component_variants(
    goal: SynthesisGoal,
    config: SynthesisConfig,
    subsets: Optional[Sequence[Tuple[str, ...]]] = None,
) -> List[Variant]:
    """Race restrictions of the component library, smallest subset first.

    ``subsets`` lists the component-name subsets to race, by default the
    constructor-only library against the goal's full library.  A smaller
    library exhausts (or wins) faster, and winning with fewer components is
    the stronger result, so subsets get priority in the given order.
    """
    names = tuple(component.name for component in goal.components)
    if subsets is None:
        subsets = [(), names]
    variants = []
    for index, subset in enumerate(subsets):
        unknown = [name for name in subset if name not in names]
        if unknown:
            raise ValueError(
                f"component subset {subset!r} names components the goal lacks: "
                f"{', '.join(unknown)}"
            )
        restricted = SynthesisGoal.create(goal.name, goal.schema, library(*subset))
        label = "components:" + ("+".join(subset) if subset else "constructors-only")
        variants.append(Variant(index, label, "components", restricted, config))
    return variants


def relax_variants(
    goal: SynthesisGoal,
    config: SynthesisConfig,
    levels: Sequence[int] = (1, 2, 3),
) -> List[Variant]:
    """Race cost-bound relaxations of the search configuration.

    Level ``n`` caps every search depth (arguments, matches, conditionals) at
    ``n``, never exceeding the base configuration.  Tighter levels exhaust
    fast and produce smaller programs, so they get winner priority; duplicate
    consecutive configurations (base already tighter than the level) collapse.
    """
    variants: List[Variant] = []
    seen = set()
    for level in levels:
        capped = replace(
            config,
            max_arg_depth=min(level, config.max_arg_depth),
            max_match_depth=min(level, config.max_match_depth),
            max_cond_depth=min(level, config.max_cond_depth),
        )
        key = (capped.max_arg_depth, capped.max_match_depth, capped.max_cond_depth)
        if key in seen:
            continue
        seen.add(key)
        variants.append(Variant(len(variants), f"relax:depth{level}", "relax", goal, capped))
    return variants


def expand_goal(goal: SynthesisGoal, config: SynthesisConfig) -> List[Variant]:
    """The default expansion: asymptotic goals race their bound ladder.

    Plain goals (including example goals) expand to a single variant — the
    portfolio layer never changes what a non-asymptotic goal means.
    """
    if isinstance(goal, AsymptoticGoal):
        return ladder_variants(goal, config)
    return [Variant(0, "goal", "goal", goal, config)]
