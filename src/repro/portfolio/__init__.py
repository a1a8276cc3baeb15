"""Portfolio synthesis: racing ladders of concrete goals for asymptotic bounds.

See :mod:`repro.portfolio.bounds` for ladder compilation,
:mod:`repro.portfolio.variants` for variant expansion,
:mod:`repro.portfolio.runner` for the ladder policy that decides a race, and
:mod:`repro.portfolio.suite` for the committed asymptotic benchmark suite.
"""

from repro.portfolio.bounds import Rung, compile_ladder, rung_label
from repro.portfolio.runner import is_portfolio_job, portfolio_enabled
from repro.portfolio.variants import Variant, expand_goal, ladder_variants

__all__ = [
    "Rung",
    "Variant",
    "compile_ladder",
    "expand_goal",
    "is_portfolio_job",
    "ladder_variants",
    "portfolio_enabled",
    "rung_label",
]
