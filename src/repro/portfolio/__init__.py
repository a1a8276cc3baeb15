"""Portfolio synthesis: racing ladders of concrete goals for asymptotic bounds.

See :mod:`repro.portfolio.bounds` for ladder compilation,
:mod:`repro.portfolio.runner` for the ladder policy that decides a race, and
:mod:`repro.portfolio.suite` for the committed asymptotic benchmark suite.
"""

from repro.portfolio.bounds import Rung, compile_ladder, rung_label
from repro.portfolio.runner import is_portfolio_job

__all__ = [
    "Rung",
    "compile_ladder",
    "is_portfolio_job",
    "rung_label",
]
