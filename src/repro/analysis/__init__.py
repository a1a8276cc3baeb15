"""Resource analysis of complete programs: empirical cost measurement and bound fitting."""

from repro.analysis.empirical import (
    BOUND_SHAPES,
    CostSample,
    fit_bound,
    is_constant_resource,
    measure_cost,
)

__all__ = [name for name in dir() if not name.startswith("_")]
