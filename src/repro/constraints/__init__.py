"""Constraint solving: resource constraints and incremental CEGIS."""

from repro.constraints.cegis import CegisSolver, CegisStats, Example
from repro.constraints.store import (
    COEFF_PREFIX,
    ConstraintStore,
    ResourceConstraint,
    coefficients_in,
    is_coefficient,
)

__all__ = [name for name in dir() if not name.startswith("_")]
