"""Cost semantics of Re2: values, interpreter, executable refinements."""

from repro.semantics.interpreter import (
    CostModel,
    EvalResult,
    EvaluationError,
    Interpreter,
    OutOfFuel,
    evaluate,
    run_on_inputs,
)
from repro.semantics.refinements import (
    RefinementEvalError,
    eval_measure,
    eval_term,
    holds,
    potential_value,
)
from repro.semantics.values import (
    Builtin,
    Closure,
    LEAF,
    VTree,
    Value,
    tree_from_sorted,
)

__all__ = [name for name in dir() if not name.startswith("_")]
