"""Synthesized programs are parametric in the goal's type variables.

A goal ``forall a. ...`` may not put an ``Int`` where an ``a`` goes (Re2,
Sec. 2.1).  This runs each polymorphic goal's program under the cost
semantics with ``a`` instantiated by opaque tokens: tokens order among
themselves, and comparing one with anything else raises.  A program that
compares an element with ``0`` then fails at run time, and one that returns
an integer where an ``a`` goes fails the result check.  Inputs are drawn from
the goal's parameter types (sizes 0..4) and filtered by their refinements;
every output must also satisfy the goal's result refinement.
"""

import functools
import itertools
import random
from dataclasses import replace

import pytest

from repro.benchsuite.definitions import benchmark_by_key, fast_benchmarks
from repro.core import SynthesisConfig, synthesize
from repro.lang import syntax as s
from repro.portfolio import compile_ladder
from repro.portfolio.suite import asymptotic_benchmarks
from repro.semantics.interpreter import EvaluationError, run_on_inputs
from repro.semantics.refinements import holds
from repro.typing.types import (
    ArrowType,
    BoolBase,
    IntBase,
    ListBase,
    NU_NAME,
    RType,
    TypeVarBase,
)


@functools.total_ordering
class Token:
    """An opaque value of a type variable: ordered among tokens only."""

    def __init__(self, rank: int) -> None:
        self.rank = rank

    def _other(self, other) -> "Token":
        if not isinstance(other, Token):
            raise TypeError(f"compared a type-variable value with {other!r}")
        return other

    def __eq__(self, other) -> bool:
        return self.rank == self._other(other).rank

    def __lt__(self, other) -> bool:
        return self.rank < self._other(other).rank

    def __hash__(self) -> int:
        return hash(("token", self.rank))

    def __repr__(self) -> str:
        return f"Token({self.rank})"


def _values(rtype: RType, rng: random.Random, size: int):
    """Candidate values of a parameter type; ``a`` becomes tokens."""
    base = rtype.base
    if isinstance(base, BoolBase):
        return [False, True]
    if isinstance(base, IntBase):
        return [0, 1, size]
    if isinstance(base, TypeVarBase):
        return [Token(rng.randrange(8))]
    assert isinstance(base, ListBase), f"no generator for {rtype}"
    assert isinstance(base.elem.base, TypeVarBase), f"no generator for {rtype}"
    if base.sorted:
        return [tuple(Token(rank) for rank in sorted(rng.sample(range(3 * size + 3), size)))]
    return [tuple(Token(rng.randrange(2 * size + 2)) for _ in range(size))]


def _inputs(schema):
    """Seeded inputs for ``schema`` that satisfy its parameter refinements."""
    params = schema.body.params()
    rng = random.Random(0)
    drawn = []
    for size in range(5):
        for values in itertools.product(*(_values(ptype, rng, size) for _, ptype in params)):
            env = {}
            for (name, ptype), value in zip(params, values):
                if not holds(ptype.refinement, {**env, NU_NAME: value}):
                    break
                env[name] = value
            else:
                drawn.append(values)
    assert drawn
    return drawn


def _fits(value, rtype: RType) -> bool:
    """Whether a run-time value has the shape of ``rtype``, tokens for ``a``."""
    base = rtype.base
    if isinstance(base, TypeVarBase):
        return isinstance(value, Token)
    if isinstance(base, BoolBase):
        return isinstance(value, bool)
    if isinstance(base, IntBase):
        return isinstance(value, int) and not isinstance(value, bool)
    if isinstance(base, ListBase):
        return isinstance(value, tuple) and all(_fits(item, base.elem) for item in value)
    raise AssertionError(f"no shape check for {rtype}")


def assert_parametric(goal, program: s.Fix) -> None:
    schema = goal.schema
    assert isinstance(schema.body, ArrowType)
    params = schema.body.params()
    result_type = schema.body.final_result()
    builtins = goal.component_builtins()
    for inputs in _inputs(schema):
        value = run_on_inputs(program, inputs, env=builtins).value
        where = f"{program} on {inputs!r} returned {value!r}"
        assert _fits(value, result_type), f"not a {result_type.base}: {where}"
        env = {name: arg for (name, _), arg in zip(params, inputs)}
        assert holds(result_type.refinement, {**env, NU_NAME: value}), f"spec fails: {where}"


# ---------------------------------------------------------------------------
# The goals: fast Table 1/2 rows, the rows rigid type variables made cheap,
# and the portfolio suite's expected winner rungs.
# ---------------------------------------------------------------------------

PINNED_ROWS = ("t1_insert_sorted", "replicate", "t1_member", "drop")


def _table_jobs():
    benches = fast_benchmarks() + [benchmark_by_key(key) for key in PINNED_ROWS]
    for bench in benches:
        if bench.goal.schema.tvars:
            yield pytest.param(bench.goal, bench.configs()["resyn"], id=bench.key)


def _winner_jobs():
    for bench in asymptotic_benchmarks():
        (rung,) = [r for r in compile_ladder(bench.goal) if r.label == bench.expected_winner]
        config = replace(SynthesisConfig.resyn(), **bench.config_overrides)
        yield pytest.param(rung.goal, config, id=f"{bench.key}-{rung.label}")


@pytest.mark.parametrize("goal,config", [*_table_jobs(), *_winner_jobs()])
def test_program_is_parametric(goal, config):
    program = synthesize(goal, config).program
    assert program is not None
    assert_parametric(goal, program)


# ---------------------------------------------------------------------------
# The check itself: it rejects programs that use an Int as an ``a``.
# ---------------------------------------------------------------------------


def _replicate_with_count_as_element():
    """``Cons n (replicate (dec n) n)``: puts the count where an ``a`` goes."""
    recurse = s.App("replicate", (s.App("dec", (s.Var("n"),)), s.Var("n")))
    body = s.If(
        s.App("leq", (s.Var("n"), s.IntLit(0))),
        s.Nil(),
        s.Cons(s.Var("n"), recurse),
    )
    return s.Fix("replicate", ("n", "x"), body)


def _member_comparing_with_zero():
    """``if (eq x 0) then M else M``: compares an ``a`` with an ``Int``."""

    def scan(index):
        head, tail = f"x{index}", f"xs{index}"
        found = s.If(
            s.App("eq", (s.Var("x"), s.Var(head))),
            s.BoolLit(True),
            s.App("memberOf", (s.Var("x"), s.Var(tail))),
        )
        return s.MatchList(s.Var("xs"), s.BoolLit(False), head, tail, found)

    body = s.If(s.App("eq", (s.Var("x"), s.IntLit(0))), scan(0), scan(1))
    return s.Fix("memberOf", ("x", "xs"), body)


def test_check_rejects_an_int_returned_as_an_element():
    goal = benchmark_by_key("replicate").goal
    with pytest.raises(AssertionError, match=r"not a List a: .*\(Cons n "):
        assert_parametric(goal, _replicate_with_count_as_element())


def test_check_rejects_an_element_compared_with_an_int():
    goal = benchmark_by_key("t1_member").goal
    with pytest.raises(EvaluationError, match="compared a type-variable value"):
        assert_parametric(goal, _member_comparing_with_zero())


def test_tokens_refuse_integers():
    with pytest.raises(TypeError):
        Token(1) == 1
    with pytest.raises(TypeError):
        Token(1) < 2
    assert Token(1) < Token(2) and Token(3) == Token(3)
