"""Table 1/2 rows that rigid goal type variables made cheap.

A goal's type variable matches only itself, so these polymorphic rows no
longer enumerate candidates that use an ``Int`` where an ``a`` goes.  Each
row pins its program and its candidate count; nothing here measures
wall-clock time.  ``insert_fine`` still takes seconds (1,240 CEGIS
counterexamples), so it runs only with ``--run-slow``.
"""

import pytest

from repro.benchsuite.definitions import benchmark_by_key
from repro.core import synthesize

INSERT_SORTED = (
    "(fix {name} \\x xs . (match xs with Nil -> (Cons x xs) | Cons x0 xs0 -> "
    "(if (lt x x0) then (Cons x xs) else (if (lt x0 x) then "
    "(Cons x0 ({name} x xs0)) else xs))))"
)

ROWS = [
    ("t1_insert_sorted", "resyn", INSERT_SORTED.format(name="t1_insert_sorted"), 183),
    ("t1_insert_sorted", "noninc", INSERT_SORTED.format(name="t1_insert_sorted"), 183),
    (
        "replicate",
        "resyn",
        "(fix replicate \\n x . (if (leq n 0) then Nil else (Cons x (replicate (dec n) x))))",
        29,
    ),
    (
        "t1_member",
        "resyn",
        "(fix memberOf \\x xs . (match xs with Nil -> False | Cons x0 xs0 -> "
        "(if (eq x x0) then True else (memberOf x xs0))))",
        77,
    ),
    (
        "drop",
        "resyn",
        "(fix dropN \\n xs . (if (leq n 0) then xs else (match xs with "
        "Nil -> impossible | Cons x0 xs0 -> (dropN (dec n) xs0))))",
        67,
    ),
]


def _run(key, mode):
    bench = benchmark_by_key(key)
    return synthesize(bench.goal, bench.configs()[mode])


@pytest.mark.parametrize("key,mode,program,candidates", ROWS, ids=[f"{r[0]}-{r[1]}" for r in ROWS])
def test_row_program_and_candidates(key, mode, program, candidates):
    result = _run(key, mode)
    assert str(result.program) == program
    assert result.candidates_checked == candidates


@pytest.mark.slow
@pytest.mark.parametrize("mode", ["resyn", "noninc"])
def test_insert_fine(mode):
    result = _run("insert_fine", mode)
    assert str(result.program) == INSERT_SORTED.format(name="insert_fine")
    assert result.candidates_checked == 183
