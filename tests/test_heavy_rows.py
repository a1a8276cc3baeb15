"""Table 1/2 rows that rigid goal type variables made cheap.

A goal's type variable matches only itself, so these polymorphic rows no
longer enumerate candidates that use an ``Int`` where an ``a`` goes.  The
baseline cells (``synquid`` is T-NR, ``eac`` is T-EAC) of ``replicate`` and
``drop`` exist because the termination metric is checked in the context
that binds the ghosts of non-variable arguments such as ``dec n``.  Each
row pins its program and its candidate count; nothing here measures
wall-clock time.  ``range`` still takes seconds and returns no program, so
it runs only with ``--run-slow``.
"""

import pytest

from repro.benchsuite.definitions import benchmark_by_key
from repro.core import synthesize

INSERT_SORTED = (
    "(fix {name} \\x xs . (match xs with Nil -> (Cons x xs) | Cons x0 xs0 -> "
    "(if (lt x x0) then (Cons x xs) else (if (lt x0 x) then "
    "(Cons x0 ({name} x xs0)) else xs))))"
)

REPLICATE = "(fix replicate \\n x . (if (leq n 0) then Nil else (Cons x (replicate (dec n) x))))"
DROP = (
    "(fix dropN \\n xs . (if (leq n 0) then xs else (match xs with "
    "Nil -> impossible | Cons x0 xs0 -> (dropN (dec n) xs0))))"
)

ROWS = [
    ("t1_insert_sorted", "resyn", INSERT_SORTED.format(name="t1_insert_sorted"), 183),
    ("t1_insert_sorted", "noninc", INSERT_SORTED.format(name="t1_insert_sorted"), 183),
    ("insert_fine", "resyn", INSERT_SORTED.format(name="insert_fine"), 183),
    ("insert_fine", "noninc", INSERT_SORTED.format(name="insert_fine"), 183),
    ("replicate", "resyn", REPLICATE, 29),
    ("replicate", "synquid", REPLICATE, 29),
    ("replicate", "eac", REPLICATE, 29),
    (
        "t1_member",
        "resyn",
        "(fix memberOf \\x xs . (match xs with Nil -> False | Cons x0 xs0 -> "
        "(if (eq x x0) then True else (memberOf x xs0))))",
        77,
    ),
    ("drop", "resyn", DROP, 67),
    ("drop", "synquid", DROP, 67),
    ("drop", "eac", DROP, 67),
]


def _run(key, mode):
    bench = benchmark_by_key(key)
    return synthesize(bench.goal, bench.configs()[mode])


@pytest.mark.parametrize("key,mode,program,candidates", ROWS, ids=[f"{r[0]}-{r[1]}" for r in ROWS])
def test_row_program_and_candidates(key, mode, program, candidates):
    result = _run(key, mode)
    assert str(result.program) == program
    assert result.candidates_checked == candidates


def test_take_baseline_exhausts_its_search():
    # `take` needs argument depth 3 (ROADMAP item 1).  The baseline's
    # termination check sees the ghost bound to `dec n`, so more recursive
    # calls pass it than when it looked at the context before the arguments.
    result = _run("take", "synquid")
    assert result.program is None
    assert result.candidates_checked == 2308


@pytest.mark.slow
@pytest.mark.parametrize("mode", ["resyn", "noninc"])
def test_range_exhausts_its_search(mode):
    # The committed spec leaves the result's elements unbounded below, so
    # the paper's program does not check (the `range` spec gap in ROADMAP.md).
    result = _run("range", mode)
    assert result.program is None
    assert result.candidates_checked == 7819
