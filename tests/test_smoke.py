"""The shared checks of ``benchmarks/smoke.py`` fail on seeded faults.

The smoke suites run only in CI, so a shared check that silently passes
would let every suite that uses it go green.  Each check here must accept a
clean hand-made report and reject the same report with one fault seeded.
"""

import copy
import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "smoke.py")
_SPEC = importlib.util.spec_from_file_location("smoke", _PATH)
smoke = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(smoke)

REFERENCE = [
    {"tag": "a/resyn", "status": "ok", "program": "(fix f \\x . x)", "winner": "O(1)[c=1]"},
    {"tag": "b/resyn", "status": "ok", "program": "(fix g \\xs . xs)", "winner": "O(n)[c=2]"},
]
WARM = [dict(row, status="hit") for row in REFERENCE]
EXPECTED = {"a/resyn": "O(1)[c=1]", "b/resyn": "O(n)[c=2]"}
COUNTERS = {"retries": 4, "worker_kills": 4, "cache_quarantined": 1}


def failing_checks(rows):
    """The shared checks that reject ``rows`` as a warm rerun of ``REFERENCE``."""
    checks = {
        "all_ok": smoke.all_ok(rows, "run"),
        "all_hits": smoke.all_hits(rows, "run"),
        "same_outcomes": smoke.same_outcomes(REFERENCE, rows, "run"),
        "expected_winners": smoke.expected_winners(rows, EXPECTED, "run"),
    }
    return sorted(name for name, failures in checks.items() if failures)


def seeded(field, value, index=1):
    rows = copy.deepcopy(WARM)
    rows[index][field] = value
    return rows


def test_clean_reports_pass_every_check():
    assert failing_checks(WARM) == []
    assert smoke.nonzero(COUNTERS, sorted(COUNTERS), "telemetry") == []


@pytest.mark.parametrize(
    "rows, caught_by",
    [
        (seeded("program", "(fix g \\xs . Nil)"), ["same_outcomes"]),
        (seeded("status", "ok"), ["all_hits"]),
        (seeded("status", "cancelled"), ["all_ok", "all_hits"]),
        (seeded("winner", "O(n)[c=4]"), ["same_outcomes", "expected_winners"]),
        (WARM[:1], ["same_outcomes", "expected_winners"]),
        ([], ["all_ok", "same_outcomes", "expected_winners"]),
    ],
    ids=["changed-program", "missed-hit", "cancelled-row", "wrong-winner", "lost-job", "empty"],
)
def test_seeded_fault_fails_its_checks(rows, caught_by):
    assert failing_checks(rows) == sorted(caught_by)


@pytest.mark.parametrize("zeroed", sorted(COUNTERS))
def test_zero_required_counter_fails(zeroed):
    failures = smoke.nonzero(dict(COUNTERS, **{zeroed: 0}), sorted(COUNTERS), "telemetry")
    assert len(failures) == 1 and zeroed in failures[0]
    assert smoke.nonzero({}, [zeroed], "telemetry")


def test_summary_reports_failures():
    summary = smoke.Summary("x-smoke")
    summary.check([], "clean", 2)
    assert summary.render().endswith("x-smoke: OK")
    summary.check(smoke.all_ok(seeded("status", "error"), "run"), "seeded", 2)
    rendered = summary.render()
    assert "FAIL: run: b/resyn finished 'error'" in rendered
    assert rendered.endswith("x-smoke: FAILED")
