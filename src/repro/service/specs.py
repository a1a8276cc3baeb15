"""Declarative goal specifications (JSON/TOML).

A *spec file* defines a batch of synthesis scenarios without writing Python:
each goal entry carries the goal name, its full Re2 goal type (encoded by
:mod:`repro.service.codec`), the component names it may use, the tool modes to
run it under and per-goal search-bound overrides.  The existing Table 1 and
Table 2 benchmark definitions export losslessly to this format
(``specs/table1.json``, ``specs/table2.json`` — regenerate with
``python -m repro.service export``), which is the round-tripping proof that
the format can express every scenario the repository knows about.

Spec files are JSON by default; ``.toml`` files are read through the standard
library ``tomllib`` where available (Python ≥ 3.11), with the same structure.

Schema (``resyn-goals/1``)::

    {
      "format": "resyn-goals/1",
      "suite": "table1",
      "goals": [
        {
          "key": "t1_append",              // unique row key
          "description": "append two lists",
          "goal": {"name": ..., "schema": ..., "components": [...]},
          "modes": ["resyn", "synquid"],   // named configs, see CONFIG_MODES
          "config": {"max_arg_depth": 2},  // overrides applied to every mode
          "constant_resource": false,       // resyn runs as the CT variant
          "slow": false,                    // skipped unless include_slow
          "retries": 1,                     // optional crash-retry budget
          "expected_winner": "O(n)[c=1]"    // asymptotic suites: winning rung
        }
      ]
    }

Field names are unified across every suite (tables, PBE, asymptotic):
:data:`ENTRY_FIELDS` is the full vocabulary, and spellings from earlier
drafts of the format fail validation with a pointed rename hint
(:data:`RENAMED_FIELDS`) rather than being silently ignored.

Retry budgets are *scheduling* policy, not part of the synthesis problem:
like per-job timeouts they never enter the job fingerprint, so changing them
does not invalidate cached results.
"""

from __future__ import annotations

import difflib
import json
import os
from typing import Dict, List, Optional, Sequence

from repro.service.codec import CodecError, config_from_mode, goal_from_json, goal_to_json
from repro.service.scheduler import Job, job_for_goal

SPEC_FORMAT = "resyn-goals/1"

#: The unified goal-entry vocabulary.  Every front end (tables, PBE, the
#: asymptotic suite) uses exactly these field names; anything else is a
#: spelling mistake and gets a pointed error instead of a silent no-op.
ENTRY_FIELDS = frozenset(
    {
        "key",
        "description",
        "group",
        "goal",
        "modes",
        "config",
        "constant_resource",
        "slow",
        "retries",
        "expected_winner",
    }
)

#: Field spellings earlier drafts of the format (and near-miss typos people
#: actually make) used, mapped to the unified name.  An old spelling is a
#: hard error — silently ignoring ``"mode"`` would run the wrong tool — but
#: the error says exactly what to write instead.
RENAMED_FIELDS = {
    "name": "key",
    "id": "key",
    "tag": "key",
    "desc": "description",
    "comment": "description",
    "mode": "modes",
    "tools": "modes",
    "configs": "config",
    "options": "config",
    "overrides": "config",
    "ct": "constant_resource",
    "const_resource": "constant_resource",
    "skip": "slow",
    "retry": "retries",
    "retry_budget": "retries",
    "winner": "expected_winner",
}


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def load_spec(path: str) -> dict:
    """Load and validate a spec file (JSON, or TOML via ``tomllib``)."""
    if path.endswith(".toml"):
        import tomllib

        with open(path, "rb") as handle:
            spec = tomllib.load(handle)
    else:
        with open(path) as handle:
            spec = json.load(handle)
    validate_spec(spec)
    return spec


def validate_spec(spec: dict) -> None:
    if spec.get("format") != SPEC_FORMAT:
        raise CodecError(
            f"unsupported spec format {spec.get('format')!r} (expected {SPEC_FORMAT!r})"
        )
    goals = spec.get("goals")
    if not isinstance(goals, list) or not goals:
        raise CodecError("spec must contain a non-empty 'goals' list")
    seen = set()
    for entry in goals:
        key = entry.get("key")
        for field_name in entry:
            if field_name not in ENTRY_FIELDS:
                raise CodecError(_unknown_field_message(key, field_name))
        if not key or key in seen:
            raise CodecError(f"goal entries need unique 'key' fields (got {key!r})")
        seen.add(key)
        if "goal" not in entry:
            raise CodecError(f"goal {key!r} is missing its 'goal' payload")


def _unknown_field_message(key, field_name: str) -> str:
    where = f"goal {key!r}" if key else "goal entry"
    renamed = RENAMED_FIELDS.get(field_name)
    if renamed is not None:
        return (
            f"{where}: field {field_name!r} was renamed; "
            f"write {renamed!r} (the unified spec vocabulary)"
        )
    close = difflib.get_close_matches(field_name, ENTRY_FIELDS, n=1)
    hint = f" — did you mean {close[0]!r}?" if close else ""
    return f"{where}: unknown field {field_name!r}{hint}"


def jobs_from_spec(
    spec: dict,
    modes: Optional[Sequence[str]] = None,
    include_slow: bool = False,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
) -> List[Job]:
    """Expand a spec into schedulable jobs (one per goal × mode).

    ``modes`` restricts every goal to the given modes; by default each goal
    runs under the modes its entry declares.  Goals marked ``slow`` are
    skipped unless ``include_slow`` (mirroring the ``REPRO_FULL`` convention
    of the benchmark harness).  ``retries`` overrides the crash-retry budget
    for every job; a per-entry ``"retries"`` key wins over it.  Both are
    scheduling policy and never enter the job fingerprint.
    """
    jobs: List[Job] = []
    for entry in spec["goals"]:
        if entry.get("slow") and not include_slow:
            continue
        try:
            goal = goal_from_json(entry["goal"])
            overrides = dict(entry.get("config") or {})
            entry_modes = list(modes if modes is not None else entry.get("modes") or ["resyn"])
            entry_retries = entry.get("retries", retries)
            for mode in entry_modes:
                effective_mode = mode
                if mode == "resyn" and entry.get("constant_resource"):
                    effective_mode = "constant_resource"
                config = config_from_mode(effective_mode, overrides)
                jobs.append(
                    job_for_goal(
                        goal,
                        config,
                        tag=f"{entry['key']}/{mode}",
                        timeout=timeout,
                        retries=entry_retries,
                    )
                )
        except ValueError as err:  # CodecError, or a bad timeout/retries
            # Name the offending entry: a spec file can hold dozens of goals,
            # and "unknown component 'apend'" without the entry key forces a
            # manual hunt through the file.
            raise CodecError(f"goal entry {entry['key']!r}: {err}") from None
    return jobs


# ---------------------------------------------------------------------------
# Exporting (benchmark definitions -> specs)
# ---------------------------------------------------------------------------


def spec_from_benchmarks(suite: str, benchmarks, modes: Sequence[str]) -> dict:
    """Encode benchmark definitions as a declarative spec."""
    goals = []
    for bench in benchmarks:
        entry: Dict[str, object] = {
            "key": bench.key,
            "description": bench.description,
            "group": bench.group,
            "goal": goal_to_json(bench.goal),
            "modes": list(modes),
        }
        if bench.config_overrides:
            entry["config"] = dict(bench.config_overrides)
        if bench.slow:
            entry["slow"] = True
        # The runner's constant-resource special case (Table 2 CT rows).
        if bench.constant_resource_row:
            entry["constant_resource"] = True
        goals.append(entry)
    return {"format": SPEC_FORMAT, "suite": suite, "goals": goals}


def export_table_spec(table: str) -> dict:
    """The committed spec for ``table1``, ``table2`` or the ``pbe`` suite."""
    from repro.benchsuite.definitions import table1_benchmarks, table2_benchmarks

    if table == "table1":
        return spec_from_benchmarks("table1", table1_benchmarks(), ("resyn", "synquid"))
    if table == "table2":
        return spec_from_benchmarks(
            "table2", table2_benchmarks(), ("resyn", "synquid", "eac", "noninc")
        )
    if table == "pbe":
        from repro.pbe.suite import pbe_spec

        return pbe_spec()
    raise ValueError(f"unknown table {table!r}")


def write_spec(spec: dict, path: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(spec, handle, indent=2, sort_keys=True)
        handle.write("\n")
