"""End-to-end and per-layer benchmark of the ReSyn reproduction.

Usage, from the repository root::

    python3 perfbench/run.py --workload synth --seed 1 --seconds 10 --trace 0

Every workload runs goals of the committed specs under ``specs/``:

* ``synth`` -- serial, in-process ``repro.api.synthesize``, one call per
  (goal, mode) of the fast Table 1, Table 2 and PBE goals, with
  ``REPRO_PORTFOLIO=off``.  No pool, no server: the synthesis stack alone.
* ``portfolio`` -- ``repro.api.run_goals`` on two workers, one call per fast
  goal of ``specs/asymptotic_suite.json``.  Each call compiles the goal's
  bound ladder and races the rungs; the losers are cancelled.
* ``server`` -- a resident ``SynthesisServer`` (two warm workers, no result
  cache) behind its HTTP front-end.  Two closed-loop clients each send one
  ``POST /jobs`` at a time from the fast Table 1 and PBE goals, so every
  request goes through admission, the supervisor and a warm worker.

A run repeats passes over the workload's fixed job mix, each pass in an
order shuffled by ``--seed``, until ``--seconds`` have elapsed; the pass in
progress finishes, so every run measures whole passes of the same mix.

Correctness: after the timed passes a reference pass synthesizes every
distinct job once, serially in this process (traced when ``--trace 1``).
Every program the timed path returned must be byte-identical to the
reference program of its job.  Every reference program is checked
independently of the solver stack: it runs under the cost-semantics
interpreter on inputs drawn from ``--seed`` and the goal's result refinement
must hold on each output; PBE programs must reproduce their examples, and
asymptotic goals must be won by the rung the spec expects.

``setup_s`` is the median over five fresh interpreters of the time to
import the package, load and decode the workload's specs and, for
``server``, boot the server until ``/healthz`` answers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import statistics
import subprocess
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SPECS = os.path.join(ROOT, "specs")

#: Spec files whose fast goals make up each workload's job mix.
MIXES = {
    "synth": ("table1", "table2", "pbe_suite"),
    "portfolio": ("asymptotic_suite",),
    "server": ("table1", "pbe_suite"),
}
#: Spec keys left out of every mix.  ``pbe_sum3`` alone takes seconds, which
#: would make each pass of ``synth``/``server`` a single sample of one goal.
EXCLUDED = frozenset({"pbe_sum3"})
WORKERS = 2
CLIENTS = 2
SETUP_REPEATS = 5
#: Interpreter inputs checked per reference program, and draws allowed to
#: find them (draws that violate a parameter refinement are discarded).
CHECK_INPUTS = 12
CHECK_DRAWS = 200
CHECK_FUEL = 200_000
REQUEST_TIMEOUT = 120.0

#: Per-layer counters summed over the reference pass: ``SynthesisResult``
#: attributes first, then keys of ``SynthesisResult.stats``.
RESULT_COUNTERS = ("candidates_checked", "cegis_counterexamples")
STATS_COUNTERS = (
    "eterm_checks",
    "subtype_queries",
    "validity_queries",
    "sat_solves",
    "gate_cache_hits",
    "lia_queries",
    "lia_eliminations",
    "sat_decisions",
    "sat_conflicts",
)
#: Span-name prefixes whose self-time is reported per layer.
PHASE_LAYERS = ("synth", "check", "cegis", "smt", "sat", "lia")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or specs)."""


def _ensure_sources() -> None:
    if not os.path.isdir(os.path.join(SRC, "repro")) or not os.path.isdir(SPECS):
        raise BenchError(f"no repro sources under {ROOT}: run from a full checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


class Setup:
    """The workload's decoded job mix and, for ``server``, a running server."""

    def __init__(self, workload: str) -> None:
        from repro.service.specs import jobs_from_spec, load_spec

        self.workload = workload
        self.jobs = []
        #: Spec key -> the bound-ladder rung the spec expects to win.
        self.expected_winner = {}
        for name in MIXES[workload]:
            spec = load_spec(os.path.join(SPECS, f"{name}.json"))
            for entry in spec["goals"]:
                if entry.get("expected_winner"):
                    self.expected_winner[entry["key"]] = entry["expected_winner"]
            self.jobs.extend(
                job for job in jobs_from_spec(spec) if job.tag.split("/", 1)[0] not in EXCLUDED
            )
        self.decoded = {job.tag: (job.goal(), job.config()) for job in self.jobs}
        self.handle = None
        if workload == "server":
            from repro.service.serve import serve_in_thread

            self.handle = serve_in_thread(workers=WORKERS)
            status, _ = _http(self.handle, "GET", "/healthz")
            if status != 200:
                self.close()
                raise BenchError(f"server health check answered {status}")

    def close(self) -> None:
        if self.handle is not None:
            self.handle.stop()
            self.handle = None


def _http(handle, method: str, path: str, body: bytes = b""):
    conn = http.client.HTTPConnection(handle.host, handle.port, timeout=REQUEST_TIMEOUT)
    try:
        conn.request(method, path, body=body or None)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def probe_setup(workload: str) -> float:
    """One set-up from a fresh interpreter: import, decode, (boot)."""
    start = time.perf_counter()
    _ensure_sources()
    import repro.api  # noqa: F401

    setup = Setup(workload)
    seconds = time.perf_counter() - start
    setup.close()
    return seconds


def measure_setup(workload: str) -> float:
    """Median set-up time over ``SETUP_REPEATS`` fresh interpreters."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", workload],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]))
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# One request per workload: (latency s, synthesis s, program text, winner)
# ---------------------------------------------------------------------------


def request_synth(setup: Setup, job):
    from repro.api import synthesize

    goal, config = setup.decoded[job.tag]
    start = time.perf_counter()
    result = synthesize(goal, config)
    latency = time.perf_counter() - start
    return latency, result.seconds, _text(result.program), None


def request_portfolio(setup: Setup, job):
    from repro.api import run_goals

    goal, config = setup.decoded[job.tag]
    start = time.perf_counter()
    (result,) = run_goals([goal], config=config, workers=WORKERS)
    latency = time.perf_counter() - start
    winner = (result.stats.get("portfolio") or {}).get("winner")
    return latency, result.seconds, _text(result.program), winner


def request_server(setup: Setup, job):
    body = json.dumps(
        {"jobs": [{"goal": job.goal_json, "config": job.config_json, "tag": job.tag}]}
    ).encode()
    start = time.perf_counter()
    status, raw = _http(setup.handle, "POST", "/jobs", body)
    latency = time.perf_counter() - start
    if status != 200:
        raise RuntimeError(f"POST /jobs answered {status}: {raw[:200]!r}")
    events = [json.loads(line) for line in raw.decode().splitlines() if line.strip()]
    results = [event for event in events if event.get("event") == "result"]
    if len(results) != 1:
        raise RuntimeError(f"expected one result event, got {len(results)}")
    result = results[0]
    if not result["ok"]:
        raise RuntimeError(f"job failed: {result.get('error')}")
    return latency, float(result["seconds"]), result["program"], None


REQUESTS = {"synth": request_synth, "portfolio": request_portfolio, "server": request_server}


def _text(program):
    return str(program) if program is not None else None


# ---------------------------------------------------------------------------
# Timed passes
# ---------------------------------------------------------------------------


def timed_passes(setup: Setup, rng: random.Random, seconds: float):
    """Whole passes over the shuffled mix until ``seconds`` have elapsed.

    Returns ``(passes, errors)``: per pass, its wall-clock and one ``(tag,
    latency, synth_seconds, program_text, winner)`` sample per successful
    request; and the error text of every failed request.
    """
    request = REQUESTS[setup.workload]

    def attempt(job):
        try:
            return (job.tag,) + tuple(request(setup, job))
        except Exception:  # noqa: BLE001 - a failed request is counted, not fatal
            return f"{job.tag}: {traceback.format_exc(limit=3)}"

    passes, errors = [], []
    executor = ThreadPoolExecutor(CLIENTS) if setup.workload == "server" else None
    start = time.perf_counter()
    try:
        while time.perf_counter() - start < seconds:
            order = rng.sample(setup.jobs, len(setup.jobs))
            pass_start = time.perf_counter()
            outcomes = list(executor.map(attempt, order) if executor else map(attempt, order))
            samples = [outcome for outcome in outcomes if not isinstance(outcome, str)]
            errors.extend(outcome for outcome in outcomes if isinstance(outcome, str))
            passes.append((time.perf_counter() - pass_start, samples))
    finally:
        if executor is not None:
            executor.shutdown(wait=True)
    return passes, errors


# ---------------------------------------------------------------------------
# Reference pass and independent checks
# ---------------------------------------------------------------------------


def reference_pass(setup: Setup, traced: bool):
    """Synthesize every distinct job once in this process, serially."""
    from repro.api import synthesize
    from repro.obs import export, trace

    if traced:
        trace.reset()
        trace.enable()
    try:
        results = {}
        for job in setup.jobs:
            goal, config = setup.decoded[job.tag]
            results[job.tag] = synthesize(goal, config)
        phases = export.phase_table() if traced else []
    finally:
        if traced:
            trace.disable()
            trace.reset()
    return results, phases


def check_reference(setup: Setup, tag: str, result, rng: random.Random):
    """Why the reference program of ``tag`` is wrong, or ``None``."""
    from repro.core.goals import ExampleGoal
    from repro.pbe.check import check_program_on_examples

    if result.program is None:
        return "no program"
    goal = result.goal
    builtins = goal.component_builtins()
    if isinstance(goal, ExampleGoal) and not check_program_on_examples(
        result.program, goal.examples, builtins
    ):
        return "program misses an input-output example"
    expected = setup.expected_winner.get(tag.split("/", 1)[0])
    if expected is not None:
        winner = (result.stats.get("portfolio") or {}).get("winner")
        if winner != expected:
            return f"won by rung {winner!r}, spec expects {expected!r}"
    return check_refinement(goal, result.program, builtins, rng)


def check_refinement(goal, program, builtins, rng: random.Random):
    """Run ``program`` on drawn inputs; the result refinement must hold."""
    from repro.logic import terms as t
    from repro.semantics.interpreter import EvaluationError, OutOfFuel, run_on_inputs
    from repro.semantics.refinements import holds
    from repro.typing.types import NU_NAME, ArrowType, RType

    body = goal.schema.body
    if not isinstance(body, ArrowType):
        return "goal type is not a function type"
    refinement = body.final_result().refinement
    if isinstance(refinement, t.BoolConst) and refinement.value:
        return None  # nothing to check beyond the examples
    params = body.params()
    if not all(isinstance(ptype, RType) for _, ptype in params):
        return "higher-order parameter: no input generator"
    checked = 0
    for _ in range(CHECK_DRAWS):
        env, args = {}, []
        for name, ptype in params:
            value = draw_value(ptype.base, rng)
            if not holds(ptype.refinement, {**env, NU_NAME: value}):
                break
            env[name] = value
            args.append(value)
        else:
            try:
                output = run_on_inputs(program, args, env=builtins, fuel=CHECK_FUEL).value
            except (EvaluationError, OutOfFuel) as err:
                return f"evaluation fails on inputs {args!r}: {err}"
            if not holds(refinement, {**env, NU_NAME: output}):
                return f"result refinement fails on inputs {args!r} (output {output!r})"
            checked += 1
            if checked == CHECK_INPUTS:
                return None
    return f"only {checked} of {CHECK_INPUTS} drawn inputs met the parameter refinements"


def draw_value(base, rng: random.Random):
    """A small random value of a base type (lists of up to six elements)."""
    from repro.semantics.values import tree_from_sorted
    from repro.typing.types import BoolBase, IntBase, ListBase, TreeBase, TypeVarBase

    if isinstance(base, BoolBase):
        return rng.random() < 0.5
    if isinstance(base, IntBase):
        return rng.randint(-3, 9)
    if isinstance(base, TypeVarBase):
        return rng.randint(0, 9)
    if isinstance(base, ListBase):
        size = rng.randint(0, 6)
        if base.sorted:
            return tuple(sorted(rng.sample(range(20), size)))
        return tuple(draw_value(base.elem.base, rng) for _ in range(size))
    if isinstance(base, TreeBase):
        return tree_from_sorted(sorted(rng.sample(range(20), rng.randint(0, 6))))
    raise TypeError(f"no input generator for base type {base}")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end_metrics(passes, setup_s: float) -> dict:
    """Timings are taken per pass; the run reports the faster quartile.

    Load from outside the benchmark only ever slows a pass down, so the
    faster quartile of passes is the estimate it disturbs least.  The mixes
    span three orders of magnitude of latency, so a latency percentile would
    land in the gap between two goals and jump with noise; the geometric
    mean weighs every request alike.  Throughput is dominated by the
    heaviest goals of the mix, so the two metrics cover both ends.
    """
    full = [(wall, samples) for wall, samples in passes if samples]
    geomeans = [
        statistics.geometric_mean(sample[1] * 1000.0 for sample in samples) for _, samples in full
    ]
    rates = [len(samples) / wall for wall, samples in full]
    return {
        "latency_geomean_ms": {"value": _quartile(geomeans, 0), "unit": "ms"},
        "goals_per_s": {"value": _quartile(rates, 2), "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def _quartile(values, index: int) -> float:
    """The lower (``index`` 0) or upper (``index`` 2) quartile of ``values``."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[index]


def per_layer_metrics(samples, references, phases) -> dict:
    metrics = {
        "synth_ms": {
            "value": statistics.median(sample[2] for sample in samples) * 1000.0,
            "unit": "ms",
        },
        "overhead_ms": {
            "value": statistics.median(sample[1] - sample[2] for sample in samples) * 1000.0,
            "unit": "ms",
        },
    }
    for name in RESULT_COUNTERS:
        total = sum(getattr(result, name) for result in references.values())
        metrics[name] = {"value": total, "unit": "count"}
    for name in STATS_COUNTERS:
        total = sum(result.stats.get(name, 0) for result in references.values())
        metrics[name] = {"value": total, "unit": "count"}
    for layer in PHASE_LAYERS:
        self_seconds = sum(
            row["self_seconds"] for row in phases if row["phase"].split(".", 1)[0] == layer
        )
        metrics[f"{layer}_self_ms"] = {"value": self_seconds * 1000.0, "unit": "ms"}
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    _ensure_sources()
    if workload == "synth":
        os.environ["REPRO_PORTFOLIO"] = "off"
    setup_s = measure_setup(workload)
    setup = Setup(workload)
    try:
        passes, errors = timed_passes(setup, random.Random(seed), seconds)
    finally:
        setup.close()
    samples = [sample for _, pass_samples in passes for sample in pass_samples]
    references, phases = reference_pass(setup, traced)

    problems = list(errors)
    check_rng = random.Random(seed)
    for tag, result in references.items():
        problem = check_reference(setup, tag, result, check_rng)
        if problem is not None:
            problems.append(f"{tag}: {problem}")
    mismatched = 0
    for tag, _, _, text, winner in samples:
        reference = references[tag]
        ref_winner = (reference.stats.get("portfolio") or {}).get("winner")
        if text != _text(reference.program) or winner != ref_winner:
            mismatched += 1
            problems.append(f"{tag}: program {text!r} (won by {winner!r}) differs from reference")
    for problem in problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    if not samples:
        raise BenchError("no request succeeded")
    metrics = (
        per_layer_metrics(samples, references, phases)
        if traced
        else end_to_end_metrics(passes, setup_s)
    )
    print(
        f"{workload}: {len(samples)} requests in {len(passes)} passes, "
        f"{len(references)} distinct jobs, {len(problems)} problems"
    )
    return {
        "correct": not problems,
        "attempted": len(samples) + len(errors),
        "failed": len(errors) + mismatched,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="ReSyn reproduction benchmark")
    parser.add_argument("--workload", choices=sorted(MIXES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=sorted(MIXES), help=argparse.SUPPRESS)
    args = parser.parse_args()
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": probe_setup(args.setup_probe)}))
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
