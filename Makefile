# Common entry points for builders and CI.  The PYTHONPATH juggling mirrors
# the tier-1 command documented in ROADMAP.md, so `make test` and the CI run
# are the same thing.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-slow lint bench-quick check-regression bench-table1 bench-table2 specs service-smoke serve-smoke chaos-smoke pbe-smoke portfolio-smoke profile

## Tier-1 verification: the full pytest suite (fails fast).
test:
	$(PYTHON) -m pytest -x -q

## The slow-marked tests (heavy Table 2 rows such as range), each in
## its own pytest run under a 120 s cap.  `--run-slow` enables them and
## `-m slow` selects only them.  CI runs this on the reference interpreter.
test-slow:
	@tests=$$($(PYTHON) -m pytest --run-slow -m slow --collect-only -q | grep '::'); \
	test -n "$$tests" || { echo "no slow tests collected"; exit 1; }; \
	for test in $$tests; do \
	  timeout 120 $(PYTHON) -m pytest -q --run-slow "$$test" || exit 1; \
	done

## Static checks: ruff lint rules + formatting drift (configured in
## pyproject.toml).  This is exactly what the CI lint job runs.
lint:
	$(PYTHON) -m ruff check .
	$(PYTHON) -m ruff format --check .

## Quick perf benchmark: fast Table 1 subset; writes BENCH_synthesis.json
## at the repository root (tracked across PRs).
bench-quick:
	$(PYTHON) benchmarks/bench_quick.py

## Regenerate the quick benchmark into a scratch file and compare against the
## committed baseline (fails on program drift or >25% wall-clock regression).
## This is what CI runs; see .github/workflows/ci.yml.
check-regression:
	$(PYTHON) benchmarks/bench_quick.py /tmp/bench_fresh.json
	$(PYTHON) benchmarks/check_regression.py BENCH_synthesis.json /tmp/bench_fresh.json

## Reproduce the paper tables on the fast subsets (REPRO_FULL=1 for all rows).
bench-table1:
	$(PYTHON) -m repro.benchsuite.run_table1

bench-table2:
	$(PYTHON) -m repro.benchsuite.run_table2

## Regenerate the committed declarative goal specs from the benchmark
## definitions (CI diffs specs/ against a fresh export).
specs:
	$(PYTHON) -m repro.service export --dir specs

## Traced run of the quick suite: writes trace.jsonl + profile.folded (the
## flamegraph input) to /tmp/repro-profile and prints the phase-time table.
## Fails if the spans cover <90% of the synthesis wall-clock.
profile:
	$(PYTHON) benchmarks/profile_quick.py

## What the CI service-smoke job runs: a cold 2-worker scheduler pass over
## the Table 1 spec, then a warm rerun that must be 100% cache hits.
service-smoke:
	rm -rf /tmp/resyn-smoke-cache
	$(PYTHON) -m repro.service run specs/table1.json -j 2 --cache /tmp/resyn-smoke-cache
	$(PYTHON) -m repro.service run specs/table1.json -j 2 --cache /tmp/resyn-smoke-cache --expect-all-hits
	$(PYTHON) -m repro.service stats /tmp/resyn-smoke-cache

## What the CI serve-smoke job runs: boot the long-running server (resident
## warm workers + sharded cache + HTTP front-end), submit the fast Table 1
## spec cold then warm over real HTTP (the warm pass must be 100% cache
## hits with nonzero warm-state reuse), then prove the REPRO_WARM=off A/B
## byte-identity guard.  Prints a markdown report for the step summary.
serve-smoke:
	rm -rf /tmp/resyn-serve-cache
	$(PYTHON) benchmarks/check_serve.py --spec specs/table1.json --cache /tmp/resyn-serve-cache

## What the CI pbe-smoke job runs: the example-driven suite cold through the
## service (2 workers), a warm rerun that must be 100% cache hits, then
## benchmarks/check_pbe.py verifies spec freshness, program identity across
## runs, the grammar-pruning eterm_checks reduction, and that every solved
## program satisfies every example by direct interpretation.
pbe-smoke:
	rm -rf /tmp/resyn-pbe-cache
	$(PYTHON) -m repro.service run specs/pbe_suite.json -j 2 \
	  --cache /tmp/resyn-pbe-cache --json /tmp/pbe-cold.json
	$(PYTHON) -m repro.service run specs/pbe_suite.json -j 2 \
	  --cache /tmp/resyn-pbe-cache --expect-all-hits --json /tmp/pbe-warm.json
	$(PYTHON) benchmarks/check_pbe.py /tmp/pbe-cold.json /tmp/pbe-warm.json

## What the CI portfolio-smoke job runs: the committed asymptotic suite cold
## through the portfolio scheduler on 2 workers, twice, plus a
## REPRO_PORTFOLIO=off sequential ladder walk.  Fails unless every goal is
## solved with its expected winner rung, winners and programs are
## byte-identical across runs and modes, and the race cancelled at least one
## losing variant (losers must be reclaimed, not left to run dry).
portfolio-smoke:
	$(PYTHON) benchmarks/check_portfolio.py --workers 2

## What the CI chaos-smoke job runs: the Table 1 spec under deterministic
## fault injection (worker crashes + hangs, torn cache writes, read
## corruption) must produce programs byte-identical to a fault-free run,
## within bounded wall-clock, with the failure traffic visible in telemetry.
## Seed 7 is chosen so the fast subset draws 2 crashes and 2 hangs (see
## benchmarks/check_chaos.py for the contract being enforced).
chaos-smoke:
	rm -rf /tmp/resyn-chaos-clean /tmp/resyn-chaos-cache
	$(PYTHON) -m repro.service run specs/table1.json -j 2 \
	  --cache /tmp/resyn-chaos-clean --json /tmp/chaos-baseline.json
	REPRO_FAULTS="worker.crash=0.4:once,worker.hang=0.15:once,cache.write_torn=0.4" \
	REPRO_FAULTS_SEED=7 \
	  timeout 300 $(PYTHON) -m repro.service run specs/table1.json -j 2 \
	  --cache /tmp/resyn-chaos-cache --timeout 10 --hard-timeout 2 \
	  --json /tmp/chaos-cold.json
	REPRO_FAULTS="cache.read_corrupt=0.5:once" REPRO_FAULTS_SEED=7 \
	  timeout 300 $(PYTHON) -m repro.service run specs/table1.json -j 2 \
	  --cache /tmp/resyn-chaos-cache --timeout 10 --hard-timeout 2 \
	  --json /tmp/chaos-warm.json
	$(PYTHON) -m repro.service stats /tmp/resyn-chaos-cache --json > /tmp/chaos-stats.json
	$(PYTHON) benchmarks/check_chaos.py /tmp/chaos-baseline.json \
	  /tmp/chaos-cold.json /tmp/chaos-warm.json --stats /tmp/chaos-stats.json \
	  --require retries --require worker_kills --require hard_timeouts \
	  --require pool_rebuilds --require cache_quarantined
