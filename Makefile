# Common entry points for builders and CI.  The PYTHONPATH juggling mirrors
# the tier-1 command documented in ROADMAP.md, so `make test` and the CI run
# are the same thing.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
SMOKE_SUITES := service serve pbe portfolio chaos

.PHONY: test test-slow lint bench-quick check-regression bench-table1 bench-table2 specs profile $(SMOKE_SUITES:%=%-smoke)

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
## definitions (`make service-smoke` fails when specs/ differs from a fresh
## export).
specs:
	$(PYTHON) -m repro.service export --dir specs

## Traced run of the quick suite: writes trace.jsonl + profile.folded (the
## flamegraph input) to /tmp/repro-profile and prints the phase-time table.
## Fails if the spans cover <90% of the synthesis wall-clock.
profile:
	$(PYTHON) benchmarks/profile_quick.py

## The end-to-end smoke contracts, one target per suite of
## benchmarks/smoke.py: service (scheduler + warm cache + spec export),
## serve (warm server over HTTP), pbe (example-driven suite), portfolio
## (bound-ladder race vs. sequential walk) and chaos (fault injection).  CI's
## smoke matrix runs exactly these recipes; the 600 s cap fails a hung suite.
$(SMOKE_SUITES:%=%-smoke): %-smoke:
	timeout 600 $(PYTHON) benchmarks/smoke.py $*
