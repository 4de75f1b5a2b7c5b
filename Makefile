PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: check compile test lint-smoke layered-smoke figures bench-smoke \
	bench-distributed clean

## Default verification: imports compile, tier-1 tests pass (they include
## `repro lint` / `repro synth --check` / `--sanitize` over every bundled
## app, the `repro perf` regression round trip, the traced quickstart's
## Perfetto trace, the fault-injection example and the multiprocess
## backend against the simulated oracle), the style lint is clean, the
## layered benchmark's harness still produces every metric it declares,
## and the paper figures still print the committed results.
check: compile test lint-smoke layered-smoke figures

compile:
	$(PYTHON) -m compileall -q src

test:
	$(PYTHON) -m pytest -x -q

## Style lint (ruff, skipped when not installed).  `repro lint` over the
## bundled apps and the demo catalog runs in tests/test_lint.py.
lint-smoke:
	@if command -v ruff > /dev/null 2>&1; then \
		ruff check src tests examples benchmarks; \
	else \
		echo "ruff not installed; skipping style lint"; \
	fi

## The layered benchmark's self-test (~25 s): a --smoke pass of all four
## workloads plus schema, unit, span-tree and driver-line validation.
## Run through benchmarks/layered_smoke.py since PR 14: the self-test
## demands that every probe resolves, and the `kernels.*` probe of
## benchmarks/layered/child.py imports `conflict_free_groups`, which level
## scheduling replaced, so selftest.py alone stops at "AssertionError:
## mf_mp2: kernels.group_prep_s not a number".  A PR that claims a gain may
## not edit the benchmark; the wrapper excuses exactly those three
## unresolved metrics and keeps every other validation.  Point this back at
## benchmarks/layered/selftest.py once a benchmark-only PR re-points the
## probe at `kernels.level_schedule`.
layered-smoke:
	$(PYTHON) benchmarks/layered_smoke.py

## The paper-figure suite (~1 min): every benchmarks/bench_*.py figure
## test asserts its paper shape and rewrites benchmarks/results/*.txt.
## The clock is virtual and the data seeded, so a fresh run must leave the
## committed files byte-identical; a change that moves a figure on purpose
## commits the regenerated files and says so.
figures:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q -p no:cacheprovider
	git diff --exit-code -- benchmarks/results/

## Wall-clock kernel-vs-scalar throughput; writes BENCH_wallclock.json.
bench-smoke:
	$(PYTHON) benchmarks/bench_wallclock.py

## Real forked-worker scaling (1/2/4 workers, all four apps) vs the
## single-process scalar baseline; writes BENCH_distributed.json.
bench-distributed:
	$(PYTHON) benchmarks/bench_distributed.py

clean:
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	rm -rf .pytest_cache .repro_runs
