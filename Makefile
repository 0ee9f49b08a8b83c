# Convenience targets for the reproduction workflow.

.PHONY: all test lint race typecheck bench bench-full bench-smoke bench-json elastic chaos chaos-smoke scenarios examples clean

all: test lint typecheck scenarios

test:
	pytest tests/

# In-tree invariant checks (determinism / async-safety / typed errors /
# idempotency tokens / async races) — stdlib-only, always available.  Exit 1
# on any finding not grandfathered in lint-baseline.json
# (docs/ANALYSIS.md).  mypy/ruff are optional extras
# (`pip install -e ".[lint]"`); the targets skip gracefully where they
# aren't installed so `make all` works in minimal containers.
lint:
	python -m repro lint
	pytest benchmarks/bench_lint.py --benchmark-only -q
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src/repro; \
	else \
		echo "ruff not installed; skipping (pip install -e '.[lint]')"; \
	fi

# Concurrency slice of the lint pass on its own: the RACE family
# (await-segmented CFG over every async def — docs/ANALYSIS.md).
race:
	python -m repro lint --rules RACE

typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed; skipping (pip install -e '.[lint]')"; \
	fi

bench:
	pytest benchmarks/ --benchmark-only

bench-full:
	REPRO_FULL=1 pytest benchmarks/ --benchmark-only

bench-smoke:
	REPRO_SMOKE=1 pytest benchmarks/ --benchmark-only

# Machine-readable timings for trajectory tracking (compare
# BENCH_allocator.json / BENCH_broker.json / BENCH_elastic.json /
# BENCH_hotpath.json / BENCH_federation.json / BENCH_scenarios.json
# across commits; see docs/PERFORMANCE.md, docs/BROKER.md,
# docs/ELASTIC.md, docs/FEDERATION.md and docs/SCENARIOS.md).
# bench_broker runs before bench_hotpath: the hotpath transport floor
# is a ratio against the JSON-lines number bench_broker just wrote.
bench-json:
	pytest benchmarks/bench_allocator_overhead.py --benchmark-only \
		--benchmark-json=BENCH_allocator.json
	pytest benchmarks/bench_broker.py --benchmark-only
	pytest benchmarks/bench_elastic.py --benchmark-only
	pytest benchmarks/bench_hotpath.py --benchmark-only
	pytest benchmarks/bench_federation.py --benchmark-only
	pytest benchmarks/bench_scenarios.py --benchmark-only

# The headline elastic experiment: static vs. elastic scheduling on the
# same drifting-load world (single reproducible entry point).
elastic:
	python -m repro elastic --seed 3 --events

# Deterministic fault-injection harness: every scenario end-to-end with
# a fixed seed, exiting non-zero on any invariant violation.
chaos:
	python -m repro chaos --seed 0

chaos-smoke:
	python -m repro chaos --seed 0 --smoke

# Scenario-zoo smoke sweep: the registry listing, one §5 comparison per
# smoke cell, and the cross-scenario test matrix (docs/SCENARIOS.md).
# The full registry runs nightly via REPRO_NIGHTLY=1.
scenarios:
	python -m repro scenarios list
	python -m repro scenarios run fat-tree --jobs 2
	pytest tests/scenarios -q

examples:
	python examples/quickstart.py
	python examples/policy_showdown.py
	python examples/shared_cluster_day.py
	python examples/monitor_failover.py
	python examples/custom_cluster.py
	python examples/job_stream.py

clean:
	rm -rf benchmarks/output .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
