PYTHON ?= python
PYTHONPATH := src
export PYTHONPATH

WORKERS ?= 4

.PHONY: test faults perf bench figures clean-cache lint lint-deep \
	check hotcore

# Tier-1 correctness suite (perf benchmarks excluded via pyproject addopts).
# Linting runs first: a determinism or spec-hygiene violation invalidates
# the runs the tests would otherwise bless.
test: lint
	$(PYTHON) -m pytest -q

# Fault-injection, metamorphic, and degraded-mode determinism suites.
faults:
	$(PYTHON) -m pytest -q tests/faults tests/core/test_metamorphic.py \
		tests/simulator/test_faulty_offload.py \
		tests/runtime/test_fault_determinism.py \
		tests/application/test_resilience.py

# The repo's own AST invariant linter (determinism, spec hygiene,
# hot-path __slots__, unit discipline, API surface), per-file rules
# plus the whole-program pass (effect summaries and the entropy taint
# they carry, unit flow, dead exports).  --deep selects every per-file
# rule too, so one run covers both.
lint:
	$(PYTHON) -m repro lint --deep

# Every rule, with per-file findings narrowed to files that differ from
# HEAD (staged, unstaged or untracked); deep findings stay whole-program.
# The fast pre-push loop.
lint-deep:
	$(PYTHON) -m repro lint --deep --changed

# lint + third-party checkers where available (ruff/mypy are optional:
# the pinned container does not ship them, so each is skipped with a
# notice when missing rather than failing the target).
check: lint
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src/repro scripts tests; \
	else \
		echo "ruff not installed; skipping (pip install ruff)"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src/repro; \
	else \
		echo "mypy not installed; skipping (pip install mypy)"; \
	fi

# Render the compiled hot core's contract header, then build the
# optional extension (repro._hotcore) in place.  A missing C compiler
# prints a notice and leaves the pure-Python path selected; results are
# bit-identical either way.
hotcore:
	$(PYTHON) scripts/build_hotcore.py

# Opt-in performance regression tests.
perf:
	$(PYTHON) -m pytest -m perf benchmarks/test_perf_runtime.py -q

# Absolute numbers: events/sec + batch wall-clock, written to BENCH_runtime.json.
bench:
	$(PYTHON) scripts/bench_runtime.py --workers $(WORKERS)

# Paper-figure benchmark harness (pytest-benchmark based).
figures:
	$(PYTHON) -m pytest benchmarks -q

clean-cache:
	$(PYTHON) -c "from repro.runtime import ResultCache; print(ResultCache().clear(), 'entries removed')"
