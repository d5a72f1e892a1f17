# Reproduction of "Private Editing Using Untrusted Cloud Services"
# (Huang & Evans, 2011).  Common entry points:

PYTHON ?= python3

# differential-fuzzer budgets: FUZZ_ITERS bounds the CI run inside
# `make test`; BURST_ITERS drives the burst profile (long keystroke
# runs through the edit-coalescing differential); COLLAB_ITERS drives
# the N-writer (2-16 clients) collaboration profile; WORKSPACE_ITERS
# drives the multi-document workspace profile (encrypted search +
# audit-chain oracles, incl. the rollback-attacking server); fuzz-long
# runs the deep profile at FUZZ_LONG_ITERS.
# COVERAGE_MIN is the line-coverage threshold `make coverage` enforces.
FUZZ_ITERS ?= 2000
BURST_ITERS ?= 400
COLLAB_ITERS ?= 200
WORKSPACE_ITERS ?= 60
FUZZ_LONG_ITERS ?= 20000
COVERAGE_MIN ?= 80

.PHONY: install test metrics-smoke docs-check layering-check fuzz fuzz-long mutation-smoke coverage bench bench-ledger bench-edits bench-faults bench-load bench-load-smoke bench-collab bench-search bench-trend figures examples all clean

install:
	pip install -e . --no-build-isolation

test: metrics-smoke docs-check layering-check fuzz bench-load-smoke
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -m "not slow"

layering-check:   ## enforce the client/extension vs services import layering
	$(PYTHON) tools/layering_check.py

fuzz:             ## seeded differential fuzzing (bounded CI budget) + oracle teeth check
	PYTHONPATH=src $(PYTHON) -m repro fuzz --seed 0 --iters $(FUZZ_ITERS)
	PYTHONPATH=src $(PYTHON) -m repro fuzz --seed 0 --iters $(BURST_ITERS) --profile burst
	PYTHONPATH=src $(PYTHON) -m repro fuzz --seed 0 --iters $(COLLAB_ITERS) --profile collab
	PYTHONPATH=src $(PYTHON) -m repro fuzz --seed 0 --iters $(WORKSPACE_ITERS) --profile workspace
	$(PYTHON) tools/mutation_smoke.py

fuzz-long:        ## the deep profile at full budget, plus the slow-marked tests
	PYTHONPATH=src $(PYTHON) -m repro fuzz --seed 0 --iters $(FUZZ_LONG_ITERS) --profile deep -v
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -m slow

mutation-smoke:   ## prove the fuzz oracle catches an injected RPC-checksum bug
	$(PYTHON) tools/mutation_smoke.py

coverage:         ## line coverage (pytest-cov when installed, else stdlib fallback)
	$(PYTHON) tools/coverage_tool.py --min $(COVERAGE_MIN) --report

metrics-smoke:    ## end-to-end check of the repro.obs pipeline + sidecar schema
	PYTHONPATH=src $(PYTHON) benchmarks/metrics_smoke.py

docs-check:       ## verify docs citations (metrics, module paths, files) against source
	$(PYTHON) tools/docs_check.py

bench:            ## timings only (shape assertions skipped)
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-ledger:     ## end-to-end ledger: the three BENCHMARK.json workloads, then the harness's own tests
	$(PYTHON) perfbench/run.py --workload edit-large --seed 101 --seconds 25
	$(PYTHON) perfbench/run.py --workload workspace-cold --seed 101 --seconds 25
	$(PYTHON) perfbench/run.py --workload fleet-socket --seed 101 --seconds 25
	$(PYTHON) -m pytest perfbench -q

bench-edits:      ## edit-throughput sweep -> BENCH_edit_throughput.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_edit_throughput.py

bench-faults:     ## fault-rate sweep -> BENCH_faults.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_faults.py

bench-load:       ## 100/1k/10k-session load sweep (socket + in-process) -> BENCH_load.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_load.py

bench-load-smoke: ## 16-session load-generator smoke (both transports, faults on)
	PYTHONPATH=src $(PYTHON) benchmarks/bench_load.py --smoke

bench-collab:     ## 2/8/32/100-writer conflict-rate sweep (merge vs conflict) -> BENCH_collab.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_collab.py

bench-search:     ## encrypted-search scaling (query vs corpus, index overhead, audit verify) -> BENCH_search.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_search.py

bench-trend:      ## aggregate every BENCH_*.json sidecar into one trajectory table
	$(PYTHON) tools/bench_trend.py

figures:          ## timings + qualitative shape assertions + tables
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		$(PYTHON) $$script || exit 1; \
	done

all: install test figures examples

clean:
	rm -rf benchmarks/results .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
