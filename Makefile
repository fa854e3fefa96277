PYTHON ?= python

.PHONY: test lint chaos failover drain scenario bench bench-all

# Default flow: lint, then tier-1 tests.
test: lint
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/

# ruff when available (config in pyproject.toml); otherwise fall back to a
# compileall syntax sweep so `make lint` still means something in
# network-isolated environments where ruff cannot be installed.  The TID251
# import bans in pyproject.toml are enforced either way: tests/test_lint.py
# reads them from pyproject.toml and checks src/ with ast, in tier-1 too.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; falling back to 'python -m compileall' syntax check"; \
		$(PYTHON) -m compileall -q src tests benchmarks && \
		PYTHONPATH=src $(PYTHON) -m pytest -q tests/test_lint.py; \
	fi

chaos:
	PYTHONPATH=src $(PYTHON) -m pytest tests/chaos -m chaos -q

# Replica-kill scenario only: 3 servers over one store, 8 clients,
# kill + restart a replica mid-workload.
failover:
	PYTHONPATH=src $(PYTHON) -m pytest tests/chaos/test_failover_replicas.py -m chaos -q

# Graceful-drain scenario only: 3 replicas behind a registry file, 8
# clients, drain + kill one mid-workload, undrain a rebuilt one.
drain:
	PYTHONPATH=src $(PYTHON) -m pytest tests/chaos/test_drain_fleet.py -m chaos -q

# Fleet-scale family-switching scenario (Section 4.2) in fast seeded
# small-fleet mode: 3 replicas over one sharded store, rule-driven
# switch_family, propagation + MAPE measurement ->
# build/family_switch_fleet.json (untracked).
scenario:
	PYTHONPATH=src $(PYTHON) examples/family_switch_fleet.py --fast

# The one performance trajectory: end-to-end + per-layer numbers for the
# serving stack on every BENCHMARK.json workload.  PR 1-10's own numbers are
# the "Historical" appendix of docs/PERFORMANCE.md (not re-run).
bench:
	$(PYTHON) -m benchmarks.gallerybench all

# The paper's experiments and ablations (test_exp_* / test_abl_*).  Each
# writes its table to build/experiments/; only a passing run here refreshes
# the committed copies in benchmarks/results/.
bench-all:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only
	cp build/experiments/*.txt benchmarks/results/
