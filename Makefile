# Entry points for the test, lint and benchmark harnesses (`make help`).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: help test lint perfbench-check example examples-smoke serve-smoke fault-smoke

help:
	@echo "make test         tier-1 suite (the gate every PR must keep green)"
	@echo "make lint         repro.lint invariant checker (+ ruff when installed)"
	@echo "make perfbench-check  benchmark self-check (tiny sizes, golden digests, metric names vs BENCHMARK.json)"
	@echo "make example      the 10^5-10^6-node scaling tour (skip the finale: EXAMPLE_FLAGS=--no-million)"
	@echo "make examples-smoke  the five small example scripts; fails on a non-zero exit or stdout unlike examples/expected/"
	@echo "make serve-smoke  experiment-service smoke: submit/schedule/SIGKILL-resume/HTTP round trip"
	@echo "make fault-smoke  fault-injection demo: both engines + interrupted sweep resumed from its sqlite journal; fails on stdout unlike examples/expected/"

test:
	$(PYTHON) -m pytest -x -q $(PYTEST_FLAGS)

lint:
	$(PYTHON) -m repro.lint --baseline lint-baseline.json --strict-baseline
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check .; \
	else \
		echo "ruff not installed; skipped (CI pins ruff==0.8.4 — see docs/lint.md)"; \
	fi

perfbench-check:
	$(PYTHON) perfbench/run.py --self-check

example:
	$(PYTHON) examples/scaling_to_100k.py $(EXAMPLE_FLAGS)

SMOKE_EXAMPLES := quickstart sinkless_orientation_demo matching_edge_vs_node \
	wireless_scheduling lower_bound_explorer

# Each example's stdout is deterministic and must equal
# examples/expected/<name>.txt byte for byte (the diff goes to stderr).  After
# an intended output change: python examples/<name>.py > examples/expected/<name>.txt
examples-smoke:
	@out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	for example in $(SMOKE_EXAMPLES); do \
		echo "== examples/$$example.py"; \
		$(PYTHON) examples/$$example.py > "$$out" || exit 1; \
		cat "$$out"; \
		diff -u examples/expected/$$example.txt "$$out" >&2 || exit 1; \
	done

serve-smoke:
	$(PYTHON) examples/service_quickstart.py

# Same contract as examples-smoke: stdout must equal
# examples/expected/fault_injection_demo.txt byte for byte.
fault-smoke:
	@out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	$(PYTHON) examples/fault_injection_demo.py > "$$out" || exit 1; \
	cat "$$out"; \
	diff -u examples/expected/fault_injection_demo.txt "$$out" >&2
