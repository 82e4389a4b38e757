# Entry points for local development and CI.  Everything is pure
# Python run from the repo root with PYTHONPATH=src — no build step.

PYTHON ?= python
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: check test leak-check perf-gate chaos-smoke analysis-gate obs-gate serve-gate lint effects chaos bench

## The pre-merge bar: full test suite, the file-handle leak check and
## all five deterministic gates.
check: test leak-check perf-gate chaos-smoke analysis-gate obs-gate serve-gate

test:
	$(PYTHON) -m pytest -x -q

## Checkpoint, journal, session crash-recovery, quarantine,
## batched-ingest, server-shutdown and server-fault tests under -X dev,
## failing on any file left open or any exception raised where nothing
## can catch it (pytest's own -W, because pytest overrides the
## interpreter's).
leak-check:
	$(PYTHON) -X dev -m pytest -q -W error::ResourceWarning -W error::pytest.PytestUnraisableExceptionWarning tests/core/test_serialize.py tests/stream/test_journal.py tests/stream/test_session.py tests/stream/test_quarantine.py tests/stream/test_submit_many.py tests/serve/test_shutdown.py tests/serve/test_faults.py

perf-gate:
	$(PYTHON) tools/perf_gate.py
	$(PYTHON) -m pytest -q benchmarks/bench_hotpath.py

chaos-smoke:
	$(PYTHON) tools/chaos_gate.py --smoke

analysis-gate:
	$(PYTHON) tools/analysis_gate.py

obs-gate:
	$(PYTHON) tools/obs_gate.py

serve-gate:
	$(PYTHON) tools/serve_gate.py

## Lint only (no sanitizer sweep); fast inner-loop check.
lint:
	$(PYTHON) -m repro.analysis.cli --effects src tools benchmarks examples

## Interprocedural effect invariants only.
effects:
	$(PYTHON) -m repro.analysis.cli --effects-only src/repro

## Full-scale (slower) variants.
chaos:
	$(PYTHON) tools/chaos_gate.py

bench:
	$(PYTHON) benchmarks/bench_hotpath.py --smoke
	$(PYTHON) benchmarks/bench_chaos.py --smoke
	$(PYTHON) benchmarks/bench_serve.py --smoke
