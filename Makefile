# Convenience targets for the FinePack reproduction.

.PHONY: install test bench bench-perf calibrate quick verify trace-smoke docs report clean

install:
	pip install -e .

# PYTHONPATH=src so the suite runs without 'make install'.
test: export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
test:
	pytest tests/

quick: export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
quick:
	pytest tests/ -x -q -m "not slow"

# Full gate: tier-1 tests, then trace-smoke.  PYTHONPATH=src so it
# works without 'make install'.
verify: export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
verify:
	python -m pytest tests/ -x -q
	$(MAKE) --no-print-directory trace-smoke

# A smoke traced run and schema validation of its exported Chrome
# trace (CI runs the tier-1 tests in a step of their own).
trace-smoke: export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
trace-smoke:
	python -m repro run jacobi finepack --gpus 2 --iterations 1 \
		--trace-out /tmp/repro_verify_trace.json
	python -c "from repro.obs import validate_chrome_trace_file; \
		obj = validate_chrome_trace_file('/tmp/repro_verify_trace.json'); \
		print('trace schema OK:', len(obj['traceEvents']), 'events')"
	rm -f /tmp/repro_verify_trace.json

bench:
	pytest benchmarks/ --benchmark-only

# Fast-path perf benchmark: full workload suite under vectorized and
# scalar configurations, asserting byte-identical metrics.  Emits
# BENCH_core.json and gates against the committed baseline's speedup.
bench-perf:
	python tools/bench_perf.py --out BENCH_core.json --check BENCH_core.json

# Analytical-fidelity calibration: cross-validates predict_metrics
# against the DES over the calibration grid, gates the error budget
# (median wire/payload/goodput error <= 10%) and the design-sweep
# speedup floor (>= 50x), and records the error table into
# BENCH_core.json under the "analytical" key.
calibrate: export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
calibrate:
	python tools/calibrate_analytical.py --out BENCH_core.json

# PYTHONPATH=src so docs regenerate without 'make install'.
docs: export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
docs:
	python tools/gen_api_docs.py

report:
	python examples/reproduce_paper.py

clean:
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
