# Development entry points.

.PHONY: install test bench perfgate census chaos overload scale density keepalive repro repro-quick trace examples clean

install:
	pip install -e .

test:
	pytest tests/

# Timing suite + BENCH_<date>.json perf-trajectory artifact (engine
# microbenchmarks, serial-vs-parallel suite wall-clock, perf-gate scores
# and one untraced end-to-end benchmark run, which adds about 80 s).
# A second run on the same day writes BENCH_<date>b.json, then c, ...:
# perf_trajectory refuses to overwrite an artifact.
BENCH_ARTIFACT := $(shell day=$$(date +%Y-%m-%d); name=BENCH_$$day.json; \
	for suffix in b c d e f g h i j k l m n o p q r s t u v w x y z; do \
		[ -e $$name ] || break; name=BENCH_$$day$$suffix.json; \
	done; echo $$name)

bench:
	pytest benchmarks/ --benchmark-only --benchmark-json=.bench-micro.json
	python -m benchmarks.perf_trajectory --micro .bench-micro.json \
		--out $(BENCH_ARTIFACT)

# Hot-path microbenchmarks gated against the committed baseline
# (benchmarks/perf_baseline.json).  Fails on >25% score regression;
# refresh the baseline with:
#   python -m benchmarks.perf_gate --update-baseline
perfgate:
	python -m benchmarks.perf_gate --check --out perf-gate.json

# What one retained object, one hot invocation and one invocation per
# path cost: tracked objects, retained bytes, engine-queue entries,
# calls by layer and engine events by kind on both backends (CI runs it).
census:
	python -c "from tests.census import main; main()"

# Fault-injection acceptance suite + degradation sweep (fixed seeds).
chaos:
	pytest tests/ -m chaos
	python -m repro.experiments.runner chaos --quick

# Overload-control acceptance suite + goodput sweep (fixed seeds).
overload:
	pytest tests/ -m overload
	python -m repro.experiments.runner overload --quick

# Sharded-control-plane acceptance suite + scale sweep (fixed seeds).
scale:
	pytest tests/ -m scale
	python -m repro.experiments.runner scale --quick

# Page-dedup acceptance suite + density experiment (deterministic).
density:
	pytest tests/ -m density
	python -m repro.experiments.runner density --quick

# Keep-alive policy lab: acceptance suite + cold-start/memory curves.
keepalive:
	pytest tests/ -m keepalive
	python -m repro.experiments.runner keepalive --quick

# Regenerate every paper table/figure (EXPERIMENTS.md's numbers).
repro:
	python -m repro.experiments.runner all

repro-quick:
	python -m repro.experiments.runner all --quick --parallel 4

# Traced §7 stage-decomposition run; open trace-latency.json in Perfetto
# (https://ui.perfetto.dev).
trace:
	python -m repro.experiments.runner latency --profile smoke \
		--trace trace-latency.json

examples:
	@for example in examples/*.py; do \
		echo "== $$example"; \
		python $$example || exit 1; \
	done

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache .hypothesis \
		.bench-micro.json trace-latency.json trace-figure5.json \
		trace-distributed.json perf-gate.json experiments-quick.json
	find . -name __pycache__ -type d -exec rm -rf {} +
