# Convenience targets mirroring the commands CI runs.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench-smoke bench ledger pairs loc

# The tier-1 suite (ROADMAP.md's verify command).
test:
	$(PYTHON) -m pytest -x -q

# Code lines of the library: blank, comment and docstring lines are
# not counted.  Informational; nothing gates on it.
loc:
	$(PYTHON) tools/loc.py src/repro

# A fast benchmark smoke run: proves the advisor/caching claims (E11),
# the sharded scatter-gather/shared-cache/migration claims (E12), the
# shard-lifecycle/streaming-gather claims (E13), the process-parallel
# scatter/accounting/prefetch claims (E14), the predicate-algebra
# planning claims (E15: IN runs, cached-leg reuse, complement-aware
# Not), the aggregate-pushdown claims (E16: count/exists from the
# bitmap algebra, counts-not-RIDs over worker pipes, cost-ordered
# And), and the observability claims (E17: disabled tracing is free,
# the slow-query log captures offenders, worker spans stitch into one
# trace whose bits match scatter_io), the kernel/transport claims
# (E18: fast WAH decode >= 3x the reference, bulk payloads off the
# pipe), the serving front-end claims (E19: single-flight
# coalescing lifts QPS >= 1.5x on a Zipf mix, admission control
# bounds admitted p99 under 2x offered load, hot-shard replicas
# answer scatter reads), and the durability claims (E20: cold restore
# from snapshot+WAL >= 3x faster than rebuilding from raw codes with
# identical answers on both executors, WAL replay throughput,
# checkpoint pause vs the serving path) end-to-end (asserts inside
# the benchmarks) in well under 150 seconds.  --durations=0 prints
# the wall time of every benchmark.
bench-smoke:
	timeout 150 $(PYTHON) -m pytest benchmarks/bench_e11_engine.py \
		benchmarks/bench_e12_cluster.py \
		benchmarks/bench_e13_lifecycle.py \
		benchmarks/bench_e14_parallel.py \
		benchmarks/bench_e15_predicates.py \
		benchmarks/bench_e16_aggregates.py \
		benchmarks/bench_e17_observability.py \
		benchmarks/bench_e18_kernels.py \
		benchmarks/bench_e19_qps.py \
		benchmarks/bench_e20_persistence.py -q \
		-p no:cacheprovider --benchmark-disable --durations=0

# The full experiment matrix (slow; regenerates benchmarks/results/).
bench:
	$(PYTHON) -m pytest benchmarks -q -p no:cacheprovider

# The E21 ledger as an oracle check: each workload once, end to end
# (FrontEnd, cluster, worker processes, WAL, cold restore).  Only the
# exit code is gated: 1 is an oracle mismatch.  Timings are not gated;
# shared runners are too noisy.  One more adhoc-scan run is traced, so
# the per-layer probe (perfbench/layers.py, which wraps executor and
# planner calls by name) runs against the real stack: it also exits 1
# when trace.accounted_share leaves 1 +/- 0.10.
LEDGER_WORKLOADS = dashboard-zipf adhoc-scan ingest-durable

ledger:
	for w in $(LEDGER_WORKLOADS); do \
		python3 perfbench/run.py --workload "$$w" --seed 2 --seconds 6 \
			--trace 0 || exit $$?; \
	done
	python3 perfbench/run.py --workload adhoc-scan --seed 2 --seconds 6 \
		--trace 1

# The pair protocol for a perf claim: seeds SEEDS of workload WORKLOAD
# once in each of two full checkouts (PARENT, CHANGE), alternating
# which runs first, each through its own perfbench/run.py --trace 0;
# then per BENCHMARK.json end-to-end metric the medians, quartiles,
# wins, claim verdict and bound check.  Example:
#   make pairs PARENT=../parent CHANGE=. WORKLOAD=dashboard-zipf
SEEDS ?= 1-10

pairs:
	$(PYTHON) tools/ledger_pairs.py --parent "$(PARENT)" \
		--change "$(CHANGE)" --workload "$(WORKLOAD)" --seeds "$(SEEDS)"
