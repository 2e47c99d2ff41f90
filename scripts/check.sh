#!/usr/bin/env bash
# Full verification gate: static checks, the whole test suite under the
# race detector (the measurement engine's worker pool is on by default, so
# every run exercises real concurrency), and a one-shot smoke run of the
# quick benchmark profile. The race detector is ~10-20x slower than a
# plain run — the explicit -timeout keeps slow single-core machines from
# tripping go test's 600s default. Every test runs exactly once, in the
# full -race suite; the script prints its own wall-clock at the end.
set -euo pipefail
cd "$(dirname "$0")/.."

# Perf-regression gate, part 1: the bench smoke runs below overwrite the
# committed BENCH_*.json baselines in place, so stash them first;
# scripts/benchdiff compares against this copy at the end.
BASELINES="$(mktemp -d)"
cp BENCH_*.json "$BASELINES"/

go vet ./...
go build ./...
go test -race -timeout 3600s ./...
go test -short -race -timeout 3600s -run xxx -bench=BenchmarkTable1Breakdown -benchtime=1x .
# Sampling-arena, matmul-kernel and cache-ranking smoke: one iteration
# each keeps the allocation-sensitive paths (pooled scratch, top-k
# selection) and the GFLOP/s microbenchmark compiling and running without
# paying full benchmark time.
go test -timeout 3600s -run xxx -bench='BenchmarkSample$' -benchtime=1x ./internal/sampling
go test -timeout 3600s -run xxx -bench='BenchmarkKernels$' -benchtime=1x ./internal/tensor
go test -timeout 3600s -run xxx -bench=BenchmarkCacheRank -benchtime=1x ./internal/cache
# One-iteration smoke of the end-to-end minibatch benchmark, which also
# regenerates BENCH_train.json.
go test -timeout 3600s -run xxx -bench=BenchmarkMinibatch -benchtime=1x .
# Resilience smoke: the fault sweep end to end through the CLI.
go run ./cmd/gnnlab-bench -scale 8 -gpus 4 -epochs 2 -faults 3 resilience
# Graph-storage benchmark smoke: one iteration regenerates BENCH_graph.json
# (snapshot/compact cost, overlay sampling overhead, O(|Δ|) ApplyDelta,
# packed compression ratio + decode/sampling overhead).
go test -timeout 3600s -run xxx -bench='BenchmarkSnapshotOverhead|BenchmarkApplyDelta|BenchmarkPackedDecode' -benchtime=1x .
# Packed CLI smoke: compressed inventory, degree stats and dataset write
# through gnnlab-gen (the read side is pinned by TestPackedDatasetRoundTrip),
# and one experiment over packed topology end to end.
PACKED_TMP="$(mktemp -d)"
go run ./cmd/gnnlab-gen -preset PR -scale 8 -packed -out "$PACKED_TMP/pr.bin"
go run ./cmd/gnnlab-gen -preset PR -scale 8 -packed -stats > /dev/null
rm -rf "$PACKED_TMP"
go run ./cmd/gnnlab-bench -scale 8 -gpus 4 -epochs 2 -packed table2 > /dev/null
# Drift smoke: the dynamic-graph cache-policy experiment end to end
# through the CLI (degree vs PreSC under drift at two re-rank cadences).
go run ./cmd/gnnlab-bench -scale 8 -gpus 4 -epochs 2 -drift 3 drift
# Epoch-accounting smoke: the critical-path/what-if report end to end.
go run ./cmd/gnnlab-bench -scale 16 -gpus 4 -whatif PA > /dev/null
# Serving determinism: the open-loop latency report is seed-keyed
# simulation downstream of measured stage costs, so two runs of the same
# binary must emit byte-identical tables (csv omits wall-clock footers).
SERVE_TMP="$(mktemp -d)"
go run ./cmd/gnnlab-bench -serve -scale 8 -gpus 4 -epochs 2 -format csv > "$SERVE_TMP/a.csv"
go run ./cmd/gnnlab-bench -serve -scale 8 -gpus 4 -epochs 2 -format csv > "$SERVE_TMP/b.csv"
cmp "$SERVE_TMP/a.csv" "$SERVE_TMP/b.csv"
rm -rf "$SERVE_TMP"
# Serving benchmark smoke: one iteration regenerates BENCH_serve.json
# (exact simulated p50/p99/max-QPS per split + live microbatch cycle cost).
go test -timeout 3600s -run xxx -bench=BenchmarkServe -benchtime=1x .
# Perf-regression gate, part 2: regenerate the artifacts the smoke runs
# above did not already refresh (measure, replay, sample), then diff all
# six against the stashed baselines. Allocation metrics fail past 15%;
# the simulated serving metrics are exact; wall-clock metrics get a wide
# noise band (see scripts/benchdiff).
go test -timeout 3600s -run xxx -bench='BenchmarkMeasureParallel|BenchmarkMeasureStoreReplay|BenchmarkSampleArena' -benchtime=1x .
go run ./scripts/benchdiff -out benchdiff.txt "$BASELINES" .
echo "check.sh: passed in ${SECONDS}s"
