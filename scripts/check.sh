#!/usr/bin/env bash
# Full verification gate: static checks, the whole test suite under the
# race detector (the measurement engine's worker pool is on by default, so
# every run exercises real concurrency), and one-shot smoke runs of the
# CLIs and benchmarks. The race detector is ~10-20x slower than a plain
# run — the explicit -timeout keeps slow single-core machines from
# tripping go test's 600s default. Every test runs exactly once, in the
# full -race suite; the exact performance pins (allocation counts,
# simulated serving figures, packed sizes) are tests in that suite, so
# nothing here compares against a stored baseline. The script prints its
# own wall-clock at the end.
set -euo pipefail
cd "$(dirname "$0")/.."

go vet ./...
# The pure-Go build, which has no assembly arm: vet (asmdecl checks the
# amd64 frames above) and the kernel test binaries must still compile.
GOARCH=arm64 go vet ./...
GOARCH=arm64 go test -c -o /dev/null ./internal/tensor ./internal/nn
go build ./...
go test -race -timeout 3600s ./...
go run ./cmd/gnnlab-bench -scale 8 -gpus 4 -epochs 2 table1 > /dev/null
# Sampling-arena, matmul-kernel and cache-ranking smoke: one iteration
# each keeps the allocation-sensitive paths (pooled scratch, top-k
# selection) and the GFLOP/s microbenchmark compiling and running without
# paying full benchmark time.
go test -timeout 3600s -run xxx -bench='BenchmarkSample$' -benchtime=1x ./internal/sampling
go test -timeout 3600s -run xxx -bench='BenchmarkKernels$' -benchtime=1x ./internal/tensor
go test -timeout 3600s -run xxx -bench=BenchmarkCacheRank -benchtime=1x ./internal/cache
# One iteration of every root benchmark: sampling arena, minibatch, live
# serve cycle, snapshot/delta/packed graph storage, measurement engine.
go test -timeout 3600s -run xxx -bench=. -benchtime=1x .
# Every shipped example end to end under the race detector at a small
# scale: they drive the public API with user-defined pieces (e.g. a
# sampler without Clone) that no test constructs.
for ex in ./examples/*/; do
	go run -race "$ex" -scale 16 > /dev/null
done
# Resilience smoke: the fault sweep end to end through the CLI.
go run ./cmd/gnnlab-bench -scale 8 -gpus 4 -epochs 2 -faults 3 resilience
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
echo "check.sh: passed in ${SECONDS}s"
