#!/usr/bin/env bash
# Full verification gate: static checks, the whole test suite under the
# race detector (the measurement engine fans out over GOMAXPROCS on the
# row pool, so on more than one core every run exercises real
# concurrency), and one-shot smoke runs of the CLIs and benchmarks. The
# race detector is ~10-20x slower than a plain run — the explicit
# -timeout keeps slow single-core machines from
# tripping go test's 600s default. Every test runs in the full -race
# suite, and a few again at 1, 2 and 4 Ps; the exact performance pins
# (allocation counts, simulated serving figures, packed sizes) are tests
# in that suite, so nothing here compares against a stored baseline. The
# script prints its own wall-clock at the end.
set -euo pipefail
cd "$(dirname "$0")/.."

go vet ./...
# The pure-Go build, which has no assembly arm: vet (asmdecl checks the
# amd64 frames above) and the kernel test binaries must still compile.
GOARCH=arm64 go vet ./...
GOARCH=arm64 go test -c -o /dev/null ./internal/tensor ./internal/nn
# DESIGN rule 5: no fused multiply-add in the kernel assembly. It rounds
# once where the Go reference rounds twice, and results are pinned bit
# for bit.
if grep -inE 'VFN?M(ADD|SUB)' internal/tensor/*.s; then
	echo "check.sh: fused multiply-add in internal/tensor assembly" >&2
	exit 1
fi
# The kernels' fold order with the panel rows fanned out over 1, 2 and 4
# workers, whatever this machine's core count, and panel's row-index form.
go test -cpu 1,2,4 -run 'TestKernelsExactFoldOrder|TestParallel|TestFoldRows' ./internal/tensor
go build ./...
go test -race -timeout 3600s ./...
# Evaluation fanned out over the Trainers against the serial per-epoch
# reference, and the pinned runs, under the race detector at 1, 2 and 4
# Ps: the goroutine interleavings differ, the bits may not.
go test -race -timeout 3600s -cpu 1,2,4 -run 'TestEvaluateMatchesSerialReference|TestGoldenRuns|TestTrainPooledMatchesFresh' ./internal/train
# The row pool at 1, 2 and 4 Ps under the race detector: panics, nested and
# concurrent posts, GOMAXPROCS changes, parking, ForEach's lanes on the
# pool; and the fan-out path of a product, a Conv aggregation and a gather
# pinned at zero allocations (the step above runs the goldens through the
# same pool).
go test -race -timeout 3600s -cpu 1,2,4 -run 'TestRun|TestForEach|TestIdleHelpersPark' ./internal/par
# The dataset store at 1, 2 and 4 Ps under the race detector: concurrent
# requests for one dataset generate it once, a packed entry packs once
# from the store's CSR entry, a failed generation is remembered, and a
# dropped store frees what it loaded.
go test -race -timeout 3600s -cpu 1,2,4 -run 'TestStoreDataset' ./internal/measure
go test -race -timeout 3600s -cpu 1,2,4 -run 'TestFanOutSteadyStateZeroAllocs' ./internal/nn
# Generation's fan-outs at 1, 2 and 4 Ps under the race detector: the Zipf
# acceptance table and batched draws (against the reference formula),
# Build's row sorts, and every generator's bytes against the digests.
go test -race -timeout 3600s -cpu 1,2,4 ./internal/rng
go test -race -timeout 3600s -cpu 1,2,4 -run 'TestBuild' ./internal/graph
go test -race -timeout 3600s -cpu 1,2,4 -run 'TestDatasetBytesGolden' ./internal/gen
go run ./cmd/gnnlab-bench -scale 8 -gpus 4 -epochs 2 table1 > /dev/null
# Sampling-arena, matmul-kernel and cache-ranking smoke: one iteration
# each keeps the allocation-sensitive paths (pooled scratch, top-k
# ranking) and the GFLOP/s microbenchmark compiling and running without
# paying full benchmark time.
go test -timeout 3600s -run xxx -bench='BenchmarkSample$' -benchtime=1x ./internal/sampling
go test -timeout 3600s -run xxx -bench='BenchmarkKernels$' -benchtime=1x ./internal/tensor
go test -timeout 3600s -run xxx -bench=BenchmarkCacheRank -benchtime=1x ./internal/cache
# Every fuzz target, 10 s each beyond its seed corpus (the suite above
# runs only the seeds): the byte decoders (packed topology, dataset files,
# model checkpoints) and the linear-time Build and ranker against their
# comparator-sort references, and the Zipf draw's table and batched paths
# against the formula they replace.
go test -run xxx -fuzz='^FuzzPackedFromBytes$' -fuzztime=10s -parallel 2 ./internal/graph
go test -run xxx -fuzz='^FuzzReadDataset$' -fuzztime=10s -parallel 2 ./internal/gen
go test -run xxx -fuzz='^FuzzLoadCheckpoint$' -fuzztime=10s -parallel 2 ./internal/nn
go test -run xxx -fuzz='^FuzzBuild$' -fuzztime=10s -parallel 2 ./internal/graph
go test -run xxx -fuzz='^FuzzRank$' -fuzztime=10s -parallel 2 ./internal/cache
go test -run xxx -fuzz='^FuzzZipfDraw$' -fuzztime=10s -parallel 2 ./internal/rng
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
echo "check.sh: passed in ${SECONDS}s"
