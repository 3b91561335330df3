# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml).

.PHONY: build test race vet bench-nn bench-dense bench-select bench-add bench-e2e bench-smoke fmt

build:
	go build ./...

test:
	go test ./...

# CI's race job: every package under the race detector, uncached
# (docs/seeded-bugs.md "What the race run covers").
race:
	go test -race -count=1 ./...

vet:
	go vet ./...

# Training compute: the three MatMul kernels every model goes through, one
# ResMLP worker step (the compute half of train-live-resmlp) and one rank's
# held-out shard scored in training-batch chunks, each on every path the
# host has (avx512/..., avx2/..., go/...: the portable loops).
bench-nn:
	go test -run '^$$' -bench 'BenchmarkMatMulKernels|BenchmarkResMLPStep|BenchmarkResMLPEval' -benchmem ./internal/nn

# The dense path: the Vec codec — the encode and the three consumers a
# received view has (accumulate, sum with an input, copy; 0 allocs/op) —
# and one dense all-reduce over livenet (the codec half of sync-tcp-dense,
# no syscalls) and over loopback tcpnet (the socket path sync-tcp-dense
# times): Rabenseifner at P=8 after an input copy and straight from the
# gradient, and the ring at P=7.
bench-dense:
	go test -run '^$$' -bench BenchmarkVecCodec -benchmem ./internal/comm
	go test -run '^$$' -bench BenchmarkDenseAllReduce -benchmem ./internal/collective

# Block selection: one worker's selections by the cold select and by the
# warm filter given right, stale and out-of-reach keys, on a fresh, a cliff
# and a stationary residual (cand/k is what the filter buffers — the rows
# behind warmMargin, warmFloor and warmScratch), with a gradient added
# before the filter and in its pass (exact/add-then-select, exact/fused),
# and the short-block shape.
bench-select:
	go test -run '^$$' -bench 'BenchmarkTopKDenseWarm|BenchmarkTopKDenseShort' -benchmem ./internal/sparse

# The one dense add of the reduce path (sparse.AddInto) against the scalar
# loop it replaced: one L2-hot vector pair, and fourteen cold pairs walked
# in turn (the sync-sim-1m shape).
bench-add:
	go test -run '^$$' -bench BenchmarkAddInto -benchmem ./internal/sparse

# The end-to-end benchmark BENCHMARK.json declares: five workloads,
# untraced then traced (see bench/README.md). bench-smoke is the same
# program at smoke sizes — seconds in total — and is what CI runs, so a
# change that breaks an API bench/ imports fails there.
bench-e2e:
	bash bench/run.sh

bench-smoke:
	go run ./bench -quick

fmt:
	gofmt -w .
