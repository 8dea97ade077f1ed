GO ?= go
# BENCHTIME tunes the bench target (e.g. BENCHTIME=1x for a CI smoke pass).
BENCHTIME ?= 1s

.PHONY: all build fmt-check lint test race vet bench bench-compare bench-all cover examples paper-smoke clean

all: build vet lint test

build:
	$(GO) build ./...

# Fails when any Go file is not gofmt-formatted, listing the offenders.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "$$out"; exit 1; fi

# Static analysis: the determinism contract (no wall clock, no global rand,
# no unordered map iteration in the deterministic packages) and the model
# invariants (no mutation after Compile, options validated before use, no
# discarded errors). Exits non-zero on any finding.
lint:
	$(GO) run ./cmd/sanlint ./...

# -shuffle=on randomizes test order so inter-test state dependencies cannot
# hide; the determinism contract means every test must pass in any order.
test:
	$(GO) test -shuffle=on ./...

# Race-check the packages with concurrent replication runners, the parallel
# state-space exploration and solver kernels, the sharded sweep engine, the
# snapshot/clone machinery of the rare-event engine, the calibration pipeline
# feeding the sweep (paper_full), the discrete-event core, the
# checkpoint/restore machinery, and the experiment drivers.
# The experiments package exceeds Go's default 10m test-binary deadline
# under the race detector, so the timeout is set explicitly.
race:
	$(GO) test -race -timeout 30m ./internal/san/... ./internal/statespace/... ./internal/sweep/... ./internal/rareevent/... ./internal/calibrate/... ./internal/des/... ./internal/checkpoint/... ./internal/experiments/...

vet:
	$(GO) vet ./...

# Perf trajectory: run the sweep + petascale benchmarks (the sharded Figure 4
# sweep and the flat-vs-lumped petascale point) and emit both the raw
# benchstat-compatible text and a machine-readable BENCH_sweep.json. The
# output is captured to the file first (not piped through tee) so a failing
# benchmark fails the target instead of being masked by the pipe's exit
# status.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkFigure4Sweep|BenchmarkPetascalePoint|BenchmarkSolverVsSimulation|BenchmarkFitSolverVsSimulation|BenchmarkExploreSolve|BenchmarkSweepSolveCache' -benchmem -benchtime $(BENCHTIME) -timeout 60m . > BENCH_sweep.txt || { cat BENCH_sweep.txt; exit 1; }
	cat BENCH_sweep.txt
	$(GO) run ./cmd/benchjson -in BENCH_sweep.txt -out BENCH_sweep.json
	test -s BENCH_sweep.json

# Compare the last `make bench` run (BENCH_sweep.json) against the committed
# BENCH_baseline.json: print every metric's delta, and fail when a
# BenchmarkFigure4Sweep or BenchmarkPetascalePoint row more than doubles its
# allocs/op. Wall times on a
# shared machine are too noisy to gate; allocation counts are not.
bench-compare:
	$(GO) run ./cmd/benchjson compare -base BENCH_baseline.json -cur BENCH_sweep.json

# Every benchmark in the repository (slow).
bench-all:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# Smoke-run every example binary end-to-end.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/disk_sensitivity
	$(GO) run ./examples/raid_tradeoff
	$(GO) run ./examples/petascale_scaling
	$(GO) run ./examples/log_analysis
	$(GO) run ./examples/calibrated_abe
	$(GO) run ./examples/rare_event
	$(GO) run ./examples/shared_repair_crew

# Smoke-run the single-shot paper reproduction (tiny replication counts) and
# check it emits one valid JSON document.
paper-smoke:
	$(GO) run ./cmd/abesim -experiment paper_full -quick -replications 4 -mission 2190 -json > /dev/null

clean:
	$(GO) clean ./...
	rm -f coverage.out BENCH_sweep.txt BENCH_sweep.json
