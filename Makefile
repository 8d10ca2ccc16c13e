# Developer entry points; `make check` is what CI should run.

GO ?= go
# Label naming the machine-readable benchmark report (BENCH_<label>.json).
BENCH_LABEL ?= local

.PHONY: check fmt vet build test race fuzz lint chaos fleet bench-module bench bench-json bench-gate

check: fmt vet lint build race fuzz chaos fleet bench-module

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -short skips the multi-minute experiment sweeps, which exceed the
# per-package test timeout under the race detector.
race:
	$(GO) test -short -race ./...

# Fuzz the Lasso homotopy for 10 s: every answer must meet the KKT
# conditions of its problem and match the reference homotopy to the bit
# (see FuzzGram in internal/lasso). Then fuzz the CSR builder for 10 s
# against a dense input-order accumulation (see FuzzNewCSR in
# internal/sparse), and the values-first eigensolver for 10 s against
# SymEigen's values on graph Laplacians (see FuzzSymEigenSmallest in
# internal/mat). Then fuzz the serving path's two decoders for 10 s
# each: /v1/assign bodies must get 200, 400, 413 or 429, with every 200
# matching the offline engine (FuzzAssign in internal/serve), and a
# model artifact that decodes must validate and re-encode to the same
# checksum (FuzzDecodeModel in internal/core). Last, the quantized
# upload's unpacker for 10 s: no stream, count or quantizer may panic
# it, and every stream it accepts must repack to the same bytes
# (FuzzUnpack in internal/privacy).
fuzz:
	$(GO) test ./internal/lasso -run '^$$' -fuzz '^FuzzGram$$' -fuzztime 10s
	$(GO) test ./internal/sparse -run '^$$' -fuzz '^FuzzNewCSR$$' -fuzztime 10s
	$(GO) test ./internal/mat -run '^$$' -fuzz '^FuzzSymEigenSmallest$$' -fuzztime 10s
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzAssign$$' -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzDecodeModel$$' -fuzztime 10s
	$(GO) test ./internal/privacy -run '^$$' -fuzz '^FuzzUnpack$$' -fuzztime 10s

# Project-specific static analysis: the determinism, error-handling,
# and connection-deadline contracts plus the concurrency-lifecycle pack
# (goroutine leaks, frozen snapshots, span pairing, metric hygiene —
# see DESIGN.md §5). Runs go vet first so `make lint` alone reproduces
# the full CI static gate.
lint: vet
	$(GO) run ./cmd/fedsc-lint

# Fault-injection smoke: every named chaos schedule must complete a
# round via retry + straggler tolerance and replay bit-identically.
chaos:
	$(GO) run ./cmd/fedsc-chaos -schedule all

# Continuous-federation smoke: replay the churn scenario (absorb wave,
# two splice waves, forced rollback, re-churn) and fail if the final
# fleet accuracy trails the all-devices one-shot baseline by more than
# 5 points or the rollback misses the exact prior artifact digest.
fleet:
	$(GO) run ./cmd/fedsc-fleet -check

# bench/ is its own Go module (the layered benchmark behind
# BENCHMARK.json): it compiles against the exported APIs it measures,
# and its schema and replay tests run only here.
bench-module:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

bench:
	$(GO) test -bench=. -benchmem

# Machine-readable kernel benchmarks: writes BENCH_$(BENCH_LABEL).json so
# the performance trajectory is tracked across PRs.
bench-json:
	$(GO) run ./cmd/fedsc-bench -json -label $(BENCH_LABEL)

# Baseline report the regression gate compares against (the newest
# committed BENCH_pr<N>.json), and the allowed fractional ns/op growth.
# 15% is right for same-machine comparisons; CI runners differ from the
# machine that recorded the baseline, so ci.yml passes a looser 0.5 —
# the gate there catches algorithmic blowups, not percent-level drift
# (see DESIGN.md on cross-environment benchmark drift).
BENCH_BASELINE ?= $(shell ls BENCH_pr*.json | sort -V | tail -n 1)
BENCH_TOLERANCE ?= 0.15

# Re-measure the tracked kernels and fail if any regressed beyond
# BENCH_TOLERANCE versus BENCH_BASELINE.
bench-gate:
	$(GO) run ./cmd/fedsc-bench -compare $(BENCH_BASELINE) -tolerance $(BENCH_TOLERANCE)
