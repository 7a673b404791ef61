GO ?= go

.PHONY: all build test check fmt vet race bench baselines

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# fmt fails if any file is not gofmt-formatted, listing the offenders.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

race:
	$(GO) test -race -timeout 45m ./...

# check is the full pre-merge gate: compile everything, check formatting,
# lint with vet, run the test suite, then run it again under the race
# detector, then run the host benchmark module's own tests (golden
# digests, baseline byte equality), which ./... does not reach.
check: build fmt vet
	$(GO) test ./...
	$(GO) test -race -timeout 45m ./...
	cd benchmark && $(GO) test .

# bench runs the engine and file-system microbenchmarks and the host wall-clock suite
# (writes BENCH_<case>.json + BENCH_host.json to the current directory).
# The suite drives one machine per core by default; use
# `genesys bench -parallel 1` for a sequential reference run and
# `-seeds 1,2,...` for a multi-seed sweep (seed-<S>/ subdirectories).
bench:
	$(GO) test ./internal/sim ./internal/fs -bench . -benchmem -run '^$$'
	$(GO) run ./cmd/genesys bench

# baselines regenerates the committed sentry baselines. Sequential on
# purpose: per-case wall_ms in BENCH_host.json is only comparable to a
# fresh run at the same parallelism, and CI's sentry job runs -parallel 1.
baselines:
	$(GO) run ./cmd/genesys bench -parallel 1 -out baselines
