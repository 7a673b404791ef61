GO ?= go

.PHONY: all build test check fmt vet race bench baselines loc

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

# bench runs the microbenchmarks CI runs (engine, file system, machine
# build, workloads) and the bench suite (writes BENCH_<case>.json and
# SLO_fleet.json to the current directory and prints each case's host
# wall time). The suite drives one machine per core
# by default; `-seeds 1,2,...` runs a multi-seed sweep (seed-<S>/
# subdirectories). Host wall time is measured with calibrated repeated runs
# by `bash benchmark/run.sh`.
bench:
	$(GO) test ./internal/sim ./internal/fs ./internal/platform ./internal/workloads -bench . -benchmem -run '^$$'
	$(GO) run ./cmd/genesys bench

# baselines regenerates the committed sentry baselines: the virtual-time
# artifacts of the seed-1 suite, identical at any -parallel.
baselines:
	$(GO) run ./cmd/genesys bench -out baselines

# loc prints the non-test Go lines of each package under internal/ and
# cmd/, then their total.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'
