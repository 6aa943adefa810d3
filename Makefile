GO ?= go

.PHONY: all build vet test race bench bench-smoke experiments docs-check examples-smoke chaos fuzz-smoke clean

all: vet build test bench-smoke docs-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The per-package micro-benchmarks, one iteration each: a smoke run that
# keeps them compiling and passing their own assertions (CI runs the same
# command without -benchmem). Performance claims are stated in
# BENCHMARK.json metrics (bash bench/run.sh), not in these.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./internal/...

# bench/ (the frozen gsbench end-to-end benchmark, BENCHMARK.json) is its
# own module, so the root build/vet/test never compile it: this is what
# catches an internal/* rename that would break it.
bench-smoke:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# Render every table of the sim.Experiments registry (E1–E15 and E18; E16, E17
# and E19 run from cmd/loadgen and the internal/sim tests). alert-bench only
# loops over the registry, and internal/sim's golden test fences the same
# list, so this target and testdata/tables.golden cannot drift apart.
experiments:
	$(GO) run ./cmd/alert-bench

# Verify README package table, package doc comments, docs/ links, experiment
# references and the gsalert_* metric names mentioned under docs/.
docs-check:
	$(GO) run ./cmd/docs-check

# The E16 chaos-soak gate: the scale/chaos acceptance tests under -race
# (short schedule — 20k-profile population), the E18 health-plane
# acceptance (deterministic fire/clear, mode-identical meta-alerts,
# readiness across failover), plus the concurrency composition test and
# the fault-engine suites. CI runs this as the chaos-soak job and uploads
# a cmd/loadgen summary + health transition log as artifacts; run
# cmd/loadgen directly for the full 100k-profile soak.
chaos:
	$(GO) test -race -short -count=1 -timeout 600s \
		-run 'TestChaosSoak|TestPromotionConcurrent|TestLoadGen|TestClassSLO|TestHealth' ./internal/sim/
	$(GO) test -race -count=1 ./internal/chaos/ ./internal/transport/ ./internal/queue/ ./internal/health/

# Run each fuzz target briefly against its committed corpus plus a short
# exploration budget (regression seeds under testdata/fuzz are always
# replayed by plain `go test`). The three codec targets are differential:
# the scan decoders against encoding/xml (docs/WIRE.md). Their seeds are
# whole envelopes, and the fuzzer's default of up to a minute spent
# minimising each new multi-kilobyte input would eat a short budget whole,
# hence -fuzzminimizetime.
FUZZTIME ?= 10s
FUZZ = $(GO) test -fuzztime $(FUZZTIME) -fuzzminimizetime 2s -fuzz
fuzz-smoke:
	$(FUZZ) 'FuzzParse$$' ./internal/profile/
	$(FUZZ) FuzzParseText ./internal/profile/
	$(FUZZ) FuzzUnmarshal ./internal/protocol/
	$(FUZZ) FuzzDecodePayload ./internal/protocol/
	$(FUZZ) FuzzEventXML ./internal/event/

# Build and run every example program with a timeout, so the walkthroughs
# cannot silently rot. Each example is a self-terminating demo; a hang or a
# non-zero exit fails the target.
examples-smoke:
	@set -e; for d in examples/*/; do \
		echo "== $$d"; \
		timeout 120 $(GO) run ./$$d > /dev/null; \
	done; echo "examples-smoke: all examples built and ran"

clean:
	$(GO) clean ./...
