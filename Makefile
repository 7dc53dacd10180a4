# Local mirror of the CI gate (.github/workflows/ci.yml).

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build fmt vet lint lint-json test race fuzz experiments bench benchcheck solvebench calibperf calibperf-test benchpairs arena serve loadtest crashtest clustersmoke ci

all: ci

build:
	$(GO) build ./...

# fmt fails, listing the files, when any Go file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l flags:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# lint runs the caliblint invariant suite (internal/lint) over the module.
lint:
	$(GO) run ./cmd/caliblint ./...

# lint-json emits the same diagnostics as a machine-readable JSON array
# (always an array, [] when clean) for editor and tooling integration.
lint-json:
	$(GO) run ./cmd/caliblint -json ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz runs each native fuzz target briefly; `go test -fuzz` accepts one
# target per invocation, so the smoke loops over them.
fuzz:
	$(GO) test -fuzz=FuzzValidate -fuzztime=$(FUZZTIME) -run='^$$' ./internal/core
	$(GO) test -fuzz=FuzzAssignTimes -fuzztime=$(FUZZTIME) -run='^$$' ./internal/core
	$(GO) test -fuzz=FuzzDPMatchesBrute -fuzztime=$(FUZZTIME) -run='^$$' ./internal/offline
	$(GO) test -fuzz=FuzzReadInstance -fuzztime=$(FUZZTIME) -run='^$$' ./internal/workload
	$(GO) test -fuzz=FuzzReadRecord -fuzztime=$(FUZZTIME) -run='^$$' ./internal/store
	$(GO) test -fuzz=FuzzRecoverSession -fuzztime=$(FUZZTIME) -run='^$$' ./internal/store
	$(GO) test -fuzz=FuzzReadSnapshot -fuzztime=$(FUZZTIME) -run='^$$' ./internal/store
	$(GO) test -fuzz=FuzzRestoreEngine -fuzztime=$(FUZZTIME) -run='^$$' ./internal/online
	$(GO) test -fuzz=FuzzImport -fuzztime=$(FUZZTIME) -run='^$$' ./internal/server
	$(GO) test -fuzz=FuzzInstanceKey -fuzztime=$(FUZZTIME) -run='^$$' ./internal/solve

# experiments runs all 17 paper experiments on their full grids (the
# numbers in EXPERIMENTS.md); calibbench exits 1 on any FAIL verdict.
# `go test` runs only the Quick grids.
experiments:
	$(GO) run ./cmd/calibbench

# bench writes a dated machine-readable performance report (ns/op,
# allocs/op, steps/sec for the steppers, the offline DP, the
# decision-tracing overhead tiers, the serving persistence tiers:
# in-memory vs WAL at each fsync policy, and the request-span recorder
# tiers: nil recorder vs bounded ring).
BENCH_OUT ?= BENCH_$(shell date +%F).json
GIT_COMMIT ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo unknown)
bench:
	$(GO) run -ldflags "-X main.commit=$(GIT_COMMIT)" ./cmd/calibbench -perf -out $(BENCH_OUT)

# benchcheck is the perf smoke gate: regenerate a short report and
# verify its ratio invariants — group-commit amortization (multi-session
# wal-always within 3.5x of wal-batch), nil-sink overhead (within 1.25x
# of the live stepper), and the durability tax beating the committed
# baseline's single-session ratio. Machine-independent: every gate is a
# ratio within one run, so it holds on loaded CI runners too.
BENCH_BASELINE ?= BENCH_2026-08-08.json
benchcheck:
	$(GO) run ./cmd/calibbench -perf -perf-duration 500ms -perf-filter serve/step,stepper -out /tmp/calibbench-check.json
	$(GO) run ./cmd/calibbench -perf-verify /tmp/calibbench-check.json -perf-baseline $(BENCH_BASELINE)

# solvebench runs just the batch-solve tiers: sequential vs parallel DP
# and budget sweep, plus the warm-cache repeat-solve path (prints to
# stdout; use BENCH_OUT-style -out to persist).
solvebench:
	$(GO) run ./cmd/calibbench -perf -perf-filter offline,solve

# calibperf runs the end-to-end benchmark declared in BENCHMARK.json
# (bench/README.md): every workload on fresh daemons built from this
# checkout. Pass flags through CALIBPERF_ARGS, e.g. "-trace" for the
# layer ladder, "-runs 10 -out base.json" for a judged sample, or
# "-compare base.json new.json" to judge two samples against the bounds.
CALIBPERF_ARGS ?=
calibperf:
	bash bench/run.sh $(CALIBPERF_ARGS)

# calibperf-test runs the benchmark harness's own tests; bench/ is its
# own module, so the root `go test ./...` never reaches it.
calibperf-test:
	cd bench && $(GO) test ./...

# benchpairs judges this working tree against REF with N alternating
# pairs of calibperf runs of one workload (scripts/benchpairs.sh): per
# gated metric it prints both sides' median and quartiles and the change's
# win count, then runs -compare on the merged samples.
REF ?= HEAD
WORKLOAD ?= stream-mem
N ?= 10
benchpairs:
	bash scripts/benchpairs.sh $(REF) $(WORKLOAD) $(N)

# arena regenerates the competitive-ratio leaderboard from the pinned
# sweep twice, requires both regenerations byte-identical to the
# committed LEADERBOARD.json / LEADERBOARD.md, and fails on any
# invariant violation (ratio < 1, LP > DP, proven bound exceeded) via
# calibarena's -check default.
arena:
	$(GO) run ./cmd/calibarena -json /tmp/calibarena-lb.json -md /tmp/calibarena-lb.md
	cmp LEADERBOARD.json /tmp/calibarena-lb.json
	cmp LEADERBOARD.md /tmp/calibarena-lb.md
	$(GO) run ./cmd/calibarena -json /tmp/calibarena-lb2.json -md /tmp/calibarena-lb2.md
	cmp /tmp/calibarena-lb.json /tmp/calibarena-lb2.json
	cmp /tmp/calibarena-lb.md /tmp/calibarena-lb2.md

# serve boots the streaming scheduling daemon on SERVE_ADDR (see
# DESIGN.md §7 for the API).
SERVE_ADDR ?= :8373
serve:
	$(GO) run ./cmd/calibserved -addr $(SERVE_ADDR)

# loadtest drives a running calibserved with the concurrent load
# generator and verifies every session against the batch engines.
LOAD_ADDR ?= http://127.0.0.1:8373
loadtest:
	$(GO) run ./cmd/calibload -addr $(LOAD_ADDR) -sessions 64 -steps 200 -verify

# crashtest is the kill -9 gate: boot calibserved with a data dir, drive
# traffic, SIGKILL it, restart on the same dir, and diff the schedules.
crashtest:
	./scripts/crashtest.sh

# clustersmoke is the multi-node gate: two calibserved backends behind
# calibgate, live migration, join/leave rebalances, then kill -9 one
# backend and require fail-open 503s for its shard while the survivor
# keeps serving. Writes the aggregated /metrics scrape to METRICS_OUT.
clustersmoke:
	./scripts/clustersmoke.sh

ci: build fmt vet lint test race calibperf-test experiments fuzz arena crashtest clustersmoke
