GO ?= go

.PHONY: check build vet test race bench bench-smoke bench-e2e-test bench-e2e cover fuzz loc clean soak soak-smoke soak-overload soak-growth

# Tier-1 gate: everything must build, vet clean, pass under the race
# detector (the chaos suites are required to be race-clean), every
# benchmark must still execute (one iteration each), and the end-to-end
# benchmark module must vet and pass its own tests.
check: build vet race bench-smoke bench-e2e-test

build:
	$(GO) build ./...

# gofmt -l prints the files it would change; any output fails the target.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); test -z "$$unformatted" || { echo "gofmt needed:"; echo "$$unformatted"; exit 1; }

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Every benchmark runs one iteration — a cheap guard against benchmarks
# rotting while the code under them moves.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# The end-to-end benchmark (BENCHMARK.json) is a Go module of its own
# under benchmark/, so `go build/test ./...` at the root never reaches
# it and an internal interface change (sdds.Store, wal.FS) could break
# it unnoticed. bench-e2e-test, part of `check`, vets and tests it from
# its own directory (every workload end to end at 1/100 size, about
# 5 s); bench-e2e is the manual A/A run: every workload twice at full
# size, compared against the declared bounds (minutes).
bench-e2e-test:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

bench-e2e:
	bash benchmark/run.sh -aa

# Cluster-level soak: open-loop load generator driving a REAL
# multi-process TCP cluster (spawned esdds-node daemons) through LH*
# growth, then auditing every acknowledged record back and enforcing
# the SLO gates. Results merge into BENCH_cluster.json by profile; a
# failing gate or any record loss exits non-zero and leaves the
# baseline untouched. soak-smoke is the ~30s CI-sized run; soak is the
# full million-record profile.
BIN_DIR ?= bin

.PHONY: soak-bins
soak-bins:
	$(GO) build -o $(BIN_DIR)/esdds-node ./cmd/esdds-node
	$(GO) build -o $(BIN_DIR)/esdds-soak ./cmd/esdds-soak

soak-smoke: soak-bins
	$(BIN_DIR)/esdds-soak -profile smoke -cluster proc \
		-node-bin $(BIN_DIR)/esdds-node -out BENCH_cluster.json

soak: soak-bins
	$(BIN_DIR)/esdds-soak -profile full -cluster proc \
		-node-bin $(BIN_DIR)/esdds-node -out BENCH_cluster.json

# Overload soak: 3 plain daemons offered more than they drain. Gates
# prove graceful degradation under saturation (DESIGN.md §13): goodput
# stays above a floor, no op errors, the read-back audit loses nothing
# that was acknowledged, and zero self-healing repairs fire (saturation
# never reads as node death).
soak-overload: soak-bins
	$(BIN_DIR)/esdds-soak -profile overload -cluster proc \
		-node-bin $(BIN_DIR)/esdds-node -out BENCH_cluster.json

# Growth-chaos soak: a durable in-process cluster under load while the
# harness kills one node every few seconds and the self-healing
# supervisor revives it. Kills that land mid-split/merge leave the
# two-phase handoff journalled in-flight (DESIGN.md §14); gates prove
# the supervisor rolls every one forward, the read-back audit loses no
# acknowledged record, and no migration is left dangling. Runs in-
# process (-cluster mem) because only memory nodes can be killed and
# revived by the harness — no -node-bin needed.
soak-growth: soak-bins
	$(BIN_DIR)/esdds-soak -profile growth-chaos -cluster mem \
		-out BENCH_cluster.json

# Coverage profile with per-package totals (the `ok ... coverage: N%`
# lines) plus the overall statement total. cover.out is the machine
# artifact: CI uploads it and enforces the esdds ratchet against it.
cover:
	$(GO) test -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | tail -n 1

# Short fuzz pass over every fuzz target (30s each).
fuzz:
	$(GO) test -fuzz='^FuzzReadFrameV2$$' -fuzztime=30s ./internal/transport
	$(GO) test -fuzz='^FuzzFrameV2RoundTrip$$' -fuzztime=30s ./internal/transport
	$(GO) test -fuzz='^FuzzDecode$$' -fuzztime=30s ./internal/sdds
	$(GO) test -fuzz='^FuzzNodeHandler$$' -fuzztime=30s ./internal/sdds
	$(GO) test -run '^$$' -fuzz='^FuzzSearchCombine$$' -fuzztime=30s ./internal/sdds
	$(GO) test -fuzz=FuzzIndexOps -fuzztime=30s ./internal/sdds
	$(GO) test -fuzz=FuzzWALDecode -fuzztime=30s ./internal/wal

# ROADMAP item 8's budget as a command: non-test Go lines of the three
# budgeted packages and their sum against the target. A ratchet the
# roadmap sets, not a build rule — nothing gates on it.
LOC_TARGET = 9650
loc:
	@total=0; for d in internal/sdds internal/transport esdds; do \
		n=$$(ls $$d/*.go | grep -v _test | xargs cat | wc -l); \
		printf '%-20s %6d\n' $$d $$n; total=$$((total + n)); \
	done; printf '%-20s %6d  (ROADMAP item 8 target: <= $(LOC_TARGET))\n' total $$total

clean:
	$(GO) clean -testcache
