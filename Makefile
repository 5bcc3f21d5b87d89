GO ?= go

.PHONY: all build test race bench-short ci figures figures-paper fig emu fuzz-smoke trace-demo cover clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fast allocation-focused micro-benchmarks for the hot paths (flood search,
# mesh maintenance, per-request work), plus the small-N scale-sweep smoke.
# Seconds, not minutes.
bench-short:
	$(GO) test -run '^$$' -bench 'BenchmarkFlood|BenchmarkMeshConnect|BenchmarkNeighbors' -benchmem ./internal/overlay/
	$(GO) test -run '^$$' -bench 'BenchmarkRequest|BenchmarkProbe' -benchmem ./internal/core/
	$(GO) run ./cmd/socialtube -fig scale

# Full gate: what CI runs (see scripts/ci.sh).
ci:
	./scripts/ci.sh

# Regenerate every table and figure at laptop scale (~90 s): `-fig all` is
# every figure of the registry that runs by default, in registry order.
figures:
	$(GO) run ./cmd/socialtube -fig all

# Regenerate the simulation figures at the paper's Table I scale (minutes).
figures-paper:
	$(GO) run ./cmd/socialtube -fig sim -scale paper

# Regenerate one figure by id: FIG is any id `socialtube -h` lists and
# ARGS passes further flags. Nothing is written unless ARGS names a log, e.g.
#   make fig FIG=scale ARGS="-scale paper -bench-out BENCH_scale.json"
#   make fig FIG=load ARGS="-bench-out BENCH_load.json"
#   make fig FIG=takeover ARGS="-bench-out BENCH_failover.json"
fig:
	$(GO) run ./cmd/socialtube -fig $(FIG) $(ARGS)

# Run the TCP emulation at the paper's 250-node PlanetLab scale.
emu:
	$(GO) run ./cmd/socialtube -fig emu -peers 250 -sessions 2 -videos 6 -watch 30ms

# Short fuzz passes over the wire layer: the frame decoder and the peer's
# message handlers must survive arbitrary bytes without panicking.
fuzz-smoke:
	$(GO) test ./internal/emu -run '^$$' -fuzz '^FuzzReadMessage$$' -fuzztime 30s
	$(GO) test ./internal/emu -run '^$$' -fuzz '^FuzzDecodeBody$$' -fuzztime 30s
	$(GO) test ./internal/emu -run '^$$' -fuzz '^FuzzHandleMessage$$' -fuzztime 30s

# Record a JSONL event trace from the Fig. 17(a) run, validate it against
# the golden schema, then pretty-print the first events, then group them
# by request span.
trace-demo:
	$(GO) run ./cmd/socialtube -fig 17a -trace-out trace-demo.jsonl
	$(GO) run ./cmd/socialtube -trace-check trace-demo.jsonl
	$(GO) run ./cmd/socialtube -trace-print trace-demo.jsonl -trace-max 20
	$(GO) run ./cmd/socialtube -trace-spans trace-demo.jsonl -trace-max 5

cover:
	$(GO) test -cover ./internal/...

clean:
	$(GO) clean ./...
