GO ?= go

.PHONY: all build vet lint test purego crossvet race stress asyncstress shardstress chainstress servestress obsstress fuzzsmoke bench benchsmoke benchdiff info trace monitor metrics loc ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis: staticcheck when installed, go vet as the portable
# fallback so CI never depends on a tool the environment may not have.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck not found; falling back to go vet"; $(GO) vet ./...; \
	fi

test:
	$(GO) test ./...

# The pure-Go kernel fallback: the packages that run GEMM, with the
# generated amd64 machine code compiled out.
purego:
	$(GO) test -tags purego ./internal/kernels/ ./internal/core/ ./internal/engine/

# The ARMv8 build type-checks (and the generated amd64 assembly stays
# out of it) without an arm64 machine.
crossvet:
	GOARCH=arm64 $(GO) vet ./...

# Race-detector pass over the engine layers, the core executors (their
# workers run on several sched workers at once) and the public-API
# stress tests (short mode keeps the kernel property tests from
# dominating).
race:
	$(GO) test -race -short ./internal/core/ ./internal/engine/... ./internal/obs/... ./internal/sched/... ./internal/bufpool/... .

# Engine stress under the race detector, run twice: the concurrent
# dispatch stress, concurrent cold plan misses (first insert wins), pool
# resize and the observability layer's concurrent recording.
stress:
	$(GO) test -race -count=2 -run 'TestEngineConcurrentStress|TestWorkersAutoConvention|TestPrepackConcurrentShared' -v .
	$(GO) test -race -count=2 -run 'TestPlanFirstInsertWins|TestBucketedPlanParity|TestPackCacheSingleFlight' -v ./internal/engine/
	$(GO) test -race -count=2 -run 'TestPoolResize' -v ./internal/sched/
	$(GO) test -race -count=2 -run 'TestSeriesConcurrent' -v ./internal/obs/

# Async submission stress under the race detector, run twice: queue
# backpressure, cancellation, queued-versus-serial parity, the seeded
# queue soak and the concurrent Do/Submit front-end — plus the sharded
# EngineSet front-end.
asyncstress:
	$(GO) test -race -run 'Async|EngineSet' -count=2 . ./internal/engine/

# Sharded scale-out suite under the race detector, run twice: routing
# stability, steal parity (bit-exact), per-shard queue-full fallback,
# shard isolation and the set's steady-state allocation budget.
shardstress:
	$(GO) test -race -run 'TestSet|TestEngineSet' -count=2 . ./internal/engine/

# Cross-op chain suite under the race detector, run twice: bit-exact
# parity against serial execution, mid-chain cancellation leaving the
# serial prefix, queued chains and the shared-engine sync/async stress.
chainstress:
	$(GO) test -race -run 'Chain' -count=2 . ./internal/engine/

# Serving tier under the race detector, run twice — round-trip numerics,
# admission-control shedding, tenant priority and the concurrent mixed
# workload — then a one-shot in-process smoke of the iatf-serve binary.
servestress:
	$(GO) test -race -count=2 ./internal/serve/
	$(GO) run ./cmd/iatf-serve -once

# Observability suite under the race detector, run twice: trace
# propagation (sync, queued dispatch, serve header echo on every status),
# per-tenant SLO accounting across all resolution paths, burn-window
# epoch eviction, shard aggregation, tenant OpenMetrics validity and the
# tagged warm-path allocation budget — then one demo round of the
# iatf-monitor binary on the default engine and on a two-shard set,
# which fails when a demo tenant records no request, and one iatf-trace
# engine dispatch, which fails when its span sink does not fire.
obsstress:
	$(GO) test -race -run 'Tenant|Trace|Span' -count=2 . ./internal/engine/ ./internal/obs/ ./internal/serve/
	$(GO) run ./cmd/iatf-monitor -demo -once
	$(GO) run ./cmd/iatf-monitor -demo -once -shards 2
	$(GO) run ./cmd/iatf-trace -engine -count 64

# Ten seconds of coverage-guided fuzzing per target: the /v1/do codec
# against encoding/json (same accept/reject, equal decoded request) and
# the handler (no panic, no 500); the traceparent resolver (always a
# non-zero 32-hex id, the header's trace-id exactly when it is valid);
# one drawn stage list run on one shard, on two shards, as a chain call
# and as two queued Submits (bit-identical outputs, each run on its
# own); and the -tenant spec parser (no panic, accepted specs hold a
# usable objective). The committed corpora under testdata/fuzz,
# internal/serve/testdata/fuzz and internal/engine/testdata/fuzz replay
# in every plain `go test`.
fuzzsmoke:
	$(GO) test -run '^$$' -fuzz FuzzDoRequest -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz FuzzTraceparent -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz FuzzPathParity -fuzztime 10s ./internal/engine/
	$(GO) test -run '^$$' -fuzz FuzzParseTenantSpec -fuzztime 10s .

# Wall-clock benchmark of the native path — pack-per-call vs prepacked
# operand reuse — writing the rows to BENCH_wallclock.json.
bench:
	$(GO) run ./cmd/iatf-bench -wallclock -json

# One-iteration pass over every Go benchmark: catches bit-rot in the
# benchmark code without paying for real measurements.
benchsmoke:
	$(GO) test -run xxx -bench . -benchtime=1x ./...

# Regression gate: a fresh reduced wallclock run (same batch size as the
# committed baseline, fewer timed calls) diffed against
# BENCH_wallclock.json; fails when any (op, dtype, shape, variant) row's
# per-matrix ns/op regresses by more than 15%. Fatal in ci. Rows report
# the best timed chunk (and cold-start rows the best repetition), so a
# single scheduler stall on a loaded shared host cannot shift a row by
# itself; a failed diff still re-measures once and only a failure on
# BOTH independent runs fails the target — residual noise rarely trips
# twice, a real regression always does. Refresh the baseline with
# `make bench` alongside a deliberate perf-affecting change.
benchdiff:
	$(GO) run ./cmd/iatf-bench -wallclock -json -out /tmp/iatf_wc_new.json -wcalls 64
	@if ! $(GO) run ./cmd/iatf-bench -diff -base BENCH_wallclock.json -new /tmp/iatf_wc_new.json; then \
		echo "benchdiff: row(s) over threshold — re-measuring once to rule out noise"; \
		$(GO) run ./cmd/iatf-bench -wallclock -json -out /tmp/iatf_wc_new.json -wcalls 64 && \
		$(GO) run ./cmd/iatf-bench -diff -base BENCH_wallclock.json -new /tmp/iatf_wc_new.json; \
	fi
	@rm -f /tmp/iatf_wc_new.json

# Print the execution-engine counters and per-shape series after a demo
# workload.
info:
	$(GO) run ./cmd/iatf-info -engine

# Print the command queue of one batched GEMM's plan, then the call's
# lifecycle span.
trace:
	$(GO) run ./cmd/iatf-trace -engine

# One OpenMetrics scrape of the default engine after a demo workload.
metrics:
	$(GO) run ./cmd/iatf-info -metrics

# Serve the live monitoring surface (/metrics, /debug/pprof, /trace)
# with a demo workload driving it.
monitor:
	$(GO) run ./cmd/iatf-monitor -demo

# Code-size figures the roadmap tracks: non-test Go lines outside
# perfbench/, the same for internal/engine, and the exported root-package
# symbols (go/ast, methods included).
loc:
	$(GO) run ./cmd/iatf-loc

# benchdiff gates ci: the diff tool's 15% tolerance absorbs ordinary
# run-to-run noise, so a failure means a real regression (or a baseline
# that needs a deliberate `make bench` refresh alongside the change).
ci: lint build test purego crossvet race stress asyncstress shardstress chainstress servestress obsstress fuzzsmoke benchsmoke benchdiff
