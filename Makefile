# Developer entry points. The repo is pure Go stdlib; no tools beyond the Go
# toolchain are required.

GO ?= go

# RACE_PKGS covers the packages that exercise the concurrent code paths:
# the parallel matmul kernels and the shared blocked/packed gemm kernels they
# drive from row-sharded workers, data-parallel training / no-grad parallel
# evaluation (including the batched grid-sweep fan-out), the analytical
# baseline used by the same experiments, the gateway (which spawns
# batching/control/retry goroutines under test, and since the sharding PR
# pools waiters across shard mutexes and a lock-free exchange slot), the
# fault-injection layer (whose FaultyBackend counter is hit from concurrent
# batch executions), the observability registry/recorder hammered from many
# goroutines, the load generator's closed-loop worker pool, and the analysis
# engine (whose loader type-checks packages while tests run fixtures in
# parallel), the workload/replay pair (whose replay driver runs the
# gateway's batching goroutines from a virtual-time driver), the sweep
# engine (worker pools claiming cells off a shared atomic cursor), the
# qsim grid search (which fans out over sweep workers), the fleet layer
# (whose per-group gateways, tuner ticker, and demultiplexing front door
# all run concurrent goroutines), and the experiments lab (whose
# cell-parallel figures must stay invariant under the detector's
# scheduling perturbation).
RACE_PKGS = ./internal/tensor/... ./internal/gemm/... ./internal/surrogate/... ./internal/batchopt/... ./internal/gateway/... ./internal/fault/... ./internal/obs/... ./internal/loadgen/... ./internal/analysis/... ./internal/workload/... ./internal/replay/... ./internal/sweep/... ./internal/qsim/... ./internal/fleet/...

# SERVING_PKGS are the packages that serve or replay requests through the
# gateway; CI and `make race` run them at -cpu 1,2,4.
SERVING_PKGS = ./internal/gateway/ ./internal/fleet/ ./internal/replay/ ./internal/loadgen/

# Per-package coverage floors enforced by `make cover` (see the cover target).
COVER_FLOOR_GATEWAY = 80
COVER_FLOOR_FAULT   = 90
COVER_FLOOR_REPLAY  = 80
COVER_FLOOR_FLEET   = 80

.PHONY: verify fmtcheck lint test race bench fuzz chaos cover loadgen-smoke replay-smoke sweep-smoke

## verify: tier-1 gate — formatting, vet, the deepbatlint pass, full build,
## and the full test suite. Every PR must leave this green.
verify: fmtcheck
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) run ./cmd/lint ./...
	$(GO) test ./...

## fmtcheck: fail (listing the files) if any file is not gofmt-clean.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

## lint: run the repo-specific static-analysis pass (internal/analysis) over
## every package. Exits non-zero on findings with file:line diagnostics.
lint:
	$(GO) run ./cmd/lint ./...

test: verify

## race: run the concurrency-sensitive packages under the race detector.
## The gateway is additionally run with the poolcheck build tag, which
## poisons recycled waiters on put and panics on double-put, unconsumed
## responses, or dirty reuse — pool-hygiene bugs the race detector alone
## cannot see. The serving packages also run at 1, 2 and 4 cores, so the
## batching contract is checked at every core count, not only the machine's.
race:
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -tags poolcheck -cpu 1,2,4 $(SERVING_PKGS)
	$(GO) test -race -run 'WorkerInvariance' ./internal/experiments/

## bench: regenerate the benchmark regression snapshot (BENCH_5.json),
## including speedup/alloc ratios against the previous snapshot. Asserts the
## instrumented-training overhead budget, the zero-alloc pooled admit path,
## and the sweep engine's byte-identity (plus its 8-worker speedup floor on
## 8+ CPU machines); non-zero exit on violation.
bench:
	$(GO) run ./cmd/bench -out BENCH_5.json -baseline BENCH_4.json

## loadgen-smoke: CI smoke check for the serving path — a short closed-loop
## saturation run that must finish with goodput > 0 and zero failed
## requests, plus a deterministic open-loop shard sweep.
loadgen-smoke:
	$(GO) run ./cmd/loadgen -loop closed -clients 8 -duration 3s -assert
	$(GO) run ./cmd/loadgen -loop open -requests 2000 -rate 1000 -sweep 1,2,4,8 -assert

## fuzz: short native-fuzzing passes sized for CI. FuzzRun hammers the
## discrete-event simulator's batching invariants (corpus seeds include
## fault schedules, so the failure mirror is fuzzed too); FuzzDecode hammers
## the tracev1 binary decoder (never panics, and anything it accepts must
## round-trip bit-identically); FuzzPlanValidate hammers the fleet plan
## codec (never panics, and any plan the canonical decoder accepts must
## re-encode bit-identically); FuzzEncodeMatchesTape and
## FuzzPredictGridMatchesPredict hold the tape-free encoder and the batched
## grid sweep bit-identical to the tape path.
fuzz:
	$(GO) test -fuzz=FuzzRun -fuzztime=20s -run='^$$' ./internal/qsim
	$(GO) test -fuzz=FuzzDecode -fuzztime=20s -run='^$$' ./internal/workload
	$(GO) test -fuzz=FuzzPlanValidate -fuzztime=20s -run='^$$' ./internal/fleet
	$(GO) test -fuzz='^FuzzEncodeMatchesTape$$' -fuzztime=15s -run='^$$' ./internal/surrogate
	$(GO) test -fuzz='^FuzzPredictGridMatchesPredict$$' -fuzztime=15s -run='^$$' ./internal/surrogate

## replay-smoke: CI check for the workload-zoo replay path — generate a
## small azure tracev1 (digest-verified), replay it twice through the real
## gateway hot path on the virtual clock, and assert the two reports (and
## metric snapshots) are byte-identical.
replay-smoke:
	$(GO) run ./cmd/tracegen -name azure -hours 4 -o /tmp/replay-smoke.tracev1 -check
	$(GO) run ./cmd/replay -trace /tmp/replay-smoke.tracev1 -shards 4 -metrics /tmp/replay-smoke.m1.json > /tmp/replay-smoke.r1.txt
	$(GO) run ./cmd/replay -trace /tmp/replay-smoke.tracev1 -shards 4 -metrics /tmp/replay-smoke.m2.json > /tmp/replay-smoke.r2.txt
	cmp /tmp/replay-smoke.r1.txt /tmp/replay-smoke.r2.txt
	cmp /tmp/replay-smoke.m1.json /tmp/replay-smoke.m2.json
	@echo "replay-smoke: byte-identical reports and metric snapshots"

## sweep-smoke: CI check for the deterministic parallel sweep engine — run
## the cell-parallel scenarios experiment at 1 and 4 workers and assert the
## rendered report AND the merged per-cell metric snapshot are
## byte-identical, then do the same for a parallel replay shard sweep.
sweep-smoke:
	$(GO) run ./cmd/experiments -exp scenarios -quick -workers 1 -metrics /tmp/sweep-smoke.m1.json | grep -v 'finished in' > /tmp/sweep-smoke.r1.txt
	$(GO) run ./cmd/experiments -exp scenarios -quick -workers 4 -metrics /tmp/sweep-smoke.m4.json | grep -v 'finished in' > /tmp/sweep-smoke.r4.txt
	cmp /tmp/sweep-smoke.r1.txt /tmp/sweep-smoke.r4.txt
	cmp /tmp/sweep-smoke.m1.json /tmp/sweep-smoke.m4.json
	$(GO) run ./cmd/replay -name azure -hours 2 -hour-seconds 30 -sweep 1,2,4 -workers 1 -metrics /tmp/sweep-smoke.rm1.json > /tmp/sweep-smoke.rr1.txt
	$(GO) run ./cmd/replay -name azure -hours 2 -hour-seconds 30 -sweep 1,2,4 -workers 4 -metrics /tmp/sweep-smoke.rm4.json > /tmp/sweep-smoke.rr4.txt
	cmp /tmp/sweep-smoke.rr1.txt /tmp/sweep-smoke.rr4.txt
	cmp /tmp/sweep-smoke.rm1.json /tmp/sweep-smoke.rm4.json
	@echo "sweep-smoke: byte-identical reports and metric snapshots at 1 vs 4 workers"

## chaos: the -race chaos soak — a real-time gateway under concurrent load
## with seeded backend faults, retries, deadlines, and the breaker all live —
## plus the fleet fault-isolation scenarios (an error storm on one class
## opens only that class's breaker; sibling groups' observable bytes are
## unchanged). Bounded to ~25s (15s soak + harness overhead).
chaos:
	CHAOS_SOAK_S=15 $(GO) test -race -run 'TestChaosSoak|TestChaosScenarios|TestChaosNoLeakedGoroutines' -v -timeout 120s ./internal/gateway/
	$(GO) test -race -run 'TestFleetChaos' -v -timeout 120s ./internal/fleet/

## cover: per-package coverage gate. Fails if gateway drops below
## $(COVER_FLOOR_GATEWAY)%, fault below $(COVER_FLOOR_FAULT)%, replay below
## $(COVER_FLOOR_REPLAY)%, or fleet below $(COVER_FLOOR_FLEET)% of
## statements (stdlib tooling only: go test -coverprofile + go tool cover).
cover:
	@set -e; \
	check() { \
		pkg=$$1; floor=$$2; \
		$(GO) test -coverprofile=cover.$$3.out -covermode=atomic $$pkg >/dev/null; \
		pct=$$($(GO) tool cover -func=cover.$$3.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
		rm -f cover.$$3.out; \
		echo "$$pkg coverage: $$pct% (floor $$floor%)"; \
		ok=$$(awk -v p="$$pct" -v f="$$floor" 'BEGIN {print (p >= f) ? 1 : 0}'); \
		if [ "$$ok" != "1" ]; then echo "coverage below floor"; exit 1; fi; \
	}; \
	check ./internal/gateway $(COVER_FLOOR_GATEWAY) gateway; \
	check ./internal/fault $(COVER_FLOOR_FAULT) fault; \
	check ./internal/replay $(COVER_FLOOR_REPLAY) replay; \
	check ./internal/fleet $(COVER_FLOOR_FLEET) fleet
