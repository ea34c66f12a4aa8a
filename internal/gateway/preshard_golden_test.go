// Pre-shard bit-identity goldens: the byte-exact obs snapshot and event
// stream the single-queue gateway produced for a fixed set of chaos-harness
// scenarios, captured in testdata/preshard/ BEFORE the intake was sharded.
// The sharded gateway at P=1 must reproduce these bytes exactly — that is
// the contract that lets every pre-shard golden test keep passing.
//
// Regenerate (only when a PR deliberately changes gateway observability):
//
//	UPDATE_PRESHARD_GOLDEN=1 go test -run TestPreShardGoldenBytes ./internal/gateway/
package gateway_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"deepbat/internal/fault"
	"deepbat/internal/fault/faulttest"
	"deepbat/internal/gateway"
	"deepbat/internal/lambda"
)

// goldenScenarios pins the scenario set. Everything here is deterministic:
// manual clock, scripted or seeded fault plans, seeded backoff jitter.
func goldenScenarios() []faulttest.Scenario {
	initial := lambda.Config{MemoryMB: 2048, BatchSize: 2, TimeoutS: 60}
	fallback := lambda.Config{MemoryMB: 1024, BatchSize: 1, TimeoutS: 0}
	one := lambda.Config{MemoryMB: 2048, BatchSize: 1, TimeoutS: 0}
	return []faulttest.Scenario{
		{
			Name:    "golden-retry-success",
			Plan:    fault.Plan{Script: []fault.Outcome{{Err: true}, {Err: true}, {}}},
			Initial: initial,
			Resilience: gateway.Resilience{
				MaxRetries: 2,
				RetryBase:  time.Millisecond,
				RetryMax:   4 * time.Millisecond,
			},
			JitterSeed: 1,
			SLO:        0.1,
			Steps:      []faulttest.Step{{Submit: 2, Await: 2}},
		},
		{
			Name:    "golden-breaker-lifecycle",
			Plan:    fault.Plan{Script: []fault.Outcome{{Err: true}, {Err: true}, {}, {}}},
			Initial: one,
			Resilience: gateway.Resilience{
				BreakerThreshold: 2,
				BreakerCooldownS: 5,
				Fallback:         fallback,
			},
			SLO: 0.1,
			Steps: []faulttest.Step{
				{Submit: 1, Await: 1},
				{Submit: 1, Await: 1},
				{Submit: 1, Await: 1},
				{AdvanceS: 6, Submit: 1, Await: 1},
			},
		},
		{
			Name:    "golden-deadline-expiry",
			Plan:    fault.Plan{},
			Initial: initial,
			Resilience: gateway.Resilience{
				RequestTimeoutS: 1,
			},
			SLO: 0.1,
			Steps: []faulttest.Step{
				{Submit: 1},
				{AdvanceS: 2, Submit: 1, Await: 2},
			},
		},
		{
			Name: "golden-mixed-chaos",
			Plan: fault.Plan{
				Seed:            7,
				ErrorRate:       0.3,
				StragglerRate:   0.3,
				StragglerFactor: 3,
				ColdSpikeRate:   0.2,
				ColdSpikeS:      0.5,
			},
			Initial: initial,
			Resilience: gateway.Resilience{
				MaxRetries: 5,
				RetryBase:  100 * time.Microsecond,
				RetryMax:   time.Millisecond,
			},
			JitterSeed: 99,
			SLO:        0.1,
			Steps: []faulttest.Step{
				{Submit: 2, Await: 2}, {Submit: 2, Await: 2},
				{AdvanceS: 0.5, Submit: 2, Await: 2}, {Submit: 2, Await: 2},
				{AdvanceS: 0.5, Submit: 2, Await: 2},
			},
		},
	}
}

// TestPreShardGoldenBytes replays every golden scenario and byte-compares
// the obs snapshot and event stream against the pre-shard captures. With
// UPDATE_PRESHARD_GOLDEN=1 it rewrites the captures instead.
func TestPreShardGoldenBytes(t *testing.T) {
	update := os.Getenv("UPDATE_PRESHARD_GOLDEN") != ""
	dir := filepath.Join("testdata", "preshard")
	if update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range goldenScenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			r := faulttest.Run(t, s)
			snapPath := filepath.Join(dir, s.Name+".snapshot.json")
			evPath := filepath.Join(dir, s.Name+".events.json")
			if update {
				if err := os.WriteFile(snapPath, r.Snapshot, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(evPath, r.Events, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			wantSnap, err := os.ReadFile(snapPath)
			if err != nil {
				t.Fatalf("missing golden (run with UPDATE_PRESHARD_GOLDEN=1): %v", err)
			}
			wantEv, err := os.ReadFile(evPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(r.Snapshot, wantSnap) {
				t.Errorf("snapshot diverged from pre-shard bytes:\n got: %s\nwant: %s", r.Snapshot, wantSnap)
			}
			if !bytes.Equal(r.Events, wantEv) {
				t.Errorf("events diverged from pre-shard bytes:\n got: %s\nwant: %s", r.Events, wantEv)
			}
		})
	}
}
