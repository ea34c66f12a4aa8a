package replay

import (
	"encoding/binary"
	"math"
	"testing"

	"deepbat/internal/gateway"
	"deepbat/internal/lambda"
	"deepbat/internal/obs"
	"deepbat/internal/qsim"
	"deepbat/internal/trace"
)

// TestGatewayMatchesQsimWithStaticConfig is the differential check between
// the batcher that serves and the batcher the optimizer scores: the real
// gateway, driven on the virtual clock with its zero-value (single-queue)
// intake, must reproduce qsim's per-request latency and cost, and its total
// cost, for the same trace and static configuration. The hand-built traces
// pin the tie rules: an arrival at exactly t0+T opens the next batch, and
// with T = 0 arrivals that share a timestamp are still served one by one.
func TestGatewayMatchesQsimWithStaticConfig(t *testing.T) {
	tr := trace.MustGenerate(trace.Spec{Name: "twitter", Hours: 1, HourSeconds: 30, Seed: 9})
	for _, cfg := range []lambda.Config{
		{MemoryMB: 2048, BatchSize: 4, TimeoutS: 0.05},
		{MemoryMB: 1024, BatchSize: 8, TimeoutS: 0.2},
		{MemoryMB: 3008, BatchSize: 1, TimeoutS: 0},
	} {
		assertGatewayMatchesQsim(t, tr.Timestamps, cfg)
	}
	assertGatewayMatchesQsim(t, []float64{1, 1.25, 2}, lambda.Config{MemoryMB: 2048, BatchSize: 4, TimeoutS: 0.25})
	assertGatewayMatchesQsim(t, []float64{1, 1, 2}, lambda.Config{MemoryMB: 2048, BatchSize: 4, TimeoutS: 0})
}

// FuzzGatewayMatchesQsim runs the same differential check on fuzzed traces
// and configurations. Gaps are quantized to 0.1 ms, like qsim's FuzzRun, so
// shared timestamps and arrivals landing exactly on a batch deadline occur.
func FuzzGatewayMatchesQsim(f *testing.F) {
	// Arrivals 1, 1.25, 2 s under B = 4, T = 0.25 s; then 1, 1, 2 s under T = 0.
	f.Add([]byte{0x10, 0x27, 0xc4, 0x09, 0x4c, 0x1d}, uint8(3), uint16(2500))
	f.Add([]byte{0x10, 0x27, 0, 0, 0x10, 0x27}, uint8(3), uint16(0))
	f.Add([]byte{1, 0, 1, 0, 0, 0, 2, 0, 1, 0}, uint8(3), uint16(0))
	f.Add([]byte{5, 0, 5, 0, 0, 0, 5, 0, 5, 0, 5, 0}, uint8(8), uint16(1))
	f.Fuzz(func(t *testing.T, raw []byte, batch uint8, timeoutTenthMS uint16) {
		var ts []float64
		at := 0.0
		for ; len(raw) >= 2 && len(ts) < 512; raw = raw[2:] {
			at += float64(binary.LittleEndian.Uint16(raw)) / 1e4
			ts = append(ts, at)
		}
		if len(ts) == 0 {
			return
		}
		assertGatewayMatchesQsim(t, ts, lambda.Config{
			MemoryMB:  2048,
			BatchSize: int(batch%32) + 1,
			TimeoutS:  float64(timeoutTenthMS) / 1e4,
		})
	})
}

// assertGatewayMatchesQsim serves arrivals through a VirtualTimers gateway
// under the static cfg and fails unless every request's latency and cost,
// and the total cost, equal qsim's. The gateway's Backend reports durations
// in whole nanoseconds, so a served latency can run up to 1 ns short of
// qsim's; the 1e-9 s bound keeps a margin of at least 2e-11 s over that at
// M = 2048 for every B up to 32.
func assertGatewayMatchesQsim(t *testing.T, arrivals []float64, cfg lambda.Config) {
	t.Helper()
	profile, pricing := lambda.DefaultProfile(), lambda.DefaultPricing()
	ref, err := qsim.New(profile, pricing).Run(arrivals, cfg)
	if err != nil {
		t.Fatal(err)
	}
	clock := &obs.ManualClock{}
	backend := clockBackend{inner: gateway.SimulatedBackend{Profile: profile, Pricing: pricing}, clock: clock}
	g, err := gateway.New(backend, nil, gateway.Config{Initial: cfg, Clock: clock, VirtualTimers: true})
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]gateway.Handle, len(arrivals))
	for i, at := range arrivals {
		gateway.FlushUntil(g, clock, at)
		clock.Set(at)
		handles[i] = g.Submit()
	}
	// qsim dispatches the trailing partial batch at its timeout.
	gateway.FlushUntil(g, clock, math.Inf(1))
	g.Stop()
	for i, h := range handles {
		resp := h.Wait()
		if resp.Error != "" {
			t.Fatalf("%v: request %d failed: %s", cfg, i, resp.Error)
		}
		if lat := resp.LatencyMS / 1000; math.Abs(lat-ref.Latencies[i]) > 1e-9 {
			t.Fatalf("%v: request %d latency %v vs qsim %v", cfg, i, lat, ref.Latencies[i])
		}
		if math.Abs(resp.CostUSD-ref.PerRequestCost[i]) > 1e-18 {
			t.Fatalf("%v: request %d cost %v vs qsim %v", cfg, i, resp.CostUSD, ref.PerRequestCost[i])
		}
	}
	if got := g.Stats().TotalCostUSD; math.Abs(got-ref.TotalCost) > 1e-12 {
		t.Fatalf("%v: total cost %v vs qsim %v", cfg, got, ref.TotalCost)
	}
}
