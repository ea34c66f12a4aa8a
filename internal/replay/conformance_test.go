package replay

import (
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
// cost, for the same trace and static configuration.
func TestGatewayMatchesQsimWithStaticConfig(t *testing.T) {
	tr := trace.MustGenerate(trace.Spec{Name: "twitter", Hours: 1, HourSeconds: 30, Seed: 9})
	profile, pricing := lambda.DefaultProfile(), lambda.DefaultPricing()
	sim := qsim.New(profile, pricing)
	for _, cfg := range []lambda.Config{
		{MemoryMB: 2048, BatchSize: 4, TimeoutS: 0.05},
		{MemoryMB: 1024, BatchSize: 8, TimeoutS: 0.2},
		{MemoryMB: 3008, BatchSize: 1, TimeoutS: 0},
	} {
		ref, err := sim.Run(tr.Timestamps, cfg)
		if err != nil {
			t.Fatal(err)
		}
		clock := &obs.ManualClock{}
		backend := clockBackend{inner: gateway.SimulatedBackend{Profile: profile, Pricing: pricing}, clock: clock}
		g, err := gateway.New(backend, nil, gateway.Config{Initial: cfg, Clock: clock, VirtualTimers: true})
		if err != nil {
			t.Fatal(err)
		}
		handles := make([]gateway.Handle, len(tr.Timestamps))
		for i, at := range tr.Timestamps {
			flushUntil(g, clock, at)
			clock.Set(at)
			handles[i] = g.Submit()
		}
		// qsim dispatches the trailing partial batch at its timeout.
		flushUntil(g, clock, math.Inf(1))
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
}
