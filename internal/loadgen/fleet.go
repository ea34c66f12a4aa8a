// The fleet open loop: one seeded Poisson process per plan class, k-way
// merged into a single arrival stream and driven through the fleet front
// door on a manual clock. Per-class goodput is judged against each class's
// own SLO — the multi-SLO figure the fleet experiment tabulates.
package loadgen

import (
	"errors"
	"fmt"
	"math/rand"

	"deepbat/internal/fleet"
	"deepbat/internal/gateway"
	"deepbat/internal/obs"
	"deepbat/internal/sweep"
)

// FleetResult is the outcome of one fleet open-loop run: one report per plan
// class (in plan order) plus the fleet-wide total.
type FleetResult struct {
	PerClass []Report `json:"per_class"`
	Total    Report   `json:"total"`
}

// RunFleetOpen drives a fleet with per-class Poisson arrivals on a manual
// clock. Each class i draws interarrivals at its plan RateRPS from its own
// rng seeded sweep.CellSeed(c.Seed, i); the streams are merged by arrival
// time (ties to the lower class index) and submitted single-threaded, with
// due batch timeouts flushed in virtual time before each arrival. The run is
// fully deterministic: same plan + Config, byte-identical FleetResult.
//
// Config fields used: Requests (total across classes, required), Seed, and
// Assignment-free plan defaults; Clients, Duration, RateRPS and
// FaultErrorRate do not apply to the fleet loop.
func RunFleetOpen(p fleet.Plan, c Config) (FleetResult, error) {
	if c.Requests <= 0 {
		return FleetResult{}, errors.New("loadgen: fleet open loop needs Requests")
	}
	if err := p.Validate(); err != nil {
		return FleetResult{}, fmt.Errorf("loadgen: %w", err)
	}
	anyRate := false
	for _, spec := range p.Classes {
		if spec.RateRPS > 0 {
			anyRate = true
		}
	}
	if !anyRate {
		return FleetResult{}, errors.New("loadgen: fleet open loop needs at least one class with rate_rps > 0")
	}
	clock := &obs.ManualClock{}
	f, err := fleet.New(p, fleet.Options{Clock: clock, VirtualTimers: true})
	if err != nil {
		return FleetResult{}, fmt.Errorf("loadgen: %w", err)
	}

	// Per-class next-arrival heads; +Inf-free: idle classes get ok=false.
	n := len(p.Classes)
	rngs := make([]*rand.Rand, n)
	next := make([]float64, n)
	live := make([]bool, n)
	for i, spec := range p.Classes {
		if spec.RateRPS <= 0 {
			continue
		}
		rngs[i] = rand.New(rand.NewSource(sweep.CellSeed(c.Seed, i)))
		next[i] = rngs[i].ExpFloat64() / spec.RateRPS
		live[i] = true
	}
	handles := make([]gateway.Handle, 0, c.Requests)
	classes := make([]int, 0, c.Requests)
	for issued := 0; issued < c.Requests; issued++ {
		ci := -1
		for i := 0; i < n; i++ {
			if live[i] && (ci < 0 || next[i] < next[ci]) {
				ci = i
			}
		}
		at := next[ci]
		flushFleetUntil(f, clock, at)
		clock.Set(at)
		handles = append(handles, f.Submit(ci))
		classes = append(classes, ci)
		next[ci] = at + rngs[ci].ExpFloat64()/p.Classes[ci].RateRPS
	}
	elapsed := clock.Now()
	f.Stop() // flush partial batches

	parts := make([]tally, n)
	costs := make([]float64, n)
	var total tally
	for i, h := range handles {
		resp := h.Wait()
		ci := classes[i]
		parts[ci].observe(resp, p.Classes[ci].SLO*1000)
		total.observe(resp, p.Classes[ci].SLO*1000)
		if resp.Error == "" {
			costs[ci] += resp.CostUSD
		}
	}
	if elapsed <= 0 {
		elapsed = 1
	}
	res := FleetResult{}
	for ci := range parts {
		r := parts[ci].report("open", c, f.GatewayFor(ci).Shards(), elapsed, costs[ci])
		r.Class = p.Classes[ci].Name
		res.PerClass = append(res.PerClass, r)
	}
	res.Total = total.report("open", c, 0, elapsed, f.Stats().TotalCostUSD)
	return res, nil
}

// flushFleetUntil dispatches every virtual batch timeout due at or before t,
// in deadline order across the fleet's groups.
func flushFleetUntil(f *fleet.Fleet, clock *obs.ManualClock, t float64) {
	for {
		d, ok := f.NextFlushDeadline()
		if !ok || d > t {
			return
		}
		clock.Set(d)
		f.FlushDue()
	}
}
