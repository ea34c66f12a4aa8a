// Package loadgen drives an in-process gateway with synthetic traffic and
// reports throughput, tail latency, and goodput — the SLO-satisfying
// request rate, which is the figure DeepBAT actually optimizes for (a
// gateway that answers fast but past its SLO earns no goodput).
//
// Two loops are provided. The closed loop runs C concurrent clients on the
// wall clock, each issuing its next request as soon as the previous one
// completes — the classic saturation benchmark, and the mode the
// loadgen-smoke CI check runs. The open loop replays a seeded Poisson
// arrival process on a manual clock, single-threaded and fully
// deterministic: the same seed produces byte-identical reports across runs
// and machines, which is what makes the shard-sweep tables reproducible.
//
// In keeping with the noprint rule, this package only returns Report
// values; rendering belongs to cmd/loadgen.
package loadgen

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"deepbat/internal/fault"
	"deepbat/internal/gateway"
	"deepbat/internal/lambda"
	"deepbat/internal/obs"
	"deepbat/internal/stats"
)

// Config parameterizes one load run against a fresh gateway.
type Config struct {
	// Initial is the serving configuration (zero value: 2048 MB, B=1).
	Initial lambda.Config
	// Shards is the gateway shard count (0 = 1; with P > 1, B counts per
	// shard).
	Shards int
	// SLO is the latency objective goodput is judged against, in seconds.
	SLO float64
	// Clients is the closed-loop concurrency (0 = 1).
	Clients int
	// Requests is the request budget: per client for the closed loop
	// (0 = until Duration), total for the open loop (required there).
	Requests int
	// Duration bounds the closed loop in wall time (0 = until Requests).
	// At least one of Requests/Duration must be set for the closed loop.
	Duration time.Duration
	// RateRPS is the open-loop Poisson arrival rate (required there).
	RateRPS float64
	// Seed drives the open-loop arrival process and any fault injection.
	Seed int64
	// FaultErrorRate injects backend failures at this rate (0 = none),
	// seeded by Seed, through a fault.FaultyBackend.
	FaultErrorRate float64
}

// Report is the outcome of one run. All latency figures are milliseconds on
// the gateway's clock (wall for closed loop, virtual for open loop).
type Report struct {
	Mode string `json:"mode"` // "closed" | "open"
	// Class labels per-class rows in fleet runs (empty for single-gateway
	// runs and for fleet totals).
	Class         string  `json:"class,omitempty"`
	Shards        int     `json:"shards"`
	Requests      int     `json:"requests"` // issued
	Served        int     `json:"served"`   // answered without error
	Failed        int     `json:"failed"`   // answered with an error
	ElapsedS      float64 `json:"elapsed_s"`
	ThroughputRPS float64 `json:"throughput_rps"` // served / elapsed
	GoodputRPS    float64 `json:"goodput_rps"`    // served within SLO / elapsed
	P50MS         float64 `json:"p50_ms"`
	P95MS         float64 `json:"p95_ms"`
	P99MS         float64 `json:"p99_ms"`
	TotalCostUSD  float64 `json:"total_cost_usd"`
}

func (c Config) initial() lambda.Config {
	if c.Initial.Valid() {
		return c.Initial
	}
	return lambda.Config{MemoryMB: 2048, BatchSize: 1, TimeoutS: 0}
}

// build constructs the gateway under test on the given clock.
func (c Config) build(clock obs.Clock, initial lambda.Config) (*gateway.Gateway, error) {
	var backend gateway.Backend = gateway.SimulatedBackend{
		Profile: lambda.DefaultProfile(),
		Pricing: lambda.DefaultPricing(),
	}
	if c.FaultErrorRate > 0 {
		backend = &fault.FaultyBackend{
			Inner: backend,
			Inj:   fault.NewInjector(fault.Plan{Seed: c.Seed, ErrorRate: c.FaultErrorRate}),
		}
	}
	return gateway.New(backend, nil, gateway.Config{
		Initial: initial,
		SLO:     c.SLO,
		Clock:   clock,
		Shards:  c.Shards,
	})
}

// tally folds one run's responses into the report skeleton.
type tally struct {
	latMS  []float64
	served int
	failed int
	good   int
}

// observe runs once per response on the driver goroutine, between a
// request completing and the next being issued — measurement overhead that
// must not pollute the latencies it records.
//
//deepbat:hotpath
func (t *tally) observe(resp gateway.Response, sloMS float64) {
	if resp.Error != "" {
		t.failed++
		return
	}
	t.served++
	//lint:allow hotpath-alloc amortized growth of the per-run latency sample; doubling keeps steady-state appends in-capacity
	t.latMS = append(t.latMS, resp.LatencyMS)
	if sloMS <= 0 || resp.LatencyMS <= sloMS {
		t.good++
	}
}

func (t *tally) report(mode string, c Config, shards int, elapsedS, costUSD float64) Report {
	r := Report{
		Mode:         mode,
		Shards:       shards,
		Requests:     t.served + t.failed,
		Served:       t.served,
		Failed:       t.failed,
		ElapsedS:     elapsedS,
		TotalCostUSD: costUSD,
	}
	if elapsedS > 0 {
		r.ThroughputRPS = float64(t.served) / elapsedS
		r.GoodputRPS = float64(t.good) / elapsedS
	}
	r.P50MS, _ = stats.Percentile(t.latMS, 50)
	r.P95MS, _ = stats.Percentile(t.latMS, 95)
	r.P99MS, _ = stats.Percentile(t.latMS, 99)
	return r
}

// RunClosed runs the closed loop: Clients workers on the wall clock, each
// issuing its next request the moment the previous one returns, until the
// per-client request budget or the duration budget is exhausted.
func RunClosed(c Config) (Report, error) {
	if c.Requests <= 0 && c.Duration <= 0 {
		return Report{}, errors.New("loadgen: closed loop needs Requests or Duration")
	}
	clients := c.Clients
	if clients <= 0 {
		clients = 1
	}
	g, err := c.build(nil, c.initial())
	if err != nil {
		return Report{}, fmt.Errorf("loadgen: %w", err)
	}
	var deadline time.Time
	if c.Duration > 0 {
		deadline = time.Now().Add(c.Duration)
	}
	// Per-worker tallies, merged in worker order after the join.
	parts := make([]tally, clients)
	sloMS := c.SLO * 1000
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for n := 0; c.Requests <= 0 || n < c.Requests; n++ {
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				t.observe(g.Do(), sloMS)
			}
		}(&parts[w])
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	g.Stop()
	var merged tally
	for i := range parts {
		merged.latMS = append(merged.latMS, parts[i].latMS...)
		merged.served += parts[i].served
		merged.failed += parts[i].failed
		merged.good += parts[i].good
	}
	return merged.report("closed", c, g.Shards(), elapsed, g.Stats().TotalCostUSD), nil
}

// RunOpen replays a seeded Poisson arrival process on a manual clock:
// Requests arrivals at RateRPS, submitted single-threaded in arrival order,
// with batches dispatching synchronously by size and the final partial
// batch flushed at Stop. The run is fully deterministic — same Config,
// same Report — across runs, machines, and GOMAXPROCS values, which is
// what makes shard-sweep tables comparable.
func RunOpen(c Config) (Report, error) {
	if c.Requests <= 0 {
		return Report{}, errors.New("loadgen: open loop needs Requests")
	}
	if c.RateRPS <= 0 {
		return Report{}, errors.New("loadgen: open loop needs RateRPS")
	}
	initial := c.initial()
	if initial.BatchSize > 1 {
		// Virtual time cannot drive wall-clock batch timers; park the
		// timeout far out so dispatch is by size (plus the Stop flush),
		// keeping the run deterministic.
		initial.TimeoutS = 3600
	}
	clock := &obs.ManualClock{}
	g, err := c.build(clock, initial)
	if err != nil {
		return Report{}, fmt.Errorf("loadgen: %w", err)
	}
	rng := rand.New(rand.NewSource(c.Seed))
	handles := make([]gateway.Handle, 0, c.Requests)
	for i := 0; i < c.Requests; i++ {
		if i > 0 {
			clock.Advance(rng.ExpFloat64() / c.RateRPS)
		}
		handles = append(handles, g.Submit())
	}
	elapsed := clock.Now()
	g.Stop() // flush partial batches
	var merged tally
	sloMS := c.SLO * 1000
	for _, h := range handles {
		merged.observe(h.Wait(), sloMS)
	}
	if elapsed <= 0 {
		// Degenerate single-arrival runs: report over one interarrival so
		// rates stay finite.
		elapsed = 1 / c.RateRPS
	}
	return merged.report("open", c, g.Shards(), elapsed, g.Stats().TotalCostUSD), nil
}
