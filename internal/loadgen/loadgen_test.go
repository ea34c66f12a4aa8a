package loadgen

import (
	"testing"
	"time"

	"deepbat/internal/lambda"
)

func TestClosedLoopServesEverything(t *testing.T) {
	r, err := RunClosed(Config{
		Shards:   2,
		SLO:      1,
		Clients:  4,
		Requests: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Mode != "closed" || r.Shards != 2 {
		t.Fatalf("report header wrong: %+v", r)
	}
	if r.Served != 200 || r.Failed != 0 {
		t.Fatalf("served %d failed %d, want 200/0", r.Served, r.Failed)
	}
	if r.ThroughputRPS <= 0 || r.GoodputRPS <= 0 {
		t.Fatalf("non-positive rates: %+v", r)
	}
	if r.GoodputRPS > r.ThroughputRPS {
		t.Fatalf("goodput %v exceeds throughput %v", r.GoodputRPS, r.ThroughputRPS)
	}
	if r.TotalCostUSD <= 0 {
		t.Fatalf("no cost accounted: %+v", r)
	}
}

func TestClosedLoopDurationBound(t *testing.T) {
	r, err := RunClosed(Config{SLO: 1, Clients: 2, Duration: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if r.Served == 0 {
		t.Fatal("duration-bounded run served nothing")
	}
}

func TestOpenLoopDeterministic(t *testing.T) {
	cfg := Config{
		Initial:  lambda.Config{MemoryMB: 2048, BatchSize: 4, TimeoutS: 0.1},
		Shards:   4,
		SLO:      0.5,
		Requests: 500,
		RateRPS:  200,
		Seed:     42,
	}
	a, err := RunOpen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOpen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same-seed open-loop runs diverge:\n%+v\n%+v", a, b)
	}
	if a.Served+a.Failed != 500 || a.Failed != 0 {
		t.Fatalf("request conservation broken: %+v", a)
	}
	if a.GoodputRPS <= 0 {
		t.Fatalf("no goodput: %+v", a)
	}
}

func TestOpenLoopSweepConserves(t *testing.T) {
	for _, p := range []int{1, 2, 8} {
		r, err := RunOpen(Config{Shards: p, SLO: 1, Requests: 300, RateRPS: 1000, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if r.Served != 300 || r.Failed != 0 {
			t.Fatalf("P=%d: served %d failed %d, want 300/0", p, r.Served, r.Failed)
		}
		if r.Shards != p {
			t.Fatalf("P=%d: report says %d shards", p, r.Shards)
		}
	}
}

func TestOpenLoopFaultInjection(t *testing.T) {
	r, err := RunOpen(Config{SLO: 1, Requests: 400, RateRPS: 1000, Seed: 3, FaultErrorRate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed == 0 {
		t.Fatalf("error rate 0.5 produced no failures: %+v", r)
	}
	if r.Served+r.Failed != 400 {
		t.Fatalf("request conservation broken: %+v", r)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := RunClosed(Config{}); err == nil {
		t.Error("closed loop without budget should error")
	}
	if _, err := RunOpen(Config{Requests: 10}); err == nil {
		t.Error("open loop without rate should error")
	}
	if _, err := RunOpen(Config{RateRPS: 10}); err == nil {
		t.Error("open loop without requests should error")
	}
}
