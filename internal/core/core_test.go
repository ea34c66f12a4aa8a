package core

import (
	"testing"

	"deepbat/internal/lambda"
	"deepbat/internal/qsim"
	"deepbat/internal/trace"
)

func TestWorkloadParserWindow(t *testing.T) {
	p := NewWorkloadParser(3)
	if p.Full() {
		t.Fatal("fresh parser should not be full")
	}
	for i, ts := range []float64{1, 2, 4, 7, 11} {
		p.Observe(ts)
		if p.Seen() != i+1 {
			t.Fatalf("Seen = %d", p.Seen())
		}
	}
	if !p.Full() {
		t.Fatal("parser should be full after 5 observations")
	}
	w := p.Window()
	want := []float64{2, 3, 4} // last three gaps
	if len(w) != 3 {
		t.Fatalf("window length = %d", len(w))
	}
	for i := range want {
		if w[i] != want[i] {
			t.Fatalf("window = %v, want %v", w, want)
		}
	}
}

func TestWorkloadParserPartialWindow(t *testing.T) {
	p := NewWorkloadParser(10)
	p.Observe(1)
	p.Observe(3)
	w := p.Window()
	if len(w) != 1 || w[0] != 2 {
		t.Fatalf("partial window = %v", w)
	}
}

func TestWorkloadParserClampsNegativeGap(t *testing.T) {
	p := NewWorkloadParser(2)
	p.Observe(5)
	p.Observe(4) // out of order
	if w := p.Window(); w[0] != 0 {
		t.Fatalf("negative gap not clamped: %v", w)
	}
}

func TestParserPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWorkloadParser(0)
}

func TestEngineReplayStatic(t *testing.T) {
	tr := trace.MustGenerate(trace.Spec{Name: "twitter", Hours: 2, HourSeconds: 30, Seed: 11})
	eng := NewEngine(qsim.New(lambda.DefaultProfile(), lambda.DefaultPricing()))
	opts := DefaultReplayOptions(0.1)
	opts.PeriodS = 5
	cfg := lambda.Config{MemoryMB: 2048, BatchSize: 4, TimeoutS: 0.05}
	res, err := eng.Replay(tr.Timestamps, StaticDecider{Cfg: cfg}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decider != "Static" {
		t.Fatalf("decider name = %q", res.Decider)
	}
	total := 0
	for _, p := range res.Periods {
		total += p.Requests
		if p.Requests > 0 && p.Config != cfg {
			t.Fatalf("period config = %v", p.Config)
		}
	}
	if total != len(tr.Timestamps) {
		t.Fatalf("served %d of %d", total, len(tr.Timestamps))
	}
	if len(res.Latencies()) != total {
		t.Fatal("latency count mismatch")
	}
	if res.TotalCost() <= 0 || res.CostPerRequest() <= 0 {
		t.Fatal("cost accounting broken")
	}
	if got := res.VCR(); got < 0 || got > 100 {
		t.Fatalf("VCR = %v", got)
	}
}

func TestEngineReplayOracleBeatsBadStatic(t *testing.T) {
	tr := trace.MustGenerate(trace.Spec{Name: "twitter", Hours: 1, HourSeconds: 60, Seed: 12})
	sim := qsim.New(lambda.DefaultProfile(), lambda.DefaultPricing())
	eng := NewEngine(sim)
	opts := DefaultReplayOptions(0.1)
	opts.PeriodS = 10

	grid := lambda.Grid{
		Memories:  []float64{1024, 2048},
		Batches:   []int{1, 4, 8},
		TimeoutsS: []float64{0.02, 0.08},
	}
	oracle, err := eng.Replay(tr.Timestamps, NewOracleDecider(sim, grid, 0.1), opts)
	if err != nil {
		t.Fatal(err)
	}
	// A deliberately bad static config: tiny memory, big batch, long wait.
	bad := lambda.Config{MemoryMB: 512, BatchSize: 32, TimeoutS: 0.5}
	static, err := eng.Replay(tr.Timestamps, StaticDecider{Cfg: bad}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.VCR() >= static.VCR() && static.VCR() > 0 {
		t.Fatalf("oracle VCR %v should beat bad static %v", oracle.VCR(), static.VCR())
	}
	if oracle.Decisions == 0 {
		t.Fatal("oracle made no decisions")
	}
}

func TestEngineWindowVCR(t *testing.T) {
	tr := trace.MustGenerate(trace.Spec{Name: "twitter", Hours: 2, HourSeconds: 30, Seed: 13})
	eng := NewEngine(qsim.New(lambda.DefaultProfile(), lambda.DefaultPricing()))
	opts := DefaultReplayOptions(0.1)
	opts.PeriodS = 5
	cfg := lambda.Config{MemoryMB: 2048, BatchSize: 4, TimeoutS: 0.05}
	res, err := eng.Replay(tr.Timestamps, StaticDecider{Cfg: cfg}, opts)
	if err != nil {
		t.Fatal(err)
	}
	hourly := res.WindowVCR(30)
	if len(hourly) != 2 {
		t.Fatalf("hourly VCR buckets = %d, want 2", len(hourly))
	}
	if res.WindowVCR(0) != nil {
		t.Fatal("zero window should return nil")
	}
}

func TestEngineReplayErrors(t *testing.T) {
	eng := NewEngine(qsim.New(lambda.DefaultProfile(), lambda.DefaultPricing()))
	opts := DefaultReplayOptions(0.1)
	if _, err := eng.Replay(nil, StaticDecider{Cfg: opts.InitialConfig}, opts); err == nil {
		t.Fatal("expected error for empty trace")
	}
	bad := opts
	bad.PeriodS = 0
	if _, err := eng.Replay([]float64{1}, StaticDecider{Cfg: opts.InitialConfig}, bad); err == nil {
		t.Fatal("expected error for zero period")
	}
	bad = opts
	bad.InitialConfig = lambda.Config{}
	if _, err := eng.Replay([]float64{1}, StaticDecider{Cfg: opts.InitialConfig}, bad); err == nil {
		t.Fatal("expected error for invalid initial config")
	}
}

func TestDeciderKeepsConfigOnError(t *testing.T) {
	tr := trace.MustGenerate(trace.Spec{Name: "twitter", Hours: 1, HourSeconds: 20, Seed: 14})
	eng := NewEngine(qsim.New(lambda.DefaultProfile(), lambda.DefaultPricing()))
	opts := DefaultReplayOptions(0.1)
	opts.PeriodS = 5
	res, err := eng.Replay(tr.Timestamps, failingDecider{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.DecisionErrors == 0 {
		t.Fatal("expected decision errors")
	}
	for _, p := range res.Periods {
		if p.Requests > 0 && p.Config != opts.InitialConfig {
			t.Fatal("config changed despite decider errors")
		}
	}
}

type failingDecider struct{}

func (failingDecider) Name() string { return "Failing" }
func (failingDecider) Decide(_, _ []float64) (lambda.Config, error) {
	return lambda.Config{}, errTest
}

var errTest = errorString("test error")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestLookbackInterarrivals(t *testing.T) {
	arr := []float64{1, 2, 4, 8, 9, 9.5}
	// Lookback 6 s before t=9 (index 4): arrivals >= 3 -> {4, 8}.
	got := lookbackInterarrivals(arr, 4, 9, 6)
	if len(got) != 1 || got[0] != 4 {
		t.Fatalf("lookback = %v, want [4]", got)
	}
	// Too few points -> nil.
	if got := lookbackInterarrivals(arr, 1, 2, 1); got != nil {
		t.Fatalf("lookback = %v, want nil", got)
	}
}
