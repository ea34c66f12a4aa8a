package gateway

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"deepbat/internal/lambda"
	"deepbat/internal/obs"
)

// scrapeProm GETs /metrics and parses the Prometheus text format into a
// sample map (metric name, or name_bucket{le="..."} key, to value) plus the
// set of TYPE declarations.
func scrapeProm(t *testing.T, url string) (map[string]float64, map[string]string) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	samples := make(map[string]float64)
	types := make(map[string]string)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			types[fields[2]] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndex(line, " ")
		if idx < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[idx+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		samples[line[:idx]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples, types
}

func TestMetricsEndpointScrapes(t *testing.T) {
	g, err := New(fastBackend(), nil, Config{
		Initial: lambda.Config{MemoryMB: 2048, BatchSize: 1, TimeoutS: 0},
		SLO:     0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	const n = 5
	for i := 0; i < n; i++ {
		postInfer(t, srv.URL)
	}
	samples, types := scrapeProm(t, srv.URL)

	if got := samples["gateway_requests_total"]; got != n {
		t.Fatalf("gateway_requests_total = %v, want %d", got, n)
	}
	if got := samples["gateway_dispatch_immediate_total"]; got != n {
		t.Fatalf("gateway_dispatch_immediate_total = %v, want %d", got, n)
	}
	if got := samples["gateway_request_latency_seconds_count"]; got != n {
		t.Fatalf("latency histogram count = %v, want %d", got, n)
	}
	if samples["gateway_cost_usd_total"] <= 0 {
		t.Fatal("no cost recorded")
	}
	if got := samples["gateway_config_batch_size"]; got != 1 {
		t.Fatalf("gateway_config_batch_size = %v", got)
	}
	if types["gateway_requests_total"] != "counter" ||
		types["gateway_request_latency_seconds"] != "histogram" ||
		types["gateway_config_memory_mb"] != "gauge" {
		t.Fatalf("TYPE declarations wrong: %v", types)
	}
	// The +Inf bucket must equal the histogram count.
	inf := samples[`gateway_request_latency_seconds_bucket{le="+Inf"}`]
	if inf != samples["gateway_request_latency_seconds_count"] {
		t.Fatalf("+Inf bucket %v != count %v", inf, samples["gateway_request_latency_seconds_count"])
	}
}

func TestDispatchCauseCounters(t *testing.T) {
	// Size-triggered: B=2, long timeout.
	g, err := New(fastBackend(), nil, Config{
		Initial: lambda.Config{MemoryMB: 2048, BatchSize: 2, TimeoutS: 5},
		SLO:     0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	srv := httptest.NewServer(g.Handler())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); postInfer(t, srv.URL) }()
	}
	wg.Wait()
	samples, _ := scrapeProm(t, srv.URL)
	srv.Close()
	if got := samples["gateway_dispatch_size_total"]; got != 1 {
		t.Fatalf("gateway_dispatch_size_total = %v, want 1", got)
	}

	// Timeout-triggered: B=8, short timeout, single request.
	g2, err := New(fastBackend(), nil, Config{
		Initial: lambda.Config{MemoryMB: 2048, BatchSize: 8, TimeoutS: 0.02},
		SLO:     0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Stop()
	srv2 := httptest.NewServer(g2.Handler())
	postInfer(t, srv2.URL)
	samples2, _ := scrapeProm(t, srv2.URL)
	srv2.Close()
	if got := samples2["gateway_dispatch_timeout_total"]; got != 1 {
		t.Fatalf("gateway_dispatch_timeout_total = %v, want 1", got)
	}

	// Flush-triggered: Stop drains the open batch.
	g3, err := New(fastBackend(), nil, Config{
		Initial: lambda.Config{MemoryMB: 2048, BatchSize: 8, TimeoutS: 30},
		SLO:     0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := g3.Submit()
	g3.Stop()
	h.Wait()
	c, err := g3.Obs().Counter("gateway_dispatch_flush_total", "")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Value(); got != 1 {
		t.Fatalf("gateway_dispatch_flush_total = %v, want 1", got)
	}
}

func TestViolationCounterAndReconfigEvents(t *testing.T) {
	target := lambda.Config{MemoryMB: 1024, BatchSize: 2, TimeoutS: 0.01}
	decide := func(window []float64) (lambda.Config, error) { return target, nil }
	g, err := New(fastBackend(), decide, Config{
		// TimeoutS forces ~20ms buffering, far above the 1µs SLO below, so
		// every request violates.
		Initial:     lambda.Config{MemoryMB: 2048, BatchSize: 8, TimeoutS: 0.02},
		SLO:         1e-6,
		DecideEvery: 10 * time.Millisecond,
		WindowLen:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	for i := 0; i < 3; i++ {
		postInfer(t, srv.URL)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && g.Config() != target {
		time.Sleep(5 * time.Millisecond)
	}
	if g.Config() != target {
		t.Fatal("gateway never reconfigured")
	}

	v, err := g.Obs().Counter("gateway_slo_violations_total", "")
	if err != nil {
		t.Fatal(err)
	}
	if v.Value() < 3 {
		t.Fatalf("violations = %v, want >= 3", v.Value())
	}
	var reconf int
	for _, e := range g.Events().Events() {
		if e.Name == "reconfigure" {
			reconf++
			if len(e.Attrs) != 2 || e.Attrs[0].Key != "from" || e.Attrs[1].Key != "to" {
				t.Fatalf("reconfigure event attrs = %+v", e.Attrs)
			}
		}
	}
	if reconf == 0 {
		t.Fatal("no reconfigure event recorded")
	}
	r, err := g.Obs().Counter("gateway_reconfigurations_total", "")
	if err != nil {
		t.Fatal(err)
	}
	if int(r.Value()) != reconf {
		t.Fatalf("reconfig counter %v != events %d", r.Value(), reconf)
	}
}

func TestMetricsJSONEndpoint(t *testing.T) {
	g, err := New(fastBackend(), nil, Config{
		Initial: lambda.Config{MemoryMB: 2048, BatchSize: 1, TimeoutS: 0},
		SLO:     0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	postInfer(t, srv.URL)

	resp, err := http.Get(srv.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Metrics obs.Snapshot `json:"metrics"`
		Events  []obs.Event  `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range doc.Metrics.Series {
		if s.Name == "gateway_requests_total" && s.Value == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("snapshot missing gateway_requests_total=1: %+v", doc.Metrics.Series)
	}
}

// TestInjectedRegistryCollisionErrors pins the no-panic contract: a second
// gateway on the same registry re-uses the same series (get-or-create), but
// a registry where a gateway name is already taken by another kind must
// surface an error from New.
func TestInjectedRegistryCollisionErrors(t *testing.T) {
	reg := obs.NewRegistry()
	if _, err := reg.Gauge("gateway_requests_total", ""); err != nil {
		t.Fatal(err)
	}
	_, err := New(fastBackend(), nil, Config{
		Initial: lambda.Config{MemoryMB: 2048, BatchSize: 1, TimeoutS: 0},
		SLO:     0.1,
		Obs:     reg,
	})
	if err == nil {
		t.Fatal("New did not propagate the registration collision")
	}
}

// gatewayLifecycle runs one full Start→traffic→scrape→Stop cycle, returning
// only after Stop has joined everything.
func gatewayLifecycle(t *testing.T) {
	t.Helper()
	decide := func(window []float64) (lambda.Config, error) {
		return lambda.Config{MemoryMB: 2048, BatchSize: 2, TimeoutS: 0.005}, nil
	}
	g, err := New(fastBackend(), decide, Config{
		Initial:     lambda.Config{MemoryMB: 2048, BatchSize: 4, TimeoutS: 0.005},
		SLO:         0.1,
		DecideEvery: 5 * time.Millisecond,
		WindowLen:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g.Handler())
	var wg sync.WaitGroup
	for j := 0; j < 8; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/infer", "application/json", nil)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	// Scrape /metrics mid-run, while batch timers and the control loop are
	// live, and check it parses.
	samples, types := scrapeProm(t, srv.URL)
	if len(samples) == 0 || types["gateway_requests_total"] != "counter" {
		t.Fatalf("mid-run scrape failed: %d samples", len(samples))
	}
	wg.Wait()
	srv.Close() // drain handlers before stopping the gateway
	g.Stop()
	g.Stop() // idempotent
}

// TestStartStopJoinsAllGoroutines is the goroutine-leak regression test for
// the gateway lifecycle: after Stop returns, the control loop, every batch
// timer, and every batch-execution goroutine must be gone. Several cycles
// run back-to-back so a single leaked goroutine per cycle shows up as a
// monotone drift over the baseline.
func TestStartStopJoinsAllGoroutines(t *testing.T) {
	// Let goroutines from other tests settle first.
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		gatewayLifecycle(t)
	}
	// HTTP client/server helpers may take a moment to wind down; poll.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
		baseline, runtime.NumGoroutine(), buf[:n])
}
