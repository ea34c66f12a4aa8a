package gateway_test

import (
	"testing"
	"time"

	"deepbat/internal/gateway"
	"deepbat/internal/lambda"
	"deepbat/internal/obs"
)

// instantBackend returns immediately with a fixed duration and cost, so
// virtual-timer tests control time exclusively through the manual clock.
type instantBackend struct{}

func (instantBackend) Execute(cfg lambda.Config, batchSize int) (time.Duration, float64, error) {
	return 10 * time.Millisecond, 1e-6 * float64(batchSize), nil
}

func newVirtualGateway(t *testing.T, clock *obs.ManualClock, cfg lambda.Config) *gateway.Gateway {
	t.Helper()
	g, err := gateway.New(instantBackend{}, nil, gateway.Config{
		Initial:       cfg,
		Clock:         clock,
		Shards:        1,
		VirtualTimers: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestVirtualTimerFlushDue drives the full virtual-timeout lifecycle: a
// partial batch opens a virtual deadline at open-stamp + T, FlushDue is a
// no-op before the deadline, and at the deadline it dispatches the batch
// with timeout accounting — all without any wall timer.
func TestVirtualTimerFlushDue(t *testing.T) {
	clock := &obs.ManualClock{}
	g := newVirtualGateway(t, clock, lambda.Config{MemoryMB: 2048, BatchSize: 4, TimeoutS: 2})
	defer g.Stop()

	if _, ok := g.NextFlushDeadline(); ok {
		t.Fatal("deadline reported with no open batch")
	}
	clock.Set(1)
	h1 := g.Submit()
	h2 := g.Submit()
	d, ok := g.NextFlushDeadline()
	if !ok {
		t.Fatal("open partial batch reported no deadline")
	}
	if d < 2.999 || d > 3.001 {
		t.Fatalf("deadline = %v, want open stamp 1 + T 2 = 3", d)
	}

	clock.Set(2.5)
	if n := g.FlushDue(); n != 0 {
		t.Fatalf("FlushDue before the deadline dispatched %d batches", n)
	}
	clock.Set(d)
	if n := g.FlushDue(); n != 1 {
		t.Fatalf("FlushDue at the deadline dispatched %d batches, want 1", n)
	}
	r1, r2 := h1.Wait(), h2.Wait()
	if r1.BatchSize != 2 || r2.BatchSize != 2 {
		t.Fatalf("batch sizes %d/%d, want 2/2", r1.BatchSize, r2.BatchSize)
	}
	// Latency for the first request: dispatched at 3, served after the
	// 10ms backend -> 2s of batching delay on the virtual clock (the
	// manual clock is not advanced by the instant backend).
	if r1.LatencyMS < 1999 || r1.LatencyMS > 2001 {
		t.Fatalf("first request latency %.3fms, want ~2000ms", r1.LatencyMS)
	}
	if _, ok := g.NextFlushDeadline(); ok {
		t.Fatal("deadline still reported after the flush")
	}
}

// TestVirtualTimerSizeDispatchClearsDeadline pins that a size-triggered
// dispatch cancels the batch's virtual deadline just as Timer.Stop cancels
// the wall timer.
func TestVirtualTimerSizeDispatchClearsDeadline(t *testing.T) {
	clock := &obs.ManualClock{}
	g := newVirtualGateway(t, clock, lambda.Config{MemoryMB: 2048, BatchSize: 2, TimeoutS: 5})
	defer g.Stop()

	h1 := g.Submit()
	if _, ok := g.NextFlushDeadline(); !ok {
		t.Fatal("no deadline for the open batch")
	}
	h2 := g.Submit() // fills the batch: synchronous size dispatch
	if r := h2.Wait(); r.BatchSize != 2 {
		t.Fatalf("batch size %d, want 2", r.BatchSize)
	}
	h1.Wait()
	if _, ok := g.NextFlushDeadline(); ok {
		t.Fatal("stale deadline survived the size dispatch")
	}
	clock.Set(100)
	if n := g.FlushDue(); n != 0 {
		t.Fatalf("FlushDue flushed %d batches after a size dispatch", n)
	}
}

// TestVirtualTimersStopStillFlushes pins that Stop's closing flush drains a
// partial batch whose virtual deadline never arrived.
func TestVirtualTimersStopStillFlushes(t *testing.T) {
	clock := &obs.ManualClock{}
	g := newVirtualGateway(t, clock, lambda.Config{MemoryMB: 2048, BatchSize: 8, TimeoutS: 60})
	h := g.Submit()
	g.Stop()
	if r := h.Wait(); r.Error != "" || r.BatchSize != 1 {
		t.Fatalf("stop flush response = %+v", r)
	}
}

// TestReconfigureAppliesToNextBatch pins when a new (M, B, T) takes effect:
// the open batch keeps the parameters it opened under (its B and its
// timeout deadline), the next batch uses the new ones, and an invalid
// configuration is rejected without touching the active one.
func TestReconfigureAppliesToNextBatch(t *testing.T) {
	clock := &obs.ManualClock{}
	old := lambda.Config{MemoryMB: 2048, BatchSize: 3, TimeoutS: 1}
	g := newVirtualGateway(t, clock, old)
	defer g.Stop()

	h1 := g.Submit()
	next := lambda.Config{MemoryMB: 1024, BatchSize: 1, TimeoutS: 0.1}
	if err := g.Reconfigure(next); err != nil {
		t.Fatal(err)
	}
	if err := g.Reconfigure(lambda.Config{}); err == nil {
		t.Fatal("invalid configuration accepted")
	}
	if g.Config() != next {
		t.Fatalf("active config = %v, want %v", g.Config(), next)
	}

	clock.Set(0.2)
	h2 := g.Submit() // joins the open B=3 batch instead of dispatching alone
	if d, ok := g.NextFlushDeadline(); !ok || d != 1 {
		t.Fatalf("open batch deadline = %v (ok=%v), want the old T's 1", d, ok)
	}
	clock.Set(1)
	if n := g.FlushDue(); n != 1 {
		t.Fatalf("FlushDue dispatched %d batches, want 1", n)
	}
	for i, h := range []gateway.Handle{h1, h2} {
		if r := h.Wait(); r.BatchSize != 2 || r.Config != old.String() {
			t.Fatalf("request %d served as %+v, want a batch of 2 under %s", i, r, old)
		}
	}

	clock.Set(2)
	if r := g.Do(); r.BatchSize != 1 || r.Config != next.String() {
		t.Fatalf("next batch served as %+v, want B=1 under %s", r, next)
	}
}
