package lambda

import "testing"

func TestBatcherCountOrTimeout(t *testing.T) {
	var b Batcher[string]
	if _, open := b.Deadline(); open || b.Due(1e9) {
		t.Fatal("zero Batcher has an open batch")
	}
	cfg := Config{MemoryMB: 2048, BatchSize: 3, TimeoutS: 0.5}
	if c := b.Add(1, cfg, "first"); c != CauseNone {
		t.Fatalf("opening arrival: cause %v", c)
	}
	// A reconfiguration while the batch is open applies to the next batch.
	next := Config{MemoryMB: 1024, BatchSize: 1, TimeoutS: 0}
	if c := b.Add(1.2, next, "second"); c != CauseNone {
		t.Fatalf("joining arrival: cause %v", c)
	}
	if d, open := b.Deadline(); !open || d != 1.5 {
		t.Fatalf("deadline = %v, %v; want 1.5, true", d, open)
	}
	if b.Due(1.4999) || !b.Due(1.5) {
		t.Fatal("window must be [t0, t0+T)")
	}
	if c := b.Add(1.3, next, "third"); c != CauseSize {
		t.Fatalf("B-th arrival: cause %v", c)
	}
	if h, n := b.Take(); h != "first" || n != 3 {
		t.Fatalf("Take = %q, %d; want the opening handle and 3 arrivals", h, n)
	}
	if _, open := b.Deadline(); open {
		t.Fatal("batch still open after Take")
	}
	if c := b.Add(2, next, "solo"); c != CauseImmediate {
		t.Fatalf("B = 1: cause %v, want immediate", c)
	}
	if h, n := b.Take(); h != "solo" || n != 1 {
		t.Fatalf("Take = %q, %d", h, n)
	}
	if c := b.Add(3, Config{MemoryMB: 2048, BatchSize: 8, TimeoutS: 0}, ""); c != CauseImmediate {
		t.Fatalf("T = 0: cause %v, want immediate", c)
	}
}
