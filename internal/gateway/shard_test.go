package gateway

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deepbat/internal/lambda"
)

// immediateConfig is the B = 1 steady-state serving configuration the pooled
// admit-path tests run under: every Submit dispatches synchronously.
func immediateConfig(shards int) Config {
	return Config{
		Initial: lambda.Config{MemoryMB: 2048, BatchSize: 1, TimeoutS: 0},
		SLO:     0.1,
		Shards:  shards,
	}
}

// TestShardOfFrozen pins the hash: shardOf is a pure function of the request
// ID and the published splitmix64 constants, so these routings must never
// change — a silent change would re-route live traffic and break the
// reproducibility contract of the loadgen sweep tables.
func TestShardOfFrozen(t *testing.T) {
	frozen := map[int][]int{
		2: {1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 0, 1, 1},
		4: {1, 2, 1, 2, 2, 0, 3, 2, 0, 2, 1, 3, 3, 2, 1, 3},
		8: {1, 6, 5, 2, 2, 0, 7, 6, 4, 2, 5, 3, 7, 6, 5, 7},
	}
	for p, want := range frozen {
		for i, w := range want {
			if got := shardOf(uint64(i+1), p); got != w {
				t.Errorf("shardOf(%d, %d) = %d, want %d", i+1, p, got, w)
			}
		}
	}
}

// TestShardOfIgnoresGOMAXPROCS proves routing is independent of the
// scheduler configuration: the same IDs map to the same shards whatever
// GOMAXPROCS is while the process runs.
func TestShardOfIgnoresGOMAXPROCS(t *testing.T) {
	const shards = 8
	baseline := make([]int, 256)
	for id := range baseline {
		baseline[id] = shardOf(uint64(id), shards)
	}
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for id := range baseline {
			if got := shardOf(uint64(id), shards); got != baseline[id] {
				t.Fatalf("GOMAXPROCS=%d: shardOf(%d, %d) = %d, want %d",
					procs, id, shards, got, baseline[id])
			}
		}
	}
}

// TestShardOfCoversAllShards checks the hash actually spreads: over a modest
// ID range every shard receives traffic, and single-shard routing is always
// shard 0.
func TestShardOfCoversAllShards(t *testing.T) {
	for _, p := range []int{2, 3, 5, 8} {
		hit := make([]int, p)
		for id := uint64(1); id <= 4096; id++ {
			hit[shardOf(id, p)]++
		}
		for sh, n := range hit {
			if n == 0 {
				t.Errorf("P=%d: shard %d received no traffic over 4096 ids", p, sh)
			}
		}
	}
	for id := uint64(0); id < 1000; id++ {
		if shardOf(id, 1) != 0 {
			t.Fatalf("shardOf(%d, 1) != 0", id)
		}
	}
}

// TestDoZeroAllocSteadyState is the tentpole acceptance check in test form:
// once the pools are warm, a full admit→enqueue→dispatch→respond cycle on
// the pooled path performs zero heap allocations.
func TestDoZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	for _, shards := range []int{1, 4} {
		g, err := New(fastBackend(), nil, immediateConfig(shards))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			g.Do() // warm the per-shard pools
		}
		allocs := testing.AllocsPerRun(1000, func() {
			if resp := g.Do(); resp.Error != "" {
				t.Fatalf("request failed: %s", resp.Error)
			}
		})
		g.Stop()
		if allocs != 0 {
			t.Errorf("P=%d: Do allocates %.1f objects/op at steady state, want 0", shards, allocs)
		}
	}
}

// TestPooledResponsesNeverAlias hammers the pooled path from concurrent
// clients and checks conservation and identity: every response carries the
// ID of a real request, no ID is answered twice, and the merged Stats agree
// with the totals. Run with -tags poolcheck (make race does) for the
// poison-on-put variant of the same guarantee.
func TestPooledResponsesNeverAlias(t *testing.T) {
	const clients, perClient = 8, 200
	g, err := New(fastBackend(), nil, immediateConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(chan int, clients*perClient)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp := g.Do()
				if resp.Error != "" {
					t.Errorf("request failed: %s", resp.Error)
					return
				}
				seen <- resp.ID
			}
		}()
	}
	wg.Wait()
	g.Stop()
	close(seen)
	ids := make(map[int]bool)
	for id := range seen {
		if id < 1 || id > clients*perClient {
			t.Fatalf("response carries impossible id %d", id)
		}
		if ids[id] {
			t.Fatalf("id %d answered twice — recycled waiter aliased a previous request", id)
		}
		ids[id] = true
	}
	if len(ids) != clients*perClient {
		t.Fatalf("answered %d distinct requests, want %d", len(ids), clients*perClient)
	}
	if st := g.Stats(); st.Served != clients*perClient {
		t.Fatalf("Stats.Served = %d, want %d", st.Served, clients*perClient)
	}
}

// TestPoolsRecycleWaiters is the white-box half of the pool story: after
// traffic drains, the shards hold recycled waiters (the steady state reuses
// instead of allocating), and the free-lists never exceed their bounds.
func TestPoolsRecycleWaiters(t *testing.T) {
	g, err := New(fastBackend(), nil, immediateConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	for i := 0; i < 100; i++ {
		g.Do()
	}
	recycled := 0
	for _, s := range g.shards {
		s.mu.Lock()
		recycled += len(s.freeW)
		if s.freeSlot.Load() != nil {
			// A serial request loop parks its waiter in the lock-free
			// exchange slot rather than the list.
			recycled++
		}
		if len(s.freeW) > maxFreeWaiters || len(s.freeB) > maxFreeBatches {
			t.Errorf("shard %d free-lists exceed bounds: %d waiters, %d batches",
				s.idx, len(s.freeW), len(s.freeB))
		}
		s.mu.Unlock()
	}
	if recycled == 0 {
		t.Fatal("no waiters recycled after 100 pooled requests")
	}
}

// TestPerShardBreakerIsolation drives one shard's breaker open and checks
// isolation semantics: the open shard sheds to the fallback configuration
// while other shards keep serving the active one, and the merged state
// reported by Breaker()/Stats is Open as long as any shard is open.
func TestPerShardBreakerIsolation(t *testing.T) {
	fallback := lambda.Config{MemoryMB: 512, BatchSize: 1, TimeoutS: 0}
	fb := &flakyBackend{inner: fastBackend()}
	g, err := New(fb, nil, Config{
		Initial: lambda.Config{MemoryMB: 2048, BatchSize: 1, TimeoutS: 0},
		SLO:     0.1,
		Shards:  2,
		Resilience: Resilience{
			BreakerThreshold: 1,
			BreakerCooldownS: 1e9, // never half-opens during the test
			Fallback:         fallback,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()

	// IDs are assigned sequentially from 1; precompute each one's route.
	route := func(id int) int { return shardOf(uint64(id), 2) }
	next := 1
	// Fail exactly one request routed to shard 0 — its breaker (threshold
	// 1, no retries) opens.
	for route(next) != 0 {
		g.Do()
		next++
	}
	fb.fail.Store(true)
	if resp := g.Do(); resp.Error == "" {
		t.Fatal("expected the tripping request to fail")
	}
	fb.fail.Store(false)
	next++

	if got := g.Breaker(); got != BreakerOpen {
		t.Fatalf("merged breaker = %v, want open", got)
	}
	if st := g.Stats(); st.BreakerState != "open" || st.BreakerOpens != 1 {
		t.Fatalf("stats breaker = %q opens = %d, want open/1", st.BreakerState, st.BreakerOpens)
	}
	if s1 := g.shards[1]; BreakerState(s1.brMirror.Load()) != BreakerClosed {
		t.Fatal("shard 1's breaker tripped from shard 0's failures")
	}

	// Shard 1 still serves the active configuration; shard 0 sheds to the
	// fallback.
	sawActive, sawShed := false, false
	for i := 0; i < 16 && !(sawActive && sawShed); i++ {
		sh := route(next)
		resp := g.Do()
		next++
		if resp.Error != "" {
			t.Fatalf("request on shard %d failed: %s", sh, resp.Error)
		}
		switch sh {
		case 0:
			if resp.Config != fallback.String() {
				t.Fatalf("open shard served %q, want fallback %q", resp.Config, fallback.String())
			}
			sawShed = true
		case 1:
			if resp.Config != g.initial.str {
				t.Fatalf("healthy shard served %q, want active %q", resp.Config, g.initial.str)
			}
			sawActive = true
		}
	}
	if !sawActive || !sawShed {
		t.Fatalf("route coverage incomplete: active=%v shed=%v", sawActive, sawShed)
	}
}

// flakyBackend fails invocations while fail is set.
type flakyBackend struct {
	inner SimulatedBackend
	fail  atomic.Bool
}

func (f *flakyBackend) Execute(cfg lambda.Config, batchSize int) (time.Duration, float64, error) {
	if f.fail.Load() {
		return 0, 0, ErrBackendFailed
	}
	return f.inner.Execute(cfg, batchSize)
}

// TestMultiShardTimersFlushIndependently checks each shard runs its own
// timeout batcher: with B > 1 and a short T, requests scattered across
// shards are all answered by per-shard timer flushes.
func TestMultiShardTimersFlushIndependently(t *testing.T) {
	g, err := New(fastBackend(), nil, Config{
		Initial: lambda.Config{MemoryMB: 2048, BatchSize: 4, TimeoutS: 0.01},
		SLO:     1,
		Shards:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	var handles []Handle
	for i := 0; i < 9; i++ {
		handles = append(handles, g.Submit())
	}
	for i, h := range handles {
		resp, ok := WaitWithin(h, 5*time.Second)
		if !ok {
			t.Fatalf("request %d never flushed", i)
		}
		if resp.Error != "" {
			t.Fatalf("request %d failed: %s", i, resp.Error)
		}
	}
	if st := g.Stats(); st.Served != 9 {
		t.Fatalf("served %d, want 9", st.Served)
	}
}
