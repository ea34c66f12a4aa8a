package gateway

import (
	"sync"
	"sync/atomic"
	"time"

	"deepbat/internal/obs"
)

// latRingCap bounds the per-shard latency sample window Stats() computes
// tail percentiles and VCR over. Runs shorter than the window get exact
// figures (every chaos-harness scenario does); under sustained load the
// tails describe the most recent latRingCap samples per shard instead of
// growing without bound — the pre-shard gateway kept every latency forever,
// which leaks memory at serving rates.
const latRingCap = 1024

// Pool bounds: free-lists stop growing past these sizes so a burst does not
// pin its high-water mark forever. Steady-state closed-loop traffic recycles
// far fewer objects than either bound.
const (
	maxFreeWaiters = 1024
	maxFreeBatches = 16
)

// latRing is a fixed-capacity latency sample ring (insertion order, oldest
// overwritten first). Zero-alloc once warm.
type latRing struct {
	buf []float64
	n   int // total observations ever
}

func (r *latRing) observe(v float64) {
	if len(r.buf) < latRingCap {
		//lint:allow hotpath-alloc the ring fills to latRingCap once at warmup; steady-state observations overwrite in place
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.n%latRingCap] = v
	}
	r.n++
}

// waiter is one queued request. Waiters carry a reusable cap-1 response
// channel and are recycled through the shard free-list by Handle.Wait.
type waiter struct {
	id       int
	arriveAt float64 // clock seconds
	ch       chan Response
	// resp receives the response by direct write instead of a channel send
	// when this waiter's own Submit dispatched the batch synchronously: the
	// goroutine that runs execute is the one that reads resp in Wait, so no
	// synchronization — or channel round-trip — is needed.
	resp Response
}

// deliver resolves one waiter's response: the submitting waiter of a
// synchronous dispatch (self) by direct field write, everyone else through
// their channel.
func deliver(w, self *waiter, resp Response) {
	if w == self {
		w.resp = resp
		return
	}
	//lint:allow hotpath-alloc cross-goroutine delivery for the async path; the pooled synchronous submitter takes the direct-write branch above
	w.ch <- resp
}

// shardOf maps a request ID to a shard with a splitmix64 finalizer — a pure
// function of the ID, so the mapping is identical across runs, processes,
// and GOMAXPROCS values. shardOf(id, 1) == 0 for every id: P = 1 reproduces
// the single-queue gateway exactly.
//
//deepbat:hotpath
func shardOf(id uint64, shards int) int {
	if shards <= 1 {
		return 0
	}
	z := id + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(shards))
}

// shard is one independent batching queue: its own open batch, batch timer,
// circuit breaker, tallies, and object pools, all guarded by its own mutex.
// Requests are hashed onto shards by ID; the shared optimizer configuration
// arrives via the gateway's atomic config pointer, captured per batch at
// open. Tallies are merged by the gateway in shard order (index 0..P-1), so
// deterministic drivers see deterministic merged figures.
type shard struct {
	g   *Gateway
	idx int

	// brMirror mirrors brState for lock-free cross-shard merged reads
	// (Breaker(), the breaker-state gauge). Written under mu only.
	brMirror atomic.Int32

	// freeSlot is a single-entry lock-free waiter exchange in front of the
	// mutex-guarded freeW list: a request loop that waits for each response
	// before submitting the next (the closed-loop common case) recycles its
	// waiter through this slot without touching mu at all.
	freeSlot atomic.Pointer[waiter]

	mu       sync.Mutex
	pending  []*waiter
	batchCfg *activeCfg // captured when the open batch started
	timer    *time.Timer
	// flushAt is the open batch's timeout deadline in clock seconds
	// (0 = none armed). Under Config.VirtualTimers it replaces the wall
	// timer entirely and is honoured by Gateway.FlushDue; otherwise it
	// mirrors the armed timer for observability.
	flushAt float64

	// Free-lists backing the zero-alloc steady state.
	freeW []*waiter
	freeB [][]*waiter

	// Tallies, merged in shard order by Gateway.Stats.
	served     int
	invoked    int
	totalCost  float64
	retries    int
	failures   int
	failed     int
	expired    int
	shedCount  int
	brOpens    int
	lat        latRing
	brState    BreakerState
	brFails    int     // consecutive failed invocation attempts
	brOpenedAt float64 // clock seconds of the last open transition
}

func newShard(g *Gateway, idx int) *shard {
	return &shard{
		g:       g,
		idx:     idx,
		pending: make([]*waiter, 0, 16),
		lat:     latRing{buf: make([]float64, 0, latRingCap)},
	}
}

// getWaiterLocked pops a recycled waiter (or builds one, cold path) and
// stamps it for a new request. Callers hold mu.
func (s *shard) getWaiterLocked(id int, arriveAt float64) *waiter {
	var w *waiter
	if n := len(s.freeW); n > 0 {
		w = s.freeW[n-1]
		s.freeW[n-1] = nil
		s.freeW = s.freeW[:n-1]
		checkWaiterClean(w)
	} else {
		//lint:allow hotpath-alloc pool miss: early requests populate the free-list; steady state recycles and never reaches this branch
		w = &waiter{ch: make(chan Response, 1)}
	}
	w.id, w.arriveAt = id, arriveAt
	return w
}

// putWaiter recycles a pooled waiter after its response was consumed. Under
// the poolcheck build tag the waiter is poisoned so any aliasing of a
// previous request's state is caught at the next get. The single-slot
// exchange is tried first; only a full slot falls back to the locked list.
func (s *shard) putWaiter(w *waiter) {
	poisonWaiter(w)
	if s.freeSlot.CompareAndSwap(nil, w) {
		return
	}
	s.mu.Lock()
	if len(s.freeW) < maxFreeWaiters {
		//lint:allow hotpath-alloc the free-list grows to its fixed maxFreeWaiters bound once, then every append is in-capacity
		s.freeW = append(s.freeW, w)
	}
	s.mu.Unlock()
}

// grabSliceLocked hands out a recycled batch backing array. Callers hold mu.
func (s *shard) grabSliceLocked() []*waiter {
	if n := len(s.freeB); n > 0 {
		b := s.freeB[n-1]
		s.freeB[n-1] = nil
		s.freeB = s.freeB[:n-1]
		return b
	}
	//lint:allow hotpath-alloc pool miss: batch backing arrays are built cold and recycled through freeB thereafter
	return make([]*waiter, 0, 16)
}

// recycleBatch clears a dispatched batch's waiter pointers and returns its
// backing array to the free-list.
func (s *shard) recycleBatch(batch []*waiter) {
	if cap(batch) == 0 {
		return
	}
	s.mu.Lock()
	s.recycleBatchLocked(batch)
	s.mu.Unlock()
}

// recycleBatchLocked is recycleBatch for callers already holding mu — the
// clean dispatch path recycles inside the same critical section that records
// its tallies, saving a lock round-trip per batch.
func (s *shard) recycleBatchLocked(batch []*waiter) {
	if cap(batch) == 0 {
		return
	}
	for i := range batch {
		batch[i] = nil
	}
	if len(s.freeB) < maxFreeBatches {
		//lint:allow hotpath-alloc the batch free-list grows to its fixed maxFreeBatches bound once, then every append is in-capacity
		s.freeB = append(s.freeB, batch[:0])
	}
}

// enqueueWaiterLocked runs the enqueue→dispatch decision for one admitted
// request with mu held; it unlocks. When the returned batch is non-nil the
// caller owns its dispatch.
func (s *shard) enqueueWaiterLocked(w *waiter) (batch []*waiter, ac *activeCfg, cause string) {
	g := s.g
	if len(s.pending) == 0 {
		// Opening a new batch: snapshot the active parameters and arm the
		// timeout.
		s.batchCfg = g.active.Load()
		//lint:allow hotpath-alloc appends into the recycled pending backing array (cap 16 from grabSliceLocked); in-capacity in steady state
		s.pending = append(s.pending, w)
		if s.batchCfg.cfg.BatchSize > 1 && s.batchCfg.cfg.TimeoutS > 0 {
			g.met.pending.Add(1)
			s.flushAt = w.arriveAt + s.batchCfg.cfg.TimeoutS
			if !g.conf.VirtualTimers {
				s.armTimerLocked(time.Duration(s.batchCfg.cfg.TimeoutS * float64(time.Second)))
			}
			s.mu.Unlock()
			return nil, nil, ""
		}
		// B = 1 or T = 0: serve immediately, no accumulation. The request
		// never waits, so the pending gauge (whose +1/-1 would cancel
		// inside this same lock hold) is left untouched.
		batch = s.pending
		//lint:allow pool-ownership the shard is the long-lived owner of its pending slice; the old backing array leaves as the batch and recycles after dispatch
		s.pending = s.grabSliceLocked()
		ac = s.batchCfg
		s.mu.Unlock()
		return batch, ac, causeImmediate
	}
	//lint:allow hotpath-alloc appends into the recycled pending backing array (cap 16 from grabSliceLocked); in-capacity in steady state
	s.pending = append(s.pending, w)
	g.met.pending.Add(1)
	if len(s.pending) >= s.batchCfg.cfg.BatchSize {
		batch, ac = s.takeBatchLocked()
		s.mu.Unlock()
		return batch, ac, causeSize
	}
	s.mu.Unlock()
	return nil, nil, ""
}

// submitPooled is the zero-alloc admit path: the waiter comes from the
// lock-free exchange slot when possible, and a single lock acquisition runs
// the batch decision.
func (s *shard) submitPooled(id int, arriveAt float64) (w *waiter, batch []*waiter, ac *activeCfg, cause string) {
	if w = s.freeSlot.Swap(nil); w != nil {
		checkWaiterClean(w)
		w.id, w.arriveAt = id, arriveAt
		s.mu.Lock()
	} else {
		s.mu.Lock()
		w = s.getWaiterLocked(id, arriveAt)
	}
	batch, ac, cause = s.enqueueWaiterLocked(w)
	return w, batch, ac, cause
}

// armTimerLocked starts the batch timeout and registers it with the
// gateway's timerWG so Stop can join it whether it fires or is cancelled.
// Callers hold mu.
func (s *shard) armTimerLocked(d time.Duration) {
	s.g.timerWG.Add(1)
	//lint:allow hotpath-alloc one timer per opened batch, amortized over its B requests; the B=1/T=0 zero-alloc configuration never arms it
	s.timer = time.AfterFunc(d, func() {
		defer s.g.timerWG.Done()
		s.flushTimeout()
	})
}

// flushTimeout dispatches the open batch when its timer fires.
func (s *shard) flushTimeout() {
	s.mu.Lock()
	batch, ac := s.takeBatchLocked()
	s.mu.Unlock()
	if len(batch) > 0 {
		s.execute(batch, ac, causeTimeout, nil)
	}
}

// takeBatchLocked removes and returns the pending batch together with the
// parameters it was opened under, swapping in a recycled backing array.
// Callers hold mu.
func (s *shard) takeBatchLocked() ([]*waiter, *activeCfg) {
	batch := s.pending
	//lint:allow pool-ownership the shard is the long-lived owner of its pending slice; the old backing array leaves as the batch and recycles after dispatch
	s.pending = s.grabSliceLocked()
	s.g.met.pending.Add(-float64(len(batch)))
	s.flushAt = 0
	if s.timer != nil {
		if s.timer.Stop() {
			// The callback will never run; release its timerWG slot here.
			s.g.timerWG.Done()
		}
		s.timer = nil
	}
	return batch, s.batchCfg
}

// expireBatch fails fast every waiter whose per-request deadline has passed
// and returns the survivors. It runs before the first attempt and after
// every retry backoff, so a struggling backend cannot hold requests past
// their deadline.
func (s *shard) expireBatch(batch []*waiter, self *waiter) []*waiter {
	g := s.g
	r := g.conf.Resilience
	if r.RequestTimeoutS <= 0 {
		return batch
	}
	now := g.clock.Now()
	live := batch[:0]
	var dead []*waiter
	for _, w := range batch {
		if now-w.arriveAt > r.RequestTimeoutS {
			//lint:allow hotpath-alloc deadline expiry is the exceptional branch; collecting the expired waiters may allocate
			dead = append(dead, w)
		} else {
			//lint:allow hotpath-alloc live compacts into the batch's own backing array (batch[:0]); never beyond capacity
			live = append(live, w)
		}
	}
	if len(dead) == 0 {
		return batch
	}
	g.met.expired.Add(float64(len(dead)))
	s.mu.Lock()
	s.expired += len(dead)
	s.mu.Unlock()
	//lint:allow hotpath-alloc exceptional-path telemetry; the event sink may allocate and this waiver vouches for the obs subtree
	g.rec.Event("deadline_expired", obs.I("requests", len(dead)))
	for _, w := range dead {
		deliver(w, self, Response{
			ID:        w.id,
			LatencyMS: (now - w.arriveAt) * 1000,
			Error:     ErrDeadlineExceeded.Error(),
		})
	}
	return live
}

// admitBreaker applies this shard's circuit breaker to a batch about to
// execute: while the breaker is open it substitutes the safe fallback
// configuration (shedding); once the cooldown has elapsed it transitions to
// half-open and lets the batch probe the active configuration.
func (s *shard) admitBreaker(ac *activeCfg) (*activeCfg, bool) {
	g := s.g
	r := g.conf.Resilience
	if r.BreakerThreshold <= 0 {
		return ac, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.brState != BreakerOpen {
		return ac, false
	}
	if g.clock.Now()-s.brOpenedAt >= r.BreakerCooldownS {
		s.brState = BreakerHalfOpen
		s.brMirror.Store(int32(BreakerHalfOpen))
		g.met.brState.Set(float64(g.mergedBreakerState()))
		//lint:allow hotpath-alloc breaker transitions are rare; telemetry events off the steady-state path may allocate
		g.rec.Event("breaker_half_open")
		return ac, false
	}
	return g.fallback, true
}

// noteFailure records one failed invocation attempt against this shard's
// breaker.
func (s *shard) noteFailure() {
	g := s.g
	g.met.failures.Inc()
	s.mu.Lock()
	s.failures++
	r := g.conf.Resilience
	if r.BreakerThreshold > 0 {
		s.brFails++
		open := false
		switch s.brState {
		case BreakerHalfOpen:
			// Failed probe: reopen immediately.
			open = true
		case BreakerClosed:
			open = s.brFails >= r.BreakerThreshold
		}
		if open {
			s.brState = BreakerOpen
			s.brMirror.Store(int32(BreakerOpen))
			s.brOpenedAt = g.clock.Now()
			s.brOpens++
			g.met.brOpens.Inc()
			g.met.brState.Set(float64(g.mergedBreakerState()))
			//lint:allow hotpath-alloc breaker transitions are rare; telemetry events off the steady-state path may allocate
			g.rec.Event("breaker_open", obs.I("consecutive_failures", s.brFails))
		}
	}
	s.mu.Unlock()
}

// noteSuccess resets the consecutive-failure count and closes this shard's
// breaker after a successful half-open probe.
func (s *shard) noteSuccess() {
	g := s.g
	if g.conf.Resilience.BreakerThreshold <= 0 {
		return
	}
	s.mu.Lock()
	s.brFails = 0
	if s.brState == BreakerHalfOpen {
		s.brState = BreakerClosed
		s.brMirror.Store(int32(BreakerClosed))
		g.met.brState.Set(float64(g.mergedBreakerState()))
		//lint:allow hotpath-alloc breaker transitions are rare; telemetry events off the steady-state path may allocate
		g.rec.Event("breaker_close")
	}
	s.mu.Unlock()
}

// failBatch answers every waiter with the given terminal error.
func (s *shard) failBatch(batch []*waiter, self *waiter, cause error, attempts int) {
	g := s.g
	now := g.clock.Now()
	g.met.failedReqs.Add(float64(len(batch)))
	s.mu.Lock()
	s.failed += len(batch)
	s.mu.Unlock()
	//lint:allow hotpath-alloc terminal failure path; telemetry and error delivery may allocate
	g.rec.Event("batch_failed", obs.I("requests", len(batch)), obs.I("attempts", attempts))
	for _, w := range batch {
		deliver(w, self, Response{
			ID:        w.id,
			BatchSize: len(batch),
			LatencyMS: (now - w.arriveAt) * 1000,
			Error:     cause.Error(),
		})
	}
}

// execute runs a batch on the backend — retrying failures with capped,
// jittered exponential backoff, expiring per-request deadlines between
// attempts, and honouring this shard's circuit breaker — then resolves
// every waiter and recycles the batch backing array. It allocates nothing
// on the clean path. self, when non-nil, is the submitting waiter of a
// synchronous dispatch: its response is delivered by direct field write
// (see deliver) instead of a channel send.
func (s *shard) execute(batch []*waiter, ac *activeCfg, cause string, self *waiter) {
	if len(batch) == 0 {
		// Empty-batch race: a timeout flush can lose the race with a
		// size/flush dispatch that already drained the queue. Never invoke
		// the backend — or count an invocation — for nothing.
		return
	}
	g := s.g
	// orig keeps the full original slice so every waiter pointer is cleared
	// at recycle time even after expireBatch shrinks batch in place.
	orig := batch
	if ac == nil || ac.cfg.BatchSize == 0 {
		ac = g.initial
	}
	// Hoist the feature-flag checks out of expireBatch / admitBreaker /
	// noteSuccess: with deadlines and the breaker disabled (the steady-state
	// serving configuration) the hot path skips three non-inlined calls.
	res := g.conf.Resilience
	if res.RequestTimeoutS > 0 {
		if batch = s.expireBatch(batch, self); len(batch) == 0 {
			s.recycleBatch(orig)
			return
		}
	}
	useAc, shedding := ac, false
	if res.BreakerThreshold > 0 {
		useAc, shedding = s.admitBreaker(ac)
	}
	var cost float64
	attempt := 0
	for {
		var err error
		_, cost, err = g.backend.Execute(useAc.cfg, len(batch))
		if err == nil {
			if res.BreakerThreshold > 0 {
				s.noteSuccess()
			}
			break
		}
		s.noteFailure()
		if attempt >= res.MaxRetries {
			s.failBatch(batch, self, ErrBackendFailed, attempt+1)
			s.recycleBatch(orig)
			return
		}
		wait := g.backoff(attempt)
		g.met.retries.Inc()
		s.mu.Lock()
		s.retries++
		s.mu.Unlock()
		//lint:allow hotpath-alloc retry path: a failed batch has already left the zero-alloc happy path; telemetry may allocate
		g.rec.Event("retry",
			obs.I("attempt", attempt+1), obs.I("batch", len(batch)),
			obs.F("backoff_s", wait.Seconds()))
		//lint:allow hotpath-alloc retry backoff: the timer sleep is the modeled wait, not per-request overhead
		g.sleepInterruptible(wait)
		attempt++
		if batch = s.expireBatch(batch, self); len(batch) == 0 {
			s.recycleBatch(orig)
			return
		}
	}
	finished := g.clock.Now()
	per := cost / float64(len(batch))
	g.met.invocations.Inc()
	g.met.cost.Add(cost)
	g.met.batchSize.Observe(float64(len(batch)))
	// Resolve the dispatch-cause counter without the map lookup: cause is
	// always one of the four constants on this path.
	switch cause {
	case causeImmediate:
		g.met.dImmediate.Inc()
	case causeSize:
		g.met.dSize.Inc()
	case causeTimeout:
		g.met.dTimeout.Inc()
	case causeFlush:
		g.met.dFlush.Inc()
	}
	if shedding {
		g.met.shed.Add(float64(len(batch)))
	}
	s.mu.Lock()
	s.invoked++
	s.totalCost += cost
	if shedding {
		s.shedCount += len(batch)
	}
	for _, w := range batch {
		lat := finished - w.arriveAt
		s.served++
		s.lat.observe(lat)
		g.met.requests.Inc()
		g.met.latency.Observe(lat)
		if g.conf.SLO > 0 && lat > g.conf.SLO {
			g.met.violations.Inc()
		}
		deliver(w, self, Response{
			ID:        w.id,
			BatchSize: len(batch),
			LatencyMS: lat * 1000,
			CostUSD:   per,
			Config:    useAc.str,
		})
	}
	s.recycleBatchLocked(orig)
	s.mu.Unlock()
}
