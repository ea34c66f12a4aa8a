package qsim

import (
	"deepbat/internal/lambda"
	"deepbat/internal/obs"
)

// Dispatch causes recorded by the simulator's metrics and event stream.
const (
	dispatchCauseSize    = "size"    // buffer reached cfg.BatchSize
	dispatchCauseTimeout = "timeout" // cfg.TimeoutS elapsed since the first request
)

// causeLabel maps the batcher's dispatch cause onto qsim's two series. The
// batcher reports a dispatch on arrival (B = 1 or T = 0) as immediate; qsim
// has no such series, so it labels that dispatch by the bound that forced
// it: size when B = 1 (the arrival filled the batch), timeout when T = 0 (its
// window closed at once). This keeps qsim's series, dispatch events and
// snapshots byte-identical to the labels they have always carried.
func causeLabel(c lambda.Cause, cfg lambda.Config) string {
	if c == lambda.CauseSize || (c == lambda.CauseImmediate && cfg.BatchSize <= 1) {
		return dispatchCauseSize
	}
	return dispatchCauseTimeout
}

// batchSizeBuckets covers the configuration grid's batch sizes.
func batchSizeBuckets() []float64 { return []float64{1, 2, 4, 8, 16, 32, 64} }

// runMetrics holds the series Run maintains when Options.Obs is set. qsim is
// a deterministic-core package: every value fed into these series derives
// from simulated time and the arrival trace, never from a wall clock, so two
// same-seed runs produce byte-identical snapshots.
type runMetrics struct {
	requests    *obs.Counter
	batches     *obs.Counter
	dispSize    *obs.Counter
	dispTimeout *obs.Counter
	coldStarts  *obs.Counter
	queued      *obs.Counter
	cost        *obs.Counter
	latency     *obs.Histogram
	batchSize   *obs.Histogram
	// Failure series, registered only when fault injection is active so a
	// fault-free run's snapshot stays byte-identical to pre-fault builds.
	retries       *obs.Counter
	failedBatches *obs.Counter
	failedReqs    *obs.Counter
}

// newRunMetrics registers the run series; the failure series are added only
// for fault-injected runs.
func newRunMetrics(reg *obs.Registry, faultActive bool) (*runMetrics, error) {
	if reg == nil {
		return nil, nil
	}
	m := &runMetrics{}
	var err error
	counter := func(dst **obs.Counter, name, help string) {
		if err == nil {
			*dst, err = reg.Counter(name, help)
		}
	}
	counter(&m.requests, "qsim_requests_total", "simulated requests completed")
	counter(&m.batches, "qsim_batches_total", "simulated invocations dispatched")
	counter(&m.dispSize, "qsim_dispatch_size_total", "dispatches triggered by a full batch")
	counter(&m.dispTimeout, "qsim_dispatch_timeout_total", "dispatches triggered by the batching timeout")
	counter(&m.coldStarts, "qsim_cold_starts_total", "dispatches that paid a cold start")
	counter(&m.queued, "qsim_queued_batches_total", "dispatches delayed waiting for a concurrency slot")
	counter(&m.cost, "qsim_cost_usd_total", "total simulated invocation cost in USD")
	if faultActive {
		counter(&m.retries, "qsim_retries_total", "simulated invocation retries")
		counter(&m.failedBatches, "qsim_failed_batches_total", "simulated batches that exhausted their retries")
		counter(&m.failedReqs, "qsim_failed_requests_total", "simulated requests lost to retry-exhausted batches")
	}
	if err == nil {
		m.latency, err = reg.Histogram("qsim_latency_seconds",
			"end-to-end simulated request latency", obs.DefaultLatencyBuckets())
	}
	if err == nil {
		m.batchSize, err = reg.Histogram("qsim_batch_size",
			"requests per simulated invocation", batchSizeBuckets())
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// observeBatch records one dispatched invocation and its per-request
// latencies (latencies[k] for requests i..i+size-1 of the trace).
func (m *runMetrics) observeBatch(b Batch, cause string, latencies []float64) {
	if m == nil {
		return
	}
	m.batches.Inc()
	m.batchSize.Observe(float64(b.Size))
	m.cost.Add(b.Cost)
	if cause == dispatchCauseSize {
		m.dispSize.Inc()
	} else {
		m.dispTimeout.Inc()
	}
	if b.Cold {
		m.coldStarts.Inc()
	}
	if b.StartAt > b.DispatchAt {
		m.queued.Inc()
	}
	for _, lat := range latencies {
		m.requests.Inc()
		m.latency.Observe(lat)
	}
}

// observeRetries records n retried invocation attempts (no-op outside
// fault-injected runs, where the series is not registered).
func (m *runMetrics) observeRetries(n int) {
	if m == nil || m.retries == nil || n <= 0 {
		return
	}
	m.retries.Add(float64(n))
}

// observeFailedBatch records one retry-exhausted batch and its lost
// requests (its retried attempts included).
func (m *runMetrics) observeFailedBatch(b Batch) {
	if m == nil || m.failedBatches == nil {
		return
	}
	m.failedBatches.Inc()
	m.failedReqs.Add(float64(b.Size))
	m.observeRetries(b.Attempts - 1)
}

// recordDispatch appends the batch's events to the recorder, stamped with
// simulated time via EventAt — the simulator never reads a clock. Cold starts
// get their own event so the stream can be filtered per ISSUE's "dispatches,
// cold starts" breakdown.
func recordDispatch(rec *obs.Recorder, b Batch, cause string) {
	if rec == nil {
		return
	}
	rec.EventAt(b.DispatchAt, "dispatch",
		obs.I("size", b.Size),
		obs.S("cause", cause),
		obs.F("service_s", b.Service),
		obs.F("cost_usd", b.Cost),
		obs.B("cold", b.Cold),
	)
	if b.Cold {
		rec.EventAt(b.StartAt, "cold_start", obs.F("start_s", b.StartAt))
	}
}
