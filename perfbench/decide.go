package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"deepbat/internal/gateway"
	"deepbat/internal/lambda"
	"deepbat/internal/obs"
	"deepbat/internal/workload"
)

// decideFunc is the controller under test: it maps the gateway's
// interarrival window to a configuration. feasible reports whether the
// controller found a configuration it predicts meets the SLO.
type decideFunc func(window []float64, rec *recorder) (cfg lambda.Config, feasible bool, err error)

// replaySpec is one virtual-time replay of a trace through the gateway with
// a controller forced at every control-period boundary. It is the loop
// shape of internal/replay.Run plus the DecideNow schedule.
type replaySpec struct {
	trace     *workload.Trace
	periodS   float64
	windowLen int
	slo       float64
	grid      lambda.Grid
	initial   lambda.Config
	decide    decideFunc
	// layer names the controller's span ("optimizer" or "batchopt").
	layer string
	// backend is the invocation model; nil charges the default profile.
	backend gateway.Backend
	// keepWindows records every decision window (the traced run re-times
	// the surrogate's stages on them after the replay).
	keepWindows bool
}

// replayResult is everything one replay measured.
type replayResult struct {
	wallS     float64
	sent      int
	served    int
	failed    int
	latMS     []float64 // served requests' virtual latency, in submission order
	violation int       // served requests over the SLO
	costUSD   float64
	reconfigs int
	// hash covers every request's latency bits, the total cost and the
	// reconfiguration count: equal hashes mean identical replays.
	hash uint64

	decideS    []float64 // wall time of each controller call
	overheadS  []float64 // DecideNow wall time minus its controller call
	decideErrs int
	infeasible int
	offGrid    int // decisions or applied configurations outside the grid
	answerErrs int // requests not answered exactly once
	windows    [][]float64

	shards      int
	submitNs    []float64 // traced only
	flushS      float64   // traced only
	invocations float64
	sizeFills   float64
}

// clockBackend charges each successful invocation's service time to the
// replay clock, so request latency reads batching delay plus service time in
// virtual seconds.
type clockBackend struct {
	inner gateway.Backend
	clock *obs.ManualClock
}

func (b clockBackend) Execute(cfg lambda.Config, n int) (time.Duration, float64, error) {
	d, cost, err := b.inner.Execute(cfg, n)
	if err == nil {
		b.clock.Advance(d.Seconds())
	}
	return d, cost, err
}

// gridSet returns the grid's configurations as a set.
func gridSet(g lambda.Grid) map[lambda.Config]bool {
	set := make(map[lambda.Config]bool, g.Size())
	for _, cfg := range g.Configs() {
		set[cfg] = true
	}
	return set
}

// replay runs the spec once. rec, when non-nil, records a span around every
// gateway and controller call.
func replay(sp replaySpec, rec *recorder) (*replayResult, error) {
	reqs := sp.trace.Reqs
	if len(reqs) == 0 {
		return nil, errors.New("replay: empty trace")
	}
	res := &replayResult{sent: len(reqs)}
	onGrid := gridSet(sp.grid)
	clock := &obs.ManualClock{}
	inner := sp.backend
	if inner == nil {
		inner = gateway.SimulatedBackend{Profile: lambda.DefaultProfile(), Pricing: lambda.DefaultPricing()}
	}
	// decideDur is the last controller call's wall time, which advance
	// subtracts from DecideNow's.
	var decideDur time.Duration
	decide := func(window []float64) (lambda.Config, error) {
		s := rec.begin(sp.layer+".Decide", int64(len(res.decideS)))
		t0 := time.Now()
		cfg, feasible, err := sp.decide(window, rec)
		decideDur = time.Since(t0)
		rec.end(s)
		res.decideS = append(res.decideS, decideDur.Seconds())
		if sp.keepWindows {
			res.windows = append(res.windows, window)
		}
		switch {
		case err != nil:
			res.decideErrs++
		case !onGrid[cfg]:
			res.offGrid++
		case !feasible:
			res.infeasible++
		}
		return cfg, err
	}
	reg := obs.NewRegistry()
	g, err := gateway.New(clockBackend{inner: inner, clock: clock}, decide, gateway.Config{
		Initial:       sp.initial,
		SLO:           sp.slo,
		WindowLen:     sp.windowLen,
		Clock:         clock,
		Obs:           reg,
		VirtualTimers: true,
	})
	if err != nil {
		return nil, err
	}

	handles := make([]gateway.Handle, len(reqs))
	next := sp.periodS
	// advance honours, in time order, every batch timeout and control
	// boundary due at or before t; a timeout due at a boundary fires first.
	advance := func(t float64) {
		for {
			d, ok := g.NextFlushDeadline()
			if ok && d <= t && d <= next {
				clock.Set(d)
				s := rec.begin("gateway.FlushDue", -1)
				g.FlushDue()
				res.flushS += float64(rec.end(s)) / 1e9
				continue
			}
			if next > t {
				return
			}
			clock.Set(next)
			before := len(res.decideS)
			s := rec.begin("gateway.DecideNow", int64(len(res.overheadS)))
			t0 := time.Now()
			g.DecideNow()
			total := time.Since(t0)
			rec.end(s)
			if len(res.decideS) > before {
				res.overheadS = append(res.overheadS, (total - decideDur).Seconds())
			}
			if !onGrid[g.Config()] {
				res.offGrid++
			}
			next += sp.periodS
		}
	}

	root := rec.begin("harness.replay", -1)
	start := time.Now()
	for i, rq := range reqs {
		advance(rq.AtS)
		clock.Set(rq.AtS)
		s := rec.begin("gateway.Submit", int64(i))
		handles[i] = g.Submit()
		if ns := rec.end(s); s >= 0 {
			res.submitNs = append(res.submitNs, float64(ns))
		}
	}
	end := sp.trace.Duration()
	if last := reqs[len(reqs)-1].AtS; last > end {
		end = last
	}
	for {
		d, ok := g.NextFlushDeadline()
		if !ok || d > end {
			break
		}
		clock.Set(d)
		g.FlushDue()
	}
	g.Stop()
	res.wallS = time.Since(start).Seconds()
	rec.end(root)

	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	seen := make([]bool, len(reqs)+1)
	res.latMS = make([]float64, 0, len(reqs))
	for _, hd := range handles {
		resp := hd.Wait()
		if resp.ID < 1 || resp.ID > len(reqs) || seen[resp.ID] {
			res.answerErrs++
		} else {
			seen[resp.ID] = true
		}
		put(math.Float64bits(resp.LatencyMS))
		if resp.Error != "" {
			res.failed++
			continue
		}
		res.served++
		res.latMS = append(res.latMS, resp.LatencyMS)
		if resp.LatencyMS > sp.slo*1000 {
			res.violation++
		}
	}
	st := g.Stats()
	res.costUSD = st.TotalCostUSD
	res.reconfigs = st.Reconfigurations
	if st.Served+st.FailedRequests != len(reqs) {
		res.answerErrs += len(reqs) - st.Served - st.FailedRequests
	}
	put(math.Float64bits(res.costUSD))
	put(uint64(res.reconfigs))
	res.hash = h.Sum64()
	res.shards = g.Shards()
	res.invocations = reg.MustCounter("gateway_invocations_total", "").Value()
	res.sizeFills = reg.MustCounter("gateway_dispatch_size_total", "").Value()
	return res, nil
}

// stageTimes collects per-layer set-up timings, one entry per repetition.
type stageTimes map[string][]float64

// timed runs fn inside a span and appends its wall time, in unit seconds
// (1 for s, 1e-3 for ms), to st[name].
func (st stageTimes) timed(rec *recorder, span, name string, unit float64, fn func() error) error {
	s := rec.begin(span, -1)
	t0 := time.Now()
	err := fn()
	st[name] = append(st[name], time.Since(t0).Seconds()/unit)
	rec.end(s)
	return err
}

// decideWorkload is one of the two decide-* workloads.
type decideWorkload struct {
	// setup builds the trace and controller. It is timed as set-up and
	// repeated; the last repetition's result is measured.
	setup func(st stageTimes, rec *recorder) (replaySpec, error)
	// layers sets the controller's per-layer metrics from the first traced
	// replay; rec records any spans it times after the replay.
	layers func(o *outcome, rec *recorder, sp replaySpec, tr *replayResult)
}

// A run repeats set-up at least setupReps times and until setupMinS
// seconds have passed (at most setupMaxReps times); setup_s is the median.
// Cheap set-ups thus get enough repetitions for a steady median.
const (
	setupReps    = 3
	setupMinS    = 5
	setupMaxReps = 1000
)

// repeatSetup runs fn as set-up repetitions and returns their wall times.
func repeatSetup(fn func() error) ([]float64, error) {
	var times []float64
	start := time.Now()
	for len(times) < setupReps || (time.Since(start).Seconds() < setupMinS && len(times) < setupMaxReps) {
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return times, nil
}

// runDecide runs a decide-* workload: repeated set-up, then at least two
// replays, so determinism across repeats is checked on every run, and more
// while the next one is expected to end within opts.seconds.
func runDecide(opts options, w decideWorkload) (*outcome, error) {
	o := newOutcome()
	var log *spanLog
	var setupRec *recorder
	if opts.traced {
		log = newSpanLog()
		setupRec = log.recorder()
		o.spans = log
	}
	var sp replaySpec
	st := stageTimes{}
	setupS, err := repeatSetup(func() error {
		var err error
		sp, err = w.setup(st, setupRec)
		return err
	})
	if err != nil {
		return nil, err
	}
	digest, err := workload.Digest(sp.trace)
	if err != nil {
		return nil, err
	}
	o.prov["trace_digest"] = fmt.Sprintf("%016x", digest)
	o.prov["trace_requests"] = len(sp.trace.Reqs)
	o.prov["grid_size"] = sp.grid.Size()

	// The measured phase. A traced run alternates untraced and traced
	// replays; the difference between them is the tracing overhead.
	gs := readGoStats()
	start := time.Now()
	var runs []*replayResult
	var isTraced []bool
	var cpuPerReq []float64
	for len(runs) < 2 || time.Since(start).Seconds()+runs[len(runs)-1].wallS <= opts.seconds {
		var rec *recorder
		if opts.traced && len(runs)%2 == 1 {
			rec = log.recorder()
		}
		spi := sp
		spi.keepWindows = rec != nil
		cpu0 := cpuSeconds()
		r, err := replay(spi, rec)
		if err != nil {
			return nil, err
		}
		cpuPerReq = append(cpuPerReq, (cpuSeconds()-cpu0)/float64(r.sent))
		runs = append(runs, r)
		isTraced = append(isTraced, rec != nil)
	}

	first := runs[0]
	var decideS []float64
	for i, r := range runs {
		if r.hash != first.hash || r.costUSD != first.costUSD || r.reconfigs != first.reconfigs {
			o.fail("replay %d differs from replay 0 (hash %016x vs %016x, cost %g vs %g, reconfigurations %d vs %d)",
				i, r.hash, first.hash, r.costUSD, first.costUSD, r.reconfigs, first.reconfigs)
		}
		if r.answerErrs > 0 {
			o.fail("replay %d: %d requests not answered exactly once", i, r.answerErrs)
		}
		if r.served+r.failed != r.sent {
			o.fail("replay %d: served %d + failed %d != sent %d", i, r.served, r.failed, r.sent)
		}
		if r.offGrid > 0 {
			o.fail("replay %d: %d decisions or applied configurations outside the grid", i, r.offGrid)
		}
		if len(r.decideS) == 0 {
			o.fail("replay %d made no decision", i)
		}
		o.attempted += r.sent + len(r.decideS)
		o.failed += r.failed + r.decideErrs
		decideS = append(decideS, r.decideS...)
	}
	o.prov["decisions_per_replay"] = len(first.decideS)
	o.prov["replays"] = len(runs)
	o.prov["shards"] = first.shards

	if opts.traced {
		tr := decideLayers(o, st, runs, isTraced, gs)
		// Self times cover set-up and the traced replays, not the stage
		// re-timing the layers hook adds.
		setSelfTimes(o, log)
		w.layers(o, log.recorder(), sp, tr)
		return o, nil
	}
	o.set("setup_s", "s", median(setupS), len(setupS))
	o.set("decide_p50_ms", "ms", median(decideS)*1000, len(decideS))
	// A replay's wall time is its time outside the controller plus its
	// decisions at the median decision time, so one stalled decision does
	// not move the throughput.
	var rest []float64
	for _, r := range runs {
		d := 0.0
		for _, x := range r.decideS {
			d += x
		}
		rest = append(rest, r.wallS-d)
	}
	wallS := median(rest) + float64(len(first.decideS))*median(decideS)
	o.set("throughput_krps", "krps", float64(first.sent)/wallS/1000, len(runs))
	o.set("cpu_us_per_req", "us", median(cpuPerReq)*1e6, len(cpuPerReq))
	o.set("p50_latency_ms", "ms", pct(first.latMS, 50), len(first.latMS))
	o.set("p99_latency_ms", "ms", pct(first.latMS, 99), len(first.latMS))
	o.set("slo_attainment_pct", "%", 100*float64(first.served-first.violation)/float64(first.sent), first.sent)
	o.note("p95_latency_ms", "ms", pct(first.latMS, 95), len(first.latMS))
	o.note("slo_violation_pct", "%", 100*float64(first.violation+first.failed)/float64(first.sent), first.sent)
	o.set("cost_per_mreq_usd", "usd", first.costUSD/float64(first.sent)*1e6, first.sent)
	o.set("max_rss_mb", "MB", maxRSSMB(), 0)
	return o, nil
}

// decideLayers sets the gateway, runtime and harness metrics of a traced
// decide-* run and returns its first traced replay.
func decideLayers(o *outcome, st stageTimes, runs []*replayResult, isTraced []bool, gs goStats) *replayResult {
	setLayerDefaults(o)
	for name, xs := range st {
		o.set(name, o.metrics[name].Unit, median(xs), len(xs))
	}
	gs.since(o)
	var plain, traced []float64
	var tr *replayResult
	for i, r := range runs {
		if isTraced[i] {
			traced = append(traced, r.wallS)
			if tr == nil {
				tr = r
			}
		} else {
			plain = append(plain, r.wallS)
		}
	}
	o.set("harness.trace_overhead_pct", "%", 100*(median(traced)-median(plain))/median(plain), len(traced)+len(plain))
	o.set("gateway.submit_ns_p50", "ns", pct(tr.submitNs, 50), len(tr.submitNs))
	o.set("gateway.submit_ns_p99", "ns", pct(tr.submitNs, 99), len(tr.submitNs))
	o.set("gateway.flushdue_us_total", "us", tr.flushS*1e6, 0)
	o.set("gateway.decidenow_overhead_us", "us", median(tr.overheadS)*1e6, len(tr.overheadS))
	o.set("gateway.batch_size_mean", "count", float64(tr.served+tr.failed)/tr.invocations, int(tr.invocations))
	o.set("gateway.fill_ratio", "ratio", tr.sizeFills/tr.invocations, int(tr.invocations))
	o.set("gateway.reconfigurations", "count", float64(tr.reconfigs), 0)
	o.set("gateway.invocations", "count", tr.invocations, 0)
	return tr
}
