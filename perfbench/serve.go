package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"deepbat/internal/fleet"
	"deepbat/internal/gateway"
	"deepbat/internal/obs"
	"deepbat/internal/workload"
)

// Serve-fleet settings. Traces are time-compressed so their mean rate is
// refRPS; the ladder offers refRPS times a factor.
const (
	refRPS = 5000
	// planSeed fixes the trace the fleet is planned on, so every run serves
	// the same plan and --seed varies only the traffic served.
	planSeed = 1
	// planHours and serveHours are the planning and served trace lengths;
	// the plan's qsim searches scale with the first.
	planHours  = 24
	serveHours = 48
	// baseSLO and sloSpread give class i the SLO baseSLO*sloSpread^i, the
	// multi-SLO fleet the merge pass is for (as in the fleet experiment).
	baseSLO   = 0.2
	sloSpread = 4.0
	// lateGrowS is how much later the generator may run at the end of a
	// ladder step than at its start before the rate counts as unsustained.
	lateGrowS = 0.002
	// sloTarget is the share of requests that must meet their class SLO.
	sloTarget = 0.99
	// cpuChunkS is how often a phase samples process CPU time;
	// cpu_us_per_req is the median over these samples.
	cpuChunkS = 0.5
	// The capacity ladder: satBursts steps offered far more than the
	// generator can send (satFactor times refRPS) measure its saturated
	// send rate; the ladder then descends from that rate in ladderDown
	// steps until one is sustained in one of ladderTries tries, at most
	// ladderMax steps.
	satBursts   = 7
	satFactor   = 2000
	ladderDown  = 0.95
	ladderMax   = 8
	ladderTries = 3
)

// stepSeconds returns the length of one ladder step.
func stepSeconds(opts options) float64 {
	if opts.tiny {
		return 0.1
	}
	return 0.5
}

// servePlan is the fleet serve-fleet plans and serves.
type servePlan struct {
	plan   fleet.Plan
	assign *fleet.Assignment
	// dueS and class are the compressed trace: request i is due dueS[i]
	// seconds after the phase starts.
	dueS  []float64
	class []int
	span  float64 // dueS horizon of one pass over the trace
}

// phaseResult is one open-loop phase at one offered rate.
type phaseResult struct {
	sent, served, failed int
	met                  int       // requests within their class SLO
	latMS                []float64 // served requests, from due time
	lateS                []float64 // generator lateness per request
	costUSD              float64
	cpuS                 float64   // process CPU time of the phase
	sendS                float64   // from the phase start to the last send
	chunkCPU             []float64 // process CPU seconds per request, per cpuChunkS of the phase
	answerErrs           int
	submitNs             []float64 // traced only
	invocations, fills   float64
	shards               int
}

// corrburst returns a serve-fleet trace of the given paper-hours for seed.
// Short paper-hours give many calm/burst cycles per request, so the mix
// varies little from seed to seed.
func corrburst(opts options, hours int, seed int64) (*workload.Trace, error) {
	spec := workload.DefaultSpec("corrburst")
	spec.Seed = seed
	spec.Hours, spec.HourSeconds = hours, 5
	if opts.tiny {
		spec.Hours, spec.HourSeconds = 1, 10
	}
	tr, err := workload.Generate(spec)
	if err == nil && len(tr.Reqs) == 0 {
		err = errors.New("empty trace")
	}
	return tr, err
}

// compress returns the trace's timestamps scaled to a refRPS mean rate, its
// request classes, and the scaled horizon.
func compress(tr *workload.Trace) (dueS []float64, class []int, span float64) {
	scale := float64(len(tr.Reqs)) / tr.Duration() / refRPS
	for _, rq := range tr.Reqs {
		dueS = append(dueS, rq.AtS*scale)
		class = append(class, int(rq.Class))
	}
	return dueS, class, tr.Duration() * scale
}

// planFleet generates the planning trace (planSeed) and the served trace
// (--seed), compresses both to refRPS and plans the fleet on the per-class
// windows of the compressed planning trace.
func planFleet(opts options, st stageTimes, rec *recorder) (*servePlan, *workload.Trace, error) {
	var planTr, tr *workload.Trace
	if err := st.timed(rec, "workload.Generate", "workload.generate_ms", 1e-3, func() error {
		var err error
		if planTr, err = corrburst(opts, planHours, planSeed); err != nil {
			return err
		}
		tr, err = corrburst(opts, serveHours, opts.seed)
		return err
	}); err != nil {
		return nil, nil, err
	}
	sp := &servePlan{}
	sp.dueS, sp.class, sp.span = compress(tr)
	planDue, planClass, _ := compress(planTr)
	windows := make([][]float64, len(planTr.Header.Classes))
	for i, at := range planDue {
		windows[planClass[i]] = append(windows[planClass[i]], at)
	}
	sp.plan = fleet.Plan{Merge: true}
	for i, name := range planTr.Header.Classes {
		sp.plan.Classes = append(sp.plan.Classes, fleet.ClassSpec{Name: name, SLO: baseSLO * math.Pow(sloSpread, float64(i))})
	}
	if opts.tiny {
		sp.plan.Grid = &fleet.GridSpec{Memories: []float64{1024, 2048}, Batches: []int{4, 16}, TimeoutsS: []float64{0.05, 0.2}}
	}
	err := st.timed(rec, "fleet.Optimize", "fleet.optimize_s", 1, func() error {
		var err error
		sp.assign, err = fleet.Optimize(sp.plan, windows, fleet.OptimizerConfig{})
		return err
	})
	return sp, tr, err
}

// openLoop offers the plan's requests at factor times the reference rate
// for durS seconds (cycling through the trace), on a fresh fleet: one
// generator goroutine submits each request at its due time and one collector
// goroutine waits for the answers.
func openLoop(sp *servePlan, factor, durS float64, gen, col *recorder) (*phaseResult, error) {
	var regs []*obs.Registry
	f, err := fleet.New(sp.plan, fleet.Options{
		Assignment: sp.assign,
		ObsFor: func(int, fleet.Group) *obs.Registry {
			r := obs.NewRegistry()
			regs = append(regs, r)
			return r
		},
	})
	if err != nil {
		return nil, err
	}
	n := len(sp.dueS)
	dueAt := func(i int) float64 { return (sp.dueS[i%n] + float64(i/n)*sp.span) / factor }
	type item struct {
		h     gateway.Handle
		i     int32
		lateS float64
	}
	// Large enough that the generator never blocks behind a collector
	// waiting out a batch timeout: at the highest send rate measured on a
	// 2-vCPU Xeon VM (about 1.3M/s) and the grid's longest timeout (0.5 s),
	// fewer handles are outstanding.
	ch := make(chan item, 1<<20)
	res := &phaseResult{shards: f.GroupGateway(0).Shards()}
	slo := make([]float64, len(sp.plan.Classes))
	for i, c := range sp.plan.Classes {
		slo[i] = c.SLO * 1000
	}
	// Each group gateway numbers its requests from 1.
	seen := make([][]bool, f.Groups())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for it := range ch {
			s := col.begin("gateway.Wait", int64(it.i))
			resp := it.h.Wait()
			col.end(s)
			res.lateS = append(res.lateS, it.lateS)
			class := sp.class[int(it.i)%n]
			g := f.GroupOf(class)
			for resp.ID >= len(seen[g]) {
				seen[g] = append(seen[g], false)
			}
			if resp.ID < 1 || seen[g][resp.ID] {
				res.answerErrs++
			} else {
				seen[g][resp.ID] = true
			}
			if resp.Error != "" {
				res.failed++
				continue
			}
			res.served++
			res.costUSD += resp.CostUSD
			lat := it.lateS*1000 + resp.LatencyMS
			res.latMS = append(res.latMS, lat)
			if lat <= slo[class] {
				res.met++
			}
		}
	}()

	// The generator sends every request due within durS, and stops at durS
	// when it cannot keep up. Process CPU is sampled every cpuChunkS, or
	// every tenth of a shorter phase.
	chunkS := math.Min(cpuChunkS, durS/10)
	cpu0 := cpuSeconds()
	root := gen.begin("harness.generate", -1)
	start := time.Now()
	chunkEnd, chunkStart, chunkCPU0 := chunkS, 0, cpu0
	i := 0
	for ; dueAt(i) < durS; i++ {
		now := time.Since(start).Seconds()
		if now >= durS {
			break
		}
		if now >= chunkEnd && i > chunkStart {
			c := cpuSeconds()
			res.chunkCPU = append(res.chunkCPU, (c-chunkCPU0)/float64(i-chunkStart))
			chunkEnd, chunkStart, chunkCPU0 = chunkEnd+chunkS, i, c
		}
		due := start.Add(time.Duration(dueAt(i) * 1e9))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late := time.Since(due).Seconds()
		s := gen.begin("fleet.Submit", int64(i))
		h := f.Submit(sp.class[i%n])
		if ns := gen.end(s); s >= 0 {
			res.submitNs = append(res.submitNs, float64(ns))
		}
		ch <- item{h: h, i: int32(i), lateS: late}
	}
	res.sent = i
	res.sendS = time.Since(start).Seconds()
	gen.end(root)
	close(ch)
	<-done
	res.cpuS = cpuSeconds() - cpu0
	f.Stop()
	if res.sent == 0 {
		return nil, fmt.Errorf("no request sent within %gs", durS)
	}
	if st := f.Stats(); st.Served+st.FailedRequests != res.sent {
		res.answerErrs += res.sent - st.Served - st.FailedRequests
	}
	for _, r := range regs {
		res.invocations += r.MustCounter("gateway_invocations_total", "").Value()
		res.fills += r.MustCounter("gateway_dispatch_size_total", "").Value()
	}
	return res, nil
}

// sustained reports whether a ladder step kept up: enough requests met
// their SLO and the generator's median lateness over the last quarter of the
// step is within lateGrowS of the first quarter's. Medians let a step absorb
// a short stall; an overload makes lateness grow through the whole step.
func (r *phaseResult) sustained() bool {
	q := len(r.lateS) / 4
	if q == 0 || float64(r.met) < sloTarget*float64(r.sent) {
		return false
	}
	return median(r.lateS[len(r.lateS)-q:])-median(r.lateS[:q]) <= lateGrowS
}

// runServeFleet is the serve-fleet workload.
func runServeFleet(opts options) (*outcome, error) {
	o := newOutcome()
	var log *spanLog
	var setupRec *recorder
	if opts.traced {
		log = newSpanLog()
		setupRec = log.recorder()
		o.spans = log
	}
	st := stageTimes{}
	var sp *servePlan
	var tr *workload.Trace
	setupS, err := repeatSetup(func() error {
		var err error
		sp, tr, err = planFleet(opts, st, setupRec)
		return err
	})
	if err != nil {
		return nil, err
	}
	digest, err := workload.Digest(tr)
	if err != nil {
		return nil, err
	}
	o.prov["trace_digest"] = fmt.Sprintf("%016x", digest)
	o.prov["trace_requests"] = len(tr.Reqs)
	o.prov["fleet_groups"] = len(sp.assign.Groups)
	o.prov["reference_rps"] = refRPS

	check := func(name string, r *phaseResult) {
		if r.answerErrs > 0 {
			o.fail("%s: %d requests not answered exactly once", name, r.answerErrs)
		}
		if r.served+r.failed != r.sent {
			o.fail("%s: served %d + failed %d != sent %d", name, r.served, r.failed, r.sent)
		}
		o.attempted += r.sent
		o.failed += r.failed
	}
	// The reference rate gets most of the measured phase; the ladder's
	// short steps take the rest.
	refS := opts.seconds * 0.7

	if opts.traced {
		gs := readGoStats()
		plain, err := openLoop(sp, 1, refS/2, nil, nil)
		if err != nil {
			return nil, err
		}
		check("reference", plain)
		traced, err := openLoop(sp, 1, refS/2, log.recorder(), log.recorder())
		if err != nil {
			return nil, err
		}
		check("traced reference", traced)
		o.prov["shards"] = traced.shards
		setLayerDefaults(o)
		for name, xs := range st {
			o.set(name, o.metrics[name].Unit, median(xs), len(xs))
		}
		gs.since(o)
		perReq := func(r *phaseResult) float64 { return r.cpuS / float64(r.sent) }
		o.set("harness.trace_overhead_pct", "%", 100*(perReq(traced)-perReq(plain))/perReq(plain), traced.sent+plain.sent)
		o.set("harness.gen_late_p99_ms", "ms", pct(traced.lateS, 99)*1000, traced.sent)
		o.set("harness.gen_late_max_ms", "ms", pct(traced.lateS, 100)*1000, traced.sent)
		o.set("fleet.groups", "count", float64(len(sp.assign.Groups)), 0)
		o.set("fleet.submit_ns_p50", "ns", pct(traced.submitNs, 50), traced.sent)
		o.set("gateway.submit_ns_p50", "ns", pct(traced.submitNs, 50), traced.sent)
		o.set("gateway.submit_ns_p99", "ns", pct(traced.submitNs, 99), traced.sent)
		o.set("gateway.batch_size_mean", "count", float64(traced.sent)/traced.invocations, int(traced.invocations))
		o.set("gateway.fill_ratio", "ratio", traced.fills/traced.invocations, int(traced.invocations))
		o.set("gateway.invocations", "count", traced.invocations, 0)
		setSelfTimes(o, log)
		return o, nil
	}

	ref, err := openLoop(sp, 1, refS, nil, nil)
	if err != nil {
		return nil, err
	}
	check("reference", ref)
	o.prov["shards"] = ref.shards
	// Peak memory through set-up and the reference rate; the ladder below
	// is a stress probe whose backlog would dominate it.
	rssMB := maxRSSMB()

	// The capacity ladder. Each step runs on a fresh fleet. The median
	// saturated send rate anchors it, so its result is as steady as the
	// send rate itself; a step counts as unsustained only when all its
	// tries fail, so a stall does not end the search.
	stepS := stepSeconds(opts)
	steps := 0
	var sat []float64
	for i := 0; i < satBursts; i++ {
		r, err := openLoop(sp, satFactor, stepS, nil, nil)
		if err != nil {
			return nil, err
		}
		check("saturation", r)
		steps++
		sat = append(sat, float64(r.sent)/r.sendS/refRPS)
	}
	capacity := 0.0
	for f, k := median(sat), 0; k < ladderMax && capacity == 0; f, k = f*ladderDown, k+1 {
		for try := 0; try < ladderTries; try++ {
			r, err := openLoop(sp, f, stepS, nil, nil)
			if err != nil {
				return nil, err
			}
			check(fmt.Sprintf("ladder %.0f rps", f*refRPS), r)
			steps++
			if r.sustained() {
				capacity = f * refRPS
				break
			}
		}
	}
	if capacity == 0 {
		o.fail("no ladder rate down to %.0f rps was sustained", median(sat)*math.Pow(ladderDown, ladderMax-1)*refRPS)
	}
	o.note("saturated_send_krps", "krps", median(sat)*refRPS/1000, len(sat))
	o.prov["ladder_steps"] = steps

	o.set("setup_s", "s", median(setupS), len(setupS))
	o.set("decide_p50_ms", "ms", median(st["fleet.optimize_s"])*1000, len(st["fleet.optimize_s"]))
	o.set("throughput_krps", "krps", capacity/1000, steps)
	o.set("cpu_us_per_req", "us", median(ref.chunkCPU)*1e6, len(ref.chunkCPU))
	o.set("p50_latency_ms", "ms", pct(ref.latMS, 50), len(ref.latMS))
	o.set("p99_latency_ms", "ms", pct(ref.latMS, 99), len(ref.latMS))
	o.set("slo_attainment_pct", "%", 100*float64(ref.met)/float64(ref.sent), ref.sent)
	o.note("p95_latency_ms", "ms", pct(ref.latMS, 95), len(ref.latMS))
	o.note("slo_violation_pct", "%", 100*float64(ref.sent-ref.met)/float64(ref.sent), ref.sent)
	o.note("gen_late_p99_ms", "ms", pct(ref.lateS, 99)*1000, ref.sent)
	o.set("cost_per_mreq_usd", "usd", ref.costUSD/float64(ref.sent)*1e6, ref.sent)
	o.set("max_rss_mb", "MB", rssMB, 0)
	return o, nil
}
