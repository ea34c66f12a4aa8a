package main

import (
	"fmt"
	"math"
	"time"

	"deepbat"
	"deepbat/internal/arrival"
	"deepbat/internal/batchopt"
	"deepbat/internal/experiments"
	"deepbat/internal/lambda"
	"deepbat/internal/tensor"
	"deepbat/internal/trace"
	"deepbat/internal/workload"
)

// trainSeed fixes the surrogate's training trace and weights, so every run
// of decide-deepbat serves with the same model and --seed varies only the
// replayed trace.
const trainSeed = 1

// splitWindows caps how many recorded decision windows the traced run
// re-times stage by stage after the replay.
const splitWindows = 200

// splitTries is how often each stage is timed per window; the fastest call
// counts, which keeps scheduler noise out of the per-window differences.
const splitTries = 3

// initialConfig is served until the first decision (the replay default; a
// member of both grids).
var initialConfig = lambda.Config{MemoryMB: 2048, BatchSize: 4, TimeoutS: 0.1}

// azureSpec returns the azure trace spec the decide-* workloads replay.
func azureSpec(opts options, hours int) workload.Spec {
	spec := workload.DefaultSpec("azure")
	spec.Seed = opts.seed
	if hours > 0 {
		spec.Hours = hours
	}
	if opts.tiny {
		spec.Hours, spec.HourSeconds = 2, 10
	}
	return spec
}

// runDecideDeepBAT is the decide-deepbat workload: the default azure trace
// replayed with System.Decide at every trace-second, on the paper-scale
// surrogate (SeqLen 64, 216-configuration grid).
func runDecideDeepBAT(opts options) (*outcome, error) {
	sysOpts := deepbat.DefaultOptions()
	sysOpts.DatasetSamples = opts.trainSamples
	sysOpts.Train.Epochs = opts.trainEpochs
	sysOpts.Seed = trainSeed
	trainSpec := trace.DefaultSpec("azure")
	trainSpec.Seed = trainSeed
	if opts.tiny {
		sysOpts.Model.SeqLen = 16
		sysOpts.Grid = experiments.QuickLabConfig().Grid
		trainSpec.Hours, trainSpec.HourSeconds = 2, 10
	}
	var sys *deepbat.System
	setup := func(st stageTimes, rec *recorder) (replaySpec, error) {
		var tr *workload.Trace
		var trainTr *deepbat.Trace
		if err := st.timed(rec, "workload.Generate", "workload.generate_ms", 1e-3, func() error {
			var err error
			if tr, err = workload.Generate(azureSpec(opts, 0)); err != nil {
				return err
			}
			trainTr, err = deepbat.GenerateTrace(trainSpec)
			return err
		}); err != nil {
			return replaySpec{}, err
		}
		if rec != nil {
			// Traced runs time the qsim labelling on its own; Train below
			// labels the same dataset again as part of its work.
			if err := st.timed(rec, "qsim.BuildDataset", "qsim.dataset_build_s", 1, func() error {
				_, err := deepbat.BuildDataset(trainTr, sysOpts)
				return err
			}); err != nil {
				return replaySpec{}, err
			}
		}
		if err := st.timed(rec, "surrogate.Train", "surrogate.train_s", 1, func() error {
			var err error
			sys, err = deepbat.Train(trainTr, sysOpts)
			return err
		}); err != nil {
			return replaySpec{}, err
		}
		return replaySpec{
			trace:     tr,
			periodS:   1,
			windowLen: sysOpts.Model.SeqLen,
			slo:       sysOpts.SLO,
			grid:      sysOpts.Grid,
			initial:   initialConfig,
			layer:     "optimizer",
			decide: func(window []float64, _ *recorder) (lambda.Config, bool, error) {
				d, err := sys.Decide(window)
				return d.Config, d.Feasible, err
			},
		}, nil
	}
	return runDecide(opts, decideWorkload{setup: setup, layers: func(o *outcome, rec *recorder, sp replaySpec, tr *replayResult) {
		if st, ok := o.metrics["surrogate.train_s"]; ok {
			// deepbat.Train labels its dataset too; report training alone.
			o.set("surrogate.train_s", "s", st.Value-o.metrics["qsim.dataset_build_s"].Value, setupReps)
		}
		n := len(tr.decideS)
		o.set("optimizer.decide_us_p50", "us", pct(tr.decideS, 50)*1e6, n)
		o.set("optimizer.decide_us_p99", "us", pct(tr.decideS, 99)*1e6, n)
		o.set("optimizer.us_per_config", "us", pct(tr.decideS, 50)*1e6/float64(sp.grid.Size()), n)
		o.set("optimizer.infeasible_pct", "%", 100*float64(tr.infeasible)/float64(n), n)
		splitSurrogate(o, rec, sys, sp.grid.Configs(), tr.windows)
	}})
}

// splitSurrogate re-times Decide's stages on up to splitWindows recorded
// decision windows: the encoder alone, the whole grid sweep, and Decide,
// each the fastest of splitTries calls. The head is the sweep minus the
// encoder and selection is Decide minus the sweep, each taken per window.
func splitSurrogate(o *outcome, rec *recorder, sys *deepbat.System, cfgs []lambda.Config, windows [][]float64) {
	step := 1
	if len(windows) > splitWindows {
		step = len(windows) / splitWindows
	}
	var sample [][]float64
	for i := 0; i < len(windows) && len(sample) < splitWindows; i += step {
		sample = append(sample, windows[i])
	}
	if len(sample) == 0 {
		return
	}
	m := sys.Model
	gs := readGoStats()
	for _, w := range sample {
		m.PredictGrid(w, cfgs)
	}
	allocs := float64(readGoStats().mallocs-gs.mallocs) / float64(len(sample))

	var enc, grid, head, dec, sel []float64
	timed := func(name string, id int, fn func()) float64 {
		best := math.Inf(1)
		for try := 0; try < splitTries; try++ {
			s := rec.begin(name, int64(id))
			t0 := time.Now()
			fn()
			best = math.Min(best, time.Since(t0).Seconds())
			rec.end(s)
		}
		return best
	}
	for i, w := range sample {
		stages := []func() float64{
			func() float64 {
				return timed("surrogate.EncodeSequence", i, func() { tensor.NoGrad(func() { m.EncodeSequence(w) }) })
			},
			func() float64 { return timed("surrogate.PredictGrid", i, func() { m.PredictGrid(w, cfgs) }) },
			func() float64 { return timed("optimizer.Decide", i, func() { _, _ = sys.Decide(w) }) },
		}
		// Alternate the stage order so warm-cache effects cancel out of the
		// differences.
		var t [3]float64
		for k := range stages {
			j := k
			if i%2 == 1 {
				j = len(stages) - 1 - k
			}
			t[j] = stages[j]()
		}
		e, g, d := t[0], t[1], t[2]
		enc, grid, dec = append(enc, e), append(grid, g), append(dec, d)
		head, sel = append(head, g-e), append(sel, d-g)
	}
	n := len(sample)
	o.set("surrogate.encode_us_p50", "us", median(enc)*1e6, n)
	o.set("surrogate.predictgrid_us_p50", "us", median(grid)*1e6, n)
	o.set("surrogate.head_us_p50", "us", median(head)*1e6, n)
	o.set("surrogate.allocs_per_predictgrid", "count", allocs, n)
	o.set("optimizer.select_us_p50", "us", median(sel)*1e6, n)
}

// batchHours is the decide-batch trace length in paper-hours: eleven
// hour-boundary decisions per replay.
const batchHours = 12

// batchRequests is the decide-batch trace length in requests, about
// batchHours of the azure trace's mean rate. Every seed replays this many
// requests with the same number of decisions, so --seed moves the arrival
// pattern and not the amount of work per replay.
const batchRequests = 54000

// fixedCount cuts tr to its first n requests and rescales their timestamps
// to span hours paper-hours. tr must run longer than n requests.
func fixedCount(tr *workload.Trace, n, hours int) (*workload.Trace, error) {
	if len(tr.Reqs) <= n {
		return nil, fmt.Errorf("trace has %d requests, want more than %d", len(tr.Reqs), n)
	}
	out := &workload.Trace{Header: tr.Header, Reqs: append([]workload.Request(nil), tr.Reqs[:n]...)}
	out.Header.Spec.Hours = hours
	// The first request cut off lands on the horizon, so the last one kept
	// falls inside it.
	scale := out.Duration() / tr.Reqs[n].AtS
	for i := range out.Reqs {
		out.Reqs[i].AtS *= scale
	}
	return out, nil
}

// batchWindow is the interarrival window the BATCH controller fits.
const batchWindow = 1024

// runDecideBatch is the decide-batch workload: the BATCH pipeline (MMPP(2)
// fit plus analytical grid optimization) deciding once per paper-hour on the
// quick 36-configuration grid.
func runDecideBatch(opts options) (*outcome, error) {
	grid := experiments.QuickLabConfig().Grid
	windowLen := batchWindow
	if opts.tiny {
		grid = lambda.Grid{Memories: []float64{1024, 2048}, Batches: []int{4, 8}, TimeoutsS: []float64{0.05, 0.1}}
		windowLen = 128
	}
	// Traced replays split Pipeline.Decide into its two calls and record
	// their times here.
	var fitS, optS, allocMB []float64
	setup := func(st stageTimes, rec *recorder) (replaySpec, error) {
		var tr *workload.Trace
		// A third more paper-hours than replayed always hold batchRequests.
		spec := azureSpec(opts, batchHours*4/3)
		hours, count := batchHours, batchRequests
		if opts.tiny {
			spec.Hours, hours, count = 4, 2, 800
		}
		if err := st.timed(rec, "workload.Generate", "workload.generate_ms", 1e-3, func() error {
			full, err := workload.Generate(spec)
			if err != nil {
				return err
			}
			tr, err = fixedCount(full, count, hours)
			return err
		}); err != nil {
			return replaySpec{}, err
		}
		pl := batchopt.NewPipeline(lambda.DefaultProfile(), lambda.DefaultPricing(), grid, 0.1)
		decide := func(window []float64, rec *recorder) (lambda.Config, bool, error) {
			if rec == nil {
				rep, err := pl.Decide(window)
				if err != nil {
					return lambda.Config{}, false, err
				}
				return rep.Config, rep.Prediction.Percentile(pl.Pct) <= pl.SLO, nil
			}
			s := rec.begin("arrival.FitMMPP2", -1)
			t0 := time.Now()
			fit, err := arrival.FitMMPP2(window)
			fitS = append(fitS, time.Since(t0).Seconds())
			rec.end(s)
			if err != nil {
				return lambda.Config{}, false, fmt.Errorf("fit: %w", err)
			}
			gs := readGoStats()
			s = rec.begin("batchopt.Optimize", -1)
			t0 = time.Now()
			cfg, pred, err := pl.Analyzer.Optimize(fit.MAP, pl.Grid, pl.SLO, pl.Pct)
			optS = append(optS, time.Since(t0).Seconds())
			rec.end(s)
			allocMB = append(allocMB, float64(readGoStats().allocBytes-gs.allocBytes)/(1<<20))
			if err != nil {
				return lambda.Config{}, false, err
			}
			return cfg, pred.Percentile(pl.Pct) <= pl.SLO, nil
		}
		return replaySpec{
			trace:     tr,
			periodS:   spec.HourSeconds,
			windowLen: windowLen,
			slo:       pl.SLO,
			grid:      grid,
			initial:   initialConfig,
			layer:     "batchopt",
			decide:    decide,
		}, nil
	}
	return runDecide(opts, decideWorkload{setup: setup, layers: func(o *outcome, _ *recorder, sp replaySpec, tr *replayResult) {
		n := len(optS)
		o.set("arrival.fit_ms_p50", "ms", median(fitS)*1e3, len(fitS))
		o.set("batchopt.optimize_ms_p50", "ms", median(optS)*1e3, n)
		o.set("batchopt.ms_per_config", "ms", median(optS)*1e3/float64(sp.grid.Size()), n)
		o.set("batchopt.alloc_mb_per_decide", "MB", median(allocMB), n)
	}})
}
