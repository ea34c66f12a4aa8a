// Command bench is the performance-regression harness: it runs the core
// benchmark set programmatically (testing.Benchmark, so the numbers match
// `go test -bench`) and writes a JSON snapshot — BENCH_<n>.json at the repo
// root by convention — giving successive PRs a perf trajectory to compare
// against.
//
//	go run ./cmd/bench -out BENCH_5.json -baseline BENCH_4.json
//
// The set covers the surrogate hot paths this project optimizes: the matmul
// kernel across a size sweep (64/128/256/512, spanning both sides of the
// blocked-dispatch threshold), one encoder train step, a full train epoch
// serial vs parallel (data-parallel minibatch sharding) vs
// serial-with-observability, the encode-once batched grid sweep, a full
// DeepBAT decision, and the gateway serving path: zero-alloc pooled admit
// (GatewayAdmit), size-triggered batch dispatch (GatewayDispatchBatch), and
// the pooled sharded path at P = 1/4/8 (GatewaySharded*). Gateway benchmarks
// run against a constant-time backend so they measure gateway overhead, not
// the simulated-Lambda service-time model shared by every path.
//
// The snapshot also records train_obs_overhead_pct — the relative cost of
// instrumented training, measured with paired alternating runs and asserted
// against the 5% budget the observability PR set — plus the pooled-path
// guarantee gateway_admit_allocs_per_op (asserted zero). When -baseline
// names an earlier snapshot, per-name speedup and allocation ratios are
// included.
//
// Since the parallel-sweep PR every result records the GOMAXPROCS it ran at,
// and the CPU-bound kernel/training/sweep benchmarks run twice on multi-core
// machines — once at the machine's core count (plain names, so baseline
// ratios keep lining up) and once pinned to one core ("/gomaxprocs=1"
// variants). The sweep benchmarks cover the fan-out engine itself:
// SweepDispatch measures pure dispatch overhead (1024 no-op cells), and the
// scenarios matrix runs at -workers 1 vs 8 to pin the engine's two
// guarantees — the reports must be byte-identical (asserted everywhere) and
// the 8-worker run must be ≥ 3x faster (asserted only when the machine has
// at least 8 CPUs; single-core machines record the measured ratio with a
// skip note instead).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"deepbat"
	"deepbat/internal/experiments"
	"deepbat/internal/gateway"
	"deepbat/internal/lambda"
	"deepbat/internal/nn"
	"deepbat/internal/obs"
	"deepbat/internal/sweep"
	"deepbat/internal/tensor"
)

// trainObsBudgetPct is the observability-overhead budget for instrumented
// training, in percent. This is the single place the budget lives; the
// snapshot's train_obs_overhead_pct is asserted against it.
const trainObsBudgetPct = 5.0

// sweepSpeedupFloor is the acceptance floor for the parallel sweep engine:
// the scenarios matrix at 8 workers must beat 1 worker by at least this
// factor. The floor only binds on machines with sweepSpeedupMinCPU cores —
// below that the hardware cannot exhibit the parallelism the gate measures,
// so the snapshot records the honest ratio and the assertion is skipped
// (CI's multi-core runners enforce it).
const (
	sweepSpeedupFloor  = 3.0
	sweepSpeedupMinCPU = 8
)

// Result is one benchmark measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// GOMAXPROCS is the parallelism the measurement ran at: core-count for
	// the plain names, 1 for the "/gomaxprocs=1" variants.
	GOMAXPROCS int `json:"gomaxprocs"`
}

// Snapshot is the file layout of BENCH_<n>.json.
type Snapshot struct {
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"num_cpu"`
	Results    []Result `json:"results"`
	// TrainObsOverheadPct is the relative cost of instrumented over serial
	// training in percent, the median of paired alternating runs (may be
	// slightly negative from run noise). Asserted <= trainObsBudgetPct.
	TrainObsOverheadPct float64 `json:"train_obs_overhead_pct"`
	// GatewayAdmitAllocsPerOp is the steady-state allocation count of the
	// pooled admit→dispatch→wait path. Asserted zero.
	GatewayAdmitAllocsPerOp int64 `json:"gateway_admit_allocs_per_op"`
	// SweepScenariosSecsW1/W8 are the median wall-clock seconds for the
	// quick-scale scenarios matrix through the sweep engine at 1 and 8
	// workers; SweepScenariosSpeedup8Vs1 is their ratio, asserted >=
	// sweepSpeedupFloor when the machine has sweepSpeedupMinCPU+ cores.
	SweepScenariosSecsW1      float64 `json:"sweep_scenarios_secs_w1"`
	SweepScenariosSecsW8      float64 `json:"sweep_scenarios_secs_w8"`
	SweepScenariosSpeedup8Vs1 float64 `json:"sweep_scenarios_speedup_8_vs_1"`
	// SweepScenariosIdentical records whether every scenarios run — all
	// repetitions at both worker counts — rendered byte-identical reports.
	// Asserted true on every machine.
	SweepScenariosIdentical bool `json:"sweep_scenarios_identical"`
	// Baseline is the earlier snapshot the ratio maps compare against.
	Baseline string `json:"baseline,omitempty"`
	// SpeedupVsBaseline maps benchmark name to baselineNs/currentNs (>1 means
	// this snapshot is faster) for names present in both snapshots.
	SpeedupVsBaseline map[string]float64 `json:"speedup_vs_baseline,omitempty"`
	// AllocImprovementVsBaseline maps benchmark name to
	// baselineAllocs/currentAllocs (>1 means fewer allocations now).
	AllocImprovementVsBaseline map[string]float64 `json:"alloc_improvement_vs_baseline,omitempty"`
}

// compareBaseline fills the ratio maps from an earlier snapshot on disk. A
// missing or unreadable baseline is not an error — first runs have none.
func (s *Snapshot) compareBaseline(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Printf("no baseline at %s; skipping ratios\n", path)
		return
	}
	var base Snapshot
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "bench: baseline %s: %v\n", path, err)
		return
	}
	byName := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		byName[r.Name] = r
	}
	s.Baseline = path
	s.SpeedupVsBaseline = map[string]float64{}
	s.AllocImprovementVsBaseline = map[string]float64{}
	for _, r := range s.Results {
		b, ok := byName[r.Name]
		if !ok || r.NsPerOp == 0 {
			continue
		}
		s.SpeedupVsBaseline[r.Name] = b.NsPerOp / r.NsPerOp
		if r.AllocsPerOp > 0 {
			s.AllocImprovementVsBaseline[r.Name] = float64(b.AllocsPerOp) / float64(r.AllocsPerOp)
		}
		fmt.Printf("%-24s %6.2fx faster, %6.2fx fewer allocs vs %s\n",
			r.Name, s.SpeedupVsBaseline[r.Name], s.AllocImprovementVsBaseline[r.Name], path)
	}
}

func measure(name string, f func(b *testing.B)) Result {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		f(b)
	})
	res := Result{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}
	fmt.Printf("%-24s %12.0f ns/op %12d B/op %9d allocs/op\n",
		res.Name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
	return res
}

// measureBoth measures a CPU-bound benchmark at the machine's core count
// under its plain name (keeping baseline ratios comparable across
// snapshots) and, on multi-core machines, again pinned to one core as a
// "/gomaxprocs=1" variant — the single-core numbers separate algorithmic
// wins from parallel scaling. Single-core machines skip the duplicate.
func measureBoth(snap *Snapshot, name string, f func(b *testing.B)) {
	snap.Results = append(snap.Results, measure(name, f))
	if runtime.NumCPU() > 1 {
		old := runtime.GOMAXPROCS(1)
		snap.Results = append(snap.Results, measure(name+"/gomaxprocs=1", f))
		runtime.GOMAXPROCS(old)
	}
}

// measureMedian runs a benchmark runs times and keeps the median-ns/op
// result. The sub-microsecond gateway benchmarks are scheduler-noise
// sensitive, and the zero-alloc assertion needs a stable reading.
func measureMedian(name string, runs int, f func(b *testing.B)) Result {
	results := make([]Result, 0, runs)
	for i := 0; i < runs; i++ {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			f(b)
		})
		results = append(results, Result{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
		})
	}
	sort.Slice(results, func(i, j int) bool { return results[i].NsPerOp < results[j].NsPerOp })
	res := results[len(results)/2]
	fmt.Printf("%-24s %12.0f ns/op %12d B/op %9d allocs/op  (median of %d)\n",
		res.Name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp, runs)
	return res
}

func trainDataset(n, seqLen int) *deepbat.Dataset {
	rng := rand.New(rand.NewSource(7))
	cfgs := deepbat.DefaultGrid().Configs()
	pcts := []float64{50, 75, 90, 95, 99}
	ds := &deepbat.Dataset{Percentiles: pcts}
	for i := 0; i < n; i++ {
		seq := make([]float64, seqLen)
		for j := range seq {
			seq[j] = 0.005 + 0.01*rng.Float64()
		}
		target := make([]float64, 1+len(pcts))
		target[0] = 2e-6
		base := 0.02
		for j := 1; j < len(target); j++ {
			base += 0.01 * rng.Float64()
			target[j] = base
		}
		ds.Samples = append(ds.Samples, deepbat.Sample{
			Seq: seq, Config: cfgs[rng.Intn(len(cfgs))], Target: target,
		})
	}
	return ds
}

func trainEpoch(b *testing.B, workers int, instrumented bool) {
	ds := trainDataset(64, 32)
	mc := deepbat.DefaultOptions().Model
	mc.SeqLen = 32
	tc := deepbat.DefaultOptions().Train
	tc.Epochs = 1
	tc.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := deepbat.NewModel(mc)
		m.FitNormalization(ds)
		if instrumented {
			// A fresh registry per iteration includes registration cost in
			// the measurement — the realistic worst case.
			tc.Obs = obs.NewRegistry()
		}
		b.StartTimer()
		if _, err := m.Train(ds, nil, tc); err != nil {
			b.Fatal(err)
		}
	}
}

// trainObsOverhead measures the instrumented-over-serial training overhead
// with paired, alternating single-epoch runs: each pair times one serial and
// one instrumented epoch back to back (so slow drift — thermal, background
// load — hits both sides of a pair equally), and the reported figure is the
// median per-pair overhead. Independent testing.Benchmark runs of the two
// epochs (how BENCH_3 computed it) jitter several percent either way, which
// is wider than the budget being asserted.
func trainObsOverhead(pairs int) float64 {
	ds := trainDataset(64, 32)
	mc := deepbat.DefaultOptions().Model
	mc.SeqLen = 32
	tc := deepbat.DefaultOptions().Train
	tc.Epochs = 1
	tc.Workers = 1
	runOne := func(reg *obs.Registry) float64 {
		m := deepbat.NewModel(mc)
		m.FitNormalization(ds)
		tc.Obs = reg
		start := time.Now()
		if _, err := m.Train(ds, nil, tc); err != nil {
			fmt.Fprintln(os.Stderr, "bench: train:", err)
			os.Exit(1)
		}
		return time.Since(start).Seconds()
	}
	// One unmeasured warmup pair primes caches and the page allocator.
	runOne(nil)
	runOne(obs.NewRegistry())
	overheads := make([]float64, 0, pairs)
	for i := 0; i < pairs; i++ {
		serial := runOne(nil)
		instrumented := runOne(obs.NewRegistry())
		overheads = append(overheads, 100*(instrumented-serial)/serial)
	}
	sort.Float64s(overheads)
	return overheads[len(overheads)/2]
}

// scenariosSecs runs the quick-scale scenarios matrix through the sweep
// engine `runs` times at the given worker count, returning the rendered
// report (identical across repetitions by the engine's determinism
// guarantee, checked by the caller) and the median wall-clock seconds. Each
// repetition uses a fresh lab so trace generation and replay — the work the
// cells parallelize — are measured end to end.
func scenariosSecs(workers, runs int) (string, float64) {
	var rep string
	secs := make([]float64, 0, runs)
	for i := 0; i < runs; i++ {
		cfg := experiments.QuickLabConfig()
		cfg.Workers = workers
		l := experiments.NewLab(cfg)
		start := time.Now()
		r, err := experiments.Run(l, "scenarios")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: scenarios:", err)
			os.Exit(1)
		}
		secs = append(secs, time.Since(start).Seconds())
		if i == 0 {
			rep = r.String()
		} else if got := r.String(); got != rep {
			fmt.Fprintf(os.Stderr, "bench: ASSERT FAILED: scenarios report differs between repetitions at workers=%d\n", workers)
			os.Exit(1)
		}
	}
	sort.Float64s(secs)
	return rep, secs[len(secs)/2]
}

// nullBackend completes instantly at a fixed cost, isolating gateway
// overhead (queueing, batching, pooling, accounting) from the simulated
// service-time model every real path shares.
type nullBackend struct{}

func (nullBackend) Execute(cfg lambda.Config, batchSize int) (time.Duration, float64, error) {
	return time.Millisecond, 1e-6, nil
}

// newBenchGateway builds a gateway over the null backend for one benchmark.
func newBenchGateway(shards int, cfg lambda.Config) *gateway.Gateway {
	g, err := gateway.New(nullBackend{}, nil, gateway.Config{
		Initial: cfg,
		SLO:     0.1,
		Shards:  shards,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: gateway:", err)
		os.Exit(1)
	}
	return g
}

func main() {
	out := flag.String("out", "BENCH_5.json", "output JSON path")
	baseline := flag.String("baseline", "BENCH_4.json", "earlier snapshot to compute speedup ratios against (missing file = no ratios)")
	flag.Parse()

	snap := Snapshot{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}

	// The size sweep spans both sides of the gemm blocked-dispatch threshold:
	// 64 runs the naive kernel, 128+ the packed/blocked one.
	for _, n := range []int{64, 128, 256, 512} {
		n := n
		measureBoth(&snap, fmt.Sprintf("TensorMatMul%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x := tensor.Randn(rng, 1, n, n)
			y := tensor.Randn(rng, 1, n, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.MatMul(x, y)
			}
		})
	}

	measureBoth(&snap, "EncoderTrainStep", func(b *testing.B) {
		rng := rand.New(rand.NewSource(3))
		enc := nn.NewEncoder(rng, 2, 16, 32, 2, 0)
		x := tensor.Randn(rng, 1, 64, 16)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			y := enc.Forward(x)
			loss := tensor.SumAll(tensor.Mul(y, y))
			tensor.Backward(loss)
			for _, p := range enc.Params() {
				p.ZeroGrad()
			}
		}
	})

	measureBoth(&snap, "TrainEpochSerial", func(b *testing.B) { trainEpoch(b, 1, false) })
	measureBoth(&snap, "TrainEpochParallel", func(b *testing.B) { trainEpoch(b, 0, false) })
	measureBoth(&snap, "TrainEpochInstrumented", func(b *testing.B) { trainEpoch(b, 1, true) })
	snap.TrainObsOverheadPct = trainObsOverhead(7)
	fmt.Printf("instrumented training overhead: %+.2f%% (budget %.1f%%, median of 7 pairs)\n",
		snap.TrainObsOverheadPct, trainObsBudgetPct)

	// The lab pre-trains the shared quick-scale surrogate once; Decide and
	// GridPredict then measure pure inference. (GridPredict keeps its
	// BENCH_1/2 name for the perf trajectory; since the batching PR,
	// PredictGrid *is* the batched path, so the separate *Batched aliases
	// that re-measured the same entry points were dropped in BENCH_4.)
	lab := experiments.NewLab(experiments.QuickLabConfig())
	sys, err := lab.BaseSystem()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: lab setup:", err)
		os.Exit(1)
	}
	inter := lab.Trace("azure").Interarrivals()
	window := inter[:sys.Model.Cfg.SeqLen]
	cfgs := deepbat.DefaultGrid().Configs()

	snap.Results = append(snap.Results, measure("GridPredict", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sys.Model.PredictGrid(window, cfgs)
		}
	}))

	snap.Results = append(snap.Results, measure("Decide", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sys.Decide(window); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// Gateway serving path. B=1 configurations dispatch synchronously on the
	// submitting goroutine; the sharded benchmarks drive 16 concurrent
	// clients through RunParallel so shards see interleaved traffic.
	b1 := lambda.Config{MemoryMB: 2048, BatchSize: 1, TimeoutS: 0}

	admit := measureMedian("GatewayAdmit", 3, func(b *testing.B) {
		g := newBenchGateway(1, b1)
		defer g.Stop()
		for i := 0; i < 64; i++ {
			g.Do() // warm the waiter/batch pools before measuring
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.Do()
		}
	})
	snap.Results = append(snap.Results, admit)
	snap.GatewayAdmitAllocsPerOp = admit.AllocsPerOp

	snap.Results = append(snap.Results, measureMedian("GatewayDispatchBatch", 3, func(b *testing.B) {
		// Size-triggered dispatch: 16 clients fill B=16 batches; the 5 ms
		// timer only rescues the final partial batch.
		g := newBenchGateway(1, lambda.Config{MemoryMB: 2048, BatchSize: 16, TimeoutS: 0.005})
		defer g.Stop()
		b.SetParallelism(16)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				g.Do()
			}
		})
	}))

	for _, p := range []int{1, 4, 8} {
		p := p
		snap.Results = append(snap.Results, measureMedian(fmt.Sprintf("GatewaySharded%d", p), 3, func(b *testing.B) {
			g := newBenchGateway(p, b1)
			defer g.Stop()
			b.SetParallelism(16)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					g.Do()
				}
			})
		}))
	}

	// Sweep engine: pure dispatch overhead (one op = a 1024-cell run on 4
	// workers with no-op cells), then the scenarios matrix at 1 vs 8 workers.
	measureBoth(&snap, "SweepDispatch", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sweep.Run(sweep.Options{Workers: 4}, 1024, func(*sweep.Cell) error { return nil }); err != nil {
				b.Fatal(err)
			}
		}
	})

	rep1, secs1 := scenariosSecs(1, 3)
	rep8, secs8 := scenariosSecs(8, 3)
	snap.SweepScenariosSecsW1 = secs1
	snap.SweepScenariosSecsW8 = secs8
	snap.SweepScenariosIdentical = rep1 == rep8
	if secs8 > 0 {
		snap.SweepScenariosSpeedup8Vs1 = secs1 / secs8
	}
	fmt.Printf("scenarios sweep: w1 %.3fs, w8 %.3fs, speedup %.2fx (floor %.1fx on %d+ CPUs; this machine: %d), identical=%v\n",
		snap.SweepScenariosSecsW1, snap.SweepScenariosSecsW8, snap.SweepScenariosSpeedup8Vs1,
		sweepSpeedupFloor, sweepSpeedupMinCPU, runtime.NumCPU(), snap.SweepScenariosIdentical)

	snap.compareBaseline(*baseline)

	failed := false
	if snap.TrainObsOverheadPct > trainObsBudgetPct {
		fmt.Fprintf(os.Stderr, "bench: ASSERT FAILED: train_obs_overhead_pct %.2f%% exceeds the %.1f%% budget\n",
			snap.TrainObsOverheadPct, trainObsBudgetPct)
		failed = true
	}
	if snap.GatewayAdmitAllocsPerOp > 0 {
		fmt.Fprintf(os.Stderr, "bench: ASSERT FAILED: GatewayAdmit allocates %d/op; the pooled path must be zero-alloc\n",
			snap.GatewayAdmitAllocsPerOp)
		failed = true
	}
	if !snap.SweepScenariosIdentical {
		fmt.Fprintln(os.Stderr, "bench: ASSERT FAILED: scenarios reports differ between 1 and 8 sweep workers; the engine must be byte-deterministic")
		failed = true
	}
	if runtime.NumCPU() >= sweepSpeedupMinCPU {
		if snap.SweepScenariosSpeedup8Vs1 < sweepSpeedupFloor {
			fmt.Fprintf(os.Stderr, "bench: ASSERT FAILED: scenarios sweep speedup %.2fx below the %.1fx floor\n",
				snap.SweepScenariosSpeedup8Vs1, sweepSpeedupFloor)
			failed = true
		}
	} else {
		fmt.Printf("scenarios sweep speedup floor skipped: %d CPUs < %d (ratio recorded, not asserted)\n",
			runtime.NumCPU(), sweepSpeedupMinCPU)
	}

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: encode:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench: write:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (GOMAXPROCS=%d)\n", *out, snap.GOMAXPROCS)
	if failed {
		os.Exit(1)
	}
}
