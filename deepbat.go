// Package deepbat is the public API of this reproduction of "DeepBAT:
// Performance and Cost Optimization of Serverless Inference Using
// Transformers" (Sun, Pinciroli, Casale, Smirni — IPDPS 2025).
//
// DeepBAT is an SLO-aware controller for serverless ML inference. It watches
// a short window of request interarrival times, asks a Transformer-based
// deep surrogate model to predict the per-request cost and latency
// percentiles of every candidate configuration (memory size M, batch size B,
// batch timeout T), and picks the cheapest configuration whose predicted
// tail latency meets the SLO.
//
// The typical flow is:
//
//	tr, _ := deepbat.GenerateTrace(deepbat.TraceSpec{Name: "azure", Hours: 12, HourSeconds: 60, Seed: 1})
//	sys, _ := deepbat.Train(tr, deepbat.DefaultOptions())
//	dec, _ := sys.Decide(window)           // one optimized configuration
//	res, _ := sys.Replay(ts, opts)         // closed-loop trace replay
//
// Everything underneath — the tensor autograd engine, the Transformer
// encoder, the MAP workload machinery, the discrete-event Lambda simulator,
// and the BATCH analytical baseline — is implemented in this module's
// internal packages with the standard library only.
package deepbat

import (
	"errors"
	"fmt"

	"deepbat/internal/batchopt"
	"deepbat/internal/core"
	"deepbat/internal/lambda"
	"deepbat/internal/optimizer"
	"deepbat/internal/qsim"
	"deepbat/internal/surrogate"
	"deepbat/internal/trace"
)

// Re-exported core types, so downstream users never import internal paths.
type (
	// Config is one serverless configuration (M, B, T).
	Config = lambda.Config
	// Grid is the candidate configuration space.
	Grid = lambda.Grid
	// Profile is a deterministic service-time profile of one model class.
	Profile = lambda.Profile
	// Pricing is the AWS Lambda cost model.
	Pricing = lambda.Pricing
	// Model is the Transformer deep surrogate.
	Model = surrogate.Model
	// ModelConfig holds the surrogate architecture hyperparameters.
	ModelConfig = surrogate.ModelConfig
	// TrainConfig holds the training hyperparameters.
	TrainConfig = surrogate.TrainConfig
	// Dataset is a labeled (window, configuration) -> target set.
	Dataset = surrogate.Dataset
	// Sample is one supervised training example: an interarrival window, a
	// candidate configuration, and its ground-truth target vector.
	Sample = surrogate.Sample
	// Decision is the outcome of one optimization.
	Decision = optimizer.Decision
	// Prediction is a de-normalized surrogate output.
	Prediction = surrogate.Prediction
	// TraceSpec configures workload synthesis.
	TraceSpec = trace.Spec
	// Trace is a synthesized workload.
	Trace = trace.Trace
	// RatePoint is one sample of a trace's arrival-rate series.
	RatePoint = trace.RatePoint
	// ReplayOptions controls closed-loop trace replay.
	ReplayOptions = core.ReplayOptions
	// ReplayResult aggregates a closed-loop replay.
	ReplayResult = core.ReplayResult
	// Decider selects configurations at control points.
	Decider = core.Decider
)

// TraceNames lists the built-in workload generators
// (azure, twitter, alibaba, synthetic).
func TraceNames() []string { return trace.Names() }

// GenerateTrace synthesizes one of the built-in workloads.
func GenerateTrace(spec TraceSpec) (*Trace, error) { return trace.Generate(spec) }

// DefaultGrid returns the evaluation's candidate configuration space.
func DefaultGrid() Grid { return lambda.DefaultGrid() }

// DefaultProfile returns the NLP inference service-time profile.
func DefaultProfile() Profile { return lambda.DefaultProfile() }

// DefaultPricing returns current AWS Lambda pricing (1 ms billing).
func DefaultPricing() Pricing { return lambda.DefaultPricing() }

// Options bundles everything needed to build a System.
type Options struct {
	Profile Profile
	Pricing Pricing
	Grid    Grid
	// SLO is the latency objective in seconds on the tail percentile.
	SLO float64
	// Pct is the constrained percentile (default 95).
	Pct float64
	// Model configures the surrogate architecture.
	Model ModelConfig
	// Train configures pre-training.
	Train TrainConfig
	// DatasetSamples is the number of labeled samples generated for
	// pre-training.
	DatasetSamples int
	// Seed drives dataset sampling.
	Seed int64
}

// DefaultOptions returns the paper's evaluation setup: SLO 0.1 s on the 95th
// percentile over the default grid.
func DefaultOptions() Options {
	return Options{
		Profile:        lambda.DefaultProfile(),
		Pricing:        lambda.DefaultPricing(),
		Grid:           lambda.DefaultGrid(),
		SLO:            0.1,
		Pct:            95,
		Model:          surrogate.DefaultModelConfig(),
		Train:          surrogate.DefaultTrainConfig(),
		DatasetSamples: 1500,
		Seed:           1,
	}
}

// System is a ready-to-serve DeepBAT instance: a trained surrogate plus the
// optimizer, simulator, and baselines configured consistently.
type System struct {
	Opts      Options
	Model     *Model
	Optimizer *optimizer.Optimizer
	Simulator *qsim.Simulator
}

// NewModel builds a fresh (untrained) surrogate with the given architecture.
// Fit normalization and train it yourself (Model.FitNormalization,
// Model.Train) when constructing datasets outside BuildDataset; Train
// shards each minibatch across TrainConfig.Workers goroutines (0 =
// GOMAXPROCS) with bit-deterministic results for a fixed seed.
func NewModel(cfg ModelConfig) *Model { return surrogate.NewModel(cfg) }

// NewSystem wraps an existing (e.g. loaded) model.
func NewSystem(m *Model, opts Options) *System {
	if opts.Pct == 0 {
		opts.Pct = 95
	}
	opt := optimizer.New(m, opts.Grid, opts.SLO)
	opt.Pct = opts.Pct
	opt.Gamma = m.GammaHint
	return &System{
		Opts:      opts,
		Model:     m,
		Optimizer: opt,
		Simulator: qsim.New(opts.Profile, opts.Pricing),
	}
}

// BuildDataset labels (window, configuration) pairs from the trace with the
// ground-truth simulator.
func BuildDataset(tr *Trace, opts Options) (*Dataset, error) {
	sim := qsim.New(opts.Profile, opts.Pricing)
	b := surrogate.DefaultBuildOptions(opts.Grid)
	b.NumSamples = opts.DatasetSamples
	b.SeqLen = opts.Model.SeqLen
	b.Percentiles = opts.Model.Percentiles
	b.Seed = opts.Seed
	return surrogate.Build(tr, sim, b)
}

// Train builds a training dataset from the trace, fits normalization, trains
// a fresh surrogate, and returns the assembled System.
func Train(tr *Trace, opts Options) (*System, error) {
	ds, err := BuildDataset(tr, opts)
	if err != nil {
		return nil, fmt.Errorf("deepbat: build dataset: %w", err)
	}
	train, val := ds.Split(0.1)
	m := surrogate.NewModel(opts.Model)
	m.FitNormalization(train)
	tc := opts.Train
	tc.SLO = opts.SLO
	if _, err := m.Train(train, val, tc); err != nil {
		return nil, fmt.Errorf("deepbat: train: %w", err)
	}
	sys := NewSystem(m, opts)
	// Install the robustness penalty gamma from the validation split: the
	// 90th-percentile relative underprediction of the constrained tail.
	// Without it the optimizer suffers a winner's curse — among many
	// near-boundary candidates it picks exactly the ones whose tail the
	// model underestimates. SetGamma(0) disables the margin.
	if val.Len() > 0 {
		g := m.UnderpredictionQuantile(val, sys.Opts.Pct, 0.9)
		if g > 0.5 {
			g = 0.5
		}
		m.GammaHint = g
		sys.SetGamma(g)
	}
	return sys, nil
}

// FineTune adapts the system's model to an out-of-distribution workload
// using samples labeled from the given trace (typically its first hour), as
// in Section III-D of the paper.
func (s *System) FineTune(tr *Trace, samples int) error {
	opts := s.Opts
	opts.DatasetSamples = samples
	opts.Seed++
	ds, err := BuildDataset(tr, opts)
	if err != nil {
		return fmt.Errorf("deepbat: fine-tune dataset: %w", err)
	}
	ft := surrogate.FineTuneConfig()
	ft.SLO = s.Opts.SLO
	if _, err := s.Model.FineTune(ds, ft); err != nil {
		return fmt.Errorf("deepbat: fine-tune: %w", err)
	}
	// Recalibrate the robustness margin on the adaptation data — the model
	// changed and so did the workload distribution.
	g := s.Model.UnderpredictionQuantile(ds, s.Opts.Pct, 0.9)
	if g > 0.5 {
		g = 0.5
	}
	s.Model.GammaHint = g
	s.SetGamma(g)
	return nil
}

// Decide runs one optimization over the recent interarrival window.
func (s *System) Decide(window []float64) (Decision, error) {
	return s.Optimizer.Decide(window)
}

// SetGamma installs the robustness penalty factor that tightens the SLO.
func (s *System) SetGamma(gamma float64) { s.Optimizer.Gamma = gamma }

// CalibrateGamma measures the paper's robustness penalty factor
// (Section III-D): it predicts the constrained tail percentile for a probe
// configuration on the given interarrival window, simulates the same window
// as ground truth, installs gamma = |P_hat - P| / P (clamped to [0, 0.5])
// on the optimizer, and returns it. Use it after fine-tuning, or as a fast
// reaction to an entirely unseen arrival process.
func (s *System) CalibrateGamma(window []float64, probe Config) (float64, error) {
	l := s.Model.Cfg.SeqLen
	if len(window) < l {
		return 0, errors.New("deepbat: window shorter than the model input")
	}
	pred := s.Model.Predict(window[len(window)-l:], probe)
	tail, ok := pred.Percentile(s.Model.Cfg, s.Opts.Pct)
	if !ok {
		return 0, fmt.Errorf("deepbat: model does not predict P%g", s.Opts.Pct)
	}
	truth, err := s.Simulator.Evaluate(window, probe, []float64{s.Opts.Pct})
	if err != nil {
		return 0, err
	}
	gamma := surrogate.PenaltyGamma(tail, truth.Percentiles[0])
	if gamma > 0.5 {
		gamma = 0.5
	}
	// Raise-only: a single-window probe is a fast alarm for unseen arrival
	// processes, not grounds to shrink a margin calibrated on more data.
	if gamma < s.Optimizer.Gamma {
		gamma = s.Optimizer.Gamma
	}
	s.SetGamma(gamma)
	return gamma, nil
}

// WithSLO returns a system targeting a different SLO; the trained model is
// shared, only the optimizer and baselines are rebuilt.
func (s *System) WithSLO(slo float64) *System {
	opts := s.Opts
	opts.SLO = slo
	return NewSystem(s.Model, opts)
}

// Decider returns the DeepBAT controller for closed-loop replay.
func (s *System) Decider() Decider { return core.NewDeepBATDecider(s.Optimizer) }

// BATCHBaseline returns the analytical baseline controller configured
// identically (same grid, SLO, profile, pricing).
func (s *System) BATCHBaseline() Decider {
	pl := batchopt.NewPipeline(s.Opts.Profile, s.Opts.Pricing, s.Opts.Grid, s.Opts.SLO)
	pl.Pct = s.Opts.Pct
	return core.NewBATCHDecider(pl)
}

// Oracle returns the ground-truth controller (perfect foresight).
func (s *System) Oracle() Decider {
	return core.NewOracleDecider(s.Simulator, s.Opts.Grid, s.Opts.SLO)
}

// Static returns a fixed-configuration controller.
func (s *System) Static(cfg Config) Decider { return core.StaticDecider{Cfg: cfg} }

// Replay drives a timestamp trace through the batching system with the given
// controller and periodic reconfiguration.
func (s *System) Replay(arrivals []float64, dec Decider, opts ReplayOptions) (*ReplayResult, error) {
	return core.NewEngine(s.Simulator).Replay(arrivals, dec, opts)
}

// SaveModel persists the trained surrogate to a file.
func (s *System) SaveModel(path string) error { return s.Model.SaveFile(path) }

// LoadSystem restores a System from a saved model file.
func LoadSystem(path string, opts Options) (*System, error) {
	m, err := surrogate.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return NewSystem(m, opts), nil
}
