package surrogate

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"deepbat/internal/lambda"
	"deepbat/internal/tensor"
)

// bitEqual reports whether two floats have identical bit patterns.
func bitEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// comparePredictions fails the test unless the batched prediction matches the
// per-candidate one bit for bit.
func comparePredictions(t *testing.T, tag string, got, want Prediction) {
	t.Helper()
	if !bitEqual(got.CostPerRequest, want.CostPerRequest) {
		t.Fatalf("%s: cost %v vs %v (bitwise)", tag, got.CostPerRequest, want.CostPerRequest)
	}
	if len(got.Percentiles) != len(want.Percentiles) {
		t.Fatalf("%s: percentile lengths %d vs %d", tag, len(got.Percentiles), len(want.Percentiles))
	}
	for j := range want.Percentiles {
		if !bitEqual(got.Percentiles[j], want.Percentiles[j]) {
			t.Fatalf("%s: percentile %d = %v vs %v (bitwise)", tag, j, got.Percentiles[j], want.Percentiles[j])
		}
	}
}

// randomWindow draws a plausible interarrival window of length n.
func randomWindow(rng *rand.Rand, n int) []float64 {
	seq := make([]float64, n)
	for i := range seq {
		seq[i] = 0.001 + 0.05*rng.Float64()
	}
	return seq
}

// randomGrid draws a small random configuration grid.
func randomGrid(rng *rand.Rand) []lambda.Config {
	n := 1 + rng.Intn(12)
	cfgs := make([]lambda.Config, n)
	for i := range cfgs {
		cfgs[i] = lambda.Config{
			MemoryMB:  float64(512 * (1 + rng.Intn(8))),
			BatchSize: 1 + rng.Intn(16),
			TimeoutS:  0.01 + 0.2*rng.Float64(),
		}
	}
	return cfgs
}

// TestPredictGridBitIdenticalToPredict pins the tentpole contract: the
// row-batched grid sweep must reproduce the per-candidate Predict path bit
// for bit, across model seeds, window lengths, and random grids. The rows of
// a matrix product are computed independently with a fixed summation order,
// so batching must not change a single bit.
func TestPredictGridBitIdenticalToPredict(t *testing.T) {
	for _, seed := range []int64{1, 5, 9} {
		for _, winLen := range []int{8, 16, 33} {
			rng := rand.New(rand.NewSource(seed*100 + int64(winLen)))
			cfg := tinyModelConfig()
			cfg.Seed = seed
			m := NewModel(cfg)
			// Non-trivial normalization so the feature branch sees varied rows.
			m.Norm.SeqMean, m.Norm.SeqStd = -3, 1.5
			m.Norm.FeatMean = [3]float64{1500, 4, 0.05}
			m.Norm.FeatStd = [3]float64{700, 3, 0.03}
			seq := randomWindow(rng, winLen)
			cfgs := append(tinyGrid().Configs(), randomGrid(rng)...)
			grid := m.PredictGrid(seq, cfgs)
			if len(grid) != len(cfgs) {
				t.Fatalf("PredictGrid returned %d of %d", len(grid), len(cfgs))
			}
			for i, c := range cfgs {
				comparePredictions(t, c.String(), grid[i], m.Predict(seq, c))
			}
		}
	}
}

// FuzzPredictGridMatchesPredict fuzzes the batched/per-candidate equivalence
// over model seed, window length, and grid draw.
func FuzzPredictGridMatchesPredict(f *testing.F) {
	f.Add(int64(1), uint8(16))
	f.Add(int64(42), uint8(3))
	f.Add(int64(-7), uint8(64))
	f.Fuzz(func(t *testing.T, seed int64, winLen uint8) {
		n := int(winLen)%64 + 1
		rng := rand.New(rand.NewSource(seed))
		cfg := tinyModelConfig()
		cfg.Seed = seed
		m := NewModel(cfg)
		seq := randomWindow(rng, n)
		cfgs := randomGrid(rng)
		grid := m.PredictGrid(seq, cfgs)
		for i, c := range cfgs {
			comparePredictions(t, c.String(), grid[i], m.Predict(seq, c))
		}
	})
}

// TestPredictGridEmpty keeps the zero-candidate edge case panic-free.
func TestPredictGridEmpty(t *testing.T) {
	m := NewModel(tinyModelConfig())
	if got := m.PredictGrid(randomWindow(rand.New(rand.NewSource(1)), 8), nil); len(got) != 0 {
		t.Fatalf("PredictGrid(nil grid) = %d predictions", len(got))
	}
}

// TestEvalBatchedMatchesPerSample pins the batched validation passes to the
// per-sample forward they replaced: forwardRows row i must equal Forward of
// sample i bitwise, and EvalLoss must equal the sample-order mean of
// sampleLoss. It runs at the tiny test scale and at paper scale (SeqLen 64,
// where the encoder's products take the blocked kernel).
func TestEvalBatchedMatchesPerSample(t *testing.T) {
	for _, cfg := range []ModelConfig{tinyModelConfig(), DefaultModelConfig()} {
		ds := tinyDataset(t, 6, cfg.SeqLen)
		m := NewModel(cfg)
		m.FitNormalization(ds)
		tc := DefaultTrainConfig()

		var rows [][]float64
		tensor.NoGrad(func() {
			m.forwardRows(ds, func(out *tensor.Tensor) {
				w := m.Cfg.OutputDim()
				for i := 0; i < ds.Len(); i++ {
					rows = append(rows, append([]float64(nil), out.Data[i*w:(i+1)*w]...))
				}
			})
		})
		var wantLoss float64
		tensor.NoGrad(func() {
			for i, s := range ds.Samples {
				want := m.Forward(s.Seq, s.Config)
				for j := range want.Data {
					if !bitEqual(rows[i][j], want.Data[j]) {
						t.Fatalf("SeqLen %d sample %d output %d = %v vs %v (bitwise)", cfg.SeqLen, i, j, rows[i][j], want.Data[j])
					}
				}
				wantLoss += m.sampleLoss(s, tc).Item()
			}
		})
		wantLoss /= float64(ds.Len())
		if got := m.EvalLoss(ds, tc); !bitEqual(got, wantLoss) {
			t.Fatalf("SeqLen %d: EvalLoss = %v, want %v (bitwise)", cfg.SeqLen, got, wantLoss)
		}
	}
}

// encodeBoth returns the tape-free encoding and the tape path's
// (EncodeSequence under NoGrad) for one window.
func encodeBoth(m *Model, seq []float64) (got, want []float64) {
	got = make([]float64, m.Cfg.EmbedDim)
	tensor.NoGrad(func() {
		m.encode(got, seq)
		want = m.EncodeSequence(seq).Data
	})
	return got, want
}

// checkEncode fails the test unless the tape-free encoder reproduces
// EncodeSequence bit for bit on seq.
func checkEncode(t *testing.T, tag string, m *Model, seq []float64) {
	t.Helper()
	got, want := encodeBoth(m, seq)
	for j := range want {
		if !bitEqual(got[j], want[j]) {
			t.Fatalf("%s (len %d): encoding %d = %v, want %v (bitwise)", tag, len(seq), j, got[j], want[j])
		}
	}
}

// fuzzedModel builds a model of the given architecture at seed with a
// non-trivial normalization, so the encoder sees inputs on both sides of 0.
func fuzzedModel(cfg ModelConfig, seed int64, noPostAtt bool) *Model {
	cfg.Seed = seed
	cfg.DisablePostAttention = noPostAtt
	m := NewModel(cfg)
	m.Norm.SeqMean, m.Norm.SeqStd = -3.5, 1.7
	return m
}

// edgeWindow draws an interarrival window of length n that mixes ordinary
// gaps with exact zeros (simultaneous arrivals) and sub-1e-7 gaps, both of
// which logT clamps to the same value.
func edgeWindow(rng *rand.Rand, n int) []float64 {
	seq := randomWindow(rng, n)
	for i := range seq {
		switch rng.Intn(5) {
		case 0:
			seq[i] = 0
		case 1:
			seq[i] = 1e-9 * rng.Float64()
		}
	}
	return seq
}

// TestEncodeMatchesTape pins the tape-free encoder to EncodeSequence bitwise
// at the tiny test scale and at paper scale, for every window length
// 1..SeqLen (below 8 positions the attention logits take the naive kernel,
// from 8 on the blocked one), with zero and sub-1e-7 interarrivals, and with
// the post-pooling attention ablated.
func TestEncodeMatchesTape(t *testing.T) {
	for _, cfg := range []ModelConfig{tinyModelConfig(), DefaultModelConfig()} {
		for _, noPostAtt := range []bool{false, true} {
			m := fuzzedModel(cfg, 3, noPostAtt)
			rng := rand.New(rand.NewSource(int64(cfg.SeqLen)))
			for n := 1; n <= cfg.SeqLen; n++ {
				tag := fmt.Sprintf("SeqLen %d noPostAtt %v", cfg.SeqLen, noPostAtt)
				checkEncode(t, tag, m, randomWindow(rng, n))
				checkEncode(t, tag+" edge", m, edgeWindow(rng, n))
			}
		}
	}
}

// FuzzEncodeMatchesTape fuzzes the tape-free encoder against EncodeSequence
// over model seed, window length, window draw, model scale and the
// post-attention ablation.
func FuzzEncodeMatchesTape(f *testing.F) {
	f.Add(int64(1), uint8(16), false, false)
	f.Add(int64(42), uint8(1), true, false)
	f.Add(int64(-7), uint8(64), true, true)
	f.Fuzz(func(t *testing.T, seed int64, winLen uint8, paper, noPostAtt bool) {
		cfg := tinyModelConfig()
		if paper {
			cfg = DefaultModelConfig()
		}
		m := fuzzedModel(cfg, seed, noPostAtt)
		rng := rand.New(rand.NewSource(seed))
		checkEncode(t, "fuzz", m, edgeWindow(rng, int(winLen)%cfg.SeqLen+1))
	})
}

// TestPredictGridAllocBudget guards the allocation profile of a steady-state
// sweep over the default 216-candidate grid at paper scale: the encoder and
// head run in a pooled workspace, so what is left is the result (the
// prediction slice and its shared percentile backing) and a few
// constant-size allocations, far below the per-candidate path's 11,664.
func TestPredictGridAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; alloc budget is not meaningful")
	}
	for _, cfg := range []ModelConfig{tinyModelConfig(), DefaultModelConfig()} {
		m := NewModel(cfg)
		seq := randomWindow(rand.New(rand.NewSource(2)), m.Cfg.SeqLen)
		cfgs := lambda.DefaultGrid().Configs()
		m.PredictGrid(seq, cfgs) // warm the workspace pool
		allocs := testing.AllocsPerRun(5, func() {
			m.PredictGrid(seq, cfgs)
		})
		const budget = 50
		if allocs > budget {
			t.Fatalf("SeqLen %d: PredictGrid allocates %.0f/op over %d candidates, budget %d", cfg.SeqLen, allocs, len(cfgs), budget)
		}
	}
}

// TestPredictGridConcurrentMatchesSerial runs PredictGrid on one shared
// paper-scale model from several goroutines at once (each sweep takes its
// own pooled workspace) and requires every result to match the serial
// sweep of the same window bit for bit. Run under -race in CI.
func TestPredictGridConcurrentMatchesSerial(t *testing.T) {
	m := fuzzedModel(DefaultModelConfig(), 4, false)
	cfgs := lambda.DefaultGrid().Configs()
	rng := rand.New(rand.NewSource(5))
	const goroutines, rounds = 4, 3
	windows := make([][]float64, goroutines)
	serial := make([][]Prediction, goroutines)
	for g := range windows {
		windows[g] = edgeWindow(rng, 1+rng.Intn(m.Cfg.SeqLen))
		serial[g] = m.PredictGrid(windows[g], cfgs)
	}
	got := make([][][]Prediction, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Interleave every window so sweeps of different lengths
				// overlap on each goroutine.
				w := (g + r) % goroutines
				got[g] = append(got[g], m.PredictGrid(windows[w], cfgs))
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		for r, preds := range got[g] {
			w := (g + r) % goroutines
			for i := range preds {
				comparePredictions(t, fmt.Sprintf("goroutine %d round %d %s", g, r, cfgs[i]), preds[i], serial[w][i])
			}
		}
	}
}

// TestAttentionScoresTapeFreeCapture checks that the NoGrad visualization
// pass sees exactly the scores a grad-mode forward records.
func TestAttentionScoresTapeFreeCapture(t *testing.T) {
	m := NewModel(tinyModelConfig())
	seq := randomWindow(rand.New(rand.NewSource(3)), 16)
	got := m.AttentionScores(seq)

	// Grad-mode reference: EncodeSequence records scores on the tape path.
	m.EncodeSequence(seq)
	agg := make([]float64, len(seq))
	for _, h := range m.enc.Layers[0].Att.LastScores() {
		for r := 0; r < h.Rows(); r++ {
			for c := 0; c < h.Cols(); c++ {
				agg[c] += h.At(r, c)
			}
		}
	}
	total := 0.0
	for _, v := range agg {
		total += v
	}
	for i := range agg {
		agg[i] /= total
	}
	for i := range agg {
		if !bitEqual(got[i], agg[i]) {
			t.Fatalf("score %d = %v, want %v (bitwise)", i, got[i], agg[i])
		}
	}
}

// BenchmarkEncode times one paper-scale window through the tape path
// (EncodeSequence under NoGrad) and through the tape-free encoder.
func BenchmarkEncode(b *testing.B) {
	m := NewModel(DefaultModelConfig())
	seq := randomWindow(rand.New(rand.NewSource(6)), m.Cfg.SeqLen)
	b.Run("tape", func(b *testing.B) {
		b.ReportAllocs()
		tensor.NoGrad(func() {
			for i := 0; i < b.N; i++ {
				m.EncodeSequence(seq)
			}
		})
	})
	b.Run("workspace", func(b *testing.B) {
		b.ReportAllocs()
		dst := make([]float64, m.Cfg.EmbedDim)
		tensor.NoGrad(func() {
			for i := 0; i < b.N; i++ {
				m.encode(dst, seq)
			}
		})
	})
}
