// Package surrogate implements the DeepBAT deep surrogate model (Fig. 3 of
// the paper): a Transformer encoder over the arrival interarrival sequence,
// mean pooling followed by an extra multi-head self-attention refinement,
// a feed-forward branch for the candidate configuration features (memory,
// batch size, timeout), and a feed-forward output head that predicts the
// per-request cost together with a vector of latency percentiles.
//
// The package also provides ground-truth dataset generation from the
// discrete-event simulator, the paper's training loop (Adam, combined
// Huber+MAPE loss with SLO-violation penalty), fine-tuning for
// out-of-distribution workloads, and an encode-once, row-batched fast path
// for grid inference: the sequence is encoded a single time, all candidate
// feature rows are stacked into one matrix, and the feature branch and
// output head run as row-batched GEMMs against a broadcast of the shared
// encoding (see DESIGN.md, "Batched inference & kernel blocking").
//
// Training is data-parallel: the samples of each minibatch are sharded
// across workers running weight-sharing model replicas, and the per-sample
// gradients are reduced in a fixed sample order, so training is
// bit-deterministic for a given seed regardless of the worker count.
// Inference entry points (Predict, PredictGrid, EvalLoss, EvalMAPE) run
// inside tensor.NoGrad — no autograd tape or gradient buffers are allocated
// — encode independent sequences across goroutines, and share one batched
// head pass. The rows of a matrix product are computed independently with a
// fixed summation order, so batched outputs are bit-identical to the
// per-candidate Predict path.
package surrogate

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"deepbat/internal/lambda"
	"deepbat/internal/nn"
	"deepbat/internal/stats"
	"deepbat/internal/tensor"
)

// ModelConfig holds the architecture hyperparameters. The paper's settings
// are 2 encoder layers, embedding dimension 16, feed-forward width 32, ReLU,
// and sequence length 256.
type ModelConfig struct {
	SeqLen        int
	EmbedDim      int
	FFHidden      int
	EncoderLayers int
	Heads         int
	Dropout       float64
	// Percentiles are the latency percentiles predicted alongside the cost.
	Percentiles []float64
	Seed        int64
	// DisablePostAttention ablates the Eq. 4 refinement: the pooled sequence
	// vector is used directly instead of passing through the extra
	// multi-head attention block. For the paper's architecture leave false.
	DisablePostAttention bool
}

// DefaultModelConfig returns the paper's architecture. SeqLen defaults to 64
// (the paper's own sensitivity analysis, Fig. 15a, shows the accuracy/time
// trade-off across {128, 256, 512, 1024}; a shorter default keeps CPU
// training fast and can be raised freely).
func DefaultModelConfig() ModelConfig {
	return ModelConfig{
		SeqLen:        64,
		EmbedDim:      16,
		FFHidden:      32,
		EncoderLayers: 2,
		Heads:         2,
		Dropout:       0.05,
		Percentiles:   []float64{50, 75, 90, 95, 99},
		Seed:          1,
	}
}

// OutputDim returns the width of the prediction vector: cost plus the
// percentile list.
func (c ModelConfig) OutputDim() int { return 1 + len(c.Percentiles) }

// Normalization holds the input/output standardization constants fitted on
// the training set ("Standardize" in Eq. 5 of the paper).
type Normalization struct {
	// Interarrival times are log-transformed then standardized.
	SeqMean, SeqStd float64
	// Feature standardization for (M, B, T).
	FeatMean, FeatStd [3]float64
	// Output scaling: targets are divided by these before the loss so every
	// output is O(1). Cost (USD ~1e-6) needs a large scale-up.
	OutScale []float64
}

// Model is the DeepBAT deep surrogate.
type Model struct {
	Cfg  ModelConfig
	Norm Normalization
	// GammaHint is the robustness penalty factor calibrated alongside the
	// weights (the validation-set underprediction quantile); consumers
	// should install it on their optimizer. It travels with Save/Load.
	GammaHint float64

	embed   *nn.Linear // 1 -> d (Eq. 1)
	pos     *nn.PositionalEncoding
	enc     *nn.Encoder            // Eq. 2
	postAtt *nn.MultiHeadAttention // Eq. 4, refinement of the pooled vector
	featFF  *nn.FeedForward        // Eq. 5
	outFF   *nn.FeedForward        // Eq. 6
}

// NewModel builds a model with freshly initialized parameters.
func NewModel(cfg ModelConfig) *Model {
	if cfg.SeqLen <= 0 || cfg.EmbedDim <= 0 || cfg.OutputDim() <= 1 {
		panic(fmt.Sprintf("surrogate: bad model config %+v", cfg))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := cfg.EmbedDim
	m := &Model{
		Cfg:     cfg,
		embed:   nn.NewLinear(rng, 1, d),
		pos:     nn.NewPositionalEncoding(maxSeqLen(cfg.SeqLen), d),
		enc:     nn.NewEncoder(rng, cfg.EncoderLayers, d, cfg.FFHidden, cfg.Heads, cfg.Dropout),
		postAtt: nn.NewMultiHeadAttention(rng, d, cfg.Heads),
		featFF:  nn.NewFeedForward(rng, 3, cfg.FFHidden, d),
		outFF:   nn.NewFeedForward(rng, 2*d, cfg.FFHidden, cfg.OutputDim()),
	}
	m.Norm = Normalization{
		SeqStd:   1,
		FeatStd:  [3]float64{1, 1, 1},
		OutScale: defaultOutScale(cfg.OutputDim()),
	}
	return m
}

func maxSeqLen(l int) int {
	if l < 1024 {
		return 1024
	}
	return l
}

func defaultOutScale(dim int) []float64 {
	s := make([]float64, dim)
	s[0] = 1e-6 // cost in USD is predicted in micro-USD units
	for i := 1; i < dim; i++ {
		s[i] = 0.1 // latencies predicted in 100 ms units
	}
	return s
}

// Params returns every learnable tensor.
func (m *Model) Params() []*tensor.Tensor {
	return nn.CollectParams(m.embed, m.enc, m.postAtt, m.featFF, m.outFF)
}

// replica returns a model whose parameter tensors alias m's weights (updates
// through the optimizer are immediately visible) but own private gradient
// buffers and private dropout/attention scratch state. Params() of the
// replica is index-aligned with m.Params(). The positional table is constant
// and shared.
func (m *Model) replica() *Model {
	return &Model{
		Cfg:       m.Cfg,
		Norm:      m.Norm,
		GammaHint: m.GammaHint,
		embed:     m.embed.Replicate(),
		pos:       m.pos,
		enc:       m.enc.Replicate(),
		postAtt:   m.postAtt.Replicate(),
		featFF:    m.featFF.Replicate(),
		outFF:     m.outFF.Replicate(),
	}
}

// setDropoutRNG installs one shared random stream on every dropout layer of
// the model (only the encoder layers carry dropout).
func (m *Model) setDropoutRNG(rng *rand.Rand) { m.enc.SetDropoutRNG(rng) }

// NumParams returns the scalar parameter count.
func (m *Model) NumParams() int { return nn.NumParams(m) }

// SetTrain toggles dropout.
func (m *Model) SetTrain(train bool) { m.enc.SetTrain(train) }

// normalizeSeq log-transforms and standardizes an interarrival window into a
// column tensor of shape (l, 1).
func (m *Model) normalizeSeq(seq []float64) *tensor.Tensor {
	data := make([]float64, len(seq))
	m.normalizeSeqInto(data, seq)
	return tensor.FromData(data, len(seq), 1)
}

// normalizeSeqInto writes the log-transformed, standardized window into dst
// (length len(seq)).
func (m *Model) normalizeSeqInto(dst, seq []float64) {
	for i, x := range seq {
		dst[i] = (logT(x) - m.Norm.SeqMean) / nonzero(m.Norm.SeqStd)
	}
}

// logT is the log transform applied to interarrival times, guarded against
// zero gaps (simultaneous arrivals).
func logT(x float64) float64 {
	const eps = 1e-7
	if x < eps {
		x = eps
	}
	return math.Log(x)
}

func nonzero(x float64) float64 {
	if x == 0 {
		return 1
	}
	return x
}

// normalizeFeatures standardizes (M, B, T) into a (1, 3) tensor.
func (m *Model) normalizeFeatures(cfg lambda.Config) *tensor.Tensor {
	data := make([]float64, 3)
	m.normalizeFeaturesRow(data, cfg)
	return tensor.FromData(data, 1, 3)
}

// normalizeFeaturesRow writes the standardized (M, B, T) row of cfg into dst
// (length 3), the row layout consumed by the batched feature branch.
func (m *Model) normalizeFeaturesRow(dst []float64, cfg lambda.Config) {
	raw := [3]float64{cfg.MemoryMB, float64(cfg.BatchSize), cfg.TimeoutS}
	for i, x := range raw {
		dst[i] = (x - m.Norm.FeatMean[i]) / nonzero(m.Norm.FeatStd[i])
	}
}

// EncodeSequence runs the sequence branch: embedding, positional encoding,
// Transformer encoder, mean pooling, and the post-pooling multi-head
// attention (E1 of Eq. 4). The returned (1, d) tensor stays on the tape, so
// it can be reused for training or detached for fast grid inference.
func (m *Model) EncodeSequence(seq []float64) *tensor.Tensor {
	if len(seq) == 0 {
		panic("surrogate: empty sequence")
	}
	x := m.normalizeSeq(seq)
	e := m.embed.Forward(x)  // (l, d), Eq. 1
	e = m.pos.Forward(e)     // + positional encoding
	e = m.enc.Forward(e)     // Eq. 2
	ep := tensor.MeanRows(e) // mean pooling -> (1, d)
	if m.Cfg.DisablePostAttention {
		return ep
	}
	return m.postAtt.Forward(ep, ep, ep, nil) // Eq. 4
}

// workspaces recycles the tensor.Workspace arenas of tape-free inference
// passes across calls and goroutines; each pass holds its own for its
// duration, so concurrent sweeps on one model never share scratch.
var workspaces sync.Pool

// getWorkspace takes a workspace from the pool, reset to hold floats
// elements. The caller hands it back with workspaces.Put once nothing taken
// from it is used any more.
func getWorkspace(floats int) *tensor.Workspace {
	ws, _ := workspaces.Get().(*tensor.Workspace)
	if ws == nil {
		ws = new(tensor.Workspace)
	}
	ws.Reset(floats)
	return ws
}

// encodeLen returns the workspace floats encodeInto takes for an l-long
// window: the normalized column and the embedded sequence, then the larger
// of the encoder's scratch and the pooled vector's post-attention pass.
func (m *Model) encodeLen(l int) int {
	d := m.Cfg.EmbedDim
	return l + l*d + max(m.enc.WorkspaceLen(l), 2*d+m.postAtt.WorkspaceLen(1))
}

// encodeInto is the tape-free sequence branch: it writes the (1 × d)
// encoding EncodeSequence would return into dst (length d), running every
// stage — embedding, positional encoding, the encoder stack, mean pooling
// and the post-pooling attention — in place on flat buffers taken from ws
// (which must hold encodeLen(len(seq)) floats beyond its current fill), so a
// steady-state encode allocates nothing. Each stage performs the tape op's
// arithmetic in the same order, so dst is bit-identical to
// EncodeSequence(seq) — pinned by TestEncodeMatchesTape and
// FuzzEncodeMatchesTape. The model must be in evaluation mode. NoGrad only.
//
//deepbat:nograd
//deepbat:hotpath
func (m *Model) encodeInto(ws *tensor.Workspace, dst, seq []float64) {
	l, d := len(seq), m.Cfg.EmbedDim
	if l == 0 {
		panic("surrogate: empty sequence")
	}
	mark := ws.Mark()
	x := ws.Take(l, 1)
	m.normalizeSeqInto(x.Data, seq)
	e := m.embed.ForwardInto(ws.Take(l, d), x)  // (l, d), Eq. 1
	m.pos.ForwardInPlace(e)                     // + positional encoding
	m.enc.ForwardInPlace(ws, e)                 // Eq. 2
	ep := tensor.MeanRowsInto(ws.Take(1, d), e) // mean pooling -> (1, d)
	if !m.Cfg.DisablePostAttention {
		ep = m.postAtt.SelfForwardInto(ws, ws.Take(1, d), ep) // Eq. 4
	}
	copy(dst, ep.Data)
	ws.Release(mark)
}

// encode runs encodeInto in a workspace of its own from the pool, for
// callers that encode independent sequences concurrently. NoGrad only.
func (m *Model) encode(dst, seq []float64) {
	ws := getWorkspace(m.encodeLen(len(seq)))
	m.encodeInto(ws, dst, seq)
	workspaces.Put(ws)
}

// headForward combines an encoded sequence with a candidate configuration
// and produces the scaled output vector (still on the tape).
func (m *Model) headForward(e1 *tensor.Tensor, cfg lambda.Config) *tensor.Tensor {
	e2 := m.featFF.Forward(m.normalizeFeatures(cfg))  // Eq. 5
	return m.outFF.Forward(tensor.ConcatCols(e1, e2)) // Eq. 6
}

// headLen returns the workspace floats headForwardBatch takes for n rows:
// its output, the feature-branch output and the concatenated rows, plus the
// larger hidden activation of the two feed-forward blocks.
func (m *Model) headLen(n int) int {
	d := m.Cfg.EmbedDim
	return n*(m.Cfg.OutputDim()+3*d) + max(m.featFF.WorkspaceLen(n), m.outFF.WorkspaceLen(n))
}

// headForwardBatch is the row-batched headForward: e1Rows (n × d) holds one
// sequence encoding per row and feats (n × 3) one standardized candidate
// row, and the result (n × OutputDim) stacks the scaled output vectors. The
// rows of a matrix product are computed independently with the same
// fixed-order summation, so row i is bit-identical to
// headForward(e1Rows[i], cfg[i]) — pinned by TestPredictGridMatchesPredict.
// The result and the intermediates come from ws (headLen(n) floats); the
// result stays valid until ws is released past it. NoGrad only.
//
//deepbat:nograd
//deepbat:hotpath
func (m *Model) headForwardBatch(ws *tensor.Workspace, e1Rows, feats *tensor.Tensor) *tensor.Tensor {
	n, d := feats.Rows(), m.Cfg.EmbedDim
	out := ws.Take(n, m.Cfg.OutputDim())
	mark := ws.Mark()
	e2 := m.featFF.ForwardInto(ws, ws.Take(n, d), feats) // Eq. 5, all rows at once
	cat := ws.Take(n, 2*d)                               // rows [e1_i | e2_i], as ConcatCols builds them
	for i := 0; i < n; i++ {
		copy(cat.Data[i*2*d:i*2*d+d], e1Rows.Data[i*d:(i+1)*d])
		copy(cat.Data[i*2*d+d:(i+1)*2*d], e2.Data[i*d:(i+1)*d])
	}
	m.outFF.ForwardInto(ws, out, cat) // Eq. 6, all rows at once
	ws.Release(mark)
	return out
}

// Forward runs the full model and returns the scaled (normalized-space)
// output tensor; used by the training loop.
func (m *Model) Forward(seq []float64, cfg lambda.Config) *tensor.Tensor {
	return m.headForward(m.EncodeSequence(seq), cfg)
}

// Prediction is a de-normalized model output.
type Prediction struct {
	Config         lambda.Config
	CostPerRequest float64
	// Percentiles holds the predicted latency percentiles in the order of
	// ModelConfig.Percentiles.
	Percentiles []float64
}

// Percentile returns the prediction for the given percentile level, which
// must be one of the model's configured levels.
func (p Prediction) Percentile(cfg ModelConfig, pct float64) (float64, bool) {
	for i, q := range cfg.Percentiles {
		if stats.ApproxEqual(q, pct, stats.PercentileLevelTol) {
			return p.Percentiles[i], true
		}
	}
	return 0, false
}

// decode maps a scaled output vector back to physical units. Predicted
// percentiles are projected onto the monotone cone (cumulative max): the
// levels are ascending, so a non-monotone raw output is necessarily an
// estimation artifact that would mislead the SLO constraint check.
func (m *Model) decode(out []float64, cfg lambda.Config) Prediction {
	return m.decodeInto(out, cfg, make([]float64, len(m.Cfg.Percentiles)))
}

// decodeInto is decode writing the percentile vector into a caller-supplied
// slice, so a batched decode can back every prediction of a sweep with one
// shared allocation.
func (m *Model) decodeInto(out []float64, cfg lambda.Config, percs []float64) Prediction {
	p := Prediction{Config: cfg, Percentiles: percs}
	p.CostPerRequest = out[0] * m.Norm.OutScale[0]
	prev := math.Inf(-1)
	for i := range p.Percentiles {
		v := out[i+1] * m.Norm.OutScale[i+1]
		if v < prev {
			v = prev
		}
		p.Percentiles[i] = v
		prev = v
	}
	return p
}

// decodeRows decodes row i of the (n × OutputDim) scaled output matrix into
// dst[i], with all percentile slices carved from one backing allocation.
func (m *Model) decodeRows(out *tensor.Tensor, cfgs []lambda.Config, dst []Prediction) {
	w := m.Cfg.OutputDim()
	np := len(m.Cfg.Percentiles)
	backing := make([]float64, len(cfgs)*np)
	for i, cfg := range cfgs {
		dst[i] = m.decodeInto(out.Data[i*w:(i+1)*w], cfg, backing[i*np:(i+1)*np:(i+1)*np])
	}
}

// Predict runs one sequence/configuration pair and returns physical-unit
// predictions. It runs tape-free: inference never backpropagates, so no
// autograd state is allocated.
//
//deepbat:nograd
func (m *Model) Predict(seq []float64, cfg lambda.Config) Prediction {
	var p Prediction
	tensor.NoGrad(func() {
		out := m.Forward(seq, cfg)
		p = m.decode(out.Data, cfg)
	})
	return p
}

// PredictGrid encodes the sequence once and evaluates every candidate
// configuration against the shared encoding — the fast path that lets
// DeepBAT sweep the whole grid in milliseconds (Section III-D/IV-F). The
// sweep runs tape-free: the sequence branch runs in place (encodeInto), all
// K candidate feature rows are stacked into one (K, 3) matrix, the feature
// branch and output head run as row-batched GEMMs against a broadcast of the
// shared encoding, and all K predictions decode from one output matrix.
// Every intermediate lives in one pooled workspace, so a steady-state sweep
// allocates only its result. Each output row is bit-identical to the
// per-candidate Predict path.
//
//deepbat:nograd
func (m *Model) PredictGrid(seq []float64, cfgs []lambda.Config) []Prediction {
	out := make([]Prediction, len(cfgs))
	if len(cfgs) == 0 {
		return out
	}
	k, d := len(cfgs), m.Cfg.EmbedDim
	ws := getWorkspace(k*(d+3) + max(m.encodeLen(len(seq)), m.headLen(k)))
	tensor.NoGrad(func() {
		e1Rows := ws.Take(k, d)
		feats := ws.Take(k, 3)
		m.encodeInto(ws, e1Rows.Data[:d], seq)
		for i, cfg := range cfgs {
			copy(e1Rows.Data[i*d:(i+1)*d], e1Rows.Data[:d])
			m.normalizeFeaturesRow(feats.Data[i*3:(i+1)*3], cfg)
		}
		m.decodeRows(m.headForwardBatch(ws, e1Rows, feats), cfgs, out)
	})
	workspaces.Put(ws)
	return out
}

// parallelFor runs fn(i) for every i in [0, n) across GOMAXPROCS contiguous
// chunks. fn must only write state owned by index i. With a single processor
// (or n <= 1) it degenerates to a plain loop with no goroutine overhead.
func parallelFor(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// AttentionScores runs the sequence branch and returns, per sequence
// position, the aggregate attention received in the first encoder layer
// (averaged over heads and query positions, normalized to sum to 1). This is
// the quantity visualized in Fig. 14 of the paper.
//
// The pass runs tape-free — visualization never backpropagates, and the old
// grad-mode forward built (and leaked) a full autograd tape per call. Score
// capture mutates the attention module, so AttentionScores must not run
// concurrently with itself or other forwards on the same model.
//
//deepbat:nograd
func (m *Model) AttentionScores(seq []float64) []float64 {
	agg := make([]float64, len(seq))
	tensor.NoGrad(func() {
		att := m.enc.Layers[0].Att
		att.SetCaptureScores(true)
		defer att.SetCaptureScores(false)
		m.EncodeSequence(seq)
		for _, h := range att.LastScores() {
			for r := 0; r < h.Rows(); r++ {
				for c := 0; c < h.Cols(); c++ {
					agg[c] += h.At(r, c)
				}
			}
		}
	})
	total := 0.0
	for _, v := range agg {
		total += v
	}
	if total > 0 {
		for i := range agg {
			agg[i] /= total
		}
	}
	return agg
}
