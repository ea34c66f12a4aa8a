// Workspace-backed storage and in-place operations for tape-free inference.
//
// The autograd ops in tensor.go allocate a fresh output tensor per call —
// the right contract for training, where every intermediate lives on the
// tape, but pure overhead for inference loops that rebuild the same
// short-lived matrices on every request. This file provides the NoGrad-only
// complement: a Workspace arena that hands out tensors carved from one flat
// buffer, and in-place/into variants of the ops the inference path needs,
// each performing the same arithmetic in the same order as the tape op it
// mirrors, so forward values are bit-identical. All of them refuse to run in
// grad mode (they panic), because a reused or mutated buffer would corrupt a
// recorded tape.
//
// Ownership rules (see DESIGN.md "Batched inference & kernel blocking"):
// a Workspace belongs to one goroutine between Reset and the caller's last
// use of it (in practice, until it goes back to the caller's sync.Pool). A
// tensor obtained from Take is valid until the workspace is Reset or
// rewound past it with Release; neither the tensor nor any slice of its Data
// may be used after that. Results that outlive the pass must be copied out.

package tensor

import (
	"fmt"
	"math"
)

// workspaceTensors is the number of tensors a Workspace can hand out
// between a Reset and the matching Releases. The deepest inference pass (an
// encoder layer's self-attention inside a grid sweep) keeps about a dozen
// live at once.
const workspaceTensors = 32

// Workspace is an arena of flat float64 storage for one tape-free forward
// pass. Reset sizes it; Take carves consecutive tensors from it without
// allocating; Mark and Release rewind it in stack order, so a layer can
// hand its scratch back to the next layer. The zero value is ready for
// Reset. A Workspace is not safe for concurrent use; pool whole workspaces
// (sync.Pool) to share them across goroutines.
type Workspace struct {
	buf  []float64
	off  int
	nt   int
	hdrs [workspaceTensors]wsHeader
}

// wsHeader is the storage of one handed-out tensor: the header and its
// shape's backing array, so Take allocates neither.
type wsHeader struct {
	t     Tensor
	shape [2]int
}

// WorkspaceMark is a fill level of a Workspace, taken by Mark and restored
// by Release.
type WorkspaceMark struct{ off, nt int }

// Reset empties the workspace and makes room for floats elements of tensor
// data. It allocates only when the capacity must grow, so a workspace reused
// for passes of the same size allocates once. Every tensor taken before the
// Reset is invalid afterwards.
func (w *Workspace) Reset(floats int) {
	if cap(w.buf) < floats {
		w.buf = make([]float64, floats)
	}
	w.buf = w.buf[:cap(w.buf)]
	w.off, w.nt = 0, 0
}

// Take returns a rows×cols tensor carved from the workspace. Its contents
// are whatever the last pass left there: every consumer must fully
// overwrite it (the Into/InPlace ops below do). It panics outside NoGrad —
// workspace storage must never be woven into an autograd tape — and when
// the pass outgrows what Reset reserved.
//
//deepbat:hotpath
func (w *Workspace) Take(rows, cols int) *Tensor {
	noGradOnly("Workspace.Take")
	n := rows * cols
	if rows < 0 || cols < 0 || w.off+n > len(w.buf) || w.nt == workspaceTensors {
		panic(fmt.Sprintf("tensor: Workspace.Take(%d, %d) exceeds the reserved %d floats / %d tensors (in use %d / %d)",
			rows, cols, len(w.buf), workspaceTensors, w.off, w.nt))
	}
	h := &w.hdrs[w.nt]
	h.shape = [2]int{rows, cols}
	h.t = Tensor{Data: w.buf[w.off : w.off+n : w.off+n], Shape: h.shape[:]}
	w.off += n
	w.nt++
	return &h.t
}

// Mark returns the current fill level, for a later Release.
//
//deepbat:hotpath
func (w *Workspace) Mark() WorkspaceMark { return WorkspaceMark{w.off, w.nt} }

// Release rewinds the workspace to mark: every tensor taken since the Mark
// is invalid afterwards, and its storage is handed out again by later Takes.
//
//deepbat:hotpath
func (w *Workspace) Release(mark WorkspaceMark) { w.off, w.nt = mark.off, mark.nt }

// noGradOnly panics when called in grad mode; the in-place ops below mutate
// their operands, which would corrupt a recorded tape.
func noGradOnly(op string) {
	if GradEnabled() {
		panic(fmt.Sprintf("tensor: %s requires an enclosing NoGrad scope", op))
	}
}

// MatMulInto computes dst = a × b into a preallocated dst (shape n×m),
// bit-identical to MatMul's forward values, without allocating an output
// tensor. NoGrad only.
//
//deepbat:hotpath
func MatMulInto(dst, a, b *Tensor) *Tensor {
	noGradOnly("MatMulInto")
	if a.Dims() != 2 || b.Dims() != 2 {
		panic("tensor: MatMulInto requires 2-D tensors")
	}
	n, k := a.Shape[0], a.Shape[1]
	k2, m := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulInto inner dims %d vs %d", k, k2))
	}
	if dst.Dims() != 2 || dst.Shape[0] != n || dst.Shape[1] != m {
		panic(fmt.Sprintf("tensor: MatMulInto dst shape %v, want [%d %d]", dst.Shape, n, m))
	}
	matmulInto(dst.Data, a.Data, b.Data, n, k, m)
	return dst
}

// AddRowInPlace adds the vector b (length m) to each row of a in place,
// bit-identical to AddRow's forward values. NoGrad only.
//
//deepbat:hotpath
func AddRowInPlace(a, b *Tensor) *Tensor {
	noGradOnly("AddRowInPlace")
	m := a.Cols()
	if b.NumEl() != m {
		panic(fmt.Sprintf("tensor: AddRowInPlace bias length %d vs cols %d", b.NumEl(), m))
	}
	n := len(a.Data) / m
	for r := 0; r < n; r++ {
		off := r * m
		for c := 0; c < m; c++ {
			a.Data[off+c] += b.Data[c]
		}
	}
	return a
}

// AddInPlace sets a = a + b elementwise (same shape), bit-identical to
// Add(a, b)'s forward values (the operand order is kept). NoGrad only.
//
//deepbat:hotpath
func AddInPlace(a, b *Tensor) *Tensor {
	noGradOnly("AddInPlace")
	sameShape("AddInPlace", a, b)
	for i := range a.Data {
		a.Data[i] = a.Data[i] + b.Data[i]
	}
	return a
}

// ScaleInPlace multiplies a by the scalar s in place, bit-identical to
// Scale's forward values. NoGrad only.
//
//deepbat:hotpath
func ScaleInPlace(a *Tensor, s float64) *Tensor {
	noGradOnly("ScaleInPlace")
	for i := range a.Data {
		a.Data[i] = a.Data[i] * s
	}
	return a
}

// ReLUInPlace clamps a to max(0, a) elementwise in place, bit-identical to
// ReLU's forward values (negative zero maps to +0, exactly as ReLU's
// zero-filled output does). NoGrad only.
//
//deepbat:hotpath
func ReLUInPlace(a *Tensor) *Tensor {
	noGradOnly("ReLUInPlace")
	for i, v := range a.Data {
		if !(v > 0) {
			a.Data[i] = 0
		}
	}
	return a
}

// SoftmaxInPlace applies Softmax's numerically stable row-wise softmax to a
// in place, with the same max, exp, sum and scale steps in the same order,
// so the values are bit-identical to Softmax's. NoGrad only.
//
//deepbat:hotpath
func SoftmaxInPlace(a *Tensor) *Tensor {
	noGradOnly("SoftmaxInPlace")
	m := a.Cols()
	n := len(a.Data) / m
	for r := 0; r < n; r++ {
		row := a.Data[r*m : (r+1)*m]
		maxV := math.Inf(-1)
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		sum := 0.0
		for c, v := range row {
			e := math.Exp(v - maxV)
			row[c] = e
			sum += e
		}
		inv := 1 / sum
		for c := range row {
			row[c] *= inv
		}
	}
	return a
}

// LayerNormInPlace normalizes each row of x in place and applies gain and
// bias, with the same mean, variance and affine steps in the same order as
// LayerNorm, so the values are bit-identical to LayerNorm's. NoGrad only.
//
//deepbat:hotpath
func LayerNormInPlace(x, gain, bias *Tensor, eps float64) *Tensor {
	noGradOnly("LayerNormInPlace")
	m := x.Cols()
	if gain.NumEl() != m || bias.NumEl() != m {
		panic("tensor: LayerNormInPlace gain/bias length mismatch")
	}
	n := len(x.Data) / m
	for r := 0; r < n; r++ {
		row := x.Data[r*m : (r+1)*m]
		mean := 0.0
		for _, v := range row {
			mean += v
		}
		mean /= float64(m)
		v := 0.0
		for _, xv := range row {
			d := xv - mean
			v += d * d
		}
		v /= float64(m)
		is := 1 / math.Sqrt(v+eps)
		for c, xv := range row {
			h := (xv - mean) * is
			row[c] = h*gain.Data[c] + bias.Data[c]
		}
	}
	return x
}

// MeanRowsInto writes the column-wise mean of a into dst (1×m), summing the
// rows in order and scaling by 1/n exactly as MeanRows does, so the values
// are bit-identical to MeanRows'. NoGrad only.
//
//deepbat:hotpath
func MeanRowsInto(dst, a *Tensor) *Tensor {
	noGradOnly("MeanRowsInto")
	m := a.Cols()
	if dst.NumEl() != m {
		panic(fmt.Sprintf("tensor: MeanRowsInto dst length %d vs cols %d", dst.NumEl(), m))
	}
	n := len(a.Data) / m
	out := dst.Data
	for c := range out {
		out[c] = 0
	}
	for r := 0; r < n; r++ {
		off := r * m
		for c := 0; c < m; c++ {
			out[c] += a.Data[off+c]
		}
	}
	inv := 1 / float64(n)
	for c := range out {
		out[c] *= inv
	}
	return dst
}
