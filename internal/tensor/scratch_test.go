package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestMatMulBlockedDispatchBitIdentical drives MatMul through the blocked
// kernel (sizes above gemm.BlockedThreshold) and checks the result against
// the retained naive reference kernel bit for bit, on shapes whose column
// count leaves a ragged panel.
func TestMatMulBlockedDispatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, s := range []struct{ n, k, m int }{
		{40, 40, 40},   // full + ragged tiles, just above threshold
		{33, 65, 31},   // every dimension odd
		{128, 16, 128}, // wide, small inner dim
		{64, 64, 64},
	} {
		a := Randn(rng, 1, s.n, s.k)
		b := Randn(rng, 1, s.k, s.m)
		// Sparsify to exercise the skip-on-zero contract.
		for i := range a.Data {
			if rng.Float64() < 0.25 {
				a.Data[i] = 0
			}
		}
		want := make([]float64, s.n*s.m)
		matmulRows(want, a.Data, b.Data, 0, s.n, s.k, s.m)
		got := MatMul(a, b)
		for i := range want {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want[i]) {
				t.Fatalf("shape %v: cell %d = %v, want %v (bitwise)", s, i, got.Data[i], want[i])
			}
		}
	}
}

// TestInPlaceOpsMatchAllocatingOps pins the forward-value bit-identity of
// the NoGrad in-place ops against their tape-recording counterparts.
func TestInPlaceOpsMatchAllocatingOps(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	a := Randn(rng, 1, 7, 5)
	b := Randn(rng, 1, 5, 9)
	bias := Randn(rng, 1, 9)
	other := Randn(rng, 3, 7, 9)
	gain := Randn(rng, 1, 9)
	// Include a negative zero and a negative entry for the ReLU edge cases.
	a.Data[0] = math.Copysign(0, -1)
	a.Data[1] = -2.5

	got := map[string][]float64{}
	snap := func(name string, x *Tensor) { got[name] = append([]float64(nil), x.Data...) }
	NoGrad(func() {
		dst := New(7, 9)
		snap("MatMulInto", MatMulInto(dst, a, b))
		snap("AddRowInPlace", AddRowInPlace(dst, bias))
		snap("ReLUInPlace", ReLUInPlace(dst))
		snap("AddInPlace", AddInPlace(dst, other))
		snap("ScaleInPlace", ScaleInPlace(dst, 0.37))
		snap("MeanRowsInto", MeanRowsInto(New(1, 9), dst))
		snap("LayerNormInPlace", LayerNormInPlace(dst, gain, bias, 1e-5))
		snap("SoftmaxInPlace", SoftmaxInPlace(dst))
	})

	mm := MatMul(a, b)
	addRow := AddRow(mm, bias)
	relu := ReLU(addRow)
	add := Add(relu, other)
	scale := Scale(add, 0.37)
	ln := LayerNorm(scale, gain, bias, 1e-5)
	want := map[string]*Tensor{
		"MatMulInto":       mm,
		"AddRowInPlace":    addRow,
		"ReLUInPlace":      relu,
		"AddInPlace":       add,
		"ScaleInPlace":     scale,
		"MeanRowsInto":     MeanRows(scale),
		"LayerNormInPlace": ln,
		"SoftmaxInPlace":   Softmax(ln),
	}
	for name, w := range want {
		for i := range w.Data {
			if math.Float64bits(got[name][i]) != math.Float64bits(w.Data[i]) {
				t.Fatalf("%s: cell %d = %v, want %v (bitwise)", name, i, got[name][i], w.Data[i])
			}
		}
	}
}

// TestInPlaceOpsPanicInGradMode pins the guard that keeps mutating ops off
// the tape.
func TestInPlaceOpsPanicInGradMode(t *testing.T) {
	a := New(2, 2)
	b := New(2, 2)
	for name, fn := range map[string]func(){
		"MatMulInto":       func() { MatMulInto(New(2, 2), a, b) },
		"AddRowInPlace":    func() { AddRowInPlace(a, New(2)) },
		"ReLUInPlace":      func() { ReLUInPlace(a) },
		"AddInPlace":       func() { AddInPlace(a, b) },
		"ScaleInPlace":     func() { ScaleInPlace(a, 2) },
		"SoftmaxInPlace":   func() { SoftmaxInPlace(a) },
		"LayerNormInPlace": func() { LayerNormInPlace(a, New(2), New(2), 1e-5) },
		"MeanRowsInto":     func() { MeanRowsInto(New(1, 2), a) },
		"WorkspaceTake":    func() { var w Workspace; w.Reset(4); w.Take(2, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic outside NoGrad", name)
				}
			}()
			fn()
		}()
	}
}

// TestWorkspaceReuse checks the arena contract: Take carves consecutive,
// correctly shaped tensors; Release hands the storage after a Mark out
// again; a Reset to a size the workspace already holds reuses its buffer;
// a steady-state Take/Release cycle allocates nothing; and taking more than
// was reserved panics instead of growing.
func TestWorkspaceReuse(t *testing.T) {
	var w Workspace
	NoGrad(func() {
		w.Reset(24)
		t1 := w.Take(4, 3)
		if t1.Rows() != 4 || t1.Cols() != 3 || len(t1.Data) != 12 {
			t.Fatalf("bad workspace shape %v len %d", t1.Shape, len(t1.Data))
		}
		mark := w.Mark()
		t2 := w.Take(3, 4)
		if &t2.Data[0] == &t1.Data[0] || cap(t1.Data) != 12 {
			t.Fatal("consecutive takes must not overlap")
		}
		first := &t2.Data[0]
		w.Release(mark)
		t3 := w.Take(2, 6)
		if &t3.Data[0] != first || t3.Rows() != 2 || t3.Cols() != 6 {
			t.Fatalf("released storage was not handed out again (shape %v)", t3.Shape)
		}
		w.Reset(8)
		if t4 := w.Take(2, 4); &t4.Data[0] != &t1.Data[0] {
			t.Fatal("Reset within capacity must reuse the buffer")
		}
		w.Reset(24)
		if allocs := testing.AllocsPerRun(10, func() {
			m := w.Mark()
			w.Take(4, 3)
			w.Take(3, 4)
			w.Release(m)
		}); allocs != 0 {
			t.Fatalf("steady-state Take/Release allocates %.1f/op", allocs)
		}
		defer func() {
			if recover() == nil {
				t.Fatal("Take beyond the reserved floats must panic")
			}
		}()
		w.Take(5, 5)
	})
}

// TestMatMulAllocBudget guards the allocation profile of the hot kernel: a
// steady-state 256x256 NoGrad MatMul must stay within a small constant
// number of allocations per op (output data + tensor bookkeeping; the pack
// scratch is pooled). Regressions here silently erode the grid-sweep wins.
func TestMatMulAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; alloc budget is not meaningful")
	}
	rng := rand.New(rand.NewSource(53))
	a := Randn(rng, 1, 256, 256)
	b := Randn(rng, 1, 256, 256)
	var allocs float64
	NoGrad(func() {
		allocs = testing.AllocsPerRun(10, func() {
			MatMul(a, b)
		})
	})
	// 1 output data slice + tensor struct + shape slice, plus pool slack.
	const budget = 8
	if allocs > budget {
		t.Fatalf("MatMul(256x256) allocates %.1f/op, budget %d", allocs, budget)
	}
}
