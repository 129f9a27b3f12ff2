package nn

import (
	"math"
	"testing"
)

// kernelShapes deliberately covers the awkward cases: In ≠ Hidden in both
// directions, 1–4 layers, and Hidden values with every residue mod 4 so
// the SIMD whole-group path, the scalar remainder path, and the
// no-full-group path (Hidden < 4) all run.
var kernelShapes = []struct{ in, hidden, layers int }{
	{3, 5, 1},
	{4, 6, 2},
	{7, 3, 3},
	{5, 9, 4},
	{2, 4, 2},
	{6, 13, 2},
	{1, 1, 1},
	{4, 8, 3},
}

// bitsEqual fails the test unless a and b are bitwise-identical.
func bitsEqual(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d != %d", what, len(a), len(b))
	}
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			t.Fatalf("%s: [%d] = %x (%v) != %x (%v)",
				what, j, math.Float64bits(a[j]), a[j], math.Float64bits(b[j]), b[j])
		}
	}
}

// TestInferStepMatchesLSTMStep pins the core bitwise contract: the
// compiled kernel's per-step output equals the training-path LSTM.Step
// float-for-float, across shapes that exercise the SIMD group, scalar
// remainder, and tiny-layer paths.
func TestInferStepMatchesLSTMStep(t *testing.T) {
	for _, sh := range kernelShapes {
		lstm := NewLSTM(sh.in, sh.hidden, sh.layers, 7)
		im := lstm.Compile()
		st := im.NewState()
		ref := lstm.NewState()
		xs := randSeq(31, 12, sh.in)
		for _, x := range xs {
			got := im.StepInto(st, x)
			var want []float64
			want, ref = lstm.Step(ref, x)
			bitsEqual(t, "step output", got, want)
		}
	}
}

// TestInferForwardMatchesStepInto pins the layer-major pre-projected
// window forward against the sequential step kernel, bitwise.
func TestInferForwardMatchesStepInto(t *testing.T) {
	for _, sh := range kernelShapes {
		lstm := NewLSTM(sh.in, sh.hidden, sh.layers, 9)
		im := lstm.Compile()
		for _, T := range []int{1, 2, 5, 9} {
			xs := randSeq(int64(40+T), T, sh.in)
			outs := im.Forward(xs)
			st := im.NewState()
			for tt, x := range xs {
				want := im.StepInto(st, x)
				bitsEqual(t, "forward output", outs[tt], want)
			}
		}
	}
}

// TestPreProjectedStepMatchesPlain pins the prefix pre-projection path:
// pre-projecting any prefix [0, upto) of the input columns and resuming
// via StepBatchLanesInto(tailOff=upto) must reproduce the plain step bitwise,
// for every possible split point.
func TestPreProjectedStepMatchesPlain(t *testing.T) {
	for _, sh := range kernelShapes {
		lstm := NewLSTM(sh.in, sh.hidden, sh.layers, 11)
		im := lstm.Compile()
		const T = 6
		xs := randSeq(77, T, sh.in)
		rows := im.InputRowsPerStep()
		for upto := 0; upto <= sh.in; upto++ {
			pre := make([]float64, T*rows)
			im.PreProjectInput(pre, xs, upto)
			st := im.NewState()
			ref := im.NewState()
			for tt, x := range xs {
				StepBatchLanesInto([]*InferModel{im}, []*InferState{st}, [][]float64{x},
					[][]float64{pre[tt*rows : (tt+1)*rows]}, upto)
				want := im.StepInto(ref, x)
				bitsEqual(t, "pre-projected step", st.Top(), want)
			}
		}
	}
}

// TestStepIntoNoAllocs pins the zero-allocation contract of the
// per-packet kernel step.
func TestStepIntoNoAllocs(t *testing.T) {
	lstm := NewLSTM(5, 24, 2, 17)
	im := lstm.Compile()
	st := im.NewState()
	x := randSeq(3, 1, 5)[0]
	if n := testing.AllocsPerRun(100, func() { im.StepInto(st, x) }); n != 0 {
		t.Fatalf("StepInto allocates %v times per step, want 0", n)
	}
}

// TestPredictorStepNoAllocs pins the zero-allocation contract of the full
// per-packet prediction path (kernel step + dense head).
func TestPredictorStepNoAllocs(t *testing.T) {
	m := NewSequenceModel(GaussianHead, 5, 24, 2, 19)
	p := m.NewPredictor()
	x := randSeq(4, 1, 5)[0]
	if n := testing.AllocsPerRun(100, func() { p.StepGaussian(x) }); n != 0 {
		t.Fatalf("StepGaussian allocates %v times per step, want 0", n)
	}
}

// FuzzInferKernel fuzzes shape and data seeds: whatever the dimensions,
// the compiled kernel must match the training-path step bitwise.
func FuzzInferKernel(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(5), uint8(2), uint8(4))
	f.Add(int64(9), uint8(1), uint8(1), uint8(1), uint8(1))
	f.Add(int64(42), uint8(8), uint8(16), uint8(4), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, in8, hid8, lay8, steps8 uint8) {
		in := 1 + int(in8)%9
		hidden := 1 + int(hid8)%17
		layers := 1 + int(lay8)%4
		steps := 1 + int(steps8)%8
		lstm := NewLSTM(in, hidden, layers, seed)
		im := lstm.Compile()
		st := im.NewState()
		ref := lstm.NewState()
		for _, x := range randSeq(seed+1, steps, in) {
			got := im.StepInto(st, x)
			var want []float64
			want, ref = lstm.Step(ref, x)
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("in=%d hidden=%d layers=%d: h[%d] %v != %v",
						in, hidden, layers, j, got[j], want[j])
				}
			}
		}
	})
}

// TestInferStateResetReuse checks a reset state replays a sequence to the
// same bits as a fresh one (the serving warm-registry reuse pattern).
func TestInferStateResetReuse(t *testing.T) {
	lstm := NewLSTM(4, 7, 2, 37)
	im := lstm.Compile()
	xs := randSeq(88, 6, 4)
	st := im.NewState()
	first := make([][]float64, len(xs))
	for tt, x := range xs {
		first[tt] = append([]float64(nil), im.StepInto(st, x)...)
	}
	st.Reset()
	for tt, x := range xs {
		bitsEqual(t, "post-reset step", im.StepInto(st, x), first[tt])
	}
}
