package nn

import (
	"testing"

	"ibox/internal/sim"
)

// randSeq generates a deterministic pseudo-random input sequence.
func randSeq(seed int64, steps, dim int) [][]float64 {
	rng := sim.NewRand(seed, 11)
	xs := make([][]float64, steps)
	for t := range xs {
		xs[t] = make([]float64, dim)
		for k := range xs[t] {
			xs[t][k] = rng.NormFloat64()
		}
	}
	return xs
}

// TestStepBatchLanesMatchesStep pins the per-lane-weights kernel: lanes
// over *different* compiled weight stacks of one shared architecture —
// odd hidden sizes, 1–4 layers, with and without pre-projected input
// prefixes — must each advance bitwise-identically to StepInto on their
// own model.
func TestStepBatchLanesMatchesStep(t *testing.T) {
	shapes := []struct{ in, hidden, layers int }{
		{4, 5, 1}, {4, 7, 2}, {5, 9, 3}, {4, 11, 4},
	}
	const n, steps = 5, 6
	for _, sh := range shapes {
		ims := make([]*InferModel, n)
		for b := range ims {
			// A distinct seed per lane: genuinely different weights.
			ims[b] = NewLSTM(sh.in, sh.hidden, sh.layers, int64(300+b)).Compile()
		}
		seqs := make([][][]float64, n)
		for b := range seqs {
			seqs[b] = randSeq(int64(400+b), steps, sh.in)
		}
		rows := ims[0].InputRowsPerStep()
		for upto := 0; upto <= sh.in; upto += 2 {
			// Per-lane pre-projection through the lane's own layer 0.
			pres := make([][]float64, n)
			var lanesPre [][]float64
			if upto > 0 {
				for b := range pres {
					pres[b] = make([]float64, steps*rows)
					ims[b].PreProjectInput(pres[b], seqs[b], upto)
				}
			}
			sts := make([]*InferState, n)
			refs := make([]*InferState, n)
			for b := range sts {
				sts[b] = ims[b].NewState()
				refs[b] = ims[b].NewState()
			}
			for tt := 0; tt < steps; tt++ {
				xs := make([][]float64, n)
				for b := range xs {
					xs[b] = seqs[b][tt]
				}
				tailOff := 0
				lanesPre = nil
				if upto > 0 {
					tailOff = upto
					lanesPre = make([][]float64, n)
					for b := range lanesPre {
						lanesPre[b] = pres[b][tt*rows : (tt+1)*rows]
					}
				}
				StepBatchLanesInto(ims, sts, xs, lanesPre, tailOff)
				for b := 0; b < n; b++ {
					want := ims[b].StepInto(refs[b], seqs[b][tt])
					bitsEqual(t, "lane step", sts[b].Top(), want)
				}
			}
		}
	}
}

// TestStepBatchLanesPanicsOnMixedArch: lanes spanning incompatible
// architectures must fail loudly instead of corrupting state.
func TestStepBatchLanesPanicsOnMixedArch(t *testing.T) {
	a := NewLSTM(4, 6, 2, 1).Compile()
	b := NewLSTM(4, 7, 2, 2).Compile() // different hidden width
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for lanes over incompatible architectures")
		}
	}()
	StepBatchLanesInto(
		[]*InferModel{a, b},
		[]*InferState{a.NewState(), b.NewState()},
		[][]float64{{0, 0, 0, 0}, {0, 0, 0, 0}}, nil, 0)
}
