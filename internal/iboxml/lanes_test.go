package iboxml

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"ibox/internal/sim"
	"ibox/internal/trace"
)

// laneModel trains a small model of the given architecture; distinct
// seeds give genuinely different weights for one shape.
func laneModel(t testing.TB, hidden, layers int, seed int64) *Model {
	t.Helper()
	m, err := Train(trainSamples(2, 3*sim.Second), Config{
		Hidden: hidden, Layers: layers, Epochs: 1, Seed: seed,
	})
	if err != nil {
		t.Fatalf("train h%d l%d: %v", hidden, layers, err)
	}
	return m
}

// TestSimulateTraceLanesMixedCheckpoints is the cross-checkpoint
// equivalence harness: three checkpoints with different weights but one
// shape replay different traces in a single lane batch, across odd
// hidden sizes and 1–4 layers, and every lane's output must serialize to
// exactly the bytes of its own SimulateTrace.
func TestSimulateTraceLanesMixedCheckpoints(t *testing.T) {
	shapes := []struct{ hidden, layers int }{
		{5, 1}, {7, 2}, {9, 3}, {11, 4},
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(fmt.Sprintf("h%d_l%d", sh.hidden, sh.layers), func(t *testing.T) {
			lanes := []ReplayLane{
				{Model: laneModel(t, sh.hidden, sh.layers, 5), Input: synthTrace(61, 2*sim.Second), Seed: 301},
				{Model: laneModel(t, sh.hidden, sh.layers, 6), Input: synthTrace(62, 500*sim.Millisecond), Seed: 302},
				{Model: laneModel(t, sh.hidden, sh.layers, 7), Input: synthTrace(63, 3*sim.Second), Seed: 303},
			}
			outs := SimulateTraceLanes(lanes, 0)
			for i := range lanes {
				want := lanes[i].Model.SimulateTrace(lanes[i].Input, nil, lanes[i].Seed)
				var bw, bb bytes.Buffer
				if err := json.NewEncoder(&bw).Encode(want); err != nil {
					t.Fatal(err)
				}
				if err := json.NewEncoder(&bb).Encode(outs[i]); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(bw.Bytes(), bb.Bytes()) {
					t.Fatalf("lane %d: cross-checkpoint multi-lane simulation differs from SimulateTrace", i)
				}
			}
		})
	}
}

// TestPredictWindowsLanesEmit pins the streaming contract: chunks arrive
// in order with contiguous t0 ranges, their concatenation is bitwise the
// full unbatched prediction, and a lane whose Emit returns false is
// abandoned (nil results) without perturbing any other lane.
func TestPredictWindowsLanesEmit(t *testing.T) {
	mA := laneModel(t, 5, 1, 5)
	mB := laneModel(t, 5, 1, 6)
	trA := synthTrace(71, 2*sim.Second)
	trB := synthTrace(72, 2*sim.Second)

	type chunk struct {
		t0        int
		mu, sigma []float64
	}
	var got []chunk
	collect := func(t0 int, mu, sigma []float64) bool {
		// The slices alias lane buffers and are only valid during the
		// call — the contract says copy to retain.
		got = append(got, chunk{t0, append([]float64(nil), mu...), append([]float64(nil), sigma...)})
		return true
	}
	abortAfterFirst := 0
	lanes := []ReplayLane{
		{Model: mA, Input: trA, Emit: collect},
		{Model: mB, Input: trB, Emit: func(t0 int, mu, sigma []float64) bool {
			abortAfterFirst++
			return abortAfterFirst == 1 // accept one chunk, then hang up
		}},
	}
	const chunkWin = 3
	mus, sigmas := PredictWindowsLanes(lanes, chunkWin)

	// Lane B was abandoned mid-unroll.
	if mus[1] != nil || sigmas[1] != nil {
		t.Fatalf("abandoned lane returned results: %v", mus[1])
	}
	if abortAfterFirst != 2 {
		t.Fatalf("abandoned lane's Emit called %d times, want 2", abortAfterFirst)
	}

	// Lane A's chunks: ordered, contiguous, chunk-sized except the tail,
	// and bitwise equal to the unbatched prediction.
	wantMu, wantSigma := mA.PredictWindows(trA, nil)
	next := 0
	var allMu, allSigma []float64
	for i, c := range got {
		if c.t0 != next {
			t.Fatalf("chunk %d starts at %d, want %d (monotonic, contiguous)", i, c.t0, next)
		}
		if i < len(got)-1 && len(c.mu) != chunkWin {
			t.Fatalf("chunk %d has %d windows, want %d", i, len(c.mu), chunkWin)
		}
		next += len(c.mu)
		allMu = append(allMu, c.mu...)
		allSigma = append(allSigma, c.sigma...)
	}
	if len(allMu) != len(wantMu) {
		t.Fatalf("streamed %d windows, want %d", len(allMu), len(wantMu))
	}
	for w := range wantMu {
		if math.Float64bits(allMu[w]) != math.Float64bits(wantMu[w]) ||
			math.Float64bits(allSigma[w]) != math.Float64bits(wantSigma[w]) {
			t.Fatalf("window %d: streamed (%v,%v) != unbatched (%v,%v)",
				w, allMu[w], allSigma[w], wantMu[w], wantSigma[w])
		}
	}
	// The surviving lane's returned slices must also match.
	for w := range wantMu {
		if math.Float64bits(mus[0][w]) != math.Float64bits(wantMu[w]) {
			t.Fatalf("returned window %d differs from unbatched", w)
		}
	}
}

// TestLanesShapeMismatchPanics: models of different architecture must
// never share a lane batch; the lane entry point panics instead of
// corrupting state.
func TestLanesShapeMismatchPanics(t *testing.T) {
	base := laneModel(t, 5, 1, 5)
	tr := synthTrace(81, sim.Second)
	mustPanic := func(name string, other *Model) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: lanes over incompatible shapes did not panic", name)
			}
			if !strings.Contains(fmt.Sprint(r), "shape") {
				t.Fatalf("%s: unexpected panic %v", name, r)
			}
		}()
		PredictWindowsLanes([]ReplayLane{
			{Model: base, Input: tr},
			{Model: other, Input: tr},
		}, 0)
	}
	mustPanic("hidden", laneModel(t, 7, 1, 5))
	mustPanic("layers", laneModel(t, 5, 2, 5))
}

// TestShapeString pins the label form of the lane compatibility key.
func TestShapeString(t *testing.T) {
	m := laneModel(t, 5, 1, 5)
	if got, want := m.Shape().String(), "in4_h5_l1_w100ms"; got != want {
		t.Fatalf("Shape.String() = %q, want %q", got, want)
	}
}

// singleModelLanes builds one lane per trace, all on model m.
func singleModelLanes(m *Model, trs []*trace.Trace, seeds []int64) []ReplayLane {
	lanes := make([]ReplayLane, len(trs))
	for i, tr := range trs {
		lanes[i] = ReplayLane{Model: m, Input: tr}
		if seeds != nil {
			lanes[i].Seed = seeds[i]
		}
	}
	return lanes
}

// TestPredictWindowsBatchMatchesSingle asserts the lockstep multi-lane
// closed-loop unroll over one model is bitwise identical to per-trace
// PredictWindows, including when lanes span different window counts
// (shorter traces drop out of the active set mid-unroll).
func TestPredictWindowsBatchMatchesSingle(t *testing.T) {
	m := laneModel(t, 8, 1, 5)
	trs := []*trace.Trace{
		synthTrace(11, 3*sim.Second),
		synthTrace(12, 1*sim.Second), // shorter: exits the active set early
		synthTrace(13, 2*sim.Second),
		synthTrace(14, 3*sim.Second),
		synthTrace(15, 500*sim.Millisecond),
	}
	mus, sigmas := PredictWindowsLanes(singleModelLanes(m, trs, nil), 0)
	for i, tr := range trs {
		mu, sigma := m.PredictWindows(tr, nil)
		if len(mus[i]) != len(mu) {
			t.Fatalf("trace %d: lanes %d windows, single %d", i, len(mus[i]), len(mu))
		}
		for w := range mu {
			if math.Float64bits(mus[i][w]) != math.Float64bits(mu[w]) ||
				math.Float64bits(sigmas[i][w]) != math.Float64bits(sigma[w]) {
				t.Fatalf("trace %d window %d: lanes (%v,%v) != single (%v,%v)",
					i, w, mus[i][w], sigmas[i][w], mu[w], sigma[w])
			}
		}
	}
}

// TestSimulateTraceBatchMatchesSingle checks the full serving-path
// contract over one model: multi-lane simulation serializes to the same
// bytes as per-trace SimulateTrace.
func TestSimulateTraceBatchMatchesSingle(t *testing.T) {
	m := laneModel(t, 8, 1, 5)
	trs := []*trace.Trace{
		synthTrace(21, 2*sim.Second),
		synthTrace(22, 1*sim.Second),
		synthTrace(23, 2*sim.Second),
		synthTrace(24, 3*sim.Second),
	}
	seeds := []int64{101, 102, 103, 104}
	outs := SimulateTraceLanes(singleModelLanes(m, trs, seeds), 0)
	for i, tr := range trs {
		want := m.SimulateTrace(tr, nil, seeds[i])
		var bw, bb bytes.Buffer
		if err := json.NewEncoder(&bw).Encode(want); err != nil {
			t.Fatal(err)
		}
		if err := json.NewEncoder(&bb).Encode(outs[i]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bw.Bytes(), bb.Bytes()) {
			t.Fatalf("trace %d: multi-lane simulation differs from SimulateTrace", i)
		}
	}
}

// TestPredictWindowsBatchSingleton checks the one-lane call the serving
// layer makes for every replay.
func TestPredictWindowsBatchSingleton(t *testing.T) {
	m := laneModel(t, 8, 1, 5)
	tr := synthTrace(31, 2*sim.Second)
	mus, sigmas := PredictWindowsLanes(singleModelLanes(m, []*trace.Trace{tr}, nil), 0)
	mu, sigma := m.PredictWindows(tr, nil)
	for w := range mu {
		if math.Float64bits(mus[0][w]) != math.Float64bits(mu[w]) ||
			math.Float64bits(sigmas[0][w]) != math.Float64bits(sigma[w]) {
			t.Fatalf("window %d differs", w)
		}
	}
}

// BenchmarkSimulateTraceLanes compares one 8-lane simulate against 8
// sequential SimulateTrace calls on the same model.
func BenchmarkSimulateTraceLanes(b *testing.B) {
	m, err := Train(trainSamples(2, 4*sim.Second), Config{
		Hidden: 48, Layers: 2, Epochs: 1, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	const n = 8
	trs := make([]*trace.Trace, n)
	seeds := make([]int64, n)
	for i := range trs {
		trs[i] = synthTrace(int64(40+i), 2*sim.Second)
		seeds[i] = int64(200 + i)
	}
	lanes := singleModelLanes(m, trs, seeds)
	b.Run("lanes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SimulateTraceLanes(lanes, 0)
		}
	})
	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range trs {
				m.SimulateTrace(trs[j], nil, seeds[j])
			}
		}
	})
}
