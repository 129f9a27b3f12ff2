package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ibox/internal/core"
	"ibox/internal/iboxml"
	"ibox/internal/sim"
	"ibox/internal/trace"
)

// mlCache caches tiny trained checkpoints by (hidden, layers, seed):
// distinct seeds give genuinely different weights for one shape.
var mlCache = struct {
	sync.Mutex
	m map[[3]int64]*iboxml.Model
}{m: map[[3]int64]*iboxml.Model{}}

func trainedMLShape(t testing.TB, hidden, layers int, seed int64) *iboxml.Model {
	t.Helper()
	key := [3]int64{int64(hidden), int64(layers), seed}
	mlCache.Lock()
	defer mlCache.Unlock()
	if m := mlCache.m[key]; m != nil {
		return m
	}
	var samples []iboxml.TrainingSample
	for i := int64(0); i < 2; i++ {
		samples = append(samples, iboxml.TrainingSample{Trace: synthTrace(i, 3*sim.Second)})
	}
	m, err := iboxml.Train(samples, iboxml.Config{
		Hidden: hidden, Layers: layers, Epochs: 1, Seed: seed,
	})
	if err != nil {
		t.Fatalf("train h%d l%d seed %d: %v", hidden, layers, seed, err)
	}
	mlCache.m[key] = m
	return m
}

func saveModel(t testing.TB, m *iboxml.Model, dir, id string) {
	t.Helper()
	if err := m.Save(filepath.Join(dir, id)); err != nil {
		t.Fatalf("save %s: %v", id, err)
	}
}

// TestCrossCheckpointBatchEquivalence sends two concurrent simulates for
// two distinct same-shape checkpoints to a one-worker server, so the
// replays queue behind each other on one pool worker. Each body must be
// byte-equal to its own checkpoint's offline SimulateTrace: a worker
// that carried any state from one checkpoint's replay into the next
// would show here.
func TestCrossCheckpointBatchEquivalence(t *testing.T) {
	s, dir := newTestServer(t, func(c *Config) { c.Workers = 1 })
	mA := trainedMLShape(t, 8, 1, 5)
	mB := trainedMLShape(t, 8, 1, 6)
	saveModel(t, mA, dir, "a.json")
	saveModel(t, mB, dir, "b.json")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	inputs := []*trace.Trace{synthTrace(41, 2*sim.Second), synthTrace(42, 2*sim.Second)}
	reqs := []SimulateRequest{
		{Model: "a.json", Input: inputs[0], Seed: 901},
		{Model: "b.json", Input: inputs[1], Seed: 902},
	}
	outA := mA.SimulateTrace(inputs[0], nil, 901)
	outB := mB.SimulateTrace(inputs[1], nil, 902)
	want := [][]byte{
		encodeResponse(t, SimulateResponse{
			Model: "a.json", Kind: KindIBoxML, Metrics: core.MetricsOf(outA), Trace: outA,
		}),
		encodeResponse(t, SimulateResponse{
			Model: "b.json", Kind: KindIBoxML, Metrics: core.MetricsOf(outB), Trace: outB,
		}),
	}

	var wg sync.WaitGroup
	bodies := make([][]byte, len(reqs))
	codes := make([]int, len(reqs))
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _, bodies[i] = postSimulate(t, ts.URL, reqs[i])
		}(i)
	}
	wg.Wait()
	for i := range reqs {
		if codes[i] != 200 {
			t.Fatalf("request %d: status %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], want[i]) {
			t.Fatalf("request %d: served body differs from its checkpoint's offline replay", i)
		}
	}
}

// TestServeCrossCheckpointDeterminism races concurrent requests over
// three distinct checkpoints of one shape through the front door, half
// as streamed replays and half as whole-trace simulates. Every streamed
// window must be bitwise equal to its checkpoint's offline
// PredictWindows, every end-frame trace and simulate body byte-equal to
// the offline SimulateTrace. CI runs it under -race.
func TestServeCrossCheckpointDeterminism(t *testing.T) {
	const chunkWin = 4
	s, dir := newTestServer(t, func(c *Config) {
		c.Workers = 2
		c.StreamChunk = chunkWin
	})
	ids := []string{"a.json", "b.json", "c.json"}
	models := map[string]*iboxml.Model{}
	for i, id := range ids {
		models[id] = trainedMLShape(t, 8, 1, int64(5+i))
		saveModel(t, models[id], dir, id)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 12
	input := func(i int) *trace.Trace { return synthTrace(int64(50+i%3), 2*sim.Second) }
	type result struct {
		code int
		body []byte
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, seed := ids[i%len(ids)], int64(700+i%3)
			if i%2 == 1 {
				code, _, body := postSimulate(t, ts.URL, SimulateRequest{Model: id, Input: input(i), Seed: seed})
				results[i] = result{code, body}
				return
			}
			resp := postReplay(t, context.Background(), ts.URL, ReplayRequest{
				Model: id, Input: input(i), Seed: seed, IncludeTrace: true,
			}, true)
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Errorf("request %d: read stream: %v", i, err)
			}
			results[i] = result{resp.StatusCode, body}
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		r := results[i]
		if r.code != 200 {
			t.Fatalf("request %d: status %d: %s", i, r.code, r.body)
		}
		id := ids[i%len(ids)]
		m := models[id]
		out := m.SimulateTrace(input(i), nil, int64(700+i%3))
		if i%2 == 1 {
			want := encodeResponse(t, SimulateResponse{
				Model: id, Kind: KindIBoxML, Metrics: core.MetricsOf(out), Trace: out,
			})
			if !bytes.Equal(r.body, want) {
				t.Fatalf("request %d (%s): simulate body differs from offline replay", i, id)
			}
			continue
		}
		types, chunks, end := decodeReplaySSE(t, r.body)
		wantMu, wantSigma := m.PredictWindows(input(i), nil)
		checkReplayChunks(t, types, chunks, end, chunkWin, wantMu, wantSigma)
		gb, _ := json.Marshal(end.Trace)
		wb, _ := json.Marshal(out)
		if !bytes.Equal(gb, wb) {
			t.Fatalf("request %d (%s): streamed end-frame trace differs from offline replay", i, id)
		}
	}
}

// sentinelClone returns a same-shape copy of m whose weights are scaled
// into saturation — a sentinel: if a multi-lane unroll leaked any state
// across lanes, a sentinel neighbor would visibly corrupt the victim's
// outputs.
func sentinelClone(t testing.TB, m *iboxml.Model, scale float64) *iboxml.Model {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	clone, err := iboxml.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb before any inference compiles the clone's kernel.
	for _, p := range clone.Net.Params() {
		for i := range p.W {
			p.W[i] *= scale
		}
	}
	return clone
}

// FuzzShapeGroup fuzzes the lane compatibility check: whatever two
// checkpoint shapes arrive, incompatible models must never share a lane
// batch (the lane layer panics rather than corrupting state), and
// compatible ones must produce outputs bitwise-identical to their own
// single replays — even when the neighbor lane carries saturated
// sentinel weights.
func FuzzShapeGroup(f *testing.F) {
	f.Add(uint8(8), uint8(1), uint8(8), uint8(1), int64(5), int64(6))  // same shape
	f.Add(uint8(8), uint8(1), uint8(6), uint8(1), int64(5), int64(5))  // hidden mismatch
	f.Add(uint8(8), uint8(1), uint8(8), uint8(2), int64(5), int64(5))  // layer mismatch
	f.Add(uint8(3), uint8(3), uint8(3), uint8(3), int64(1), int64(2))  // deep + tiny
	f.Add(uint8(5), uint8(2), uint8(7), uint8(2), int64(9), int64(10)) // odd widths
	f.Fuzz(func(t *testing.T, h1, l1, h2, l2 uint8, seedA, seedB int64) {
		hiddenA, layersA := 1+int(h1)%8, 1+int(l1)%3
		hiddenB, layersB := 1+int(h2)%8, 1+int(l2)%3
		mA := trainedMLShape(t, hiddenA, layersA, seedA%4)
		mB := sentinelClone(t, trainedMLShape(t, hiddenB, layersB, seedB%4), 100)

		inA := synthTrace(46, sim.Second)
		inB := synthTrace(47, sim.Second)
		lanes := []iboxml.ReplayLane{
			{Model: mA, Input: inA, Seed: 11},
			{Model: mB, Input: inB, Seed: 12},
		}
		if mA.Shape() != mB.Shape() {
			// Forcing incompatible lanes into one call fails loudly.
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("incompatible lanes did not panic")
				}
				if !strings.Contains(fmt.Sprint(r), "shape") {
					t.Fatalf("unexpected panic: %v", r)
				}
			}()
			iboxml.SimulateTraceLanes(lanes, 0)
			return
		}
		// Compatible: one call, zero cross-talk — each lane bitwise equals
		// its own single replay despite the sentinel neighbor.
		outs := iboxml.SimulateTraceLanes(lanes, 0)
		wantA := mA.SimulateTrace(inA, nil, 11)
		wantB := mB.SimulateTrace(inB, nil, 12)
		for i, pair := range []struct{ got, want *trace.Trace }{{outs[0], wantA}, {outs[1], wantB}} {
			var bg, bw bytes.Buffer
			if err := json.NewEncoder(&bg).Encode(pair.got); err != nil {
				t.Fatal(err)
			}
			if err := json.NewEncoder(&bw).Encode(pair.want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bg.Bytes(), bw.Bytes()) {
				t.Fatalf("lane %d: multi-lane output differs from single replay (cross-lane corruption)", i)
			}
		}
	})
}
