package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"time"

	"ibox/internal/iboxml"
	"ibox/internal/pantheon"
	"ibox/internal/par"
	"ibox/internal/serve"
	"ibox/internal/sim"
	"ibox/internal/trace"
)

// traceDur is the paper's Pantheon trace length: 30 s, ≈300 windows of
// 100 ms per replay.
const traceDur = 30 * sim.Second

// replayCheckpoints is how many distinct paper-scale checkpoints the
// replay-paper workload spreads its streams over.
const replayCheckpoints = 4

// replayFixture: streamed POST /v1/replay (NDJSON) round-robin over four
// distinct h256l4 checkpoints — one trained, three derived from it by
// deterministic weight perturbation.
type replayFixture struct {
	seed   int64
	corpus *pantheon.Corpus
	sv     *server
	ids    []string
	specs  []replaySpec
}

type replaySpec struct {
	id     string
	model  *iboxml.Model
	input  *trace.Trace // as the server decodes it
	body   []byte
	want   []float64 // offline PredictWindows mu
	inBits float64
}

func newReplayFixture(seed int64) fixture { return &replayFixture{seed: seed} }

func (f *replayFixture) srv() *server { return f.sv }
func (f *replayFixture) close()       { f.sv.stop() }

func (f *replayFixture) setup(tr *tracer, dir string) error {
	c, err := generate(tr, 5, f.seed)
	if err != nil {
		return err
	}
	f.corpus = c
	sp := tr.begin("iboxml.train", 0, -1)
	m, err := iboxml.Train([]iboxml.TrainingSample{{Trace: c.Traces[0]}},
		iboxml.Config{Hidden: 256, Layers: 4, Epochs: 1, Seed: f.seed})
	sp.end(1)
	if err != nil {
		return fmt.Errorf("training h256l4: %w", err)
	}
	if err := mkdir(dir); err != nil {
		return err
	}
	// Checkpoint c scales every weight by 1+0.01c: distinct weights,
	// one shape, so the batcher may co-batch them across checkpoints.
	params := m.Net.Params()
	orig := make([][]float64, len(params))
	for i, p := range params {
		orig[i] = append([]float64(nil), p.W...)
	}
	for k := 0; k < replayCheckpoints; k++ {
		scale := 1 + 0.01*float64(k)
		for i, p := range params {
			for j := range p.W {
				p.W[j] = orig[i][j] * scale
			}
		}
		id := fmt.Sprintf("paper-%d.json", k)
		sp := tr.begin("iboxml.save", 0, -1)
		err := m.Save(filepath.Join(dir, id))
		sp.end(1)
		if err != nil {
			return err
		}
		f.ids = append(f.ids, id)
	}
	sp = tr.begin("serve.start", 0, -1)
	f.sv, err = startServer(dir)
	sp.end(1)
	if err != nil {
		return err
	}
	return warm(tr, f.sv, f.ids...)
}

// prepare builds eight request specs — spec k replays input trace
// (k + k/4) mod 4 through checkpoint k mod 4, so each checkpoint sees two
// of the four inputs — and each one's offline PredictWindows reference,
// computed on the registry's own loaded model.
func (f *replayFixture) prepare() error {
	inputs := f.corpus.Traces[1:]
	for k := 0; k < 2*replayCheckpoints; k++ {
		id := f.ids[k%replayCheckpoints]
		in := inputs[(k+k/replayCheckpoints)%len(inputs)]
		body, err := json.Marshal(serve.ReplayRequest{Model: id, Seed: f.seed*100 + int64(k), Input: in})
		if err != nil {
			return err
		}
		var req serve.ReplayRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return err
		}
		m, err := f.sv.s.Registry().Get(id)
		if err != nil {
			return err
		}
		f.specs = append(f.specs, replaySpec{id: id, model: m.ML, input: req.Input, body: body, inBits: traceBits(req.Input)})
	}
	return par.ForEach(len(f.specs), par.Options{}, func(k int) error {
		sp := &f.specs[k]
		sp.want, _ = sp.model.PredictWindows(sp.input, nil)
		return nil
	})
}

// replayFrame is any NDJSON frame of /v1/replay.
type replayFrame struct {
	Type      string    `json:"type"`
	T0        int       `json:"t0"`
	Mu        []float64 `json:"mu"`
	BatchSize int       `json:"batch_size"`
	Error     string    `json:"error"`
}

// spec returns operation i's request: round-robin over checkpoints.
func (f *replayFixture) spec(i int) *replaySpec { return &f.specs[i%len(f.specs)] }

func (f *replayFixture) do(ctx context.Context, c *client, i int, due time.Time) opResult {
	sp := f.spec(i)
	r := opResult{i: i, kind: "replay", due: due}
	resp, err := c.send(ctx, &r, "POST", "/v1/replay", sp.body, "", false)
	if err != nil {
		return r.failf("transport: %v", errClass(err))
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return r.failf("HTTP %d", resp.StatusCode)
	}
	rd := bufio.NewReaderSize(resp.Body, 64<<10)
	var mu []float64
	for {
		line, err := rd.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var fr replayFrame
			if jerr := json.Unmarshal(line, &fr); jerr != nil {
				r.mismatch = fmt.Sprintf("undecodable frame: %v", jerr)
				return r.failf("bad frame")
			}
			switch fr.Type {
			case "windows":
				if r.first.IsZero() {
					r.first = time.Now()
				}
				if fr.T0 != len(mu) {
					r.mismatch = fmt.Sprintf("chunk t0 %d after %d windows", fr.T0, len(mu))
				}
				mu = append(mu, fr.Mu...)
			case "end":
				r.end = time.Now()
				r.batch = fr.BatchSize
				if msg := sameBits(mu, sp.want); msg != "" && r.mismatch == "" {
					r.mismatch = fmt.Sprintf("%s on %s: %s", "streamed mu", sp.id, msg)
				}
				r.ok = r.mismatch == ""
				r.bits = sp.inBits
				if !r.ok {
					r.fail = "output mismatch"
				}
				return r
			case "error":
				return r.failf("stream error frame: %s", fr.Error)
			}
		}
		if err != nil {
			return r.failf("stream ended without an end frame: %v", errClass(err))
		}
	}
}

// sameBits compares two float sequences bit for bit.
func sameBits(got, want []float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d values, want %d", len(got), len(want))
	}
	for k := range got {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			return fmt.Sprintf("value %d is %v, offline %v", k, got[k], want[k])
		}
	}
	return ""
}

func (f *replayFixture) probeModels() probeInputs {
	return probeInputs{corpus: f.corpus.Traces}
}

func (f *replayFixture) layers(tr *tracer, sample []opResult, lanes int) {
	for _, r := range sample {
		sp := f.spec(r.i)
		root := tr.begin("layers.replay", 0, r.i)
		decodeSpan(tr, root.id, r.i, sp.body, &serve.ReplayRequest{})
		getSpan(tr, f.sv, root.id, r.i, sp.id)
		// The lane batch this request would join: its own checkpoint
		// plus the next ones round-robin, as concurrent streams arrive.
		var peers []*iboxml.Model
		for k := 0; k < lanes; k++ {
			peers = append(peers, f.spec(r.i+k).model)
		}
		mu, sigma := mlLayers(tr, root.id, r.i, peers, sp.input, r.i%2 == 0)
		es := tr.begin("serve.encode", root.id, r.i)
		encodeReplay(mu, sigma, sp.id, r.batch)
		es.onPath().end(1)
		root.end(0)
	}
}

// encodeReplay marshals the stream's frames as the handler does: one
// windows frame per 64-window chunk, then the end frame.
func encodeReplay(mu, sigma []float64, id string, batch int) {
	type windows struct {
		Type  string    `json:"type"`
		T0    int       `json:"t0"`
		Mu    []float64 `json:"mu"`
		Sigma []float64 `json:"sigma"`
	}
	for t0 := 0; t0 < len(mu); t0 += 64 {
		t1 := t0 + 64
		if t1 > len(mu) {
			t1 = len(mu)
		}
		json.Marshal(windows{Type: "windows", T0: t0, Mu: mu[t0:t1], Sigma: sigma[t0:t1]})
	}
	json.Marshal(struct {
		Type      string `json:"type"`
		Model     string `json:"model"`
		Windows   int    `json:"windows"`
		BatchSize int    `json:"batch_size"`
	}{"end", id, len(mu), batch})
}

func traceBits(tr *trace.Trace) float64 {
	bits := 0.0
	for _, p := range tr.Packets {
		bits += 8 * float64(p.Size)
	}
	return bits
}

// benchProfile is the corpus' path family: the paper's india-cellular
// stress-test profile (delay and buffer ranges) pinned at a steady
// 6 Mbit/s with no competing traffic. The random competing workload, the
// cellular rate walk and the 3–12 Mbit/s rate range would make one
// seed's traces and fitted paths carry several times the packets of
// another's; pinned, every seed's inputs carry about the same load and
// only the path realization varies.
func benchProfile() pantheon.Profile {
	p := pantheon.IndiaCellular()
	p.RateMin, p.RateMax = 750_000, 750_000
	p.Cellular = false
	p.CrossTraffic = false
	return p
}

// generate makes the workload's corpus: n 30 s cubic traces.
func generate(tr *tracer, n int, seed int64) (*pantheon.Corpus, error) {
	sp := tr.begin("pantheon.generate", 0, -1)
	c, err := pantheon.Generate(benchProfile(), n, "cubic", traceDur, seed)
	sp.end(n)
	return c, err
}

// errClass shortens a transport error to its kind for the failure table.
func errClass(err error) string {
	if err == nil {
		return "EOF"
	}
	if errorsIsTimeout(err) {
		return "timeout"
	}
	return err.Error()
}
