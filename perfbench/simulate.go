package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"ibox/internal/core"
	"ibox/internal/iboxml"
	"ibox/internal/iboxnet"
	"ibox/internal/pantheon"
	"ibox/internal/par"
	"ibox/internal/serve"
	"ibox/internal/sim"
)

// protocols are the congestion-control senders the iBoxNet requests and
// sessions cycle through.
var protocols = []string{"cubic", "bbr", "vegas", "reno"}

// netDuration is the virtual length of an iBoxNet counterfactual run.
const netDuration = 10 * sim.Second

// simulateFixture: whole-trace POST /v1/simulate alternating an iBoxML
// replay on a default-shape (h24l2) checkpoint with an iBoxNet
// counterfactual run over a fitted path.
type simulateFixture struct {
	seed   int64
	corpus *pantheon.Corpus
	ml     *iboxml.Model // the training-side model; the server loads its own copy
	paths  []string
	sv     *server
	ml0    []simSpec // iBoxML replays
	net    []simSpec // iBoxNet runs
}

type simSpec struct {
	kind  string // "iboxml" | "iboxnet"
	id    string
	req   serve.SimulateRequest // as the server decodes it
	body  []byte
	want  []byte // encoded offline response
	bits  float64
	model *serve.Model
}

func newSimulateFixture(seed int64) fixture { return &simulateFixture{seed: seed} }

func (f *simulateFixture) srv() *server { return f.sv }
func (f *simulateFixture) close()       { f.sv.stop() }

const mlID = "ml-h24l2.json"

// fitAndTrain is the shared set-up of simulate-mix and sessions: fit
// one iBoxNet path per training trace, train the h24l2 checkpoint on
// them, save everything into dir and start the server warm.
func fitAndTrain(tr *tracer, dir string, c *pantheon.Corpus, nTrain int, seed int64) (ml *iboxml.Model, paths []string, sv *server, err error) {
	if err := mkdir(dir); err != nil {
		return nil, nil, nil, err
	}
	var samples []iboxml.TrainingSample
	for k := 0; k < nTrain; k++ {
		sp := tr.begin("iboxnet.estimate", 0, -1)
		p, err := iboxnet.Estimate(c.Traces[k], iboxnet.EstimatorConfig{})
		sp.end(1)
		if err != nil {
			return nil, nil, nil, err
		}
		id := fmt.Sprintf("path-%d.json", k)
		if err := writeParams(filepath.Join(dir, id), p); err != nil {
			return nil, nil, nil, err
		}
		paths = append(paths, id)
		samples = append(samples, iboxml.TrainingSample{Trace: c.Traces[k]})
	}
	sp := tr.begin("iboxml.train", 0, -1)
	ml, err = iboxml.Train(samples, iboxml.Config{Epochs: 10, Seed: seed})
	sp.end(1)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("training h24l2: %w", err)
	}
	sp = tr.begin("iboxml.save", 0, -1)
	err = ml.Save(filepath.Join(dir, mlID))
	sp.end(1)
	if err != nil {
		return nil, nil, nil, err
	}
	sp = tr.begin("serve.start", 0, -1)
	sv, err = startServer(dir)
	sp.end(1)
	if err != nil {
		return nil, nil, nil, err
	}
	return ml, paths, sv, warm(tr, sv, append([]string{mlID}, paths...)...)
}

func writeParams(path string, p iboxnet.Params) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.Write(fh); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

func (f *simulateFixture) setup(tr *tracer, dir string) error {
	c, err := generate(tr, fittedPaths+8, f.seed)
	if err != nil {
		return err
	}
	f.corpus = c
	f.ml, f.paths, f.sv, err = fitAndTrain(tr, dir, c, fittedPaths, f.seed)
	return err
}

// fittedPaths is how many iBoxNet paths simulate-mix and sessions fit;
// the h24l2 checkpoint trains on the same traces.
const fittedPaths = 4

// prepare builds 8 iBoxML specs (eight 30 s input traces) and 16 iBoxNet
// specs (four fitted paths × four protocols), each with its offline
// response encoded the way the handler encodes it.
func (f *simulateFixture) prepare() error {
	reg := f.sv.s.Registry()
	mlModel, err := reg.Get(mlID)
	if err != nil {
		return err
	}
	for k := 0; k < 8; k++ {
		in := f.corpus.Traces[fittedPaths+k]
		s, err := newSimSpec("iboxml", mlModel, serve.SimulateRequest{Model: mlID, Seed: f.seed*1000 + int64(k), Input: in})
		if err != nil {
			return err
		}
		f.ml0 = append(f.ml0, s)
	}
	for k := 0; k < 4*len(f.paths); k++ {
		id := f.paths[k/4]
		m, err := reg.Get(id)
		if err != nil {
			return err
		}
		s, err := newSimSpec("iboxnet", m, serve.SimulateRequest{Model: id, Seed: f.seed*1000 + 500 + int64(k),
			Protocol: protocols[k%4], DurationS: netDuration.Seconds()})
		if err != nil {
			return err
		}
		f.net = append(f.net, s)
	}
	all := append(append([]simSpec(nil), f.ml0...), f.net...)
	err = par.ForEach(len(all), par.Options{}, func(k int) error { return all[k].reference() })
	copy(f.ml0, all[:len(f.ml0)])
	copy(f.net, all[len(f.ml0):])
	return err
}

func newSimSpec(kind string, m *serve.Model, req serve.SimulateRequest) (simSpec, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return simSpec{}, err
	}
	s := simSpec{kind: kind, id: req.Model, body: body, model: m}
	return s, json.Unmarshal(body, &s.req)
}

// reference runs the offline code path the handler wraps and encodes
// its response exactly as the handler does.
func (s *simSpec) reference() error {
	out, err := offlineSimulate(s.model, &s.req)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(serve.SimulateResponse{
		Model: s.model.ID, Kind: s.model.Kind, Metrics: core.MetricsOf(out), Trace: out,
	}); err != nil {
		return err
	}
	s.want = buf.Bytes()
	if s.kind == "iboxml" {
		s.bits = traceBits(s.req.Input)
	} else {
		s.bits = traceBits(out)
	}
	return nil
}

// spec alternates the two request types.
func (f *simulateFixture) spec(i int) *simSpec {
	if i%2 == 0 {
		return &f.ml0[(i/2)%len(f.ml0)]
	}
	return &f.net[(i/2)%len(f.net)]
}

func (f *simulateFixture) do(ctx context.Context, c *client, i int, due time.Time) opResult {
	return doSimulate(ctx, c, f.spec(i), i, due)
}

func doSimulate(ctx context.Context, c *client, sp *simSpec, i int, due time.Time) opResult {
	r := opResult{i: i, kind: sp.kind, due: due}
	resp, err := c.send(ctx, &r, "POST", "/v1/simulate", sp.body, "", true)
	if err != nil {
		return r.failf("transport: %v", errClass(err))
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	r.end = time.Now()
	if err != nil {
		return r.failf("read body: %v", errClass(err))
	}
	if resp.StatusCode != http.StatusOK {
		return r.failf("HTTP %d", resp.StatusCode)
	}
	r.batch, _ = strconv.Atoi(resp.Header.Get("X-Ibox-Batch-Size"))
	if !bytes.Equal(body, sp.want) {
		r.mismatch = fmt.Sprintf("%s response on %s (%d bytes) differs from the offline encoding (%d bytes)",
			sp.kind, sp.id, len(body), len(sp.want))
		return r.failf("output mismatch")
	}
	r.ok = true
	r.bits = sp.bits
	return r
}

func (f *simulateFixture) probeModels() probeInputs {
	m, _ := f.sv.s.Registry().Get(f.paths[0])
	return probeInputs{corpus: f.corpus.Traces, small: f.ml0[0].model.ML, path: &m.Net}
}

func (f *simulateFixture) layers(tr *tracer, sample []opResult, lanes int) {
	for _, r := range sample {
		layersSimulate(tr, f.sv, f.spec(r.i), r, lanes)
	}
}

// layersSimulate replays one /v1/simulate request's layer calls:
// decode, registry get, the simulation (iBoxML lanes or core.Model.Run),
// then the response encode.
func layersSimulate(tr *tracer, sv *server, sp *simSpec, r opResult, lanes int) {
	root := tr.begin("layers.simulate", 0, r.i)
	decodeSpan(tr, root.id, r.i, sp.body, &serve.SimulateRequest{})
	getSpan(tr, sv, root.id, r.i, sp.id)
	var out = sp.req.Input
	if sp.kind == "iboxml" {
		peers := make([]*iboxml.Model, lanes)
		for k := range peers {
			peers[k] = sp.model.ML
		}
		mlLayers(tr, root.id, r.i, peers, sp.req.Input, r.i%4 == 0)
		out = sp.model.ML.SimulateTrace(sp.req.Input, nil, sp.req.Seed)
	} else {
		cs := tr.begin("core.run", root.id, r.i)
		res, err := offlineSimulate(sp.model, &sp.req)
		n := 0
		if err == nil {
			n = len(res.Packets)
			out = res
		}
		cs.onPath().end(n)
	}
	es := tr.begin("serve.encode", root.id, r.i)
	json.NewEncoder(io.Discard).Encode(serve.SimulateResponse{
		Model: sp.model.ID, Kind: sp.model.Kind, Metrics: core.MetricsOf(out), Trace: out,
	})
	es.onPath().end(1)
	root.end(0)
}
