package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"time"

	"ibox/internal/core"
	"ibox/internal/iboxml"
	"ibox/internal/iboxnet"
	"ibox/internal/nn"
	"ibox/internal/serve"
	"ibox/internal/session"
	"ibox/internal/sim"
	"ibox/internal/trace"
)

// feedbackCol is iBoxML's closed-loop d_{t−1} input column: the one
// column the server cannot pre-project before the unroll.
const feedbackCol = 3

// streamChunk is the server's default streaming chunk, in windows.
const streamChunk = 64

// The layer replays below re-run calls on request bodies, model ids and
// inputs the server already handled without error during the traced
// phase, so they drop the errors and results they only time.

func decodeSpan(tr *tracer, parent int64, req int, body []byte, v any) {
	sp := tr.begin("serve.decode", parent, req)
	_ = json.NewDecoder(bytes.NewReader(body)).Decode(v)
	sp.onPath().end(1)
}

func getSpan(tr *tracer, sv *server, parent int64, req int, id string) {
	sp := tr.begin("serve.registry_get", parent, req)
	_, _ = sv.s.Registry().Get(id)
	sp.onPath().end(1)
}

// standardized returns the window features scaled per column by the
// trace's own mean and spread, so the probe kernels see inputs of the
// magnitude the server's scaler produces (iboxml keeps its scaler
// private).
func standardized(tr *trace.Trace, window sim.Time) (xs [][]float64, ys []float64, mask []bool) {
	xs, ys, mask = iboxml.WindowFeatures(tr, nil, window)
	if len(xs) == 0 {
		return
	}
	d := len(xs[0])
	for c := 0; c < d; c++ {
		mean, sq := 0.0, 0.0
		for _, x := range xs {
			mean += x[c]
		}
		mean /= float64(len(xs))
		for _, x := range xs {
			sq += (x[c] - mean) * (x[c] - mean)
		}
		sd := math.Sqrt(sq / float64(len(xs)))
		if sd == 0 {
			sd = 1
		}
		for _, x := range xs {
			x[c] = (x[c] - mean) / sd
		}
	}
	mean, sq := 0.0, 0.0
	for _, y := range ys {
		mean += y
	}
	mean /= float64(len(ys))
	for _, y := range ys {
		sq += (y - mean) * (y - mean)
	}
	sd := math.Sqrt(sq / float64(len(ys)))
	if sd == 0 {
		sd = 1
	}
	for i := range ys {
		ys[i] = (ys[i] - mean) / sd
	}
	return xs, ys, mask
}

// shapeName labels a network by its LSTM shape, e.g. "h256l4".
func shapeName(m *nn.SequenceModel) string {
	return fmt.Sprintf("h%dl%d", m.LSTM.Hidden(), len(m.LSTM.Layers))
}

// unroll times the closed-loop lockstep unroll the server's lane batch
// runs: input pre-projection per lane, then per window one
// nn.StepBatchLanesInto over all lanes and one head per lane, feeding
// each lane's prediction back. A second unroll of lane 0 alone through
// StepInto gives the one-lane step time. It returns lane 0's head
// outputs.
func unroll(tr *tracer, parent int64, req int, nets []*nn.SequenceModel, xs [][]float64, path bool) (mu, sigma []float64) {
	L, T := len(nets), len(xs)
	if T == 0 {
		return nil, nil
	}
	name := "nn.step." + shapeName(nets[0])
	ims := make([]*nn.InferModel, L)
	sts := make([]*nn.InferState, L)
	pres := make([][]float64, L)
	rows := make([][]float64, L)
	prs := make([][]float64, L)
	rp := nets[0].Infer().InputRowsPerStep()
	pp := tr.begin("nn.preproject", parent, req)
	for k, n := range nets {
		ims[k] = n.Infer()
		sts[k] = ims[k].NewState()
		pres[k] = make([]float64, T*rp)
		ims[k].PreProjectInput(pres[k], xs, feedbackCol)
		rows[k] = make([]float64, len(xs[0]))
	}
	if path {
		pp.onPath()
	}
	pp.end(T * L)

	mu, sigma = make([]float64, T), make([]float64, T)
	prev := make([]float64, L)
	scratch := make([]float64, nets[0].Head.Out)
	var stepD, headD time.Duration
	t0 := time.Now()
	for t := 0; t < T; t++ {
		for k := range nets {
			copy(rows[k], xs[t])
			if t > 0 {
				rows[k][feedbackCol] = prev[k]
			}
			prs[k] = pres[k][t*rp : (t+1)*rp]
		}
		a := time.Now()
		nn.StepBatchLanesInto(ims, sts, rows, prs, feedbackCol)
		b := time.Now()
		for k, n := range nets {
			out := n.HeadGaussian(sts[k].Top(), scratch)
			prev[k] = out.Mu
			if k == 0 {
				mu[t], sigma[t] = out.Mu, out.Sigma
			}
		}
		stepD += b.Sub(a)
		headD += time.Since(b)
	}
	// Step and head calls interleave; each is recorded as one span of
	// their summed time, laid end to end.
	tr.add(name, parent, req, t0, t0.Add(stepD), T*L, path, 0)
	tr.add("nn.head", parent, req, t0.Add(stepD), t0.Add(stepD+headD), T*L, path, 0)

	st := ims[0].NewState()
	row := make([]float64, len(xs[0]))
	p := 0.0
	var oneD time.Duration
	t1 := time.Now()
	for t := 0; t < T; t++ {
		copy(row, xs[t])
		if t > 0 {
			row[feedbackCol] = p
		}
		a := time.Now()
		top := ims[0].StepInto(st, row)
		oneD += time.Since(a)
		p = nets[0].HeadGaussian(top, scratch).Mu
	}
	tr.add(name+".lane1", parent, req, t1, t1.Add(oneD), T, false, 0)
	return mu, sigma
}

// mlLayers replays an iBoxML replay's layer calls for a request on
// peers[0] sharing a lane batch with the other peers: features, the
// lockstep unroll, then per-packet sampling (SimulateTraceLanes minus
// PredictWindowsLanes on the same lane), and with score the drift
// re-scoring the server runs on sampled requests.
func mlLayers(tr *tracer, parent int64, req int, peers []*iboxml.Model, in *trace.Trace, score bool) (mu, sigma []float64) {
	m := peers[0]
	fs := tr.begin("iboxml.features", parent, req)
	raw, _, _ := iboxml.WindowFeatures(in, nil, m.Cfg.Window)
	fs.onPath().end(len(raw))
	xs, _, _ := standardized(in, m.Cfg.Window)
	nets := make([]*nn.SequenceModel, len(peers))
	for k, p := range peers {
		nets[k] = p.Net
	}
	mu, sigma = unroll(tr, parent, req, nets, xs, true)

	lane := []iboxml.ReplayLane{{Model: m, Input: in, Seed: int64(req)}}
	a := time.Now()
	iboxml.PredictWindowsLanes(lane, streamChunk)
	pd := time.Since(a)
	b := time.Now()
	iboxml.SimulateTraceLanes(lane, streamChunk)
	sd := time.Since(b)
	sim := tr.add("iboxml.simulate_lanes", parent, req, b, b.Add(sd), len(in.Packets), false, 0)
	tr.add("iboxml.predict_lanes", parent, req, a, a.Add(pd), len(xs), false, 0)
	if sd > pd {
		tr.add("iboxml.sample_packets", sim, req, b.Add(pd), b.Add(sd), len(in.Packets), true, 0)
	}
	if score {
		ss := tr.begin("iboxml.score_windows", parent, req)
		n := m.ScoreWindows(in, nil, func(pit, z, nll float64) {})
		ss.end(n)
	}
	return mu, sigma
}

// offlineSimulate is the offline call /v1/simulate wraps.
func offlineSimulate(m *serve.Model, req *serve.SimulateRequest) (*trace.Trace, error) {
	if m.Kind == serve.KindIBoxML {
		return m.ML.SimulateTrace(req.Input, nil, req.Seed), nil
	}
	cm := &core.Model{Params: m.Net, Variant: iboxnet.Full, TrainTrace: m.ID}
	return cm.Run(req.Protocol, sim.Time(req.DurationS*float64(sim.Second)), req.Seed)
}

// probeInputs is what a fixture built that the probes can reuse.
type probeInputs struct {
	corpus []*trace.Trace
	small  *iboxml.Model   // h24l2 checkpoint
	path   *iboxnet.Params // a fitted iBoxNet path
	netID  string          // registry id of an iBoxNet path, for an admission probe
}

// runProbes times every layer the workload's own sampled operations did
// not reach, on the workload's corpus and models (or cheap stand-ins),
// so each per-layer metric is measured on every workload.
func runProbes(tr *tracer, in probeInputs, seed int64, have func(string) bool) {
	traces := in.corpus
	if !have("iboxnet.estimate") {
		for _, t := range traces[:2] {
			sp := tr.begin("iboxnet.estimate", 0, -1)
			iboxnet.Estimate(t, iboxnet.EstimatorConfig{})
			sp.end(1)
		}
	}
	path := in.path
	if path == nil {
		p, err := iboxnet.Estimate(traces[0], iboxnet.EstimatorConfig{})
		if err == nil {
			path = &p
		}
	}
	small := in.small
	if small == nil {
		small, _ = iboxml.Train([]iboxml.TrainingSample{{Trace: traces[0]}}, iboxml.Config{Epochs: 1, Seed: seed})
	}

	// One training step on a full 30 s sequence at the paper shape.
	xs, ys, mask := standardized(traces[0], 100*sim.Millisecond)
	paper := nn.NewSequenceModel(nn.GaussianHead, len(xs[0]), 256, 4, seed)
	sp := tr.begin("nn.train_sequence", 0, -1)
	paper.TrainSequence(xs, ys, mask)
	sp.end(len(xs))
	if !have("nn.step.h256l4") {
		unroll(tr, 0, -1, []*nn.SequenceModel{paper}, xs, false)
	}
	if small != nil {
		if !have("iboxml.features") || !have("iboxml.score_windows") {
			mlLayers(tr, 0, -1, []*iboxml.Model{small}, traces[0], true)
		} else if !have("nn.step.h24l2.lane1") {
			unroll(tr, 0, -1, []*nn.SequenceModel{small.Net}, xs, false)
		}
		h := small.NewHierarchical(seed)
		sp := tr.begin("iboxml.packet_delay", 0, -1)
		for _, p := range traces[0].Packets {
			h.PacketDelay(p.SendTime, p.Size)
		}
		sp.end(len(traces[0].Packets))
	}
	if path != nil {
		if !have("core.run") {
			cm := &core.Model{Params: *path, Variant: iboxnet.Full}
			sp := tr.begin("core.run", 0, -1)
			out, err := cm.Run("cubic", netDuration, seed)
			n := 0
			if err == nil {
				n = len(out.Packets)
			}
			sp.end(n)
		}
		cfg := session.Config{ID: "probe", Kind: session.KindIBoxNet, Net: *path, Protocol: "cubic", Seed: seed,
			Duration: sim.FromSeconds(sessionVirtualS), PacketEvery: sessionPacketEvery}
		if !have("session.run") {
			sessionRun(tr, 0, -1, cfg)
		}
		sessionMutate(tr, cfg)
	}
}

func mkdir(dir string) error { return os.MkdirAll(dir, 0o755) }

func errorsIsTimeout(err error) bool {
	var ne net.Error
	return errors.Is(err, context.DeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout())
}
