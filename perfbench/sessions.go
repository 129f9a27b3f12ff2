package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"ibox/internal/iboxnet"
	"ibox/internal/pantheon"
	"ibox/internal/par"
	"ibox/internal/serve"
	"ibox/internal/session"
	"ibox/internal/sim"
)

const (
	// sessionVirtualS is each session's virtual lifetime, the length of
	// simulate-mix's iBoxNet counterfactual runs.
	sessionVirtualS = 10
	// sessionPacketEvery thins per-packet telemetry so one session's
	// whole stream stays below the server's 4096-event replay ring: a
	// reader that falls behind an unpaced session then never loses
	// events to ring overwrite, so streams stay comparable byte for byte.
	sessionPacketEvery = 16
	sessionSpecs       = 16
)

// sessionFixture: live sessions over /v1/sessions + SSE, closed loop.
// Three of four sessions run on fitted iBoxNet paths, one of four on the
// h24l2 checkpoint; every other session gets one mid-flight bandwidth +
// loss mutation.
type sessionFixture struct {
	seed   int64
	corpus *pantheon.Corpus
	paths  []string
	sv     *server
	specs  []sessSpec
}

type sessSpec struct {
	req   serve.SessionRequest
	body  []byte
	model *serve.Model
	want  [][]byte // SSE data payloads of a direct session.New run
}

func newSessionFixture(seed int64) fixture { return &sessionFixture{seed: seed} }

func (f *sessionFixture) srv() *server { return f.sv }
func (f *sessionFixture) close()       { f.sv.stop() }

func (f *sessionFixture) setup(tr *tracer, dir string) error {
	c, err := generate(tr, fittedPaths, f.seed)
	if err != nil {
		return err
	}
	f.corpus = c
	_, f.paths, f.sv, err = fitAndTrain(tr, dir, c, fittedPaths, f.seed)
	return err
}

// mutation is the mid-flight path change: halve the bandwidth and add
// 1% loss for 2 s of virtual time.
var mutationBody = []byte(`{"bandwidth_scale":0.5,"loss_rate":0.01,"loss_burst_s":2}`)

func mutated(i int) bool { return i%2 == 1 }

func (f *sessionFixture) prepare() error {
	reg := f.sv.s.Registry()
	for k := 0; k < sessionSpecs; k++ {
		// Spec k runs path k/4 with protocol (k + k/4) mod 4, except
		// that one spec in four runs cubic, the corpus' protocol, on the
		// h24l2 checkpoint.
		id, proto := f.paths[(k/4)%len(f.paths)], protocols[(k+k/4)%4]
		if k%4 == 2 {
			id, proto = mlID, "cubic"
		}
		m, err := reg.Get(id)
		if err != nil {
			return err
		}
		req := serve.SessionRequest{
			Model: id, Protocol: proto, Seed: f.seed*1000 + int64(k),
			Speed: -1, DurationS: sessionVirtualS, PacketEvery: sessionPacketEvery,
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		f.specs = append(f.specs, sessSpec{req: req, body: body, model: m})
	}
	return par.ForEach(len(f.specs), par.Options{}, func(k int) error {
		if mutated(k) {
			return nil // mutated streams are checked structurally
		}
		sp := &f.specs[k]
		s, err := session.New(sessionConfig(sp.model, sp.req, fmt.Sprintf("ref-%d", k)))
		if err != nil {
			return err
		}
		sp.want, _, err = drain(s)
		if err == nil && len(sp.want) >= 4096 {
			err = fmt.Errorf("session spec %d emits %d events, over the server's replay ring", k, len(sp.want))
		}
		return err
	})
}

// sessionConfig is the session.Config the create handler builds for req.
func sessionConfig(m *serve.Model, req serve.SessionRequest, id string) session.Config {
	cfg := session.Config{
		ID: id, Checkpoint: m.ID, Kind: string(m.Kind), Net: m.Net, Variant: iboxnet.Full, ML: m.ML,
		Protocol: req.Protocol, Seed: req.Seed, Speed: req.Speed, PacketEvery: req.PacketEvery,
	}
	if req.DurationS > 0 {
		cfg.Duration = sim.FromSeconds(req.DurationS)
	}
	return cfg
}

// drain reads a session's whole event stream and reports when the first
// batch arrived.
func drain(s *session.Session) (events [][]byte, first time.Time, err error) {
	sub := s.Subscribe(0)
	defer sub.Close()
	for {
		batch, gap, err := sub.Next(context.Background())
		if err == io.EOF {
			return events, first, nil
		}
		if err != nil {
			return nil, first, err
		}
		if gap {
			return nil, first, fmt.Errorf("session %s lost events to ring overwrite", s.ID())
		}
		if first.IsZero() {
			first = time.Now()
		}
		events = append(events, batch...)
	}
}

func (f *sessionFixture) spec(i int) *sessSpec { return &f.specs[i%len(f.specs)] }

func (f *sessionFixture) do(ctx context.Context, c *client, i int, due time.Time) opResult {
	sp := f.spec(i)
	r := opResult{i: i, kind: "session", due: due}
	resp, err := c.send(ctx, &r, "POST", "/v1/sessions", sp.body, "", false)
	if err != nil {
		return r.failf("create transport: %v", errClass(err))
	}
	var created serve.SessionResponse
	err = json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || err != nil {
		return r.failf("create HTTP %d", resp.StatusCode)
	}
	resp, err = c.send(ctx, &r, "GET", created.EventsURL, nil, "text/event-stream", false)
	if err != nil {
		return r.failf("events transport: %v", errClass(err))
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// The known defect: an unpaced session that completes before the
		// client attaches is already unregistered, so its stream 404s.
		return r.failf("events HTTP %d after create", resp.StatusCode)
	}
	var (
		payloads [][]byte
		ended    bool
		event    string
		mutErr   string
	)
	rd := bufio.NewReaderSize(resp.Body, 64<<10)
	for !ended {
		line, err := rd.ReadBytes('\n')
		if err != nil {
			return r.failf("stream ended without an end event: %v", errClass(err))
		}
		line = bytes.TrimRight(line, "\n")
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			if event == "end" {
				r.end = time.Now()
				ended = true
				break
			}
			if r.first.IsZero() {
				r.first = time.Now()
			}
			payloads = append(payloads, append([]byte(nil), line[len("data: "):]...))
			if mutated(i) && len(payloads) == 1 {
				mutErr = f.mutate(ctx, c, &r, created.Session.ID)
			}
		case len(line) == 0:
			event = ""
		}
	}
	if mutErr != "" {
		return r.failf("%s", mutErr)
	}
	if msg := checkSession(payloads, sp.want, mutated(i)); msg != "" {
		r.mismatch = msg
		return r.failf("output mismatch")
	}
	r.ok = true
	r.bits = 8 * float64(deliveredBytes(payloads))
	return r
}

// mutate posts the mid-flight path change on the control connection.
func (f *sessionFixture) mutate(ctx context.Context, c *client, r *opResult, id string) string {
	resp, err := c.send(ctx, r, "POST", "/v1/sessions/"+id+"/path", mutationBody, "", false)
	if err != nil {
		return "mutate transport: " + errClass(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Sprintf("mutate HTTP %d", resp.StatusCode)
	}
	return ""
}

// checkSession: an unmutated stream must equal the direct run byte for
// byte; a mutated one must echo the mutation and end exactly once.
func checkSession(got, want [][]byte, mutated bool) string {
	if !mutated {
		if len(got) != len(want) {
			return fmt.Sprintf("stream has %d events, the direct run %d", len(got), len(want))
		}
		for k := range got {
			if !bytes.Equal(got[k], want[k]) {
				return fmt.Sprintf("event %d differs from the direct run", k)
			}
		}
		return ""
	}
	echo, terminal := false, 0
	for _, p := range got {
		var ev session.Event
		if err := json.Unmarshal(p, &ev); err != nil {
			return fmt.Sprintf("undecodable event: %v", err)
		}
		if ev.Type == session.EventMutate && ev.Mutation != nil &&
			ev.Mutation.BandwidthScale == 0.5 && ev.Mutation.LossRate == 0.01 {
			echo = true
		}
		if ev.Type == session.EventState && (ev.State == "closed" || ev.State == "expired") {
			terminal++
		}
	}
	switch {
	case !echo:
		return "mutated stream carries no mutation echo"
	case terminal != 1:
		return fmt.Sprintf("mutated stream has %d terminal events, want 1", terminal)
	}
	return ""
}

// deliveredBytes reads the cumulative delivered bytes from the last
// event that reports them.
func deliveredBytes(payloads [][]byte) int64 {
	for k := len(payloads) - 1; k >= 0; k-- {
		if !strings.Contains(string(payloads[k]), "delivered_bytes") {
			continue
		}
		var ev session.Event
		if json.Unmarshal(payloads[k], &ev) != nil {
			continue
		}
		if ev.Summary != nil {
			return ev.Summary.Delivered
		}
		if ev.Packet != nil {
			return ev.Packet.Delivered
		}
	}
	return 0
}

func (f *sessionFixture) probeModels() probeInputs {
	ml, _ := f.sv.s.Registry().Get(mlID)
	path, _ := f.sv.s.Registry().Get(f.paths[0])
	return probeInputs{corpus: f.corpus.Traces, small: ml.ML, path: &path.Net, netID: f.paths[0]}
}

// layers replays a sampled session's calls: decode, registry get, the
// session itself run directly, then encoding its events.
func (f *sessionFixture) layers(tr *tracer, sample []opResult, lanes int) {
	for _, r := range sample {
		sp := f.spec(r.i)
		root := tr.begin("layers.session", 0, r.i)
		decodeSpan(tr, root.id, r.i, sp.body, &serve.SessionRequest{})
		getSpan(tr, f.sv, root.id, r.i, sp.req.Model)
		events := sessionRun(tr, root.id, r.i, sessionConfig(sp.model, sp.req, fmt.Sprintf("layers-%d", r.i)))
		evs := make([]session.Event, len(events))
		for k, p := range events {
			json.Unmarshal(p, &evs[k])
		}
		es := tr.begin("serve.encode", root.id, r.i)
		for k := range evs {
			json.Marshal(&evs[k])
		}
		es.onPath().end(len(evs))
		root.end(0)
	}
}

// sessionRun runs one session directly, unpaced, and records its wall
// time (items: events; arg: virtual seconds) and time to first batch.
func sessionRun(tr *tracer, parent int64, req int, cfg session.Config) [][]byte {
	cfg.Speed = -1
	sp := tr.begin("session.run", parent, req)
	s, err := session.New(cfg)
	if err != nil {
		sp.end(0)
		return nil
	}
	events, first, _ := drain(s)
	sp.onPath().arg(cfg.Duration.Seconds()).end(len(events))
	if !first.IsZero() {
		tr.add("session.first_event", sp.id, req, sp.start, first, 1, false, 0)
	}
	return events
}

// sessionMutate times Session.Mutate's round trip on a live session.
func sessionMutate(tr *tracer, cfg session.Config) {
	cfg.Speed = 1 // paced, so the session is still live when the mutation lands
	s, err := session.New(cfg)
	if err != nil {
		return
	}
	defer s.Close("client")
	loss := 0.01
	sp := tr.begin("session.mutate", 0, -1)
	err = s.Mutate(session.Mutation{BandwidthScale: 0.5, LossRate: &loss, LossBurstS: 2})
	if err == nil {
		sp.end(1)
	}
}
