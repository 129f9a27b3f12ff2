package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval of the traced run: a client-side request
// stage, a set-up stage, or a public layer call the benchmark made.
type span struct {
	id, parent int64
	req        int // operation index, -1 for none
	name       string
	start      time.Time
	stop       time.Time
	items      int     // work units inside (windows, lane-steps, packets, events)
	argV       float64 // span-specific value (session.run: virtual seconds)
	path       bool    // on the request's blocking path (latency accounting)
}

func (s span) dur() time.Duration { return s.stop.Sub(s.start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span being timed.
type openSpan struct {
	t *tracer
	span
}

func (t *tracer) begin(name string, parent int64, req int) *openSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &openSpan{t: t, span: span{id: id, parent: parent, req: req, name: name, start: time.Now()}}
}

// onPath marks the span as part of the request's blocking path.
func (s *openSpan) onPath() *openSpan {
	if s != nil {
		s.path = true
	}
	return s
}

func (s *openSpan) arg(v float64) *openSpan {
	if s != nil {
		s.argV = v
	}
	return s
}

// end closes the span with the amount of work it covered.
func (s *openSpan) end(items int) {
	if s == nil {
		return
	}
	s.stop = time.Now()
	s.items = items
	s.t.record(s.span)
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// add records an already-timed span and returns its id.
func (t *tracer) add(name string, parent int64, req int, start, stop time.Time, items int, path bool, arg float64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.spans = append(t.spans, span{id: id, parent: parent, req: req, name: name, start: start, stop: stop, items: items, path: path, argV: arg})
	t.mu.Unlock()
	return id
}

// clientSpans records one operation as the client saw it: due → sent
// (waiting for the generator and a connection), sent → first chunk
// (server), first chunk → last byte (stream).
func (t *tracer) clientSpans(r opResult) {
	root := t.add("client.request", 0, r.i, r.due, r.end, 1, false, 0)
	t.add("client.wait", root, r.i, r.due, r.sent, 1, false, 0)
	t.add("client.server", root, r.i, r.sent, r.first, 1, false, 0)
	t.add("client.stream", root, r.i, r.first, r.end, 1, false, 0)
}

// selfTimes returns every span with its self time: its duration minus
// the part its children cover (children never overlap here).
func (t *tracer) selfTimes() (spans []span, self map[int64]time.Duration) {
	t.mu.Lock()
	spans = append([]span(nil), t.spans...)
	t.mu.Unlock()
	child := map[int64]time.Duration{}
	for _, s := range spans {
		if s.parent != 0 {
			child[s.parent] += s.dur()
		}
	}
	self = map[int64]time.Duration{}
	for _, s := range spans {
		d := s.dur() - child[s.id]
		if d < 0 {
			d = 0
		}
		self[s.id] = d
	}
	return spans, self
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto). Each operation gets its own thread row;
// set-up and probe spans share row 0.
func (t *tracer) writeChrome(path string, meta map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	spans, self := t.selfTimes()
	evs := make([]event, 0, len(spans))
	for _, s := range spans {
		evs = append(evs, event{
			Name: s.name, Ph: "X", PID: 1, TID: s.req + 1,
			TS:  float64(s.start.Sub(t.t0).Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.id, "parent": s.parent, "req": s.req, "items": s.items,
				"self_us": float64(self[s.id].Nanoseconds()) / 1e3, "blocking": s.path},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms", "otherData": meta})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
