package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// opResult is one attempted operation (a request or a session) as the
// client saw it. Every timestamp is wall clock; latencies run from due.
type opResult struct {
	i     int    // operation index; picks the request spec
	kind  string // request type, for the per-layer pass
	due   time.Time
	sent  time.Time // connection acquired: the request could go out
	first time.Time // first streamed chunk / SSE data event / response byte
	end   time.Time // last byte, end frame or end event

	ok       bool
	fail     string // why the operation failed (ok == false)
	mismatch string // correctness violation: fails the whole run
	bits     float64
	batch    int // micro-batch size the server reported, 0 if none
}

func (r *opResult) failf(format string, args ...any) opResult {
	r.ok = false
	r.fail = fmt.Sprintf(format, args...)
	if r.end.IsZero() {
		r.end = time.Now()
	}
	return *r
}

func (r opResult) latency() time.Duration { return r.end.Sub(r.due) }
func (r opResult) ttfc() time.Duration    { return r.first.Sub(r.due) }
func (r opResult) late() time.Duration    { return r.sent.Sub(r.due) }

// client is the load generator's HTTP side: one transport capped at
// nproc connections to the in-process server.
type client struct {
	base string
	tr   *http.Transport
	http *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		MaxIdleConns:        conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{base: base, tr: tr, http: &http.Client{Transport: tr}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// send issues one request and records when it got a connection and, with
// markFirst, when the first response byte arrived (for whole-body
// responses that is the first chunk). The caller owns resp.Body.
func (c *client) send(ctx context.Context, r *opResult, method, path string, body []byte, accept string, markFirst bool) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	var gotConn, firstByte time.Time
	ct := &httptrace.ClientTrace{
		GotConn:              func(httptrace.GotConnInfo) { gotConn = time.Now() },
		GotFirstResponseByte: func() { firstByte = time.Now() },
	}
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, ct), method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := c.http.Do(req)
	if r.sent.IsZero() {
		r.sent = gotConn
		if r.sent.IsZero() {
			r.sent = time.Now()
		}
	}
	if markFirst && r.first.IsZero() && !firstByte.IsZero() {
		r.first = firstByte
	}
	return resp, err
}

// loadgen drives a fixture's operations in closed or open loop.
type loadgen struct {
	fx     fixture
	cl     *client
	next   atomic.Int64
	tracer *tracer // non-nil: record client spans
}

func (lg *loadgen) run(i int, due time.Time) opResult {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	r := lg.fx.do(ctx, lg.cl, i, due)
	if r.first.IsZero() {
		r.first = r.end
	}
	if r.sent.IsZero() {
		r.sent = due
	}
	if lg.tracer != nil {
		lg.tracer.clientSpans(r)
	}
	return r
}

// phase is the outcome of one load phase.
type phase struct {
	ops   []opResult
	start time.Time
	wall  time.Duration // nominal length
	rate  float64       // offered rate of an open-loop rung (req/s)
}

// closedLoop runs clients that each issue their next operation as soon
// as the previous one completes, until dur has passed (n > 0 instead
// runs exactly n operations in total).
func (lg *loadgen) closedLoop(clients int, dur time.Duration, n int) phase {
	var (
		mu  sync.Mutex
		ops []opResult
		wg  sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(dur)
	var issued atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if n > 0 {
					if issued.Add(1) > int64(n) {
						return
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				i := int(lg.next.Add(1) - 1)
				r := lg.run(i, time.Now())
				mu.Lock()
				ops = append(ops, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(ops, func(a, b int) bool { return ops[a].i < ops[b].i })
	return phase{ops: ops, start: start, wall: dur}
}

// openLoop issues operations on a seeded Poisson schedule at rate per
// second for dur, regardless of completions, then waits for all of them.
// Each operation is timed from its due time, so a stalled generator or
// a connection wait shows up as latency.
func (lg *loadgen) openLoop(rate float64, dur time.Duration, rng *rand.Rand) phase {
	var dues []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			break
		}
		dues = append(dues, d)
	}
	ops := make([]opResult, len(dues))
	var wg sync.WaitGroup
	start := time.Now()
	for k, d := range dues {
		due := start.Add(d)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		i := int(lg.next.Add(1) - 1)
		wg.Add(1)
		go func(k, i int, due time.Time) {
			defer wg.Done()
			ops[k] = lg.run(i, due)
		}(k, i, due)
	}
	wg.Wait()
	return phase{ops: ops, start: start, wall: dur, rate: rate}
}

// heapSampler tracks the highest Go heap in use (live and unswept
// objects) while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-h.stop:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	return float64(<-h.done) / (1 << 20)
}

// quantile is the linearly interpolated q-quantile of xs (sorted in
// place); +Inf entries sort last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(xs[hi], 1) {
		return xs[lo+int(math.Round(pos-float64(lo)))]
	}
	return xs[lo] + (pos-float64(lo))*(xs[hi]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

const (
	// rateSlices is how many equal time slices a closed-loop rate is the
	// median over.
	rateSlices = 8
	// minGroup is the fewest operations one percentile group holds; a
	// phase splits into at most maxGroups consecutive groups.
	minGroup  = 20
	maxGroups = 8
)

// sliceRate is the median over n equal slices of [start, end) of the
// weighted operations completed per second in each. An operation counts
// toward each slice in proportion to the share of its due → end interval
// that falls in it, so slices need not hold whole operations.
func sliceRate(ops []opResult, start, end time.Time, n int, weight func(opResult) float64) float64 {
	width := end.Sub(start) / time.Duration(n)
	rates := make([]float64, n)
	for _, r := range ops {
		w, d := weight(r), r.end.Sub(r.due)
		if w == 0 || d <= 0 {
			continue
		}
		for k := range rates {
			s0 := start.Add(time.Duration(k) * width)
			s1 := s0.Add(width)
			lo, hi := r.due, r.end
			if s0.After(lo) {
				lo = s0
			}
			if s1.Before(hi) {
				hi = s1
			}
			if hi.After(lo) {
				rates[k] += w * float64(hi.Sub(lo)) / float64(d)
			}
		}
	}
	for k := range rates {
		rates[k] /= width.Seconds()
	}
	return median(rates)
}

// groupQuantile is the q-quantile of f, in milliseconds, over the
// successful operations: per request type, the median over consecutive
// groups (in issue order, at least minGroup operations each) of each
// group's q-quantile, then the mean over types. simulate-mix alternates
// two types whose latencies form two modes, half the operations each, so
// a median over both falls in the gap between the modes and jumped
// 15–18% from run to run.
func groupQuantile(ops []opResult, q float64, f func(opResult) time.Duration) float64 {
	byKind := map[string][]opResult{}
	for _, r := range ops {
		byKind[r.kind] = append(byKind[r.kind], r)
	}
	sum := 0.0
	for _, kind := range sortedKeys(byKind) {
		xs := msOf(byKind[kind], f)
		n := max(1, min(maxGroups, len(xs)/minGroup))
		var qs []float64
		for g := 0; g < n; g++ {
			qs = append(qs, quantile(xs[g*len(xs)/n:(g+1)*len(xs)/n], q))
		}
		sum += median(qs)
	}
	return sum / float64(len(byKind))
}

// msOf collects one duration per successful operation, in milliseconds.
func msOf(ops []opResult, f func(opResult) time.Duration) []float64 {
	var xs []float64
	for _, r := range ops {
		if r.ok {
			xs = append(xs, float64(f(r))/float64(time.Millisecond))
		}
	}
	return xs
}

// rungStat is one open-loop ladder rung judged against the latency limit.
type rungStat struct {
	rate float64
	n    int
	met  float64 // share of operations within the limit; failures miss it
	p90  float64 // ms; failed operations count as +Inf
}

// judgeRung measures the rung against the limit. Its p90 is within the
// limit exactly when at least 90% of its operations are, so the share
// within the limit carries the p90 test in a form that interpolates
// smoothly between rungs.
func judgeRung(p phase, limit time.Duration) rungStat {
	st := rungStat{rate: p.rate, n: len(p.ops), p90: math.Inf(1)}
	var lat []float64
	for _, r := range p.ops {
		if r.ok && r.latency() <= limit {
			st.met++
		}
		if r.ok {
			lat = append(lat, float64(r.latency())/float64(time.Millisecond))
		} else {
			lat = append(lat, math.Inf(1))
		}
	}
	if st.n > 0 {
		st.met /= float64(st.n)
		st.p90 = quantile(lat, 0.9)
	}
	return st
}

// sloRate is the offered rate at which the share of operations within
// the limit first falls below 90% — where the p90 reaches the limit —
// interpolated linearly between the rungs on either side. A rung with a
// growing backlog shows as a falling share: its later arrivals wait
// longer.
func sloRate(rungs []rungStat) float64 {
	const target = 0.9
	if len(rungs) == 0 {
		return math.NaN()
	}
	if rungs[0].met < target {
		return rungs[0].rate * rungs[0].met / target
	}
	for k := 1; k < len(rungs); k++ {
		if lo, hi := rungs[k-1], rungs[k]; hi.met < target {
			return lo.rate + (lo.met-target)/(lo.met-hi.met)*(hi.rate-lo.rate)
		}
	}
	return rungs[len(rungs)-1].rate
}
