package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"ibox/internal/serve"
	"ibox/internal/sim"
)

// workloadSpec fixes one workload's load shape.
type workloadSpec struct {
	name       string
	newFixture func(seed int64) fixture
	// rungs are the reported open-loop ladder's offered rates per core
	// (req/s), ascending. Empty for closed-loop-only workloads.
	rungs []float64
	// limit is the latency limit the ladder's slo_rate_rps counts against.
	limit time.Duration
	// connsPerClient is how many connections one client holds at once.
	connsPerClient int
	// cycle is how many operations it takes to issue every request spec
	// once; operation i runs spec slot i mod cycle.
	cycle int
}

const (
	// opTimeout bounds one operation; hitting it is a failure.
	opTimeout = 30 * time.Second
	// warmOps is the untimed, but checked, warm-up before timing.
	warmOps = 16
)

var workloads = map[string]workloadSpec{
	"replay-paper": {
		name:       "replay-paper",
		newFixture: newReplayFixture,
		// No ladder: at ≈6 req/s of capacity a rung holds 10–20
		// requests a run, too few for any percentile.
		// ibox-serve's default -slo-latency.
		limit:          time.Second,
		connsPerClient: 1,
		cycle:          2 * replayCheckpoints,
	},
	"simulate-mix": {
		name:           "simulate-mix",
		newFixture:     newSimulateFixture,
		rungs:          []float64{10, 17, 23, 29},
		limit:          100 * time.Millisecond,
		connsPerClient: 1,
		cycle:          32, // 16 iBoxNet specs on the odd operations
	},
	"sessions": {
		name:       "sessions",
		newFixture: newSessionFixture,
		// 10 s of virtual time in 100 ms of wall: 100× real time.
		limit:          100 * time.Millisecond,
		connsPerClient: 2,
		cycle:          sessionSpecs,
	},
}

// fixture is one workload's set-up state and request plane.
type fixture interface {
	// setup generates the corpus, fits and trains the models, saves the
	// artifacts into dir, starts the server and warms the registry. It
	// is what setup_s times. tr, when non-nil, records its stages.
	setup(tr *tracer, dir string) error
	// prepare builds the request specs and their offline reference
	// outputs — the correctness gate's expectations. Untimed.
	prepare() error
	// do runs operation i, due at due, and checks its output.
	do(ctx context.Context, c *client, i int, due time.Time) opResult
	// layers replays sampled operations' public layer calls, in the
	// server's order, on the same inputs (traced run only). lanes is the
	// micro-batch size the client observed.
	layers(tr *tracer, sample []opResult, lanes int)
	// probeModels hands the per-layer probes whatever the fixture built.
	probeModels() probeInputs
	srv() *server
	close()
}

// server is an in-process serve.Server on a loopback listener.
type server struct {
	s    *serve.Server
	url  string
	done chan error
}

// startServer builds the server the way ibox-serve does with no flags:
// every serve.Config knob at its default except the model directory.
func startServer(dir string) (*server, error) {
	s, err := serve.NewServer(serve.Config{ModelDir: dir})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sv := &server{s: s, url: "http://" + l.Addr().String(), done: make(chan error, 1)}
	go func() { sv.done <- s.Serve(l) }()
	return sv, nil
}

func (sv *server) stop() {
	if sv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	sv.s.Shutdown(ctx)
	if err := <-sv.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Printf("# server: %v\n", err)
	}
}

// warm loads each artifact cold, one registry warm per model, so the
// per-layer pass can time every load.
func warm(tr *tracer, sv *server, ids ...string) error {
	for _, id := range ids {
		sp := tr.begin("serve.registry_load", 0, -1)
		err := sv.s.Registry().Warm([]string{id})
		sp.end(1)
		if err != nil {
			return err
		}
	}
	return nil
}

type bench struct {
	spec    workloadSpec
	seed    int64
	seconds int
	work    string
	nproc   int
}

func (b *bench) clients() int {
	n := b.nproc / b.spec.connsPerClient
	if n < 1 {
		n = 1
	}
	return n
}

func (b *bench) conns() int {
	if b.nproc < b.spec.connsPerClient {
		return b.spec.connsPerClient
	}
	return b.nproc
}

// setupOnce builds a fresh fixture in its own directory and times it.
func (b *bench) setupOnce(tr *tracer, k int) (fixture, float64, error) {
	fx := b.spec.newFixture(b.seed)
	t0 := time.Now()
	err := fx.setup(tr, filepath.Join(b.work, fmt.Sprintf("setup-%d", k)))
	d := time.Since(t0).Seconds()
	if err != nil {
		fx.close()
		return nil, 0, err
	}
	return fx, d, nil
}

// ready prepares references and runs the checked warm-up.
func (b *bench) ready(fx fixture) (*loadgen, *client, []opResult, error) {
	runtime.GC()
	if err := fx.prepare(); err != nil {
		return nil, nil, nil, err
	}
	cl := newClient(fx.srv().url, b.conns())
	lg := &loadgen{fx: fx, cl: cl}
	w := lg.closedLoop(b.clients(), 0, warmOps)
	return lg, cl, w.ops, nil
}

func (b *bench) runEndToEnd() (result, error) {
	var setups []float64
	var fx fixture
	for k := 0; k < setupRepeats; k++ {
		if fx != nil {
			fx.close()
			runtime.GC()
		}
		f, d, err := b.setupOnce(nil, k)
		if err != nil {
			return result{}, err
		}
		fx = f
		setups = append(setups, d)
	}
	defer fx.close()
	fmt.Printf("# setup_s runs: %v\n", fmtFloats(setups))
	lg, cl, warmOps, err := b.ready(fx)
	if err != nil {
		return result{}, err
	}
	defer cl.close()

	// The gated metrics all come from the closed loop: there a slower
	// machine slows every operation in proportion, while an open-loop
	// rung near capacity turns the same slowdown into queueing.
	T := time.Duration(b.seconds) * time.Second
	closed := T
	if len(b.spec.rungs) > 0 {
		closed = T * 60 / 100
	}
	heap := startHeapSampler()
	sat := lg.closedLoop(b.clients(), closed, 0)
	var rungs []phase
	slo := math.NaN()
	if len(b.spec.rungs) > 0 {
		// The open-loop ladder: each rung a seeded Poisson schedule, each
		// operation timed from when it was due. It is reported, not
		// gated: see WORKLOADS.md for its measured spread.
		var stats []rungStat
		rng := sim.NewRand(b.seed, 4242)
		for _, perCore := range b.spec.rungs {
			p := lg.openLoop(perCore*float64(b.nproc), (T-closed)/time.Duration(len(b.spec.rungs)), rng)
			rungs = append(rungs, p)
			st := judgeRung(p, b.spec.limit)
			stats = append(stats, st)
			fmt.Printf("# rung %.1f req/s: n=%d p50=%.1f ms p90=%.1f ms within-limit=%.3f late_p90=%.2f ms\n",
				st.rate, st.n, quantile(msOf(p.ops, opResult.latency), 0.5), st.p90, st.met, quantile(lateMs(p.ops), 0.9))
		}
		slo = sloRate(stats)
	}
	peak := heap.peakMB()

	all := append([]opResult(nil), sat.ops...)
	for _, p := range rungs {
		all = append(all, p.ops...)
	}
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	res.Correct, res.Attempted, res.Failed = account(append(append([]opResult(nil), warmOps...), all...), all)

	// Rates and percentiles are medians over slices of the closed loop,
	// so a burst of noise from the machine's other tenants moves one
	// slice rather than the result.
	rate := func(weight func(opResult) float64) float64 {
		return sliceRate(sat.ops, sat.start, sat.start.Add(sat.wall), rateSlices, weight)
	}
	ok := func(r opResult) float64 {
		if r.ok {
			return 1
		}
		return 0
	}
	set := func(name, unit string, v float64) { res.Metrics[name] = metricValue{Value: v, Unit: unit} }
	set("setup_s", "s", median(setups))
	set("throughput_rps", "1/s", rate(ok))
	set("emulated_mbps", "Mbit/s", rate(func(r opResult) float64 { return ok(r) * r.bits / 1e6 }))
	set("latency_p50_ms", "ms", groupQuantile(sat.ops, 0.5, opResult.latency))
	set("ttfc_p50_ms", "ms", groupQuantile(sat.ops, 0.5, opResult.ttfc))
	set("peak_heap_mb", "MB", peak)
	fmt.Printf("# closed loop: %d ops in %.2fs (%d clients); generator late_p90=%.2f ms\n",
		len(sat.ops), sat.wall.Seconds(), b.clients(), quantile(lateMs(sat.ops), 0.9))
	printFailures(all)
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Printf("# %-16s %12.4f %s\n", name, m.Value, m.Unit)
	}
	// Reported, not gated: their spread over seeds passes any allowed
	// bound, or they read 0 (see WORKLOADS.md, "Measured spread").
	fmt.Printf("# %-16s %12.4f ms (not gated)\n", "latency_p90_ms", groupQuantile(sat.ops, 0.9, opResult.latency))
	fmt.Printf("# %-16s %12.4f ms (not gated)\n", "ttfc_p90_ms", groupQuantile(sat.ops, 0.9, opResult.ttfc))
	fmt.Printf("# %-16s %12.4f 1/s (not gated; open-loop ladder, limit %v)\n", "slo_rate_rps", slo, b.spec.limit)
	fmt.Printf("# %-16s %12.4f ratio (not gated)\n", "fail_ratio", float64(res.Failed)/float64(max(1, res.Attempted)))
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return res, fmt.Errorf("metric %s is %v: too few successful operations", name, m.Value)
		}
	}
	return res, nil
}

// account checks the correctness gate over every checked operation and
// counts attempted and failed timed operations.
func account(checked, timed []opResult) (correct bool, attempted, failed int) {
	correct = true
	for _, r := range checked {
		if r.mismatch != "" {
			if correct {
				fmt.Printf("# MISMATCH op %d (%s): %s\n", r.i, r.kind, r.mismatch)
			}
			correct = false
		}
	}
	for _, r := range timed {
		attempted++
		if !r.ok {
			failed++
		}
	}
	return correct, attempted, failed
}

func printFailures(ops []opResult) {
	causes := map[string]int{}
	for _, r := range ops {
		if !r.ok {
			causes[r.fail]++
		}
	}
	for _, c := range sortedKeys(causes) {
		fmt.Printf("# failed x%d: %s\n", causes[c], c)
	}
}

func lateMs(ops []opResult) []float64 {
	var xs []float64
	for _, r := range ops {
		xs = append(xs, float64(r.late())/float64(time.Millisecond))
	}
	return xs
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func fmtFloats(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3f", x)
	}
	return s
}
