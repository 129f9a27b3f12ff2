// Command ibox-bench measures the repository's performance-critical
// paths and writes a machine-readable summary in the internal/regress
// schema, so ibox-compare can gate on it in CI.
//
// Six suites:
//
//   - experiments (default): serial-vs-parallel wall-clock of the two
//     hottest experiment paths — the Fig 2 ensemble test (per-trace
//     iBoxNet fit + counterfactual replay) and Table 1 (per-trace iBoxML
//     training + evaluation). The parallel mode runs every fan-out on
//     per-call par.Map at GOMAXPROCS workers, as ibox-experiments does.
//     Serial and parallel results are byte-identical by construction
//     (see internal/par).
//   - serve: serving latency of concurrent iBoxML replay bursts through
//     the full HTTP path (see internal/serve) on a single-worker pool,
//     where every request runs as its own pool job.
//   - kernel: the LSTM inference kernels themselves (internal/nn), per
//     step: the training-path Step (the pre-kernel baseline), the
//     compiled StepInto and the pre-projected window Forward — on a
//     typical shape and the §4.2 paper-scale stack (~2M params). Kernel
//     outputs are asserted bitwise-identical to the training path before
//     timings are reported, and each mode prints the implied emulation
//     rate (§4.2's packets-per-second budget as Mbps of 1500-byte
//     packets).
//   - obs: the cost of observing. Self-checks first — the disabled
//     obs path and the labeled hot-path lookup must be zero-alloc
//     (testing.AllocsPerRun) — then concurrent serving bursts with
//     observability fully off vs fully on (metrics + labeled families +
//     access log + trace sampling), so a metrics-layer change that taxes
//     the request path gates in CI like any other regression.
//   - drift: the cost of online drift detection. Self-check first —
//     obs.DriftSketch.Observe must be zero-alloc on the hit path — then
//     concurrent serving bursts against a calibrated checkpoint with
//     drift scoring off vs on at the production sampling rate, plus the
//     deterministic streaming NLL / PIT-deviation scorecard over the
//     bench input attached as the fidelity record.
//   - session: the live-session control plane. A create/stream/mutate/
//     close burst of concurrent sessions through the full HTTP + SSE
//     path, then a 1000-idle-session population check at the manager
//     layer: heap bytes per idle session (hard cap 1 MiB) and the wall
//     time for the idle-TTL reaper to empty it.
//
// Usage:
//
//	ibox-bench                         # quick scale, BENCH_parallel.json
//	ibox-bench -scale paper -reps 5 -out bench.json
//	ibox-bench -suite serve            # BENCH_serve.json
//	ibox-bench -suite kernel           # BENCH_kernel.json
//	ibox-bench -suite obs              # BENCH_obs.json
//	ibox-bench -suite drift            # BENCH_drift.json
//	ibox-bench -suite session          # BENCH_session.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"ibox/internal/experiments"
	"ibox/internal/iboxml"
	"ibox/internal/nn"
	"ibox/internal/obs"
	"ibox/internal/regress"
	"ibox/internal/serve"
	"ibox/internal/sim"
	"ibox/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ibox-bench: ")
	var (
		suite     = flag.String("suite", "experiments", "benchmark suite: experiments, serve, kernel, obs, drift or session")
		scaleName = flag.String("scale", "quick", "experiment scale: quick or paper (experiments suite)")
		seed      = flag.Int64("seed", 1, "experiment seed")
		reps      = flag.Int("reps", 5, "repetitions per (benchmark, mode); the minimum is reported")
		out       = flag.String("out", "", "output path for the JSON summary (default BENCH_parallel.json or BENCH_serve.json per suite)")
	)
	flag.Parse()

	var sum regress.BenchSummary
	switch *suite {
	case "experiments":
		if *out == "" {
			*out = "BENCH_parallel.json"
		}
		sum = experimentsSuite(*scaleName, *seed, *reps)
	case "serve":
		if *out == "" {
			*out = "BENCH_serve.json"
		}
		sum = serveSuite(*seed, *reps)
	case "kernel":
		if *out == "" {
			*out = "BENCH_kernel.json"
		}
		sum = kernelSuite(*seed, *reps)
	case "obs":
		if *out == "" {
			*out = "BENCH_obs.json"
		}
		sum = obsSuite(*seed, *reps)
	case "drift":
		if *out == "" {
			*out = "BENCH_drift.json"
		}
		sum = driftSuite(*seed, *reps)
	case "session":
		if *out == "" {
			*out = "BENCH_session.json"
		}
		sum = sessionSuite(*seed, *reps)
	default:
		log.Fatalf("unknown suite %q", *suite)
	}

	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

func experimentsSuite(scaleName string, seed int64, reps int) regress.BenchSummary {
	var scale experiments.Scale
	switch scaleName {
	case "quick":
		scale = experiments.Quick()
	case "paper":
		scale = experiments.Paper()
	default:
		log.Fatalf("unknown scale %q", scaleName)
	}
	scale.Seed = seed

	benchmarks := []struct {
		name string
		run  func(experiments.Scale) error
	}{
		{"Fig2Ensemble", func(s experiments.Scale) error { _, err := experiments.Fig2(s); return err }},
		{"Table1", func(s experiments.Scale) error { _, err := experiments.Table1(s); return err }},
	}
	modes := []struct {
		mode   string
		serial bool
	}{
		{"serial", true},
		{"parallel", false},
	}

	// The schema lives in internal/regress so ibox-compare can gate on
	// these files.
	sum := regress.BenchSummary{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Scale:      scaleName,
		Seed:       seed,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Speedups:   map[string]float64{},
	}
	best := map[string]map[string]time.Duration{}
	for _, b := range benchmarks {
		best[b.name] = map[string]time.Duration{}
		for _, m := range modes {
			s := scale
			s.Serial = m.serial
			workers := 1
			if !m.serial {
				workers = runtime.GOMAXPROCS(0)
				s.Workers = workers
			}
			// A fresh registry per measurement so the par.item_ns
			// histogram covers exactly this (benchmark, mode)'s reps.
			reg := obs.Enable()
			var min time.Duration
			for r := 0; r < reps; r++ {
				start := time.Now()
				if err := b.run(s); err != nil {
					log.Fatalf("%s/%s: %v", b.name, m.mode, err)
				}
				if d := time.Since(start); r == 0 || d < min {
					min = d
				}
			}
			obs.Disable()
			best[b.name][m.mode] = min
			meas := regress.BenchMeasurement{
				Name: b.name, Mode: m.mode, Workers: workers,
				GoMaxProcs: runtime.GOMAXPROCS(0),
				NsPerOp:    min.Nanoseconds(), Seconds: min.Seconds(), Reps: reps,
			}
			if h := reg.Histogram(obs.MetricParItemNs); h.Count() > 0 {
				summ := h.Summary()
				meas.ItemLatency = &summ
			}
			sum.Benchmarks = append(sum.Benchmarks, meas)
			fmt.Printf("%-14s %-8s %12d ns/op  (%.2fs, workers=%d",
				b.name, m.mode, min.Nanoseconds(), min.Seconds(), workers)
			if meas.ItemLatency != nil {
				fmt.Printf(", item p50=%.1fms p99=%.1fms",
					meas.ItemLatency.P50/1e6, meas.ItemLatency.P99/1e6)
			}
			fmt.Printf(")\n")
		}
		if p := best[b.name]["parallel"]; p > 0 {
			speedup := float64(best[b.name]["serial"]) / float64(p)
			sum.Speedups[b.name] = speedup
			fmt.Printf("%-14s speedup  %12.2fx\n", b.name, speedup)
		}
	}
	return sum
}

// benchSynthTrace generates the deterministic synthetic input–output
// trace the iboxml tests train on.
func benchSynthTrace(seed int64, dur sim.Time) *trace.Trace {
	rng := sim.NewRand(seed, 5)
	tr := &trace.Trace{Protocol: "synth"}
	ema := 0.0
	var now sim.Time
	seq := int64(0)
	for now < dur {
		phase := 2 * math.Pi * now.Seconds() / 4
		rate := 156_250 * (1.25 + math.Sin(phase+float64(seed))) // bytes/s
		gap := sim.Time(1500 / rate * float64(sim.Second))
		now += gap
		ema = 0.98*ema + 0.02*rate
		delayMs := 20 + 60*(ema/312_500) + rng.NormFloat64()*1.0
		if delayMs < 1 {
			delayMs = 1
		}
		tr.Packets = append(tr.Packets, trace.Packet{
			Seq: seq, Size: 1500, SendTime: now,
			RecvTime: now + sim.Time(delayMs*float64(sim.Millisecond)),
		})
		seq++
	}
	return tr
}

// serveSuite measures concurrent iBoxML replay bursts through the HTTP
// serving path on a single-worker pool. The mode keeps the name
// "unbatched" so its rows compare against the committed baseline. Two
// served models: the historical quick shape (Hidden 96, one layer, where
// HTTP and JSON dominate) and the §4.2 paper-scale stack (Hidden 256,
// four layers, ~2M params, where the inference kernel dominates — the
// shape whose implied emulation rate the paper's speed analysis is
// about). Each model's held-out calibration is attached to its
// measurements, so a serving-speed win that costs model fidelity gates
// in CI. The implied emulation Mbps (input-trace bytes over per-request
// wall time) is reported under speedup.*.implied_mbps_unbatched.
func serveSuite(seed int64, reps int) regress.BenchSummary {
	dir, err := os.MkdirTemp("", "ibox-bench-serve")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	input := benchSynthTrace(seed+99, 4*sim.Second)
	inputBits := 0.0
	for _, p := range input.Packets {
		inputBits += 8 * float64(p.Size)
	}

	sum := regress.BenchSummary{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Scale:      "serve",
		Seed:       seed,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Speedups:   map[string]float64{},
	}
	const mode = "unbatched"
	specs := []struct {
		prefix         string
		id             string
		hidden, layers int
		bursts         []int
	}{
		{"ServeIBoxML", "bench.json", 96, 1, []int{4, 8}},
		{"ServeIBoxML/paper", "paper.json", 256, 4, []int{4}},
	}
	for _, spec := range specs {
		var samples []iboxml.TrainingSample
		for i := int64(0); i < 2; i++ {
			samples = append(samples, iboxml.TrainingSample{Trace: benchSynthTrace(seed+i, 4*sim.Second)})
		}
		model, err := iboxml.Train(samples, iboxml.Config{
			Hidden: spec.hidden, Layers: spec.layers, Epochs: 1, Seed: seed,
		})
		if err != nil {
			log.Fatalf("training bench model %s: %v", spec.id, err)
		}
		if err := model.Save(dir + "/" + spec.id); err != nil {
			log.Fatal(err)
		}
		cal := model.Calibrate([]iboxml.TrainingSample{
			{Trace: benchSynthTrace(seed+50, 4*sim.Second)},
			{Trace: benchSynthTrace(seed+51, 4*sim.Second)},
		})
		fid := &regress.BenchFidelity{NLL: cal.NLL, PITDeviation: cal.PITDeviation}
		reqBody, err := json.Marshal(serve.SimulateRequest{Model: spec.id, Input: input, Seed: seed})
		if err != nil {
			log.Fatal(err)
		}

		for _, burst := range spec.bursts {
			name := fmt.Sprintf("%s/burst%d", spec.prefix, burst)
			s, err := serve.NewServer(serve.Config{
				ModelDir:      dir,
				Workers:       1,
				MaxConcurrent: 2 * burst,
			})
			if err != nil {
				log.Fatal(err)
			}
			if err := s.Registry().Warm([]string{spec.id}); err != nil {
				log.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())

			fire := func() time.Duration {
				start := time.Now()
				var wg sync.WaitGroup
				for i := 0; i < burst; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(reqBody))
						if err != nil {
							log.Fatalf("%s/%s: %v", name, mode, err)
						}
						defer resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							log.Fatalf("%s/%s: HTTP %d", name, mode, resp.StatusCode)
						}
						var sr serve.SimulateResponse
						if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
							log.Fatalf("%s/%s: decode: %v", name, mode, err)
						}
					}()
				}
				wg.Wait()
				return time.Since(start)
			}
			fire() // warm-up: model load, pool spin-up, HTTP keep-alives
			var min time.Duration
			for r := 0; r < reps; r++ {
				if d := fire(); r == 0 || d < min {
					min = d
				}
			}
			ts.Close()
			sum.Benchmarks = append(sum.Benchmarks, regress.BenchMeasurement{
				Name: name, Mode: mode, Workers: 1,
				GoMaxProcs: runtime.GOMAXPROCS(0),
				NsPerOp:    min.Nanoseconds(), Seconds: min.Seconds(), Reps: reps,
				Fidelity: fid,
			})
			// One worker serializes the burst, so per-request wall time
			// is burst wall over burst size; the input trace replayed
			// in that time is §4.2's implied emulation rate.
			mbps := inputBits / (min.Seconds() / float64(burst)) / 1e6
			sum.Speedups[name+"/implied_mbps_"+mode] = mbps
			fmt.Printf("%-24s %-10s %12d ns/burst  (%.3fs, implied %7.1f Mbit/s)\n",
				name, mode, min.Nanoseconds(), min.Seconds(), mbps)
		}
	}
	return sum
}

// kernelSuite measures the LSTM inference kernels in isolation, per
// step, so kernel-level regressions gate without the noise of the full
// serving or experiment paths. Two shapes: a typical replay model and
// the §4.2 paper-scale stack. Three modes per shape:
//
//   - step:     the training-path LSTM.Step — the pre-kernel baseline
//   - stepinto: the compiled zero-alloc InferModel.StepInto
//   - window:   the pre-projected whole-window Forward (ns per step)
//
// Before timing, every compiled mode's final hidden vector is asserted
// bitwise-identical to the training path's — the suite self-checks the
// kernel contract at both shapes on every run. Each mode also prints the
// implied emulation rate for 1500-byte packets at one inference per
// packet (§4.2's budget arithmetic); the Speedups entries are the
// improvement multiples over the training-path step.
func kernelSuite(seed int64, reps int) regress.BenchSummary {
	shapes := []struct {
		name               string
		in, hidden, layers int
		steps              int
	}{
		{"h48l2", 5, 48, 2, 3000},
		// Paper-scale: 4×(4·256·(261+256)) + biases ≈ 2.1M params.
		{"h256l4", 5, 256, 4, 120},
	}
	sum := regress.BenchSummary{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Scale:      "kernel",
		Seed:       seed,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Speedups:   map[string]float64{},
	}
	for _, sh := range shapes {
		lstm := nn.NewLSTM(sh.in, sh.hidden, sh.layers, seed)
		im := lstm.Compile()
		rng := sim.NewRand(seed+7, 13)
		xs := make([][]float64, sh.steps)
		for t := range xs {
			xs[t] = make([]float64, sh.in)
			for k := range xs[t] {
				xs[t][k] = rng.NormFloat64()
			}
		}

		// Contract self-check: every compiled kernel mode ends bitwise where
		// the training path ends.
		ref := lstm.NewState()
		var want []float64
		for _, x := range xs {
			want, ref = lstm.Step(ref, x)
		}
		checkTop := func(mode string, got []float64) {
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					log.Fatalf("Kernel/%s %s: h[%d] = %v, training path %v — kernel broke the bitwise contract",
						sh.name, mode, j, got[j], want[j])
				}
			}
		}
		ist := im.NewState()
		for _, x := range xs {
			im.StepInto(ist, x)
		}
		checkTop("stepinto", ist.Top())
		fwd := im.Forward(xs)
		checkTop("window", fwd[len(fwd)-1])

		modes := []struct {
			mode string
			run  func() // one rep: sh.steps kernel steps
		}{
			{"step", func() {
				st := lstm.NewState()
				for _, x := range xs {
					_, st = lstm.Step(st, x)
				}
			}},
			{"stepinto", func() {
				st := im.NewState()
				for _, x := range xs {
					im.StepInto(st, x)
				}
			}},
			{"window", func() {
				im.Forward(xs)
			}},
		}
		name := "Kernel/" + sh.name
		best := map[string]time.Duration{}
		for _, m := range modes {
			m.run() // warm-up: page in weights, settle the branch predictors
			var min time.Duration
			for r := 0; r < reps; r++ {
				start := time.Now()
				m.run()
				if d := time.Since(start); r == 0 || d < min {
					min = d
				}
			}
			nsPerStep := min.Nanoseconds() / int64(sh.steps)
			best[m.mode] = time.Duration(nsPerStep)
			sum.Benchmarks = append(sum.Benchmarks, regress.BenchMeasurement{
				Name: name, Mode: m.mode, Workers: 1,
				GoMaxProcs: runtime.GOMAXPROCS(0),
				NsPerOp:    nsPerStep, Seconds: min.Seconds(), Reps: reps,
			})
			// One inference per 1500-byte packet → implied emulation rate.
			mbps := 1500 * 8 / (float64(nsPerStep) / 1e9) / 1e6
			fmt.Printf("%-15s %-9s %9d ns/step  (implied %8.1f Mbit/s)\n",
				name, m.mode, nsPerStep, mbps)
		}
		for _, m := range []string{"stepinto", "window"} {
			if b := best[m]; b > 0 {
				sum.Speedups[name+"/"+m] = float64(best["step"]) / float64(b)
			}
		}
		fmt.Printf("%-15s stepinto speedup %6.2fx  window speedup %6.2fx\n",
			name, sum.Speedups[name+"/stepinto"], sum.Speedups[name+"/window"])
	}
	return sum
}

// obsSuite measures what observing costs. It first asserts the two
// allocation contracts the obs package is built around — the disabled
// path and the labeled hot-path lookup allocate zero bytes per call —
// and then measures concurrent iBoxML replay bursts through the full
// HTTP serving path with observability entirely off (no registry, no
// logger) vs entirely on (metrics, labeled families, JSON access log,
// 1-in-8 trace sampling). The off/on wall-clock ratio lands in
// Speedups, and both modes' timings gate in CI via ibox-compare: if a
// metrics-layer change taxes the request path beyond the noise floor,
// the gate trips.
func obsSuite(seed int64, reps int) regress.BenchSummary {
	// --- allocation self-checks -------------------------------------
	// Disabled registry: nil handles, including labeled ones, must cost
	// nothing per call.
	obs.Disable()
	obs.SetLogger(nil)
	var (
		nilCtr  *obs.Counter
		nilHist *obs.Histogram
		nilCV   *obs.CounterVec
		nilHV   *obs.HistogramVec
	)
	if n := testing.AllocsPerRun(200, func() {
		nilCtr.Add(1)
		nilHist.Observe(12345)
		nilCV.With("simulate", "2xx").Add(1)
		nilHV.With("simulate", "m.json", "2xx").Observe(12345)
	}); n != 0 {
		log.Fatalf("obs: disabled path allocates %.1f bytes/op, want 0", n)
	}
	// Enabled hit path: after a label set's first use, every subsequent
	// With on the same values must hit the copy-on-write map without
	// allocating.
	reg := obs.Enable()
	cv := reg.CounterVec("bench.http_requests", "route", "status")
	hv := reg.HistogramVec("bench.request_ns", "route", "model", "status")
	cv.With("simulate", "2xx").Add(1)
	hv.With("simulate", "m.json", "2xx").Observe(1)
	if n := testing.AllocsPerRun(200, func() {
		cv.With("simulate", "2xx").Add(1)
		hv.With("simulate", "m.json", "2xx").Observe(12345)
	}); n != 0 {
		log.Fatalf("obs: labeled hot-path lookup allocates %.1f bytes/op, want 0", n)
	}
	obs.Disable()
	fmt.Println("obs allocation contracts hold: disabled path 0 B/op, labeled hit path 0 B/op")

	// --- serving overhead: observability off vs on -------------------
	dir, err := os.MkdirTemp("", "ibox-bench-obs")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	input := benchSynthTrace(seed+99, 4*sim.Second)
	var samples []iboxml.TrainingSample
	for i := int64(0); i < 2; i++ {
		samples = append(samples, iboxml.TrainingSample{Trace: benchSynthTrace(seed+i, 4*sim.Second)})
	}
	model, err := iboxml.Train(samples, iboxml.Config{Hidden: 96, Layers: 1, Epochs: 1, Seed: seed})
	if err != nil {
		log.Fatalf("training bench model: %v", err)
	}
	if err := model.Save(dir + "/bench.json"); err != nil {
		log.Fatal(err)
	}
	reqBody, err := json.Marshal(serve.SimulateRequest{Model: "bench.json", Input: input, Seed: seed})
	if err != nil {
		log.Fatal(err)
	}

	sum := regress.BenchSummary{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Scale:      "obs",
		Seed:       seed,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Speedups:   map[string]float64{},
	}
	const burst = 8
	modes := []struct {
		mode       string
		instrument bool
	}{
		{"off", false},
		{"on", true},
	}
	name := fmt.Sprintf("ObsOverhead/burst%d", burst)
	best := map[string]time.Duration{}
	for _, m := range modes {
		var spanLimited *obs.Registry
		if m.instrument {
			spanLimited = obs.Enable()
			spanLimited.SetSpanLimit(1024)
			obs.SetLogger(slog.New(obs.NewLogHandler(io.Discard, slog.LevelInfo)))
		} else {
			obs.Disable()
			obs.SetLogger(nil)
		}
		cfg := serve.Config{ModelDir: dir, Workers: 1, MaxConcurrent: 2 * burst}
		if m.instrument {
			cfg.TraceSample = 1.0 / 8
		}
		s, err := serve.NewServer(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if err := s.Registry().Warm([]string{"bench.json"}); err != nil {
			log.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())

		fire := func() time.Duration {
			start := time.Now()
			var wg sync.WaitGroup
			for i := 0; i < burst; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(reqBody))
					if err != nil {
						log.Fatalf("%s/%s: %v", name, m.mode, err)
					}
					defer resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						log.Fatalf("%s/%s: HTTP %d", name, m.mode, resp.StatusCode)
					}
					io.Copy(io.Discard, resp.Body)
				}()
			}
			wg.Wait()
			return time.Since(start)
		}
		fire() // warm-up: model load, pool spin-up, HTTP keep-alives
		var min time.Duration
		for r := 0; r < reps; r++ {
			if d := fire(); r == 0 || d < min {
				min = d
			}
		}
		ts.Close()
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := s.Shutdown(sctx); err != nil {
			log.Fatal(err)
		}
		cancel()
		obs.Disable()
		obs.SetLogger(nil)
		best[m.mode] = min
		sum.Benchmarks = append(sum.Benchmarks, regress.BenchMeasurement{
			Name: name, Mode: m.mode, Workers: 1,
			GoMaxProcs: runtime.GOMAXPROCS(0),
			NsPerOp:    min.Nanoseconds(), Seconds: min.Seconds(), Reps: reps,
		})
		fmt.Printf("%-24s %-10s %12d ns/burst  (%.3fs)\n", name, m.mode, min.Nanoseconds(), min.Seconds())
	}
	if on := best["on"]; on > 0 {
		ratio := float64(best["off"]) / float64(on)
		sum.Speedups[name] = ratio
		fmt.Printf("%-24s off/on     %12.2fx (1.00 = free; below 1 = overhead)\n", name, ratio)
	}
	return sum
}
