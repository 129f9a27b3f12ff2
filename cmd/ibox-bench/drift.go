package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"ibox/internal/iboxml"
	"ibox/internal/obs"
	"ibox/internal/regress"
	"ibox/internal/serve"
	"ibox/internal/sim"
)

// driftSuite measures what online drift detection costs. It first
// asserts the sketch's hit-path contract — DriftSketch.Observe allocates
// zero bytes per call — then measures concurrent iBoxML replay bursts
// through the HTTP serving path with drift scoring disabled
// (DriftEvery -1) vs enabled at the production default sampling (every
// 8th eligible replay), against a calibrated checkpoint that carries its
// training-time baseline. The off/on wall-clock ratio lands in Speedups
// and both timings gate in CI via ibox-compare. The model's streaming
// drift scorecard over the bench input — deterministic given the
// checkpoint and trace — is attached as the fidelity record, so a
// scoring change that silently shifts the drift numbers trips the gate
// even when the timing stays flat.
func driftSuite(seed int64, reps int) regress.BenchSummary {
	// --- allocation self-check ---------------------------------------
	var sketch obs.DriftSketch
	if n := testing.AllocsPerRun(200, func() {
		sketch.Observe(0.42, 1.1)
	}); n != 0 {
		log.Fatalf("drift: DriftSketch.Observe allocates %.1f bytes/op, want 0", n)
	}
	fmt.Println("drift sketch contract holds: Observe 0 B/op on the hit path")

	// --- bench model: trained, calibrated, baseline embedded ----------
	dir, err := os.MkdirTemp("", "ibox-bench-drift")
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
	model.SetBaseline(model.Calibrate([]iboxml.TrainingSample{
		{Trace: benchSynthTrace(seed+50, 4*sim.Second)},
		{Trace: benchSynthTrace(seed+51, 4*sim.Second)},
	}))
	if err := model.Save(dir + "/bench.json"); err != nil {
		log.Fatal(err)
	}

	// The streaming scorecard the serving tier would accumulate over the
	// bench input: deterministic, so it doubles as the fidelity record.
	var stream obs.DriftSketch
	model.ScoreWindows(input, nil, func(pit, _, nll float64) { stream.Observe(pit, nll) })
	snap := stream.Snapshot()
	if snap.Windows == 0 {
		log.Fatal("drift: bench input scored zero windows")
	}
	fid := &regress.BenchFidelity{NLL: snap.NLL, PITDeviation: snap.PITDeviation}
	fmt.Printf("streaming scorecard: %d windows, NLL %.4f, PIT dev %.4f\n",
		snap.Windows, snap.NLL, snap.PITDeviation)

	reqBody, err := json.Marshal(serve.SimulateRequest{Model: "bench.json", Input: input, Seed: seed})
	if err != nil {
		log.Fatal(err)
	}

	sum := regress.BenchSummary{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Scale:      "drift",
		Seed:       seed,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Speedups:   map[string]float64{},
	}
	const burst = 8
	modes := []struct {
		mode       string
		driftEvery int
	}{
		{"off", -1}, // scoring disabled entirely
		{"on", 0},   // production default: every 8th eligible replay
	}
	name := fmt.Sprintf("DriftOverhead/burst%d", burst)
	best := map[string]time.Duration{}
	for _, m := range modes {
		s, err := serve.NewServer(serve.Config{
			ModelDir: dir, Workers: 1, MaxConcurrent: 2 * burst,
			DriftEvery: m.driftEvery,
		})
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
		if m.driftEvery >= 0 {
			// Loop closure: the healthy calibrated model must have been
			// scored and judged fine, or the overhead we measured is of a
			// path that silently stopped working.
			sts := s.DriftStatuses()
			if len(sts) != 1 || sts[0].Windows == 0 {
				log.Fatalf("drift: on-mode scored nothing: %+v", sts)
			}
			if v := sts[0].Verdict; v == "warn" || v == "failing" {
				log.Fatalf("drift: healthy bench model judged %s: %+v", v, sts[0])
			}
		}
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := s.Shutdown(sctx); err != nil {
			log.Fatal(err)
		}
		cancel()
		best[m.mode] = min
		sum.Benchmarks = append(sum.Benchmarks, regress.BenchMeasurement{
			Name: name, Mode: m.mode, Workers: 1,
			GoMaxProcs: runtime.GOMAXPROCS(0),
			NsPerOp:    min.Nanoseconds(), Seconds: min.Seconds(), Reps: reps,
			Fidelity: fid,
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
