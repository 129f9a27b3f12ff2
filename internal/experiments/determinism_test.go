package experiments

import (
	"fmt"
	"testing"

	"ibox/internal/obs"
	"ibox/internal/sim"
)

// tinyScale keeps the serial/parallel A/B runs fast: the point of these
// tests is bit-equality, not statistical fidelity.
func tinyScale() Scale {
	return Scale{
		EnsembleTraces: 4,
		TraceDur:       4 * sim.Second,
		TrainTraces:    4,
		TestTraces:     3,
		RTCTraces:      6,
		MLEpochs:       2,
		RunsPerPattern: 2,
		SpeedWarmup:    10,
		SpeedSamples:   50,
		Seed:           7,
	}
}

// TestFig2SerialParallelIdentical is the tentpole's determinism contract:
// the ensemble test must produce byte-identical output whether it runs on
// one goroutine or fans out over eight. Every per-trace RNG seed is
// derived from the trace index before dispatch, so goroutine scheduling
// cannot perturb any stochastic component (race-safe RNG usage is the
// thing being proven here; run with -race).
func TestFig2SerialParallelIdentical(t *testing.T) {
	serial := tinyScale()
	serial.Serial = true
	parallel := tinyScale()
	parallel.Workers = 8

	rs, err := Fig2(serial)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Fig2(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rp.String(), rs.String(); got != want {
		t.Errorf("parallel Fig2 output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}
	// Compare the raw distributions too, not just the formatted table.
	for i := range rs.Ensemble.SimTreatment {
		if rs.Ensemble.SimTreatment[i] != rp.Ensemble.SimTreatment[i] {
			t.Errorf("SimTreatment[%d]: serial %+v != parallel %+v",
				i, rs.Ensemble.SimTreatment[i], rp.Ensemble.SimTreatment[i])
		}
	}
}

// TestTable1SerialParallelIdentical proves the same for the iBoxML
// training pipeline: trace generation, the two model trainings and the
// per-call evaluation all fan out, and the resulting table is identical
// to a single-goroutine run on the same seed.
func TestTable1SerialParallelIdentical(t *testing.T) {
	serial := tinyScale()
	serial.Serial = true
	parallel := tinyScale()
	parallel.Workers = 8

	rs, err := Table1(serial)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Table1(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rp.String(), rs.String(); got != want {
		t.Errorf("parallel Table1 output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}
	for i := range rs.GTP95 {
		if rs.GTP95[i] != rp.GTP95[i] || rs.NoCTP95[i] != rp.NoCTP95[i] || rs.WithCTP95[i] != rp.WithCTP95[i] {
			t.Errorf("call %d: serial (%.6f %.6f %.6f) != parallel (%.6f %.6f %.6f)",
				i, rs.GTP95[i], rs.NoCTP95[i], rs.WithCTP95[i],
				rp.GTP95[i], rp.NoCTP95[i], rp.WithCTP95[i])
		}
	}
}

// TestFig2ObservedIdentical is the observability half of the determinism
// contract (see internal/obs): enabling metrics and spans must not change
// any experiment output. The instrumentation only ever writes clock
// readings into obs state — nothing reads them back into the pipeline —
// so an observed run is byte-identical to an unobserved one.
func TestFig2ObservedIdentical(t *testing.T) {
	if obs.Enabled() {
		t.Fatal("obs registry unexpectedly installed at test start")
	}
	plain, err := Fig2(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	obs.Enable()
	defer obs.Disable()
	observed, err := Fig2(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := observed.String(), plain.String(); got != want {
		t.Errorf("observed Fig2 output differs from unobserved:\n--- unobserved ---\n%s\n--- observed ---\n%s", want, got)
	}
	// The run must actually have been observed, or this test proves
	// nothing.
	if n := obs.Get().Counter("pantheon.traces").Value(); n == 0 {
		t.Error("observed run recorded no pantheon.traces — instrumentation not active?")
	}
	if len(obs.Get().BuildReport().Stages) == 0 {
		t.Error("observed run recorded no stages")
	}
}

// TestTable1ObservedIdentical proves the same over the iBoxML training
// pipeline, whose instrumentation (per-epoch loss gauges and timings)
// sits inside the training loop itself.
func TestTable1ObservedIdentical(t *testing.T) {
	if obs.Enabled() {
		t.Fatal("obs registry unexpectedly installed at test start")
	}
	plain, err := Table1(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	obs.Enable()
	defer obs.Disable()
	observed, err := Table1(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := observed.String(), plain.String(); got != want {
		t.Errorf("observed Table1 output differs from unobserved:\n--- unobserved ---\n%s\n--- observed ---\n%s", want, got)
	}
	if n := obs.Get().Counter("iboxml.epochs").Value(); n == 0 {
		t.Error("observed run recorded no iboxml.epochs — instrumentation not active?")
	}
}

// TestFig3SerialParallelIdentical covers the variant-level fan-out layered
// on the per-trace fan-out.
func TestFig3SerialParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	serial := tinyScale()
	serial.Serial = true
	parallel := tinyScale()
	parallel.Workers = 8

	rs, err := Fig3(serial)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Fig3(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rp.String(), rs.String(); got != want {
		t.Errorf("parallel Fig3 output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}
}

// TestNestedSerialParallelIdentical covers the experiments whose
// fan-outs nest (variants × traces, train/eval): running every level on
// per-call par.Map at Workers: 8 must produce output byte-identical to a
// single-goroutine run.
func TestNestedSerialParallelIdentical(t *testing.T) {
	for _, e := range []struct {
		name string
		run  func(Scale) (fmt.Stringer, error)
		slow bool
	}{
		{"fig3", func(s Scale) (fmt.Stringer, error) { return Fig3(s) }, true},
		{"fig5", func(s Scale) (fmt.Stringer, error) { return Fig5(s) }, true},
		{"fig7", func(s Scale) (fmt.Stringer, error) { return Fig7(s) }, true},
		{"table1", func(s Scale) (fmt.Stringer, error) { return Table1(s) }, false},
	} {
		t.Run(e.name, func(t *testing.T) {
			if e.slow && testing.Short() {
				t.Skip("short mode")
			}
			serial := tinyScale()
			serial.Serial = true
			parallel := tinyScale()
			parallel.Workers = 8
			rs, err := e.run(serial)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := e.run(parallel)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := rp.String(), rs.String(); got != want {
				t.Errorf("parallel %s output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", e.name, want, got)
			}
		})
	}
}
