package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// Report is the RUN_REPORT.json schema: a structured end-of-run summary
// of one observed pipeline run.
type Report struct {
	// GeneratedAt is the report build time (RFC 3339, UTC).
	GeneratedAt string `json:"generated_at"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	// WallSeconds is the time from registry installation to report build.
	WallSeconds float64 `json:"wall_seconds"`
	// WorkerUtilization is busy-time / capacity of the par fan-out pool:
	// Σ per-item durations over Σ (per-Map wall × workers). 1.0 means
	// every worker was busy for every dispatched Map's full duration; 0
	// when nothing fanned out.
	WorkerUtilization float64 `json:"worker_utilization"`
	// Stages lists every finished span in start order; Depth > 0 marks a
	// child stage of the nearest preceding shallower stage.
	Stages []StageReport `json:"stages"`
	// Fidelity holds one model-fidelity record per trained model: training
	// trajectory diagnostics and held-out calibration of the predictive
	// distribution (see Fidelity). Present for any run that trains iBoxML
	// with observability enabled.
	Fidelity []Fidelity `json:"fidelity,omitempty"`
	// Counters/Gauges/Histograms are the final metric values, keyed by
	// metric name ("par.item_ns", "iboxml.epoch_loss", …).
	Counters   map[string]int64            `json:"counters"`
	Gauges     map[string]float64          `json:"gauges"`
	Histograms map[string]HistogramSummary `json:"histograms"`
}

// StageReport is one finished span.
type StageReport struct {
	Name    string  `json:"name"`
	Depth   int     `json:"depth"`
	StartMs float64 `json:"start_ms"`
	Seconds float64 `json:"seconds"`
	// Items is the number of work items the stage processed (0 when the
	// stage didn't record one).
	Items int64 `json:"items,omitempty"`
	// Args carries the stage's annotations (profile name, protocol, …).
	Args map[string]string `json:"args,omitempty"`
}

// Metric names the par fan-out layer records; BuildReport derives worker
// utilization from them.
const (
	MetricParItemNs     = "par.item_ns"
	MetricParCapacityNs = "par.capacity_ns"
	// MetricPoolBusyNs is per-job worker occupancy on a par.Pool.
	MetricPoolBusyNs = "par.pool_busy_ns"
)

// BuildReport digests the registry into a Report. Works on a nil
// registry (empty report), so callers can build unconditionally.
func (r *Registry) BuildReport() Report {
	snap := r.Snapshot()
	rep := Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Counters:    snap.Counters,
		Gauges:      snap.Gauges,
		Histograms:  snap.Histograms,
	}
	if r != nil {
		rep.WallSeconds = time.Since(r.start).Seconds()
	}
	if capNs := snap.Counters[MetricParCapacityNs]; capNs > 0 {
		rep.WorkerUtilization = float64(r.Histogram(MetricParItemNs).Sum()) / float64(capNs)
	}
	rep.Fidelity = r.FidelityRecords()
	for _, sp := range r.finishedSpans() {
		rep.Stages = append(rep.Stages, StageReport{
			Name:    sp.Name,
			Depth:   sp.Depth,
			StartMs: float64(sp.Start) / 1e6,
			Seconds: sp.End.Seconds() - sp.Start.Seconds(),
			Items:   sp.Items,
			Args:    sp.Args,
		})
	}
	return rep
}

// WriteReport builds the report and writes it as indented JSON to path.
func (r *Registry) WriteReport(path string) error {
	data, err := json.MarshalIndent(r.BuildReport(), "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal report: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("obs: write report: %w", err)
	}
	return nil
}

// LoadReport reads a RUN_REPORT.json written by WriteReport.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: read report: %w", err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("obs: parse report %s: %w", path, err)
	}
	return &rep, nil
}
