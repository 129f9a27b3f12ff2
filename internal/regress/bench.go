package regress

import (
	"encoding/json"
	"fmt"
	"os"

	"ibox/internal/obs"
)

// BenchMeasurement is one (benchmark, mode) timing from cmd/ibox-bench:
// the minimum over reps of one full experiment run, in the style of
// go test -bench ns/op, plus the distribution of per-item fan-out
// latencies across all reps.
type BenchMeasurement struct {
	Name        string                `json:"name"`
	Mode        string                `json:"mode"` // "serial" or "parallel"
	Workers     int                   `json:"workers"`
	GoMaxProcs  int                   `json:"gomaxprocs"`
	NsPerOp     int64                 `json:"ns_per_op"`
	Seconds     float64               `json:"seconds"`
	Reps        int                   `json:"reps"`
	ItemLatency *obs.HistogramSummary `json:"item_latency,omitempty"`
	// Fidelity ties a speed measurement to model quality, so a bench
	// "win" that silently trades accuracy away (e.g. a lossy kernel)
	// gates on the same fidelity classes as a run report.
	Fidelity *BenchFidelity `json:"fidelity,omitempty"`
}

// BenchFidelity is the model-quality scorecard attached to a benchmark
// mode that runs real inference: held-out NLL (lower better, gates like
// a time metric) and PIT deviation (distance from the uniform ideal,
// gates on absolute worsening).
type BenchFidelity struct {
	NLL          float64 `json:"nll"`
	PITDeviation float64 `json:"pit_deviation"`
}

// BenchSummary is the BENCH_parallel.json schema.
type BenchSummary struct {
	GoMaxProcs int                `json:"gomaxprocs"`
	Scale      string             `json:"scale"`
	Seed       int64              `json:"seed"`
	Timestamp  string             `json:"timestamp"`
	Benchmarks []BenchMeasurement `json:"benchmarks"`
	Speedups   map[string]float64 `json:"speedups"`
}

// LoadBench reads a BENCH_*.json written by cmd/ibox-bench.
func LoadBench(path string) (*BenchSummary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("regress: read bench %s: %w", path, err)
	}
	var s BenchSummary
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("regress: parse bench %s: %w", path, err)
	}
	return &s, nil
}

// benchMetrics flattens a bench summary into comparable scalars.
// Speedups are machine-dependent (worker count varies across runners) so
// they report as info unless the skip list is cleared AND both files came
// from the same GOMAXPROCS — simpler to keep them informational always.
func benchMetrics(s *BenchSummary) map[string]metric {
	out := map[string]metric{}
	add := func(name string, v float64, c class, unit float64) {
		out[name] = metric{name: name, value: v, class: c, unit: unit}
	}
	add("gomaxprocs", float64(s.GoMaxProcs), classInfo, 1)
	for _, b := range s.Benchmarks {
		p := "bench." + b.Name + "." + b.Mode + "."
		add(p+"ns_per_op", float64(b.NsPerOp), classTime, 1e9)
		add(p+"workers", float64(b.Workers), classInfo, 1)
		if b.ItemLatency != nil {
			add(p+"item.count", float64(b.ItemLatency.Count), classCount, 1)
			add(p+"item.p50", b.ItemLatency.P50, classTime, 1e9)
			add(p+"item.p99", b.ItemLatency.P99, classTime, 1e9)
		}
		if b.Fidelity != nil {
			add(p+"fidelity.nll", b.Fidelity.NLL, classNLL, 1)
			add(p+"fidelity.pit_deviation", b.Fidelity.PITDeviation, classDistance, 1)
		}
	}
	for name, v := range s.Speedups {
		add("speedup."+name, v, classInfo, 1)
	}
	return out
}

// CompareBench diffs two bench summaries.
func CompareBench(base, new *BenchSummary, th Thresholds) *Result {
	return compareMetrics(benchMetrics(base), benchMetrics(new), th)
}

// CompareFiles sniffs the two files' kind (bench summary vs run report)
// and dispatches. Both files must be the same kind.
func CompareFiles(basePath, newPath string, th Thresholds) (*Result, error) {
	baseKind, err := sniff(basePath)
	if err != nil {
		return nil, err
	}
	newKind, err := sniff(newPath)
	if err != nil {
		return nil, err
	}
	if baseKind != newKind {
		return nil, fmt.Errorf("regress: %s is a %s but %s is a %s", basePath, baseKind, newPath, newKind)
	}
	switch baseKind {
	case "bench":
		b, err := LoadBench(basePath)
		if err != nil {
			return nil, err
		}
		n, err := LoadBench(newPath)
		if err != nil {
			return nil, err
		}
		return CompareBench(b, n, th), nil
	default:
		b, err := obs.LoadReport(basePath)
		if err != nil {
			return nil, err
		}
		n, err := obs.LoadReport(newPath)
		if err != nil {
			return nil, err
		}
		return CompareReports(b, n, th), nil
	}
}

// sniff decides whether a file is a bench summary or a run report by its
// top-level keys.
func sniff(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("regress: read %s: %w", path, err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		return "", fmt.Errorf("regress: parse %s: %w", path, err)
	}
	if _, ok := top["benchmarks"]; ok {
		return "bench", nil
	}
	if _, ok := top["stages"]; ok {
		return "report", nil
	}
	return "", fmt.Errorf("regress: %s is neither a bench summary nor a run report", path)
}
