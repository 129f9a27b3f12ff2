// Package regress is the regression gate over the pipeline's structured
// outputs: it diffs two RUN_REPORT.json (internal/obs) or BENCH_*.json
// (cmd/ibox-bench) files metric by metric, applies per-class relative
// thresholds, renders an aligned delta table, and reports whether
// anything regressed. cmd/ibox-compare is the CLI; CI runs it against
// the committed baselines so a perf or model-fidelity regression fails
// the build instead of scrolling past in a log.
//
// Metric classes and their gate semantics:
//
//   - time — wall/stage seconds, histogram latency quantiles, bench
//     ns/op. Regression: the new value exceeds the base by more than the
//     relative tolerance AND by more than an absolute floor (timing noise
//     on small quantities must not flap the gate). Decreases never gate.
//   - count — counters and histogram counts. These are deterministic in
//     the seed (items processed, epochs run), so the default tolerance is
//     exact; ANY drift means the pipeline did different work.
//   - fidelity — held-out NLL gates like a time metric (lower is
//     better, relative); PIT deviation and per-quantile coverage gate on
//     absolute worsening of their distance from the ideal (uniform bins,
//     nominal coverage).
//   - info — machine-dependent values (gauges like par.workers,
//     gomaxprocs, worker utilization) are reported but never gate.
//
// A metric present in the base but missing from the new file is a
// regression by default (a vanished fidelity section is exactly the kind
// of silent break the gate exists for); metrics new in the new file are
// informational.
package regress

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"ibox/internal/obs"
)

// Thresholds are the per-class gate tolerances.
type Thresholds struct {
	// Time is the allowed relative increase for time-class metrics
	// (0.5 = +50%).
	Time float64
	// TimeFloorSeconds is the absolute increase a time-class metric must
	// also exceed to gate, in seconds.
	TimeFloorSeconds float64
	// Count is the allowed relative change (either direction) for
	// count-class metrics; 0 demands exact equality.
	Count float64
	// Fidelity is the allowed relative NLL increase and the allowed
	// absolute worsening of PIT deviation / coverage error.
	Fidelity float64
	// Skip lists substring patterns; matching metric names are reported
	// as skipped and never gate.
	Skip []string
	// AllowMissing downgrades base-only metrics from regression to note.
	AllowMissing bool
}

// DefaultThresholds returns the stock gate: exact counters, +100% wall
// clock (CI runners vary widely; the floor keeps micro-stages quiet),
// 10% fidelity, and the known machine-dependent metrics skipped.
func DefaultThresholds() Thresholds {
	return Thresholds{
		Time:             1.0,
		TimeFloorSeconds: 0.05,
		Count:            0,
		Fidelity:         0.10,
		Skip: []string{
			"gomaxprocs", "worker_utilization",
			"par.workers", "par.queue_wait",
			// par.Pool metrics: queue depths, waits and per-job occupancy
			// depend on scheduling timing, not on the work done, so none
			// of them can gate (the deterministic work counts gate via
			// par.items and par.map_calls instead).
			"par.pool",
			// Rolling-window serving gauges (serve.win.*): rates and
			// windowed quantiles measure the recent past of one process on
			// one machine — machine- and timing-dependent by construction,
			// like worker_utilization. The cumulative serve.* counters and
			// histograms they are derived from gate normally.
			"serve.win",
			// SLO burn rates and drift scorecards: derived from the same
			// rolling windows (burn) or from how many requests a timing-
			// dependent sampler happened to score (drift windows, NLL
			// means over them), so they cannot gate either. Deterministic
			// drift numbers gate through the bench fidelity records.
			"obs.slo", "serve.drift",
		},
	}
}

// class is a metric's gate semantics.
type class int

const (
	classTime class = iota
	classCount
	classNLL      // lower-better, relative tolerance (Fidelity)
	classDistance // distance-from-ideal, absolute worsening tolerance (Fidelity)
	classInfo     // never gates
)

// metric is one comparable scalar extracted from a report or bench file.
type metric struct {
	name  string
	value float64
	class class
	// unit scales the TimeFloorSeconds for time metrics: 1 for seconds,
	// 1e9 for nanoseconds.
	unit float64
}

// Status of one delta row.
type Status int

const (
	StatusOK Status = iota
	StatusRegressed
	StatusImproved // markedly better than base — celebrated, never gates
	StatusSkipped
	StatusInfo
	StatusMissing // in base, not in new
	StatusNew     // in new, not in base
)

// improveFrac is the relative improvement a gating metric must beat
// (alongside the class's absolute floor) to be celebrated as IMPROVED
// rather than quietly ok — the mirror image of a regression, so genuine
// wins are as loud in the table as genuine losses.
const improveFrac = 0.25

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusRegressed:
		return "REGRESSED"
	case StatusImproved:
		return "IMPROVED"
	case StatusSkipped:
		return "skipped"
	case StatusInfo:
		return "info"
	case StatusMissing:
		return "MISSING"
	case StatusNew:
		return "new"
	}
	return "?"
}

// Delta is one metric's comparison row.
type Delta struct {
	Metric string
	Base   float64
	New    float64
	// Rel is (New−Base)/Base; NaN when Base is 0.
	Rel    float64
	Limit  string // human-readable gate bound ("≤ +100%", "exact", "-")
	Status Status
}

// Result is a full comparison: every delta row plus the regression and
// improvement counts.
type Result struct {
	Deltas       []Delta
	Regressions  int
	Improvements int
}

// Failed reports whether the gate should fail (any regression or missing
// metric counted as one).
func (r *Result) Failed() bool { return r.Regressions > 0 }

func skipped(name string, skip []string) bool {
	for _, pat := range skip {
		if pat != "" && strings.Contains(name, pat) {
			return true
		}
	}
	return false
}

// compareMetrics diffs two extracted metric maps under the thresholds.
func compareMetrics(base, new map[string]metric, th Thresholds) *Result {
	names := make([]string, 0, len(base)+len(new))
	seen := map[string]bool{}
	for n := range base {
		names = append(names, n)
		seen[n] = true
	}
	for n := range new {
		if !seen[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	res := &Result{}
	for _, name := range names {
		b, inBase := base[name]
		nw, inNew := new[name]
		d := Delta{Metric: name, Base: b.value, New: nw.value}
		switch {
		case skipped(name, th.Skip):
			d.Status = StatusSkipped
			d.Limit = "-"
		case !inNew:
			d.Status = StatusMissing
			d.Limit = "present"
			if !th.AllowMissing && b.class != classInfo {
				res.Regressions++
			}
		case !inBase:
			d.Status = StatusNew
			d.Limit = "-"
		default:
			d.Rel = rel(b.value, nw.value)
			d.Status, d.Limit = gate(b, nw, th)
			switch d.Status {
			case StatusRegressed:
				res.Regressions++
			case StatusImproved:
				res.Improvements++
			}
		}
		res.Deltas = append(res.Deltas, d)
	}
	return res
}

func rel(base, new float64) float64 {
	if base == 0 {
		return math.NaN()
	}
	return (new - base) / base
}

// gate applies one metric's class semantics.
func gate(b, nw metric, th Thresholds) (Status, string) {
	switch b.class {
	case classInfo:
		return StatusInfo, "-"
	case classTime:
		limit := fmt.Sprintf("<= +%.0f%%", th.Time*100)
		floor := th.TimeFloorSeconds * b.unit
		if nw.value > b.value*(1+th.Time) && nw.value-b.value > floor {
			return StatusRegressed, limit
		}
		if nw.value < b.value*(1-improveFrac) && b.value-nw.value > floor {
			return StatusImproved, limit
		}
		return StatusOK, limit
	case classCount:
		if th.Count == 0 {
			if nw.value != b.value {
				return StatusRegressed, "exact"
			}
			return StatusOK, "exact"
		}
		limit := fmt.Sprintf("±%.0f%%", th.Count*100)
		if b.value == 0 {
			if nw.value != 0 {
				return StatusRegressed, limit
			}
			return StatusOK, limit
		}
		if math.Abs(rel(b.value, nw.value)) > th.Count {
			return StatusRegressed, limit
		}
		return StatusOK, limit
	case classNLL:
		limit := fmt.Sprintf("<= +%.0f%%", th.Fidelity*100)
		// Absolute floor mirrors the time gate: NLL near zero must not
		// flap on float jitter.
		if nw.value > b.value*(1+th.Fidelity) && nw.value-b.value > 0.05 {
			return StatusRegressed, limit
		}
		if nw.value < b.value*(1-improveFrac) && b.value-nw.value > 0.05 {
			return StatusImproved, limit
		}
		return StatusOK, limit
	case classDistance:
		// Values are distances from ideal (0 is perfect); gate on
		// absolute worsening.
		limit := fmt.Sprintf("<= +%.2f abs", th.Fidelity)
		if nw.value > b.value+th.Fidelity {
			return StatusRegressed, limit
		}
		if nw.value < b.value-th.Fidelity {
			return StatusImproved, limit
		}
		return StatusOK, limit
	}
	return StatusInfo, "-"
}

// reportMetrics flattens a run report into comparable scalars.
func reportMetrics(rep *obs.Report) map[string]metric {
	out := map[string]metric{}
	add := func(name string, v float64, c class, unit float64) {
		out[name] = metric{name: name, value: v, class: c, unit: unit}
	}
	add("wall_seconds", rep.WallSeconds, classTime, 1)
	add("gomaxprocs", float64(rep.GoMaxProcs), classInfo, 1)
	add("worker_utilization", rep.WorkerUtilization, classInfo, 1)

	// Stage wall times, keyed by span path. Duplicate paths (a stage that
	// ran more than once, e.g. under -parallel) accumulate.
	var stack []string
	for _, st := range rep.Stages {
		if st.Depth < len(stack) {
			stack = stack[:st.Depth]
		}
		stack = append(stack, st.Name)
		name := "stage." + strings.Join(stack, "/") + ".seconds"
		if prev, ok := out[name]; ok {
			add(name, prev.value+st.Seconds, classTime, 1)
		} else {
			add(name, st.Seconds, classTime, 1)
		}
	}

	for name, c := range rep.Counters {
		// Counters with an _ns suffix accumulate wall time (par.capacity_ns
		// = Σ map-wall × workers), so they vary run to run like any timing
		// and gate as time, not as exact work counts.
		if strings.HasSuffix(name, "_ns") {
			add("counter."+name, float64(c), classTime, 1e9)
		} else {
			add("counter."+name, float64(c), classCount, 1)
		}
	}
	for name, g := range rep.Gauges {
		add("gauge."+name, g, classInfo, 1)
	}
	for name, h := range rep.Histograms {
		add("hist."+name+".count", float64(h.Count), classCount, 1)
		add("hist."+name+".mean", h.Mean, classTime, 1e9)
		add("hist."+name+".p50", h.P50, classTime, 1e9)
		add("hist."+name+".p90", h.P90, classTime, 1e9)
		add("hist."+name+".p99", h.P99, classTime, 1e9)
	}

	for _, f := range rep.Fidelity {
		p := "fidelity." + f.Label + "."
		add(p+"epochs", float64(f.Epochs), classCount, 1)
		add(p+"held_out_windows", float64(f.HeldOutWindows), classCount, 1)
		add(p+"nll", f.HeldOutNLL, classNLL, 1)
		add(p+"final_loss", f.FinalLoss, classNLL, 1)
		add(p+"pit_deviation", f.PITDeviation, classDistance, 1)
		add(p+"grad_norm_max", f.GradNormMax, classInfo, 1)
		add(p+"non_finite_seqs", float64(f.NonFiniteSeqs), classCount, 1)
		for _, q := range sortedKeys(f.Coverage) {
			target, ok := coverageTarget(q)
			if !ok {
				continue
			}
			// Gate the coverage *error* so "closer to nominal" can never
			// regress the gate.
			add(p+"coverage_err_"+q, math.Abs(f.Coverage[q]-target), classDistance, 1)
		}
	}
	return out
}

// coverageTarget parses "p90" into 0.90.
func coverageTarget(q string) (float64, bool) {
	if len(q) < 2 || q[0] != 'p' {
		return 0, false
	}
	var pct int
	if _, err := fmt.Sscanf(q[1:], "%d", &pct); err != nil || pct < 0 || pct > 100 {
		return 0, false
	}
	return float64(pct) / 100, true
}

// CompareReports diffs two run reports.
func CompareReports(base, new *obs.Report, th Thresholds) *Result {
	return compareMetrics(reportMetrics(base), reportMetrics(new), th)
}

// Table renders the delta rows as an aligned text table, most severe
// first (regressions and missing metrics at the top), with a one-line
// verdict footer.
func (r *Result) Table() string {
	rows := append([]Delta(nil), r.Deltas...)
	sevRank := func(s Status) int {
		switch s {
		case StatusRegressed:
			return 0
		case StatusMissing:
			return 1
		case StatusImproved:
			return 2
		case StatusOK:
			return 3
		case StatusNew:
			return 4
		case StatusInfo:
			return 5
		}
		return 6
	}
	sort.SliceStable(rows, func(i, j int) bool {
		return sevRank(rows[i].Status) < sevRank(rows[j].Status)
	})

	var b strings.Builder
	widths := []int{6, 12, 12, 8, 10, 9}
	header := []string{"metric", "base", "new", "delta", "limit", "status"}
	cells := make([][]string, 0, len(rows))
	for _, d := range rows {
		delta := "-"
		if !math.IsNaN(d.Rel) && d.Status != StatusMissing && d.Status != StatusNew {
			delta = fmt.Sprintf("%+.1f%%", d.Rel*100)
		}
		baseCell, newCell := num(d.Base), num(d.New)
		if d.Status == StatusMissing {
			newCell = "-"
		}
		if d.Status == StatusNew {
			baseCell = "-"
		}
		row := []string{d.Metric, baseCell, newCell, delta, d.Limit, d.Status.String()}
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
		cells = append(cells, row)
	}
	for i, h := range header {
		if len(h) > widths[i] {
			widths[i] = len(h)
		}
	}
	writeRow := func(row []string) {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == len(row)-1 {
				b.WriteString(c) // no trailing padding
			} else {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for _, row := range cells {
		writeRow(row)
	}
	b.WriteByte('\n')
	if r.Improvements > 0 {
		// Celebrate wins as loudly as losses: name the biggest one.
		bestName, bestRel := "", 0.0
		for _, d := range r.Deltas {
			if d.Status == StatusImproved && !math.IsNaN(d.Rel) && d.Rel < bestRel {
				bestName, bestRel = d.Metric, d.Rel
			}
		}
		fmt.Fprintf(&b, "IMPROVED: %d metric(s) markedly better than base", r.Improvements)
		if bestName != "" {
			fmt.Fprintf(&b, " (best: %s %+.1f%%)", bestName, bestRel*100)
		}
		b.WriteString(" 🎉\n")
	}
	if r.Regressions > 0 {
		fmt.Fprintf(&b, "REGRESSED: %d metric(s) beyond threshold\n", r.Regressions)
	} else {
		fmt.Fprintf(&b, "ok: no regressions across %d metric(s)\n", len(r.Deltas))
	}
	return b.String()
}

// num formats a metric value compactly: integers plain, large magnitudes
// in scientific notation, everything else with 4 significant digits.
func num(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e9 {
		return fmt.Sprintf("%d", int64(v))
	}
	if math.Abs(v) >= 1e6 || (v != 0 && math.Abs(v) < 1e-3) {
		return fmt.Sprintf("%.3e", v)
	}
	return fmt.Sprintf("%.4g", v)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
