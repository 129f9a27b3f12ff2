package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"ibox/internal/obs"
)

// layerRow is one per-layer metric and the end-to-end metric it should
// move, on which workload (WORKLOADS.md carries the same table).
type layerRow struct {
	name, unit, moves, shows string
}

var layerTable = []layerRow{
	{"pantheon.generate_s", "s", "setup_s", "all (corpus generation)"},
	{"iboxnet.estimate_ms", "ms", "setup_s", "simulate-mix, sessions"},
	{"iboxml.train_s", "s", "setup_s", "replay-paper (paper-scale); little elsewhere"},
	{"nn.train_seq_ms.h256l4", "ms", "setup_s", "replay-paper"},
	{"serve.registry_load_ms", "ms", "setup_s", "replay-paper (38 MB checkpoints); little elsewhere"},
	{"serve.decode_ms", "ms", "latency_p50_ms, throughput_rps", "simulate-mix / none on replay-paper"},
	{"serve.encode_ms", "ms", "latency_p50_ms, throughput_rps", "simulate-mix / none on replay-paper"},
	{"serve.registry_get_us", "us", "latency_p50_ms", "all (guard)"},
	{"serve.queue_wait_p90_ms", "ms", "latency_p90_ms, ttfc_p90_ms, slo_rate_rps", "replay-paper, simulate-mix"},
	{"par.pool_wait_p90_ms", "ms", "latency_p90_ms, ttfc_p90_ms, slo_rate_rps", "replay-paper, simulate-mix"},
	{"par.pool_busy_frac", "ratio", "throughput_rps, slo_rate_rps", "replay-paper, simulate-mix"},
	{"serve.batch_lanes_mean", "count", "throughput_rps, latency_p90_ms", "replay-paper, simulate-mix / none on sessions"},
	{"serve.cross_batch_frac", "ratio", "throughput_rps, latency_p90_ms", "replay-paper / none on sessions"},
	{"iboxml.features_ms", "ms", "latency_p50_ms", "simulate-mix (small)"},
	{"nn.preproject_us", "us", "throughput_rps, latency_p50_ms", "replay-paper / none on simulate-mix"},
	{"nn.step_us.h256l4", "us", "throughput_rps, emulated_mbps, latency_p50_ms, ttfc_p50_ms", "replay-paper / none on simulate-mix"},
	{"nn.step_us.h256l4.lane1", "us", "throughput_rps, emulated_mbps, latency_p50_ms", "replay-paper / none on simulate-mix"},
	{"nn.step_gflops.h256l4", "GFLOP/s", "as nn.step_us.h256l4 (computed from the shape)", "replay-paper"},
	{"nn.step_gbytes_s.h256l4", "GB/s", "as nn.step_us.h256l4 (computed from the shape)", "replay-paper"},
	{"nn.step_us.h24l2", "us", "latency_p50_ms, emulated_mbps", "simulate-mix, sessions (small share)"},
	{"nn.head_us", "us", "latency_p50_ms, ttfc_p50_ms", "replay-paper / none on simulate-mix"},
	{"iboxml.sample_packets_ms", "ms", "latency_p50_ms, throughput_rps", "simulate-mix"},
	{"iboxml.score_windows_ms", "ms", "latency_p90_ms", "replay-paper, simulate-mix"},
	{"core.run_ms", "ms", "latency_p50_ms, emulated_mbps", "simulate-mix, sessions / none on replay-paper"},
	{"netsim.pkts_per_s", "1/s", "latency_p50_ms, emulated_mbps", "simulate-mix, sessions / none on replay-paper"},
	{"session.virtual_x", "x", "emulated_mbps, latency_p50_ms", "sessions / none elsewhere"},
	{"session.events_per_s", "1/s", "emulated_mbps, ttfc_p50_ms", "sessions / none elsewhere"},
	{"session.first_event_ms", "ms", "ttfc_p50_ms", "sessions / none elsewhere"},
	{"session.mutate_ms", "ms", "latency_p90_ms", "sessions / none elsewhere"},
	{"iboxml.packet_delay_us", "us", "emulated_mbps, latency_p50_ms", "sessions (iBoxML sessions) / none elsewhere"},
	{"serve.transport_ms", "ms", "latency_p50_ms", "simulate-mix"},
	{"loadgen.late_p90_ms", "ms", "latency_p90_ms (generator health, not the program)", "all"},
	{"trace.overhead_ratio", "ratio", "none: traced ÷ untraced latency_p50_ms", "all"},
}

// counters are the program's own exported counters the traced run reads
// as deltas over its traced phase.
type counters struct {
	queueWait, poolWait   [obs.HistogramBuckets]int64
	poolBusyNs            int64
	batches, crossBatches int64
	shed                  int64
	at                    time.Time
}

func readCounters() counters {
	r := obs.Get()
	c := counters{at: time.Now()}
	r.Histogram("serve.queue_wait_ns").BucketCounts(&c.queueWait)
	r.Histogram("par.pool_wait_ns").BucketCounts(&c.poolWait)
	c.poolBusyNs = r.Histogram(obs.MetricPoolBusyNs).Sum()
	c.batches = r.Counter("serve.batches").Value()
	c.crossBatches = r.Counter("serve.batches_cross").Value()
	c.shed = r.Counter("serve.shed").Value()
	return c
}

// histQuantile interpolates the q-quantile of a bucket-count delta, as
// obs.Histogram.Quantile does for a live histogram.
func histQuantile(after, before *[obs.HistogramBuckets]int64, q float64) (float64, int64) {
	var d [obs.HistogramBuckets]int64
	total := int64(0)
	for b := range d {
		d[b] = after[b] - before[b]
		total += d[b]
	}
	if total == 0 {
		return 0, 0
	}
	rank := q * float64(total)
	cum := 0.0
	for b, c := range d {
		if c == 0 {
			continue
		}
		if next := cum + float64(c); rank <= next || b == len(d)-1 {
			lo, hi := 0.0, float64(obs.HistogramBound(b))
			if b > 0 {
				lo = float64(obs.HistogramBound(b - 1))
			}
			return lo + (rank-cum)/float64(c)*(hi-lo), total
		}
		cum += float64(c)
	}
	return float64(obs.HistogramBound(len(d) - 1)), total
}

// pickSample takes, for each of the first n slots of the workload's
// request-spec cycle, the first successful operation in that slot, so
// the sample replays the same specs whatever the timing.
func pickSample(ops []opResult, cycle, n int) []opResult {
	var out []opResult
	for slot := 0; slot < n; slot++ {
		for _, r := range ops {
			if r.ok && r.i%cycle == slot {
				out = append(out, r)
				break
			}
		}
	}
	return out
}

func (b *bench) runTraced(tracePath string) (result, error) {
	tr := newTracer()
	fx, setupS, err := b.setupOnce(tr, 0)
	if err != nil {
		return result{}, err
	}
	defer fx.close()
	lg, cl, warmOps, err := b.ready(fx)
	if err != nil {
		return result{}, err
	}
	defer cl.close()

	// The end-to-end run's closed loop twice, untraced then traced.
	half := time.Duration(b.seconds) * time.Second / 2
	untraced := lg.closedLoop(b.clients(), half, 0)
	before := readCounters()
	lg.tracer = tr
	traced := lg.closedLoop(b.clients(), half, 0)
	lg.tracer = nil
	after := readCounters()

	lanesSum, lanesN := 0, 0
	for _, r := range traced.ops {
		if r.ok && r.batch > 0 {
			lanesSum += r.batch
			lanesN++
		}
	}
	lanes := 1
	if lanesN > 0 {
		lanes = int(math.Round(float64(lanesSum) / float64(lanesN)))
	}
	lanes = max(1, min(lanes, 4))
	sample := pickSample(traced.ops, b.spec.cycle, 4)
	runtime.GC()
	fx.layers(tr, sample, lanes)
	spans, self := tr.selfTimes()
	seen := map[string]bool{}
	for _, s := range spans {
		seen[s.name] = true
	}
	in := fx.probeModels()
	runProbes(tr, in, b.seed, func(n string) bool { return seen[n] })
	qwBefore := before
	if _, n := histQuantile(&after.queueWait, &before.queueWait, 0.9); n == 0 && in.netID != "" {
		// Sessions bypass admission: time it on a burst of iBoxNet
		// simulate requests instead.
		qwBefore = readCounters()
		burstSimulate(cl, in.netID, 2*b.nproc)
		after.queueWait = readCounters().queueWait
	}
	spans, self = tr.selfTimes()

	res := result{Metrics: map[string]metricValue{}}
	res.Correct, res.Attempted, res.Failed = account(append(append([]opResult(nil), warmOps...), append(untraced.ops, traced.ops...)...), append(untraced.ops, traced.ops...))
	counts := map[string]int{}
	set := func(name string, v float64, n int) {
		unit := ""
		for _, row := range layerTable {
			if row.name == name {
				unit = row.unit
			}
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v, n = 0, 0
		}
		res.Metrics[name] = metricValue{Value: v, Unit: unit}
		counts[name] = n
	}
	// p50 of a span's self time (or of a ratio over it), in unit scale.
	spanP50 := func(name string, f func(s span, self time.Duration) float64) (float64, int) {
		var xs []float64
		for _, s := range spans {
			if s.name == name {
				xs = append(xs, f(s, self[s.id]))
			}
		}
		return median(xs), len(xs)
	}
	per := func(scale float64) func(span, time.Duration) float64 {
		return func(s span, d time.Duration) float64 {
			return d.Seconds() * scale / float64(max(1, s.items))
		}
	}
	whole := func(scale float64) func(span, time.Duration) float64 {
		return func(_ span, d time.Duration) float64 { return d.Seconds() * scale }
	}
	rate := func(s span, d time.Duration) float64 { return float64(s.items) / d.Seconds() }
	for _, m := range []struct {
		metric, span string
		f            func(span, time.Duration) float64
	}{
		{"pantheon.generate_s", "pantheon.generate", whole(1)},
		{"iboxnet.estimate_ms", "iboxnet.estimate", whole(1e3)},
		{"iboxml.train_s", "iboxml.train", whole(1)},
		{"nn.train_seq_ms.h256l4", "nn.train_sequence", whole(1e3)},
		{"serve.registry_load_ms", "serve.registry_load", whole(1e3)},
		{"serve.decode_ms", "serve.decode", whole(1e3)},
		{"serve.encode_ms", "serve.encode", whole(1e3)},
		{"serve.registry_get_us", "serve.registry_get", whole(1e6)},
		{"iboxml.features_ms", "iboxml.features", whole(1e3)},
		{"nn.preproject_us", "nn.preproject", per(1e6)},
		{"nn.step_us.h256l4", "nn.step.h256l4", per(1e6)},
		{"nn.step_us.h256l4.lane1", "nn.step.h256l4.lane1", per(1e6)},
		{"nn.step_us.h24l2", "nn.step.h24l2.lane1", per(1e6)},
		{"nn.head_us", "nn.head", per(1e6)},
		{"iboxml.sample_packets_ms", "iboxml.sample_packets", whole(1e3)},
		{"iboxml.score_windows_ms", "iboxml.score_windows", whole(1e3)},
		{"core.run_ms", "core.run", whole(1e3)},
		{"netsim.pkts_per_s", "core.run", rate},
		{"session.virtual_x", "session.run", func(s span, d time.Duration) float64 { return s.argV / d.Seconds() }},
		{"session.events_per_s", "session.run", rate},
		{"session.first_event_ms", "session.first_event", func(s span, _ time.Duration) float64 { return s.dur().Seconds() * 1e3 }},
		{"session.mutate_ms", "session.mutate", whole(1e3)},
		{"iboxml.packet_delay_us", "iboxml.packet_delay", per(1e6)},
	} {
		v, n := spanP50(m.span, m.f)
		set(m.metric, v, n)
	}
	// Operation and byte counts of one h256l4 lane-step, computed from
	// the shape (4 inputs, 4 layers of 256): 2 flops per multiply-add,
	// float64 weights read once per lane-step.
	macs, wbytes := 0.0, 0.0
	for l, inDim := 0, 4; l < 4; l, inDim = l+1, 256 {
		macs += 4 * 256 * float64(inDim+256)
		wbytes += 8 * 4 * 256 * float64(inDim+256+1)
	}
	stepUs, stepN := res.Metrics["nn.step_us.h256l4"].Value, counts["nn.step_us.h256l4"]
	set("nn.step_gflops.h256l4", 2*macs/(stepUs*1e-6)/1e9, stepN)
	set("nn.step_gbytes_s.h256l4", wbytes/(stepUs*1e-6)/1e9, stepN)

	qw, qn := histQuantile(&after.queueWait, &qwBefore.queueWait, 0.9)
	set("serve.queue_wait_p90_ms", qw/1e6, int(qn))
	pw, pn := histQuantile(&after.poolWait, &before.poolWait, 0.9)
	set("par.pool_wait_p90_ms", pw/1e6, int(pn))
	wall := after.at.Sub(before.at)
	set("par.pool_busy_frac", float64(after.poolBusyNs-before.poolBusyNs)/(float64(runtime.GOMAXPROCS(0))*float64(wall)), int(pn))
	lm := 0.0
	if lanesN > 0 {
		lm = float64(lanesSum) / float64(lanesN)
	}
	set("serve.batch_lanes_mean", lm, lanesN)
	cross := 0.0
	if db := after.batches - before.batches; db > 0 {
		cross = float64(after.crossBatches-before.crossBatches) / float64(db)
	}
	set("serve.cross_batch_frac", cross, int(after.batches-before.batches))
	set("loadgen.late_p90_ms", quantile(lateMs(traced.ops), 0.9), len(traced.ops))

	latT := median(msOf(traced.ops, opResult.latency))
	latU := median(msOf(untraced.ops, opResult.latency))
	set("trace.overhead_ratio", latT/latU, len(traced.ops))

	// Latency accounting on the traced phase: layer self times along the
	// blocking path (median over the sampled operations) plus measured
	// waits plus a derived transport remainder make up latency_p50_ms.
	pathSum := map[int]float64{}
	for _, s := range spans {
		if s.path && s.req >= 0 {
			pathSum[s.req] += self[s.id].Seconds() * 1e3
		}
	}
	var sums []float64
	for _, r := range sample {
		sums = append(sums, pathSum[r.i])
	}
	layersMs := median(sums)
	qw50, _ := histQuantile(&after.queueWait, &before.queueWait, 0.5)
	pw50, _ := histQuantile(&after.poolWait, &before.poolWait, 0.5)
	late50 := median(lateMs(traced.ops))
	waitsMs := qw50/1e6 + pw50/1e6 + late50
	set("serve.transport_ms", latT-layersMs-waitsMs, len(sample))

	fmt.Printf("# traced run: setup %.2fs, untraced %d ops p50 %.2f ms, traced %d ops p50 %.2f ms (overhead x%.4f), %d sampled ops, %d lanes\n",
		setupS, len(untraced.ops), latU, len(traced.ops), latT, latT/latU, len(sample), lanes)
	fmt.Printf("# accounting: latency_p50_ms %.3f = layer self times %.3f + waits %.3f (queue %.3f, pool %.3f, generator %.3f) + transport %.3f\n",
		latT, layersMs, waitsMs, qw50/1e6, pw50/1e6, late50, latT-layersMs-waitsMs)
	b.printCounts(spans, traced.ops, after.shed-before.shed, lanesN, lm)
	for _, row := range layerTable {
		m := res.Metrics[row.name]
		fmt.Printf("# layer %-26s %12.4f %-8s n=%-5d moves %s on %s\n", row.name, m.Value, m.Unit, counts[row.name], row.moves, row.shows)
	}
	printFailures(append(untraced.ops, traced.ops...))
	avx2, fma := cpuFeatures()
	if err := tr.writeChrome(tracePath, map[string]any{
		"workload": b.spec.name, "seed": b.seed, "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": b.nproc,
		"go": runtime.Version(), "avx2": avx2, "fma": fma,
	}); err != nil {
		return res, err
	}
	fmt.Printf("# chrome trace: %s (%d spans)\n", tracePath, len(spans))
	return res, nil
}

// printCounts records the work counts at the layer boundaries.
func (b *bench) printCounts(spans []span, ops []opResult, shed int64, batches int, lanes float64) {
	items := func(name string) float64 {
		var xs []float64
		for _, s := range spans {
			if s.name == name && s.req >= 0 {
				xs = append(xs, float64(s.items))
			}
		}
		return median(xs)
	}
	fmt.Printf("# counts: windows/request %.0f, packets/request %.0f (iBoxML in) %.0f (iBoxNet out), lanes/batch %.2f over %d, events/session %.0f, shed %d\n",
		items("iboxml.features"), items("iboxml.sample_packets"), items("core.run"), lanes, batches, items("session.run"), shed)
}

// burstSimulate fires n concurrent iBoxNet simulate requests.
func burstSimulate(cl *client, id string, n int) {
	body := []byte(fmt.Sprintf(`{"model":%q,"protocol":"cubic","duration_s":10,"seed":1}`, id))
	done := make(chan struct{}, n)
	for k := 0; k < n; k++ {
		go func() {
			defer func() { done <- struct{}{} }()
			r := opResult{}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			resp, err := cl.send(ctx, &r, "POST", "/v1/simulate", body, "", false)
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	for k := 0; k < n; k++ {
		<-done
	}
}
