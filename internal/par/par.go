// Package par is the repository's deterministic fan-out primitive: a
// bounded worker pool that applies a function to every index of a work
// list and collects the results in input order.
//
// The paper's workloads — fit one iBoxNet per trace, train per-trace
// iBoxML models, replay counterfactual protocols over each (§3–§5) — are
// embarrassingly parallel across traces, but reproducibility is
// non-negotiable: an experiment must produce byte-identical output
// whether it runs on one core or sixty-four. par makes that contract
// structural rather than accidental:
//
//   - results land at out[i] for input i, so collection order never
//     depends on goroutine scheduling;
//   - work items must not share mutable state — in this repository every
//     stochastic component derives its RNG from an explicit (seed,
//     stream) pair (see sim.NewRand), and callers derive each item's
//     seed from its index *before* dispatch;
//   - on failure the error of the lowest-index failing item is returned,
//     which is the same error a serial loop would have stopped at,
//     because dispatch is in input order (any item preceding a failure
//     has already been dispatched and runs to completion).
//
// The Serial and Workers knobs exist so experiments can assert
// serial ≡ parallel equality in tests and so benchmarks can measure the
// speedup rather than claim it.
//
// Each Map call owns its workers, so nested fan-outs (Fig 3's variants ×
// traces) simply nest: an inner Map bounds only its own width, and the
// Go scheduler multiplexes the goroutines onto GOMAXPROCS threads. The
// one long-lived scheduler is Pool, which ibox-serve uses to run each
// request or session tick as a single Do job.
package par

import (
	"runtime"
	"sync"
	"time"

	"ibox/internal/obs"
)

// metrics bundles the fan-out instrumentation handles. All fields are
// nil when observability is disabled (obs.Get() == nil), in which case
// every record call below is a no-op and — crucially — no clock is ever
// read, so a disabled run does literally the same work as before the
// instrumentation existed. Handles are resolved once per Map call, never
// per item.
type metrics struct {
	items    *obs.Counter   // work items completed
	busy     *obs.Histogram // per-item fn duration, ns (sum = busy time)
	wait     *obs.Histogram // queue wait: dispatch-ready → worker pickup, ns
	capacity *obs.Counter   // Σ per-Map wall × workers, ns (utilization denominator)
}

// parMetrics resolves the instrumentation handles, or all-nil when
// disabled.
func parMetrics(workers int) metrics {
	r := obs.Get()
	if r == nil {
		return metrics{}
	}
	r.Counter("par.map_calls").Add(1)
	r.Gauge("par.workers").Set(float64(workers))
	return metrics{
		items:    r.Counter("par.items"),
		busy:     r.Histogram(obs.MetricParItemNs),
		wait:     r.Histogram("par.queue_wait_ns"),
		capacity: r.Counter(obs.MetricParCapacityNs),
	}
}

// logItemError reports a failed work item to the structured run log (see
// obs.Logger). Every failing item logs — not just the lowest-index one
// Map returns — because concurrent failures the caller never sees are
// exactly what a post-mortem needs. One nil check when logging is
// disabled.
func logItemError(i int, err error) {
	if l := obs.Logger(); l != nil {
		l.Error("par: work item failed", "item", i, "error", err.Error())
	}
}

// Options control how a fan-out executes. The zero value is the default:
// parallel with one worker per available CPU.
type Options struct {
	// Serial forces in-place execution on the calling goroutine (exactly
	// equivalent to a plain loop). It exists for A/B determinism tests
	// and benchmarks; results are identical either way.
	Serial bool
	// Workers bounds the number of concurrent goroutines. Zero or
	// negative selects runtime.GOMAXPROCS(0).
	Workers int
}

// WorkersFor resolves the effective worker count for n work items.
func (o Options) WorkersFor(n int) int {
	if o.Serial {
		return 1
	}
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Map applies fn to every index in [0, n) with bounded parallelism and
// returns the results in input order: out[i] = fn(i). If any call fails,
// Map returns a nil slice and the error of the lowest failing index —
// the same error a serial loop would surface, since dispatch is in input
// order and in-flight items run to completion. After a failure no new
// items are dispatched.
func Map[R any](n int, opts Options, fn func(i int) (R, error)) ([]R, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]R, n)
	workers := opts.WorkersFor(n)
	m := parMetrics(workers)
	instrumented := m.items != nil
	if instrumented {
		mapStart := time.Now()
		defer func() {
			m.capacity.Add(int64(time.Since(mapStart)) * int64(workers))
		}()
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			var t0 time.Time
			if instrumented {
				t0 = time.Now()
			}
			r, err := fn(i)
			if instrumented {
				m.busy.ObserveSince(t0)
				m.items.Add(1)
			}
			if err != nil {
				logItemError(i, err)
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}

	type failure struct {
		idx int
		err error
	}
	// job carries the dispatch-ready timestamp so workers can report how
	// long the item waited for a free worker (zero when uninstrumented).
	type job struct {
		i   int
		enq time.Time
	}
	jobCh := make(chan job)
	// Buffered so workers never block reporting: each sends at most one
	// failure before exiting.
	failCh := make(chan failure, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				var t0 time.Time
				if instrumented {
					t0 = time.Now()
					m.wait.Observe(int64(t0.Sub(j.enq)))
				}
				r, err := fn(j.i)
				if instrumented {
					m.busy.ObserveSince(t0)
					m.items.Add(1)
				}
				if err != nil {
					logItemError(j.i, err)
					failCh <- failure{j.i, err}
					return
				}
				out[j.i] = r
			}
		}()
	}

	failed := false
	var first failure
dispatch:
	for i := 0; i < n; i++ {
		var enq time.Time
		if instrumented {
			enq = time.Now()
		}
		select {
		case jobCh <- job{i, enq}:
		case f := <-failCh:
			failed, first = true, f
			break dispatch
		}
	}
	close(jobCh)
	wg.Wait()
	close(failCh)
	for f := range failCh {
		if !failed || f.idx < first.idx {
			failed, first = true, f
		}
	}
	if failed {
		return nil, first.err
	}
	return out, nil
}

// ForEach is Map without result collection: it applies fn to every index
// in [0, n) and returns the lowest-index error, if any. fn typically
// writes into caller-owned, index-disjoint storage.
func ForEach(n int, opts Options, fn func(i int) error) error {
	_, err := Map(n, opts, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}
