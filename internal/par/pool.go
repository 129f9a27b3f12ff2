package par

import (
	"context"
	"errors"
	"sync"
	"time"

	"ibox/internal/obs"
)

// Pool is a long-lived worker pool for a process that serves many
// independent jobs, such as ibox-serve's requests and live-session
// ticks. Map/ForEach spin up goroutines per call, which is right for
// the offline drivers' fan-outs; a daemon instead owns ONE Pool sized to
// the machine and submits every CPU-bound job to it with Do, so
// concurrent requests share a single concurrency budget and a job that
// waits for a worker is visible in par.pool_queue / par.pool_wait_ns.
//
// Determinism note: a Pool schedules *independent* jobs; each job's
// result must depend only on its own inputs (the same contract as Map).
// Scheduling keeps byte-determinism because every simulation derives its
// randomness from an explicit seed fixed before dispatch, never from
// which goroutine ran the job or in what order.
type Pool struct {
	jobs    chan poolJob
	workers int

	mu     sync.Mutex
	closed bool
	done   chan struct{}
	wg     sync.WaitGroup

	queued *obs.Gauge     // jobs submitted but not yet picked up
	wait   *obs.Histogram // submit → pickup latency, ns
	jobsC  *obs.Counter   // jobs executed by workers
	busy   *obs.Histogram // per-job worker occupancy, ns
}

type poolJob struct {
	fn  func()
	enq time.Time
}

// ErrPoolClosed is returned by Do after Close.
var ErrPoolClosed = errors.New("par: pool closed")

// NewPool starts a pool with the given number of workers (<=0 selects
// one). Close it when done.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = 1
	}
	p := &Pool{
		jobs:    make(chan poolJob),
		workers: workers,
		done:    make(chan struct{}),
	}
	if r := obs.Get(); r != nil {
		r.Gauge("par.pool_workers").Set(float64(workers))
		p.queued = r.Gauge("par.pool_queue")
		p.wait = r.Histogram("par.pool_wait_ns")
		p.jobsC = r.Counter("par.pool_jobs")
		p.busy = r.Histogram(obs.MetricPoolBusyNs)
	}
	inst := p.queued != nil
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for {
				// jobs is unbuffered, so nothing can be stranded inside
				// the channel at shutdown: every submitted job is either
				// picked up here (and runs to completion) or its submitter
				// sees done and returns ErrPoolClosed.
				select {
				case j := <-p.jobs:
					if !inst {
						j.fn()
						continue
					}
					t0 := time.Now()
					p.wait.Observe(int64(t0.Sub(j.enq)))
					p.queued.Add(-1)
					j.fn()
					p.busy.ObserveSince(t0)
					p.jobsC.Add(1)
				case <-p.done:
					return
				}
			}
		}()
	}
	return p
}

// Workers reports the pool's concurrency.
func (p *Pool) Workers() int { return p.workers }

// Do runs fn on a pool worker and waits for it to finish. If ctx expires
// while the job is still queued, Do returns ctx.Err() without running fn;
// if it expires while fn is running, Do returns ctx.Err() immediately but
// fn runs to completion on the worker (jobs are not preemptible — keep
// them short and check ctx inside long jobs).
func (p *Pool) Do(ctx context.Context, fn func() error) error {
	inst := p.queued != nil
	var enq time.Time
	if inst {
		enq = time.Now()
		p.queued.Add(1)
	}
	ran := make(chan error, 1)
	j := poolJob{enq: enq, fn: func() {
		// The submitter may have given up (ctx expired after pickup);
		// the buffered channel lets the job finish regardless.
		ran <- fn()
	}}
	select {
	case p.jobs <- j:
	case <-ctx.Done():
		if inst {
			p.queued.Add(-1)
		}
		return ctx.Err()
	case <-p.done:
		if inst {
			p.queued.Add(-1)
		}
		return ErrPoolClosed
	}
	select {
	case err := <-ran:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops accepting jobs and waits for in-flight ones to finish.
// Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.done)
	p.mu.Unlock()
	p.wg.Wait()
}
