// Package parallel is the shared bounded worker pool behind every
// embarrassingly parallel fan-out of the toolchain: the design-space
// sweep (explore), the EM Monte Carlo trials (em) and the independent
// figure drivers (core, cmd/vsexplore). The evaluation pipeline is
// hundreds of independent PDN solves, so throughput scales with cores —
// but every API here is deterministic by construction: results are
// written by input index, so they depend only on the inputs (and, for
// stochastic tasks, the seed), never on goroutine scheduling or the
// worker count.
package parallel

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"voltstack/internal/telemetry"
)

// Pool instrumentation: per-task queue wait and run time, plus per-batch
// worker occupancy (busy time / (wall × workers)) — the signal that tells
// a sweep whether it is solver-bound or scheduling-bound. Everything here
// is a no-op unless telemetry is enabled; the disabled cost per task is a
// single atomic load.
var (
	mBatches     = telemetry.NewCounter("parallel_batches_total")
	mTasks       = telemetry.NewCounter("parallel_tasks_total")
	mTaskSeconds = telemetry.NewHistogram("parallel_task_seconds")
	mQueueWait   = telemetry.NewHistogram("parallel_queue_wait_seconds")
	mOccupancy   = telemetry.NewHistogram("parallel_batch_occupancy")
	mLastOccup   = telemetry.NewGauge("parallel_last_occupancy")
)

// batchStats accumulates one ForEachN invocation's busy time.
type batchStats struct {
	start time.Time
	busy  atomic.Int64 // nanoseconds
}

// newBatchStats returns nil (a no-op) when telemetry is disabled.
func newBatchStats() *batchStats {
	if !telemetry.Enabled() {
		return nil
	}
	return &batchStats{start: time.Now()}
}

// task wraps one fn(i) call with wait/run accounting. Nil-safe.
func (b *batchStats) task(i int, fn func(i int) error) error {
	if b == nil {
		return fn(i)
	}
	t0 := time.Now()
	mQueueWait.Observe(t0.Sub(b.start).Seconds())
	err := fn(i)
	d := time.Since(t0)
	b.busy.Add(int64(d))
	mTasks.Add(1)
	mTaskSeconds.Observe(d.Seconds())
	return err
}

// finish records the batch-level occupancy metrics. Nil-safe.
func (b *batchStats) finish(workers int) {
	if b == nil {
		return
	}
	mBatches.Add(1)
	wall := time.Since(b.start).Seconds()
	if wall <= 0 || workers < 1 {
		return
	}
	occ := float64(b.busy.Load()) / float64(time.Second) / (wall * float64(workers))
	mOccupancy.Observe(occ)
	mLastOccup.Set(occ)
}

// EnvWorkers is the environment variable that overrides the default
// worker count for every pool created without an explicit size.
const EnvWorkers = "VOLTSTACK_WORKERS"

// DefaultWorkers returns the worker count used when none is requested:
// VOLTSTACK_WORKERS when set to a positive integer, otherwise
// GOMAXPROCS.
func DefaultWorkers() int {
	if s := os.Getenv(EnvWorkers); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// Pool is a bounded worker pool. Pools hold no state between calls, so
// one pool may be reused for any number of Map/ForEach invocations,
// including concurrent ones. A nil *Pool and the zero Pool are valid and
// size themselves with DefaultWorkers.
type Pool struct {
	workers int
}

// NewPool returns a pool running at most workers tasks concurrently.
// workers < 1 selects DefaultWorkers at call time (so a later change to
// VOLTSTACK_WORKERS or GOMAXPROCS is picked up).
func NewPool(workers int) *Pool { return &Pool{workers: workers} }

// Workers reports the concurrency bound the pool will use now.
func (p *Pool) Workers() int {
	if p == nil || p.workers < 1 {
		return DefaultWorkers()
	}
	return p.workers
}

// ForEachN runs fn(0) … fn(n-1) on the pool's workers and waits for all
// started tasks to finish. Each index runs exactly once unless the run
// is cut short: when fn returns an error or ctx is cancelled, no new
// indices are started (in-flight tasks complete).
//
// The returned error is the error of the lowest-index task that ran and
// failed, or ctx's error if the context was cancelled first. With one
// worker the loop degenerates to the plain serial iteration.
func (p *Pool) ForEachN(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers := p.Workers()
	if workers > n {
		workers = n
	}
	stats := newBatchStats()
	if workers == 1 {
		defer stats.finish(1)
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := stats.task(i, fn); err != nil {
				return err
			}
		}
		return nil
	}
	defer stats.finish(workers)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstIdx = -1
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				if err := stats.task(i, fn); err != nil {
					mu.Lock()
					if firstIdx < 0 || i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
					cancel()
					if testHookCancelled != nil {
						testHookCancelled()
					}
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// testHookCancelled, when non-nil, runs after a failing task's worker has
// cancelled its ForEachN run. Tests use it to hold the other workers'
// tasks until the cancellation is visible, which makes the short-circuit
// deterministic.
var testHookCancelled func()

// ForEach runs fn over every element of items on p's workers. A nil pool
// uses DefaultWorkers. Error semantics are those of ForEachN.
func ForEach[T any](ctx context.Context, p *Pool, items []T, fn func(i int, item T) error) error {
	return p.ForEachN(ctx, len(items), func(i int) error { return fn(i, items[i]) })
}

// Map evaluates fn over items on p's workers and returns the results in
// input order: out[i] is fn(i, items[i]) regardless of which worker ran
// it or when. On error the partial results are discarded and the
// lowest-index failure is returned (see ForEachN).
func Map[T, R any](ctx context.Context, p *Pool, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	err := p.ForEachN(ctx, len(items), func(i int) error {
		r, err := fn(i, items[i])
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Go runs every task concurrently on p's workers and waits for all of
// them — the "futures" form of ForEach for heterogeneous phases (e.g.
// the independent figures behind Study.Headlines). Each task typically
// writes its result into a variable it owns.
func Go(ctx context.Context, p *Pool, tasks ...func() error) error {
	return p.ForEachN(ctx, len(tasks), func(i int) error { return tasks[i]() })
}
