// Package pool provides the bounded worker-pool primitive shared by the
// recommendation engine and the evaluation harness. Auric's learner is
// embarrassingly parallel across its 65 configuration parameters (one
// dependency model per parameter, Sec 3.2), so both training and
// recommendation fan work items out over a fixed-size pool.
//
// The pool affects timing only, never results: callers write each item's
// output into a preallocated slot indexed by the item, so outputs land in
// a deterministic order regardless of worker count or scheduling.
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Observer receives the wall-clock duration, in seconds, of each
// completed work item. It is structurally identical to obs.Observer so
// an *obs.Histogram plugs in directly, without pool depending on the
// observability layer.
type Observer interface{ Observe(seconds float64) }

// ForEachN runs fn(i) for every i in [0, n) on a pool of the given number
// of workers and returns the first error observed (by completion order;
// remaining items still run to completion). workers <= 0 means
// runtime.NumCPU(); the pool never uses more workers than items.
func ForEachN(workers, n int, fn func(i int) error) error {
	return ForEachNTimed(workers, n, nil, fn)
}

// ForEachNTimed is ForEachN with per-item timing: when per is non-nil,
// the duration of every fn(i) call is observed on it (concurrently, from
// the worker goroutines — obs metrics are safe for that). This is how
// Train exports per-parameter fit timings without the pool itself knowing
// about metrics.
func ForEachNTimed(workers, n int, per Observer, fn func(i int) error) error {
	item := func(_ context.Context, i int) error { return fn(i) }
	if per != nil {
		item = func(_ context.Context, i int) error {
			start := time.Now()
			err := fn(i)
			per.Observe(time.Since(start).Seconds())
			return err
		}
	}
	return ForEachNCtx(context.Background(), workers, n, item)
}

// ForEachNCtx is ForEachN with context cancellation: once ctx is done, no
// further item starts (items already running finish normally — fn
// receives ctx and may observe the cancellation itself, e.g. to cut short
// its own work). When items were skipped and no fn returned an error,
// ctx.Err() is returned, so callers can distinguish a complete fan-out
// from an abandoned one and discard partial output. This is the serving
// path's variant: a disconnected HTTP client cancels the per-parameter
// recommendation fan-out instead of burning workers on an answer nobody
// will read.
//
// Workers claim items from one atomic counter, and the calling goroutine
// works as one of them, so an item costs an atomic add rather than a
// channel handoff, and a one-worker fan-out starts no goroutine at all.
func ForEachNCtx(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	var (
		next    atomic.Int64
		skipped atomic.Bool
		mu      sync.Mutex
		err     error
	)
	done := ctx.Done()
	run := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			// Checked after the claim: an item claimed once ctx is done
			// never starts, and the claim that finds it so marks the
			// fan-out incomplete.
			select {
			case <-done:
				skipped.Store(true)
				return
			default:
			}
			if e := fn(ctx, i); e != nil {
				mu.Lock()
				if err == nil {
					err = e
				}
				mu.Unlock()
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
	if err == nil && skipped.Load() {
		err = ctx.Err()
	}
	return err
}
