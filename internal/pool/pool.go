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
// the engine exports per-parameter fan-out timings without the pool
// itself knowing about metrics. It is ForEachNCtx with a context that is
// never done.
func ForEachNTimed(workers, n int, per Observer, fn func(i int) error) error {
	return ForEachNCtx(context.Background(), workers, n, per, func(_ context.Context, i int) error { return fn(i) })
}

// ForEachNCtx is ForEachNTimed with context cancellation: once ctx is
// done, no further items are dispatched (items already running finish
// normally — fn receives ctx and may observe the cancellation itself,
// e.g. to cut short its own work). When items were skipped and no fn
// returned an error, ctx.Err() is returned, so callers can distinguish a
// complete fan-out from an abandoned one and discard partial output.
// This is the serving path's variant: a disconnected HTTP client cancels
// the per-parameter recommendation fan-out instead of burning workers on
// an answer nobody will read.
func ForEachNCtx(ctx context.Context, workers, n int, per Observer, fn func(ctx context.Context, i int) error) error {
	if per != nil {
		inner := fn
		fn = func(ctx context.Context, i int) error {
			start := time.Now()
			err := inner(ctx, i)
			per.Observe(time.Since(start).Seconds())
			return err
		}
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// Serial fast path: no goroutines, no channel, same semantics.
		var err error
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				if err == nil {
					err = ctx.Err()
				}
				break
			}
			if e := fn(ctx, i); e != nil && err == nil {
				err = e
			}
		}
		return err
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		err  error
		work = make(chan int)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if e := fn(ctx, i); e != nil {
					mu.Lock()
					if err == nil {
						err = e
					}
					mu.Unlock()
				}
			}
		}()
	}
	done := ctx.Done()
	skipped := false
dispatch:
	for i := 0; i < n; i++ {
		select {
		case work <- i:
		case <-done:
			skipped = true
			break dispatch
		}
	}
	close(work)
	wg.Wait()
	if err == nil && skipped {
		err = ctx.Err()
	}
	return err
}
