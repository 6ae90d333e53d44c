package pool

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachNCoversEveryItem(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		var hits [100]int32
		if err := ForEachN(workers, len(hits), func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, n := range hits {
			if n != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, n)
			}
		}
	}
}

func TestForEachNFirstError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran int32
		err := ForEachN(workers, 50, func(i int) error {
			atomic.AddInt32(&ran, 1)
			if i%10 == 3 {
				return fmt.Errorf("item %d failed", i)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: expected an error", workers)
		}
		// Every item still runs; the pool only records the first failure.
		if ran != 50 {
			t.Fatalf("workers=%d: ran %d of 50 items", workers, ran)
		}
	}
}

func TestForEachNEmpty(t *testing.T) {
	if err := ForEachN(8, 0, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

type sumObserver struct {
	mu    sync.Mutex
	n     int
	total float64
}

func (o *sumObserver) Observe(s float64) {
	o.mu.Lock()
	o.n++
	o.total += s
	o.mu.Unlock()
}

func TestForEachNTimedObservesEveryItem(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var o sumObserver
		if err := ForEachNTimed(workers, 25, &o, func(i int) error {
			time.Sleep(time.Millisecond)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if o.n != 25 {
			t.Fatalf("workers=%d: observed %d items, want 25", workers, o.n)
		}
		if o.total < 0.025 {
			t.Fatalf("workers=%d: total observed %.4fs, want >= 25ms", workers, o.total)
		}
	}
}

func TestForEachNCtxCoversEveryItem(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		var hits [100]int32
		if err := ForEachNCtx(context.Background(), workers, len(hits), func(_ context.Context, i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, n := range hits {
			if n != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, n)
			}
		}
	}
}

func TestForEachNCtxCancellationStopsDispatch(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		err := ForEachNCtx(ctx, workers, 1000, func(_ context.Context, i int) error {
			if ran.Add(1) == 5 {
				cancel()
			}
			time.Sleep(time.Millisecond)
			return nil
		})
		cancel()
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// In-flight items finish, but dispatch stops: far fewer than 1000 run.
		if n := ran.Load(); n >= 1000 || n < 5 {
			t.Fatalf("workers=%d: %d items ran after cancellation at item 5", workers, n)
		}
	}
}

func TestForEachNCtxItemErrorWinsOverCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := fmt.Errorf("boom")
	err := ForEachNCtx(ctx, 2, 50, func(_ context.Context, i int) error {
		if i == 3 {
			cancel()
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want the item error", err)
	}
}

// TestForEachNCtxClaimsUnderRace runs the multi-worker fan-out under the
// race detector: every index runs exactly once, and after a cancel in the
// middle of the fan-out no further item starts — at most the items other
// workers had already claimed, one each — and ctx.Err() is returned.
func TestForEachNCtxClaimsUnderRace(t *testing.T) {
	for _, workers := range []int{2, 8} {
		hits := make([]atomic.Int32, 5000)
		if err := ForEachNCtx(context.Background(), workers, len(hits), func(_ context.Context, i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if n := hits[i].Load(); n != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, n)
			}
		}

		const cancelAt = 100
		ctx, cancel := context.WithCancel(context.Background())
		var ran, late atomic.Int32
		var cancelled atomic.Bool
		err := ForEachNCtx(ctx, workers, len(hits), func(ctx context.Context, i int) error {
			if cancelled.Load() {
				late.Add(1)
			}
			if ran.Add(1) == cancelAt {
				cancel()
				cancelled.Store(true)
			}
			return nil
		})
		cancel()
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := late.Load(); n > int32(workers-1) {
			t.Fatalf("workers=%d: %d items started after the cancel returned, want at most %d already claimed", workers, n, workers-1)
		}
		if n := ran.Load(); n >= int32(len(hits)) {
			t.Fatalf("workers=%d: all %d items ran despite the cancel", workers, n)
		}
	}
}

func TestForEachNCtxDoneBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := ForEachNCtx(ctx, workers, 10, func(context.Context, int) error {
			ran.Add(1)
			return nil
		})
		if err != context.Canceled || ran.Load() != 0 {
			t.Fatalf("workers=%d: err = %v after %d items, want context.Canceled after none", workers, err, ran.Load())
		}
	}
}
