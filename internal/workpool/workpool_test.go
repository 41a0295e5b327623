package workpool

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestForEachVisitsEveryIndexOnce: every index runs exactly once at
// every pool size, including pools larger than the item count.
func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		const n = 100
		var hits [n]atomic.Int32
		err := ForEach(context.Background(), workers, n, func(_ context.Context, i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if c := hits[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestForEachFirstErrorStops: an item error is returned and cancels the
// context the remaining items see, so the pool stops claiming work.
func TestForEachFirstErrorStops(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := ForEach(context.Background(), workers, 1000, func(ctx context.Context, i int) error {
			ran.Add(1)
			if i == 0 {
				return boom
			}
			<-ctx.Done()
			return ctx.Err()
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: error %v, want boom", workers, err)
		}
		if r := ran.Load(); r > int32(workers) {
			t.Errorf("workers=%d: %d items ran after the first error", workers, r)
		}
	}
}

// TestForEachDeadParentWins: once the caller's context is dead, its own
// error is returned rather than an item error caused by the cancellation.
func TestForEachDeadParentWins(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var called atomic.Bool
		err := ForEach(ctx, workers, 8, func(context.Context, int) error {
			called.Store(true)
			return errors.New("casualty")
		})
		if err != context.Canceled {
			t.Errorf("workers=%d: pre-canceled error %v, want context.Canceled", workers, err)
		}
		if called.Load() {
			t.Errorf("workers=%d: pool ran an item under a dead context", workers)
		}

		ctx, cancel = context.WithCancel(context.Background())
		err = ForEach(ctx, workers, 8, func(context.Context, int) error {
			cancel()
			return errors.New("casualty")
		})
		if workers > 1 && err != context.Canceled {
			t.Errorf("workers=%d: mid-run error %v, want context.Canceled", workers, err)
		}
	}
}
