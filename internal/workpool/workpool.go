// Package workpool runs indexed work items on a bounded number of
// goroutines. It is the one worker pool of the engine (components,
// groups, candidate shards) and of the rewriting executor (group keys).
package workpool

import (
	"context"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for every i in [0, n) on at most workers
// goroutines. Work items are claimed from a shared atomic counter, so
// callers must make fn(i) write its result into slot i of a
// caller-owned slice — that is what keeps the merged output
// deterministic regardless of scheduling.
//
// The first error cancels the context handed to the remaining fn calls
// and is returned after all workers drain. When the parent context
// itself is dead, its own error (ctx.Err()) wins over whichever
// per-item error happened to be recorded first; callers map it to
// their typed sentinel. With workers <= 1 the loop degenerates to a
// plain sequential for loop on the caller's goroutine, which checks the
// parent context before every item.
func ForEach(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if n == 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		once     sync.Once
		firstErr error
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || wctx.Err() != nil {
					return
				}
				if err := fn(wctx, i); err != nil {
					once.Do(func() {
						firstErr = err
						cancel()
					})
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstErr
}
