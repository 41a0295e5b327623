package server

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"time"

	"aggcavsat/internal/obsv"
)

// Typed admission failures. Both map to HTTP 429 (the request never
// started solving), distinguished in metrics.
var (
	// ErrShed reports an admission queue at capacity: the request was
	// rejected immediately.
	ErrShed = errors.New("server: overloaded, queue full")
	// ErrQueueTimeout reports a request that waited its full queue-wait
	// allowance without a slot freeing up.
	ErrQueueTimeout = errors.New("server: overloaded, queue wait expired")
)

// gate is a counting semaphore with a bounded FIFO wait queue — the
// server's admission controller: each admitted request holds one of cap
// solve slots. At most maxQueue requests may wait for a slot; arrivals
// beyond that are shed immediately, and waiters that outlive maxWait
// (or their context) are shed late. Fairness is strict FIFO: a waiter
// is admitted only when every earlier waiter was admitted or gave up.
type gate struct {
	mu      sync.Mutex
	cap     int
	cur     int
	maxWait time.Duration

	maxQueue int
	// waiters holds one channel per queued request, FIFO; a grant
	// closes it.
	waiters *list.List

	// Gauges mirror the gate state into the metrics registry (nil-safe:
	// a gate can run unwired in tests).
	inflight *obsv.Gauge
	queued   *obsv.Gauge
}

// newGate builds a gate admitting capacity concurrent requests with at
// most maxQueue waiting requests, each waiting at most maxWait.
func newGate(capacity, maxQueue int, maxWait time.Duration) *gate {
	if capacity <= 0 {
		capacity = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &gate{
		cap:      capacity,
		maxWait:  maxWait,
		maxQueue: maxQueue,
		waiters:  list.New(),
	}
}

// wire attaches the in-flight and queue-depth gauges.
func (g *gate) wire(inflight, queued *obsv.Gauge) {
	g.inflight = inflight
	g.queued = queued
}

// Acquire claims a slot, waiting in FIFO order when the gate is full.
// It fails fast with ErrShed when the wait queue is at capacity,
// ErrQueueTimeout when maxWait elapses first, or ctx.Err() when the
// caller gives up.
func (g *gate) Acquire(ctx context.Context) error {
	g.mu.Lock()
	if g.cur < g.cap && g.waiters.Len() == 0 {
		g.cur++
		g.mu.Unlock()
		g.setGauges()
		return nil
	}
	if g.waiters.Len() >= g.maxQueue {
		g.mu.Unlock()
		return ErrShed
	}
	ready := make(chan struct{})
	elem := g.waiters.PushBack(ready)
	g.mu.Unlock()
	g.setGauges()

	var expire <-chan time.Time
	if g.maxWait > 0 {
		t := time.NewTimer(g.maxWait)
		defer t.Stop()
		expire = t.C
	}
	select {
	case <-ready:
		g.setGauges()
		return nil
	case <-expire:
		return g.abandon(elem, ready, ErrQueueTimeout)
	case <-ctx.Done():
		return g.abandon(elem, ready, ctx.Err())
	}
}

// abandon removes a waiter that gave up; if the slot was granted in the
// race window, the grant is forwarded instead of leaked.
func (g *gate) abandon(elem *list.Element, ready chan struct{}, cause error) error {
	g.mu.Lock()
	select {
	case <-ready:
		// Granted while we were giving up: keep the slot and succeed —
		// releasing here would over-free, dropping it would leak.
		g.mu.Unlock()
		g.setGauges()
		return nil
	default:
	}
	g.waiters.Remove(elem)
	g.grantLocked()
	g.mu.Unlock()
	g.setGauges()
	return cause
}

// Release returns a slot and hands it to the queue.
func (g *gate) Release() {
	g.mu.Lock()
	g.cur--
	g.grantLocked()
	g.mu.Unlock()
	g.setGauges()
}

// grantLocked admits queued waiters in FIFO order while capacity lasts.
func (g *gate) grantLocked() {
	for g.waiters.Len() > 0 && g.cur < g.cap {
		g.cur++
		close(g.waiters.Remove(g.waiters.Front()).(chan struct{}))
	}
}

// setGauges publishes the current state (outside g.mu; the values are
// re-read, so late writes converge).
func (g *gate) setGauges() {
	if g.inflight == nil {
		return
	}
	g.mu.Lock()
	cur, queued := int64(g.cur), int64(g.waiters.Len())
	g.mu.Unlock()
	g.inflight.Set(cur)
	g.queued.Set(queued)
}
