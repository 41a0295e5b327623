package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestGateAdmitsUpToCapacity(t *testing.T) {
	g := newGate(2, 0, time.Second)
	ctx := context.Background()
	if err := g.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := g.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	// Full, no queue: immediate shed.
	if err := g.Acquire(ctx); !errors.Is(err, ErrShed) {
		t.Fatalf("err = %v, want ErrShed", err)
	}
	g.Release()
	if err := g.Acquire(ctx); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func TestGateQueueTimesOut(t *testing.T) {
	g := newGate(1, 1, 20*time.Millisecond)
	ctx := context.Background()
	if err := g.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := g.Acquire(ctx); !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("err = %v, want ErrQueueTimeout", err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Errorf("timed out after %v, want ≥ maxWait", d)
	}
}

func TestGateContextCancelWhileQueued(t *testing.T) {
	g := newGate(1, 1, time.Minute)
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- g.Acquire(ctx) }()
	time.Sleep(5 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The abandoned waiter must not hold a queue slot.
	g.Release()
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatalf("after abandon: %v", err)
	}
}

func TestGateFIFOHandoff(t *testing.T) {
	g := newGate(1, 4, time.Minute)
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	const waiters = 3
	order := make(chan int, waiters)
	var started sync.WaitGroup
	for i := 0; i < waiters; i++ {
		started.Add(1)
		i := i
		go func() {
			// Stagger enqueueing so FIFO order is deterministic.
			time.Sleep(time.Duration(i*10) * time.Millisecond)
			started.Done()
			if err := g.Acquire(context.Background()); err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			order <- i
			g.Release()
		}()
	}
	started.Wait()
	time.Sleep(40 * time.Millisecond) // all three queued
	g.Release()
	for want := 0; want < waiters; want++ {
		select {
		case got := <-order:
			if got != want {
				t.Fatalf("admitted waiter %d before %d", got, want)
			}
		case <-time.After(time.Second):
			t.Fatalf("waiter %d never admitted", want)
		}
	}
}
