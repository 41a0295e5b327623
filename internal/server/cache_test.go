package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"aggcavsat/internal/obsv"
)

func ck(q string, version uint64) cacheKey {
	return cacheKey{queryFP: q, version: version}
}

func TestCacheHitAndMiss(t *testing.T) {
	c := newResultCache(1 << 20)
	ctx := context.Background()
	want := &QueryResponse{Digest: "d1"}
	got, served, err := c.Do(ctx, ck("q1", 1), func() (*QueryResponse, error) { return want, nil })
	if err != nil || served || got != want {
		t.Fatalf("miss: got %v served=%v err=%v", got, served, err)
	}
	got, served, err = c.Do(ctx, ck("q1", 1), func() (*QueryResponse, error) {
		t.Fatal("solve ran on a hit")
		return nil, nil
	})
	if err != nil || !served || got != want {
		t.Fatalf("hit: got %v served=%v err=%v", got, served, err)
	}
	// A new instance version is a different key.
	ran := false
	_, served, _ = c.Do(ctx, ck("q1", 2), func() (*QueryResponse, error) {
		ran = true
		return &QueryResponse{}, nil
	})
	if !ran || served {
		t.Error("version bump served a stale answer")
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := newResultCache(1 << 20)
	ctx := context.Background()
	boom := errors.New("boom")
	if _, _, err := c.Do(ctx, ck("q", 1), func() (*QueryResponse, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if c.Len() != 0 {
		t.Fatalf("error cached: len = %d", c.Len())
	}
	ran := false
	c.Do(ctx, ck("q", 1), func() (*QueryResponse, error) {
		ran = true
		return &QueryResponse{}, nil
	})
	if !ran {
		t.Error("retry after error did not solve")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Room for two of these (equally sized) answers.
	c := newResultCache(2 * responseBytes(&QueryResponse{}))
	ctx := context.Background()
	solve := func() (*QueryResponse, error) { return &QueryResponse{}, nil }
	c.Do(ctx, ck("a", 1), solve)
	c.Do(ctx, ck("b", 1), solve)
	c.Do(ctx, ck("a", 1), solve) // touch a: b becomes LRU
	c.Do(ctx, ck("c", 1), solve) // evicts b
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	_, served, _ := c.Do(ctx, ck("a", 1), solve)
	if !served {
		t.Error("recently-touched entry evicted")
	}
	ran := false
	c.Do(ctx, ck("b", 1), func() (*QueryResponse, error) {
		ran = true
		return &QueryResponse{}, nil
	})
	if !ran {
		t.Error("evicted entry still served")
	}
}

func TestCacheDisabledStillCoalesces(t *testing.T) {
	c := newResultCache(0)
	ctx := context.Background()
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	var solves atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Do(ctx, ck("q", 1), func() (*QueryResponse, error) {
				solves.Add(1)
				started <- struct{}{}
				<-release
				return &QueryResponse{}, nil
			})
		}()
	}
	<-started
	close(release)
	wg.Wait()
	if n := solves.Load(); n < 1 || n > 4 {
		t.Fatalf("solves = %d", n)
	}
	if c.Len() != 0 {
		t.Fatalf("disabled cache stored %d entries", c.Len())
	}
	// Next call must solve again: nothing was cached.
	ran := false
	c.Do(ctx, ck("q", 1), func() (*QueryResponse, error) {
		ran = true
		return &QueryResponse{}, nil
	})
	if !ran {
		t.Error("disabled cache served an entry")
	}
}

func TestCacheCoalesceSharesLeaderAnswer(t *testing.T) {
	c := newResultCache(1 << 20)
	reg := obsv.NewRegistry()
	c.wire(reg.Counter(MetricCacheHit), reg.Counter(MetricCacheMiss), reg.Counter(MetricCoalesced), nil)
	ctx := context.Background()
	release := make(chan struct{})
	leaderIn := make(chan struct{})
	want := &QueryResponse{Digest: "shared"}
	var solves atomic.Int64

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Do(ctx, ck("q", 1), func() (*QueryResponse, error) {
			solves.Add(1)
			close(leaderIn)
			<-release
			return want, nil
		})
	}()
	<-leaderIn

	const followers = 5
	results := make([]*QueryResponse, followers)
	servedFlags := make([]bool, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, served, err := c.Do(ctx, ck("q", 1), func() (*QueryResponse, error) {
				return nil, fmt.Errorf("follower %d solved", i)
			})
			if err != nil {
				t.Errorf("follower %d: %v", i, err)
				return
			}
			results[i], servedFlags[i] = got, served
		}(i)
	}
	// Followers either join the leader's flight or, when they arrive
	// after it lands, hit the cached entry — both must serve the
	// leader's answer without solving. Only a hit reports one: a
	// joined flight is counted as coalesced.
	close(release)
	wg.Wait()

	if n := solves.Load(); n != 1 {
		t.Fatalf("solves = %d, want 1", n)
	}
	var hits int64
	for i := 0; i < followers; i++ {
		if results[i] != want {
			t.Errorf("follower %d: got %v", i, results[i])
		}
		if servedFlags[i] {
			hits++
		}
	}
	if got := reg.Counter(MetricCacheHit).Value(); got != hits {
		t.Errorf("cache hits counted %d, Do reported %d", got, hits)
	}
	if got := reg.Counter(MetricCoalesced).Value(); got != followers-hits {
		t.Errorf("coalesced counted %d, want the %d followers Do reported as no hit", got, followers-hits)
	}
}

func TestCacheCoalesceContextCancel(t *testing.T) {
	c := newResultCache(1 << 20)
	release := make(chan struct{})
	leaderIn := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Do(context.Background(), ck("q", 1), func() (*QueryResponse, error) {
			close(leaderIn)
			<-release
			return &QueryResponse{}, nil
		})
	}()
	<-leaderIn

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.Do(ctx, ck("q", 1), func() (*QueryResponse, error) { return nil, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(release)
	wg.Wait()
}

// sized returns a response whose encoding is exactly n bytes.
func sized(t *testing.T, n int64) *QueryResponse {
	t.Helper()
	r := &QueryResponse{}
	r.Digest = strings.Repeat("x", int(n-responseBytes(r)))
	if got := responseBytes(r); got != n {
		t.Fatalf("sized response: %d bytes, want %d", got, n)
	}
	return r
}

// TestCacheEvictsByBytes: the budget counts encoded bytes, not
// entries: one large answer evicts several small ones, least recently
// used first, and the gauge follows the bytes held.
func TestCacheEvictsByBytes(t *testing.T) {
	c := newResultCache(1000)
	held := obsv.NewRegistry().Gauge(MetricCacheBytes)
	c.wire(nil, nil, nil, held)
	ctx := context.Background()
	for _, q := range []string{"a", "b", "c", "d"} {
		c.Do(ctx, ck(q, 1), func() (*QueryResponse, error) { return sized(t, 200), nil })
	}
	if c.Len() != 4 || c.bytes != 800 || held.Value() != 800 {
		t.Fatalf("4 small answers: len %d, bytes %d, gauge %d", c.Len(), c.bytes, held.Value())
	}
	c.Do(ctx, ck("a", 1), nil) // touch a: b is now least recently used
	c.Do(ctx, ck("big", 1), func() (*QueryResponse, error) { return sized(t, 500), nil })
	// 800 + 500 > 1000: b and c go, a (touched), d and big stay.
	if c.Len() != 3 || c.bytes != 900 || held.Value() != 900 {
		t.Fatalf("after the large answer: len %d, bytes %d, gauge %d", c.Len(), c.bytes, held.Value())
	}
	for q, cached := range map[string]bool{"a": true, "b": false, "c": false, "d": true, "big": true} {
		if _, ok := c.entries[ck(q, 1)]; ok != cached {
			t.Errorf("%s: cached = %v, want %v", q, ok, cached)
		}
	}
}

// TestCacheOversizedNotCached: an answer larger than the whole budget
// is served to its request but never cached, and evicts nothing.
func TestCacheOversizedNotCached(t *testing.T) {
	c := newResultCache(1000)
	ctx := context.Background()
	c.Do(ctx, ck("small", 1), func() (*QueryResponse, error) { return sized(t, 300), nil })
	want := sized(t, 1001)
	got, served, err := c.Do(ctx, ck("huge", 1), func() (*QueryResponse, error) { return want, nil })
	if err != nil || served || got != want {
		t.Fatalf("oversized answer: got %p served=%v err=%v", got, served, err)
	}
	if c.Len() != 1 || c.bytes != 300 {
		t.Fatalf("oversized answer cached or evicted: len %d, bytes %d", c.Len(), c.bytes)
	}
	ran := false
	c.Do(ctx, ck("huge", 1), func() (*QueryResponse, error) {
		ran = true
		return want, nil
	})
	if !ran {
		t.Error("oversized answer served from the cache")
	}
}
