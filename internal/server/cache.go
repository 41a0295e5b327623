package server

import (
	"container/list"
	"context"
	"sync"

	"aggcavsat/internal/obsv"
)

// cacheKey identifies one answer: the query fingerprint (FNV-1a over
// the normalized SQL, core.Fingerprint64), the instance's constraint
// fingerprint (mode + DC set + schema keys), and the instance version
// (bumped on every attach). Any change to data or constraints moves the
// version or the constraint fingerprint, so stale answers can never be
// served. This layer saves the whole solve for repeated statements.
type cacheKey struct {
	queryFP      string
	constraintFP string
	version      uint64
	// dataVersion is the content fingerprint of the tenant's backing
	// columnar snapshot (0 when the tenant was CSV-loaded or built in
	// memory). version alone already separates attach generations; this
	// field additionally ties cached answers to the snapshot bytes they
	// were computed over.
	dataVersion uint64
	// planner is the tenant's routing policy ("auto", "force-sat",
	// "force-rewrite"). Routes produce identical answers, but the key
	// still separates them so a re-attach under a different policy (or
	// two tenants differing only in policy) can never serve an answer
	// computed under the other one — route provenance (QueryResponse.
	// Route) stays truthful.
	planner string
}

// resultCache is a mutex-guarded LRU of finished answers with
// singleflight coalescing: concurrent requests for the same key wait
// for the one in-flight solve instead of stampeding the engine.
type resultCache struct {
	mu      sync.Mutex
	entries map[cacheKey]*list.Element
	order   *list.List // front = most recent
	max     int

	flights map[cacheKey]*flight

	hits      *obsv.Counter
	misses    *obsv.Counter
	coalesced *obsv.Counter
}

type cacheEntry struct {
	key cacheKey
	val *QueryResponse
}

// flight is one in-progress solve other requests may join.
type flight struct {
	done chan struct{}
	val  *QueryResponse
	err  error
}

// newResultCache builds a cache bounded to max entries (0 disables
// caching but keeps coalescing).
func newResultCache(max int) *resultCache {
	return &resultCache{
		entries: map[cacheKey]*list.Element{},
		order:   list.New(),
		max:     max,
		flights: map[cacheKey]*flight{},
	}
}

// wire attaches the hit/miss/coalesce counters.
func (c *resultCache) wire(hits, misses, coalesced *obsv.Counter) {
	c.hits = hits
	c.misses = misses
	c.coalesced = coalesced
}

// Do returns the cached answer for key, or joins the in-flight solve
// for it, or runs solve and caches the outcome. The bool reports
// whether the answer was served without running solve in this request
// (a cache hit or a coalesced wait). Errors are never cached: the next
// request retries. A joiner whose context expires stops waiting and
// returns ctx.Err() — the leader's solve continues for the others.
func (c *resultCache) Do(ctx context.Context, key cacheKey, solve func() (*QueryResponse, error)) (*QueryResponse, bool, error) {
	c.mu.Lock()
	if elem, ok := c.entries[key]; ok {
		c.order.MoveToFront(elem)
		val := elem.Value.(*cacheEntry).val
		c.mu.Unlock()
		inc(c.hits)
		return val, true, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		inc(c.coalesced)
		select {
		case <-f.done:
			return f.val, true, f.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()
	inc(c.misses)

	f.val, f.err = solve()
	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil && c.max > 0 {
		c.insertLocked(key, f.val)
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, false, f.err
}

// insertLocked adds the entry and evicts the LRU tail past capacity.
func (c *resultCache) insertLocked(key cacheKey, val *QueryResponse) {
	if elem, ok := c.entries[key]; ok {
		elem.Value.(*cacheEntry).val = val
		c.order.MoveToFront(elem)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, val: val})
	for len(c.entries) > c.max {
		tail := c.order.Back()
		c.order.Remove(tail)
		delete(c.entries, tail.Value.(*cacheEntry).key)
	}
}

// Len returns the number of cached answers.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// inc bumps a counter when wired.
func inc(c *obsv.Counter) {
	if c != nil {
		c.Inc()
	}
}
