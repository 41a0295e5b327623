package server

import (
	"container/list"
	"context"
	"encoding/json"
	"math"
	"sync"

	"aggcavsat/internal/obsv"
)

// cacheKey identifies one answer: the query fingerprint (FNV-1a over
// the normalized SQL, core.Fingerprint64) and the tenant version. The
// registry assigns every attach a version unique across all tenants, and
// an attached tenant's constraints, snapshot and planner mode never
// change, so the version fixes everything but the statement: a
// re-attach moves it, and stale answers can never be served. This layer
// saves the whole solve for repeated statements.
type cacheKey struct {
	queryFP string
	version uint64
}

// resultCache is a mutex-guarded LRU of finished answers with
// singleflight coalescing: concurrent requests for the same key wait
// for the one in-flight solve instead of stampeding the engine. It is
// bounded by the encoded size of the answers it holds, since one
// grouped answer can be megabytes while another is a few hundred bytes.
type resultCache struct {
	mu      sync.Mutex
	entries map[cacheKey]*list.Element
	order   *list.List // front = most recent
	max     int64      // byte budget; 0 disables caching
	bytes   int64      // encoded bytes of the cached answers

	flights map[cacheKey]*flight

	hits      *obsv.Counter
	misses    *obsv.Counter
	coalesced *obsv.Counter
	held      *obsv.Gauge
}

type cacheEntry struct {
	key  cacheKey
	val  *QueryResponse
	size int64
}

// flight is one in-progress solve other requests may join.
type flight struct {
	done chan struct{}
	val  *QueryResponse
	err  error
}

// newResultCache builds a cache bounded to max encoded bytes (0
// disables caching but keeps coalescing).
func newResultCache(max int64) *resultCache {
	return &resultCache{
		entries: map[cacheKey]*list.Element{},
		order:   list.New(),
		max:     max,
		flights: map[cacheKey]*flight{},
	}
}

// wire attaches the hit/miss/coalesce counters and the bytes-held
// gauge.
func (c *resultCache) wire(hits, misses, coalesced *obsv.Counter, held *obsv.Gauge) {
	c.hits = hits
	c.misses = misses
	c.coalesced = coalesced
	c.held = held
}

// Do returns the cached answer for key, or joins the in-flight solve
// for it, or runs solve and caches the outcome. The bool reports a
// cache hit: a cache entry served the request. A request that joined
// the in-flight solve (counted as coalesced) shares the leader's
// answer but is not a hit. Errors are never cached: the next request
// retries. A joiner whose context expires stops waiting and returns
// ctx.Err() — the leader's solve continues for the others.
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
			return f.val, false, f.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()
	inc(c.misses)

	f.val, f.err = solve()
	var size int64
	if f.err == nil && c.max > 0 {
		size = responseBytes(f.val) // outside the lock: it encodes the answer
	}
	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil && c.max > 0 {
		c.insertLocked(key, f.val, size)
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, false, f.err
}

// insertLocked adds the entry and evicts from the LRU tail until the
// cached answers fit the byte budget. An answer larger than the whole
// budget is not cached (it was served all the same).
func (c *resultCache) insertLocked(key cacheKey, val *QueryResponse, size int64) {
	if size > c.max {
		return
	}
	if elem, ok := c.entries[key]; ok {
		e := elem.Value.(*cacheEntry)
		c.bytes += size - e.size
		e.val, e.size = val, size
		c.order.MoveToFront(elem)
	} else {
		c.entries[key] = c.order.PushFront(&cacheEntry{key: key, val: val, size: size})
		c.bytes += size
	}
	for c.bytes > c.max {
		tail := c.order.Back()
		e := tail.Value.(*cacheEntry)
		c.order.Remove(tail)
		delete(c.entries, e.key)
		c.bytes -= e.size
	}
	if c.held != nil {
		c.held.Set(c.bytes)
	}
}

// dropVersion evicts every answer computed against one tenant version.
// Versions are unique across tenants, and a replaced version is never
// requested again, so its answers would only hold budget.
func (c *resultCache) dropVersion(version uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for elem := c.order.Front(); elem != nil; {
		next := elem.Next()
		if e := elem.Value.(*cacheEntry); e.key.version == version {
			c.order.Remove(elem)
			delete(c.entries, e.key)
			c.bytes -= e.size
		}
		elem = next
	}
	if c.held != nil {
		c.held.Set(c.bytes)
	}
}

// responseBytes is the encoded size of an answer, as writeJSON sends
// it (before the per-request fields are stamped).
func responseBytes(r *QueryResponse) int64 {
	b, err := json.Marshal(r)
	if err != nil {
		return math.MaxInt64 // never cached
	}
	return int64(len(b)) + 1 // json.Encoder's newline
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
