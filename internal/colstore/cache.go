package colstore

import (
	"container/list"
	"context"
	"sync"

	"repro/internal/obsv"
	"repro/internal/storage"
)

// ChunkCache is the bounded, concurrency-safe decoded-chunk cache
// behind lazy stores: an LRU over (source, column, chunk) with a byte
// budget. One cache can be shared by several stores (a shard set shares
// one so its budget is global across shard files). Loads are
// single-flight per key — concurrent first touches of one chunk decode
// it exactly once — and eviction only drops the cache's reference:
// callers already holding a payload keep it until they let go, which is
// what makes a 1-chunk budget thrash-safe rather than incorrect.
type ChunkCache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	order  *list.List // front = most recently used
	byKey  map[chunkKey]*list.Element

	hits, misses, evictions int64
}

type chunkKey struct {
	src any // the owning source, compared by identity
	ci  int
	k   int
}

type cacheEntry struct {
	key   chunkKey
	p     *storage.ChunkPayload
	bytes int64
	ready chan struct{} // closed when p/err are set
	err   error
	// retry marks a flight whose loader was cancelled (its own context,
	// not the chunk's fault): waiters re-enter the cache and one of them
	// re-arms the slot as the new loader under its own context, so a
	// cancelled first toucher never poisons the chunk for everyone else.
	retry bool
	// dropped marks a loading entry whose source closed mid-flight: the
	// finished payload is handed to waiters but never cached.
	dropped bool
}

// NewChunkCache creates a cache with the given byte budget; budget <= 0
// means unbounded. The budget bounds cached decoded bytes, not bytes in
// flight: at least the most recently loaded chunk is always retained so
// a budget smaller than one chunk degenerates to "decode on every
// touch" rather than failing.
func NewChunkCache(budget int64) *ChunkCache {
	return &ChunkCache{budget: budget, order: list.New(), byKey: map[chunkKey]*list.Element{}}
}

// Contains reports whether (owner, ci, k) is resident or already
// loading, without touching the LRU order — the cheap pre-check of a
// prefetch, which must not promote entries it does not use.
func (c *ChunkCache) Contains(owner any, ci, k int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.byKey[chunkKey{src: owner, ci: ci, k: k}]
	return ok
}

// HasRoom reports whether approximately n more cached bytes would fit
// without evicting anything — the eviction-awareness test of a
// prefetch: speculative loads must never push out chunks the scan is
// still using, so a tight budget simply disables prefetching.
func (c *ChunkCache) HasRoom(n int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.budget <= 0 || c.used+n <= c.budget
}

// Get returns the payload cached under (owner, ci, k), loading it via
// load on a miss. Stores and the composite sources above them (shard
// sets caching remapped payloads) all come through here, which is how
// they share one budget. owner is compared by identity. ctx governs the
// wait: a waiter whose ctx is done abandons the flight with a named
// cancellation error without disturbing the load, and a loader whose
// own load is cancelled hands the slot off so waiting goroutines (or
// the next touch) retry cleanly instead of inheriting the canceller's
// fate. load runs under the caller's context — it is the caller's job
// to capture ctx in it. The returned bool reports a cache hit (the
// payload existed or another goroutine was already loading it).
func (c *ChunkCache) Get(ctx context.Context, owner any, ci, k int, load func() (*storage.ChunkPayload, error)) (*storage.ChunkPayload, bool, error) {
	key := chunkKey{src: owner, ci: ci, k: k}
	for {
		c.mu.Lock()
		if el, ok := c.byKey[key]; ok {
			e := el.Value.(*cacheEntry)
			c.order.MoveToFront(el)
			c.hits++
			c.mu.Unlock()
			select {
			case <-e.ready:
			case <-ctx.Done():
				// Abandon only this waiter: the flight (and its other
				// waiters) continue unharmed.
				return nil, false, obsv.Cancelled(ctx, "colstore.wait")
			}
			if e.retry {
				// The loader was cancelled before finishing. The slot was
				// re-armed (entry removed), so loop: the first waiter back
				// becomes the new loader under its own context.
				continue
			}
			if e.err != nil {
				return nil, false, e.err
			}
			return e.p, true, nil
		}
		e := &cacheEntry{key: key, ready: make(chan struct{})}
		el := c.order.PushFront(e)
		c.byKey[key] = el
		c.misses++
		c.mu.Unlock()

		// Decode outside the lock: loads are the expensive part and must not
		// serialize fetches of different chunks.
		p, err := load()

		c.mu.Lock()
		if err != nil {
			// Failed loads are not cached: drop the entry so a later touch
			// retries. Cancelled loads additionally mark the flight for
			// retry so waiters re-arm instead of inheriting the error.
			e.err = err
			e.retry = obsv.IsCancellation(err)
			if el2, ok := c.byKey[key]; ok && el2 == el {
				c.order.Remove(el)
				delete(c.byKey, key)
			}
			c.mu.Unlock()
			close(e.ready)
			return nil, false, err
		}
		e.p = p
		e.bytes = p.MemBytes()
		if e.dropped {
			// The source closed while this load was in flight: serve the
			// waiters but leave nothing cached under the dead source.
			if el2, ok := c.byKey[key]; ok && el2 == el {
				c.order.Remove(el)
				delete(c.byKey, key)
			}
		} else {
			c.used += e.bytes
			c.evictLocked()
		}
		c.mu.Unlock()
		close(e.ready)
		return p, false, nil
	}
}

// evictLocked drops least-recently-used ready entries until the budget
// holds, always keeping at least one entry so a sub-chunk budget still
// makes forward progress. Caller holds c.mu.
func (c *ChunkCache) evictLocked() {
	if c.budget <= 0 {
		return
	}
	for c.used > c.budget && c.order.Len() > 1 {
		el := c.order.Back()
		// Never evict an entry still loading: its waiters hold the ready
		// channel. Walk forward past loading entries.
		for el != nil {
			if e := el.Value.(*cacheEntry); e.p != nil || e.err != nil {
				break
			}
			el = el.Prev()
		}
		if el == nil || el == c.order.Front() {
			return
		}
		e := el.Value.(*cacheEntry)
		c.order.Remove(el)
		delete(c.byKey, e.key)
		c.used -= e.bytes
		c.evictions++
	}
}

// CacheStats is a point-in-time snapshot of a ChunkCache.
type CacheStats struct {
	// Hits and Misses count lookups; a miss decodes the chunk.
	Hits, Misses int64
	// Evictions counts entries dropped to honor the byte budget.
	Evictions int64
	// Bytes is the decoded bytes currently cached; Entries the count.
	Bytes   int64
	Entries int
}

// Stats snapshots the cache counters.
func (c *ChunkCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Bytes: c.used, Entries: c.order.Len(),
	}
}

// Drop removes every ready entry owned by owner and marks its in-flight
// loads for discard — what a store, or a composite source (shard set),
// calls on Close so a shared cache does not pin payloads of a closed
// source.
func (c *ChunkCache) Drop(owner any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*cacheEntry)
		if e.key.src == owner {
			if e.p != nil || e.err != nil {
				c.order.Remove(el)
				delete(c.byKey, e.key)
				c.used -= e.bytes
			} else {
				// Still loading: mark it so the finishing load discards
				// itself instead of caching under a closed source.
				e.dropped = true
			}
		}
		el = next
	}
}
