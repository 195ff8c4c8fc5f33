package colstore

import (
	"container/list"
	"context"
	"errors"
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
	// ahead marks an entry loaded ahead of demand (a Claim): the first
	// fetch that takes it reports the decode as its own, so a scan's
	// decode count does not depend on whether a hint beat it to a chunk.
	ahead bool
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

// Budget returns the cache's byte budget (<= 0: unbounded).
func (c *ChunkCache) Budget() int64 { return c.budget }

// Get returns the payload cached under (owner, ci, k), loading it via
// load on a miss. Stores and the remote shard clients all come through
// here, which is how they share one budget. owner is compared by identity. ctx governs the
// wait: a waiter whose ctx is done abandons the flight with a named
// cancellation error without disturbing the load, and a loader whose
// own load is cancelled hands the slot off so waiting goroutines (or
// the next touch) retry cleanly instead of inheriting the canceller's
// fate. load runs under the caller's context — it is the caller's job
// to capture ctx in it. The returned bool reports a cache hit: the
// payload existed or another fetch was already loading it. The first
// fetch of a payload loaded ahead of demand (Claim) is no hit — that
// decode was made for it.
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
			c.mu.Lock()
			first := e.ahead
			e.ahead = false
			c.mu.Unlock()
			return e.p, !first, nil
		}
		el := c.claimLocked(key)
		c.mu.Unlock()

		// Decode outside the lock: loads are the expensive part and must not
		// serialize fetches of different chunks.
		p, err := load()
		c.settle(el, p, err)
		if err != nil {
			return nil, false, err
		}
		return p, false, nil
	}
}

// claimLocked inserts a loading entry for key at the front of the LRU
// and counts the miss. Caller holds c.mu and has checked key is absent.
func (c *ChunkCache) claimLocked(key chunkKey) *list.Element {
	el := c.order.PushFront(&cacheEntry{key: key, ready: make(chan struct{})})
	c.byKey[key] = el
	c.misses++
	return el
}

// settle finishes the flight of a claimed entry and wakes its waiters.
// A payload is cached (evicting LRU entries to honor the budget) unless
// its source closed mid-flight. Failed loads are not cached: the entry
// is dropped so a later touch retries, and a cancelled load
// additionally marks the flight for retry so waiters re-arm instead of
// inheriting the canceller's error.
func (c *ChunkCache) settle(el *list.Element, p *storage.ChunkPayload, err error) {
	e := el.Value.(*cacheEntry)
	c.mu.Lock()
	if err != nil {
		e.err = err
		e.retry = obsv.IsCancellation(err)
	} else {
		e.p = p
		e.bytes = p.MemBytes()
	}
	if err != nil || e.dropped {
		if el2, ok := c.byKey[e.key]; ok && el2 == el {
			c.order.Remove(el)
			delete(c.byKey, e.key)
		}
	} else {
		c.used += e.bytes
		c.evictLocked()
	}
	c.mu.Unlock()
	close(e.ready)
}

// Claim is a batch of loading slots one loader reserved together (see
// ChunkCache.Claim): Ks lists the claimed chunks in order.
type Claim struct {
	c   *ChunkCache
	Ks  []int
	els []*list.Element
}

// Claim reserves a loading slot for each chunk of ks (column ci of
// owner) that is neither resident nor already loading, in order, up to
// limit slots — the multi-chunk counterpart of Get's miss path, for a
// source that loads a window of chunks in one round trip. Concurrent
// Gets of a claimed chunk join its flight exactly as they join a Get's.
// The caller must settle every claimed slot, through Fill for each
// loaded payload and then Finish.
func (c *ChunkCache) Claim(owner any, ci int, ks []int, limit int) *Claim {
	cl := &Claim{c: c}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, k := range ks {
		if len(cl.Ks) == limit {
			break
		}
		key := chunkKey{src: owner, ci: ci, k: k}
		if _, ok := c.byKey[key]; ok {
			continue
		}
		el := c.claimLocked(key)
		el.Value.(*cacheEntry).ahead = true
		cl.Ks = append(cl.Ks, k)
		cl.els = append(cl.els, el)
	}
	return cl
}

// Fill publishes the payload of the claim's i-th chunk (Ks[i]).
func (cl *Claim) Fill(i int, p *storage.ChunkPayload) {
	cl.c.settle(cl.els[i], p, nil)
	cl.els[i] = nil
}

// Finish fails every slot Fill has not published with err (a nil err is
// a loader bug and fails them all the same), so a cancelled batch
// re-arms each slot it claimed and waiters retry under their own
// contexts.
func (cl *Claim) Finish(err error) {
	if err == nil {
		err = errors.New("colstore: chunk claim finished without a payload")
	}
	for i, el := range cl.els {
		if el != nil {
			cl.c.settle(el, nil, err)
			cl.els[i] = nil
		}
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
