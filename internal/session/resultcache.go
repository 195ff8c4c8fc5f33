package session

import (
	"container/list"
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/obsv"
	"repro/internal/query"
)

// resultCacheBudgetBytes bounds the memory a ResultCache's results may
// pin. It is a constant, not a knob: entries are sized by the table
// (every region keeps a rows/8-byte bitmap), so the budget holds a few
// hundred maps of a million-row table and tens of thousands of a small
// one, and eviction only ever costs a recomputation.
const resultCacheBudgetBytes = 256 << 20

// ResultCache is the bounded, concurrency-safe cache of exploration
// results: an LRU over canonical statement texts (cql.Statement's
// String: a query's text, then its WITH clause) with a byte budget.
// Every user of one cache explores one table on one Cartographer, under
// its options unless the text's WITH clause says otherwise, and the
// table is immutable, so a result is a pure function of its key and
// entries never go stale. One cache serves every session and stateless
// exploration of a server; a standalone session owns a private one.
//
// Lookups are single-flight per key — concurrent identical misses run
// the pipeline once and every waiter receives the same *core.Result —
// following internal/colstore.ChunkCache: a leader cancelled by its own
// context caches nothing and re-arms the slot, so the first waiter back
// recomputes under its own context; any other failure fails the waiters
// of that flight and is likewise not cached. Cached results are shared
// and must be treated as read-only.
type ResultCache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	order  *list.List // front = most recently used
	byKey  map[string]*list.Element

	hits, misses, coalesced, evictions int64
}

type resultEntry struct {
	key   string
	res   *core.Result
	bytes int64
	ready chan struct{} // closed when res/err are set
	err   error
	// retry marks a flight whose leader was cancelled: waiters re-enter
	// the cache and one of them becomes the new leader.
	retry bool
}

// NewResultCache creates an empty cache with the fixed byte budget.
func NewResultCache() *ResultCache { return newResultCache(resultCacheBudgetBytes) }

func newResultCache(budget int64) *ResultCache {
	return &ResultCache{budget: budget, order: list.New(), byKey: map[string]*list.Element{}}
}

// Get returns the result of the statement whose canonical text is key,
// running compute on a miss. cached reports that this call ran no pipeline: the result was
// resident, or another caller's in-flight computation delivered it; the
// span ctx carries, if any, is then marked resultCached.
// compute runs under the caller's own context (capture it in the
// closure); ctx governs only this caller's wait on someone else's
// flight, which it abandons without disturbing the flight.
func (c *ResultCache) Get(ctx context.Context, key string, compute func() (*core.Result, error)) (res *core.Result, cached bool, err error) {
	for {
		c.mu.Lock()
		el, ok := c.byKey[key]
		if !ok {
			e := &resultEntry{key: key, ready: make(chan struct{})}
			el = c.order.PushFront(e)
			c.byKey[key] = el
			c.misses++
			c.mu.Unlock()
			// The pipeline runs outside the lock: explorations of
			// different queries must not serialize.
			res, err := c.lead(e, el, compute)
			return res, false, err
		}
		e := el.Value.(*resultEntry)
		c.order.MoveToFront(el)
		if e.res != nil {
			c.hits++
		} else {
			// In flight: wait for the leader without holding the lock.
			c.mu.Unlock()
			select {
			case <-e.ready:
			case <-ctx.Done():
				return nil, false, obsv.Cancelled(ctx, "session.resultwait")
			}
			if e.retry {
				continue
			}
			if e.err != nil {
				return nil, false, e.err
			}
			c.mu.Lock()
			c.coalesced++
		}
		c.mu.Unlock()
		obsv.SpanFrom(ctx).SetAttr("resultCached", true)
		return e.res, true, nil
	}
}

// lead runs a flight's computation and publishes the outcome to its
// waiters: a result is accounted and cached; an error removes the entry,
// and a cancellation additionally tells the waiters to retry. A panic
// in compute leaves err at its initial value on the way out, so the slot
// is re-armed for the waiters instead of hanging them.
func (c *ResultCache) lead(e *resultEntry, el *list.Element, compute func() (*core.Result, error)) (res *core.Result, err error) {
	err = context.Canceled
	defer func() {
		c.mu.Lock()
		if err != nil {
			e.err = err
			e.retry = obsv.IsCancellation(err)
			c.order.Remove(el)
			delete(c.byKey, e.key)
		} else {
			e.res = res
			e.bytes = resultBytes(res)
			c.used += e.bytes
			c.evictLocked()
		}
		c.mu.Unlock()
		close(e.ready)
	}()
	return compute()
}

// Contains reports whether the result of the statement whose canonical
// text is key is resident or being computed, without touching the LRU
// order — the pre-check of a prefetch, which must neither promote
// entries it does not use nor start a second computation of one in
// flight.
func (c *ResultCache) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.byKey[key]
	return ok
}

// evictLocked drops least-recently-used ready entries until the budget
// holds, always keeping the most recent one so a result larger than the
// whole budget is still served to its waiters. Entries still computing
// are skipped: their waiters hold the ready channel. Caller holds c.mu.
func (c *ResultCache) evictLocked() {
	for el := c.order.Back(); el != nil && c.used > c.budget; {
		prev := el.Prev()
		if e := el.Value.(*resultEntry); e.res != nil && el != c.order.Front() {
			c.order.Remove(el)
			delete(c.byKey, e.key)
			c.used -= e.bytes
			c.evictions++
		}
		el = prev
	}
}

// ResultCacheStats is a point-in-time snapshot of a ResultCache.
// It is the resultCache section of a server's /api/stats as is.
type ResultCacheStats struct {
	// Hits counts lookups answered by a resident result, Misses those
	// that ran the pipeline, Coalesced those answered by joining another
	// caller's computation: the three add up to the lookups.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	// Evictions counts results dropped to honor the byte budget.
	Evictions int64 `json:"evictions"`
	// Bytes is the estimated size of the resident results; Entries their
	// count (in-flight computations included).
	Bytes   int64 `json:"bytes"`
	Entries int   `json:"entries"`
}

// Stats snapshots the cache counters.
func (c *ResultCache) Stats() ResultCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ResultCacheStats{
		Hits: c.hits, Misses: c.misses, Coalesced: c.coalesced, Evictions: c.evictions,
		Bytes: c.used, Entries: c.order.Len(),
	}
}

// resultBytes estimates the memory a result pins. The region bitmaps
// each map keeps through its assignment dominate: 8 bytes per word of
// each bitmap's window, so a result over a narrow band of a clustered
// column is charged its span, a scattered one up to rows/8 bytes per
// region. Query texts and region records ride along, and so do the
// renderings a served result keeps (renderAllowance). Singleton
// clusters put the same *Map in Candidates and Maps, so maps are
// counted once by identity.
func resultBytes(r *core.Result) int64 {
	const perRegion = 128 // Region record, its query's predicates, counts
	seen := make(map[*core.Map]struct{}, len(r.Maps)+len(r.Candidates))
	n := 256 + renderAllowance(r)
	for _, maps := range [][]*core.Map{r.Maps, r.Candidates} {
		for _, m := range maps {
			if _, dup := seen[m]; dup {
				continue
			}
			seen[m] = struct{}{}
			n += 64
			a := m.Assignment()
			for ri := range m.Regions {
				n += perRegion + int64(len(m.Regions[ri].Query.Preds))*64
				if a != nil {
					_, words := a.RegionBits(ri).Window()
					n += int64(len(words)) * 8
				}
			}
		}
	}
	return n
}

// renderAllowance bounds what a result pins once it has been served:
// its ranked maps' region texts (core.Map.RegionText) and its memoized
// JSON body (core.Result.Rendered). It is counted up front, when the
// result enters the cache, because both are rendered later, by readers.
// JSON escapes a byte into at most six; the constants cover the keys,
// numbers and brackets around each value.
func renderAllowance(r *core.Result) int64 {
	text, names := textBound(r.Input)
	n := 256 + text + 5*names
	for _, f := range r.Flagged {
		n += 6*int64(len(f.Attr)+len(f.Reason)+3) + 3
	}
	for _, m := range r.Maps {
		n += 96
		for _, a := range m.Attrs {
			n += 6*int64(len(a)) + 3
		}
		for _, reg := range m.Regions {
			text, names := textBound(reg.Query)
			n += 16 + text + (text + 5*names + 96) // the text and its header, then its JSON
		}
	}
	return n
}

// textBound bounds the length of q's canonical text, and of the part of
// it that names the table and attributes or quotes values: the only
// bytes JSON may escape.
func textBound(q query.Query) (text, names int64) {
	names = int64(len(q.Table))
	text = int64(len("EXPLORE ? WHERE "))
	for _, p := range q.Preds {
		names += int64(len(p.Attr))
		text += 64 // " IN [", two numbers of at most 24 bytes, ", ", "]", " AND "
		for _, v := range p.Values {
			names += 2*int64(len(v)) + 2 // quoted, its quotes doubled
			text += 2                    // ", "
		}
	}
	return text + names, names
}
