package session

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/storage"
)

const (
	// predCacheBudgetBytes bounds the memory one session's predicate
	// bitmaps may pin. The entry capacity is derived from the table's
	// bitmap size, so the bound holds at any table scale instead of
	// growing linearly with rows.
	predCacheBudgetBytes = 8 << 20
	// predCacheMaxEntries caps the entry count on small tables, where
	// the byte budget alone would allow thousands of entries.
	predCacheMaxEntries = 64
)

// predCacheCapForRows derives the entry capacity for a table size from
// the byte budget: at least 1 (so drill-downs always share the parent's
// newest predicate), at most predCacheMaxEntries.
func predCacheCapForRows(rows int) int {
	bitmapBytes := rows/8 + 1
	c := predCacheBudgetBytes / bitmapBytes
	if c < 1 {
		return 1
	}
	if c > predCacheMaxEntries {
		return predCacheMaxEntries
	}
	return c
}

// predCacheCapForShards derives the entry capacity for a sharded table:
// entries are per (predicate, shard) — one shard's bitmap each — so the
// byte budget divides by the largest shard's bitmap, and the floor of
// one entry per shard keeps a whole predicate's bitmaps resident.
func predCacheCapForShards(layout ShardLayout) int {
	n := layout.NumShards()
	maxRows := 0
	for i := 0; i < n; i++ {
		if r := layout.ShardTable(i).NumRows(); r > maxRows {
			maxRows = r
		}
	}
	bitmapBytes := maxRows/8 + 1
	c := predCacheBudgetBytes / bitmapBytes
	if c < n {
		c = n
	}
	if c > predCacheMaxEntries*n {
		c = predCacheMaxEntries * n
	}
	return c
}

// predCache is a bounded LRU of per-predicate selection bitmaps, keyed
// by the predicate's canonical CQL rendering. Sessions assemble a
// query's base selection by ANDing cached predicate bitmaps, so a
// drill-down (parent query plus one new predicate) re-evaluates only the
// new predicate instead of rescanning the whole conjunction — the
// predicate-level counterpart of the whole-result cache.
//
// Cached vectors are read-only; callers AND them into their own scratch
// vectors. The cache is safe for concurrent use (explorations and
// anticipative prefetches share it).
type predCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List               // front = most recently used
	byKey map[string]*list.Element // value type: *predEntry

	hits, misses int
}

type predEntry struct {
	key  string
	bits *bitvec.Vector
}

func newPredCache(capacity int) *predCache {
	if capacity < 1 {
		capacity = 1
	}
	return &predCache{cap: capacity, order: list.New(), byKey: map[string]*list.Element{}}
}

// getOrCompute returns the cached bitmap for p over the whole table,
// evaluating and caching it on a miss. Misses scan with the given scan
// options (chunk-parallel on chunked tables, verdict counters shared
// with the session's Cartographer). The returned vector must be
// treated as read-only.
func (c *predCache) getOrCompute(t *storage.Table, p query.Predicate, opts engine.ScanOptions) (*bitvec.Vector, error) {
	return c.getOrComputeKeyed(p.String(), func() (*bitvec.Vector, error) { return engine.EvalPredicateOpts(t, p, opts) })
}

// getOrComputeShard is getOrCompute for one shard of a sharded table:
// the entry is keyed by (predicate, shard), so each shard's bitmap is
// computed against its own view, cached and evicted independently — the
// granularity a multi-backend deployment needs, where a shard's bitmap
// is only valid on the backend holding that shard. compute evaluates
// the predicate on a miss (remote shards consult their statistics plane
// before scanning).
func (c *predCache) getOrComputeShard(p query.Predicate, shard int, compute func() (*bitvec.Vector, error)) (*bitvec.Vector, error) {
	return c.getOrComputeKeyed(fmt.Sprintf("%d|%s", shard, p.String()), compute)
}

func (c *predCache) getOrComputeKeyed(key string, compute func() (*bitvec.Vector, error)) (*bitvec.Vector, error) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		bits := el.Value.(*predEntry).bits
		c.mu.Unlock()
		return bits, nil
	}
	c.misses++
	c.mu.Unlock()

	// Evaluate outside the lock: predicate scans are the expensive part
	// and must not serialize concurrent prefetches.
	bits, err := compute()
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		// A concurrent caller computed it first; keep theirs.
		c.order.MoveToFront(el)
		return el.Value.(*predEntry).bits, nil
	}
	c.byKey[key] = c.order.PushFront(&predEntry{key: key, bits: bits})
	if c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.byKey, last.Value.(*predEntry).key)
	}
	return bits, nil
}

// len returns the number of cached predicate bitmaps.
func (c *predCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// stats returns (hits, misses) so far.
func (c *predCache) stats() (int, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
