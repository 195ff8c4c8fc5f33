// Package session implements exploration sessions: the drill-down tree a
// user walks while "answering queries with queries" (Figure 1), the
// result cache sessions share (see ResultCache), and the anticipative
// computation of Section 5.1 (precomputing the maps of regions the user
// is likely to open next during idle time).
package session

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obsv"
	"repro/internal/par"
	"repro/internal/query"
	"repro/internal/storage"
)

// Node is one step of the exploration: a query and its ranked maps.
type Node struct {
	// ID identifies the node within its session.
	ID int
	// Parent is the id of the node this one was drilled down from, or
	// -1 for a root exploration.
	Parent int
	// Query is the explored query.
	Query query.Query
	// Result holds the ranked maps for Query. It may be shared with other
	// sessions through the result cache: read-only.
	Result *core.Result
	// Cached reports that the step that created this node ran no
	// pipeline: the result cache (or a computation already in flight)
	// supplied Result.
	Cached bool
	// Children lists nodes drilled down from this one.
	Children []int
}

// ShardLayout describes a sharded table to a session: the per-shard
// chunk-aware views and their row offsets in the combined table, plus
// the two shortcuts that spare a shard's predicate scan (see
// internal/shard.Set, which implements it). Sessions over a layout scan
// and cache predicate bitmaps per shard.
type ShardLayout interface {
	// NumShards returns the number of shards.
	NumShards() int
	// ShardTable returns shard i's view over the combined table's rows.
	ShardTable(i int) *storage.Table
	// ShardOffset returns shard i's first row in the combined table.
	ShardOffset(i int) int
	// ShardMayMatch judges from shard-level statistics alone: a false
	// answer proves predicate p matches no row of shard i, letting the
	// session skip the shard's predicate scan entirely — on memory-tiered
	// sets, without even opening the shard's file.
	ShardMayMatch(shard int, p query.Predicate) bool
	// RemotePredicateBits asks a shard served over the remote fabric for
	// p's selection where the shard lives: with ok=true the returned
	// bitmap IS shard i's selection under p, validated against the
	// server's own count, and no chunk crosses the wire even for a
	// non-empty predicate. ok=false (local shards, old servers) means
	// scan the view.
	RemotePredicateBits(ctx context.Context, shard int, p query.Predicate) (bm *bitvec.Vector, ok bool, err error)
}

// Session is a stateful exploration over one table. It is safe for
// concurrent use.
type Session struct {
	mu      sync.Mutex
	cart    *core.Cartographer
	nodes   []*Node
	current int
	// results caches whole explorations by (options, query): private to a
	// standalone session, shared across sessions when a server owns it.
	results *ResultCache
	// preds is the bounded LRU of per-predicate selection bitmaps: a
	// drill-down shares every predicate with its parent query, so its
	// base selection is assembled from cached bitmaps plus one new scan.
	// On sharded tables entries are keyed per (predicate, shard).
	preds *predCache
	// shards, when non-nil, fans base-selection assembly out per shard.
	shards ShardLayout
	// interest holds the decayed per-attribute weights behind
	// personalized ranking (see preference.go).
	interest map[string]float64
	// prefetch bookkeeping
	prefetching sync.WaitGroup
}

// New creates an empty session over the cartographer's table, with a
// result cache of its own.
func New(cart *core.Cartographer) *Session {
	return NewWithCache(cart, nil, NewResultCache())
}

// NewSharded creates a session over a sharded table: cart must explore
// the layout's combined table. Base selections are assembled shard by
// shard — predicate scans run concurrently across shards and their
// bitmaps are cached in a per-shard keyed LRU, so a drill-down
// re-scans only the new predicate, and only shard-locally.
func NewSharded(cart *core.Cartographer, layout ShardLayout) *Session {
	return NewWithCache(cart, layout, NewResultCache())
}

// NewWithCache creates a session that reads and fills results — the
// cache a server shares across its sessions and stateless explorations,
// so none of them recomputes a map another already holds. Every user of
// one cache must explore the same table. layout may be nil (unsharded).
func NewWithCache(cart *core.Cartographer, layout ShardLayout, results *ResultCache) *Session {
	s := &Session{cart: cart, current: -1, results: results, shards: layout}
	if layout != nil {
		s.preds = newPredCache(predCacheCapForShards(layout))
	} else {
		s.preds = newPredCache(predCacheCapForRows(cart.Table().NumRows()))
	}
	return s
}

// explore runs one exploration, assembling the base selection from the
// per-predicate bitmap cache. Safe without s.mu: the predicate cache
// has its own lock and the Cartographer is concurrency-safe.
func (s *Session) explore(ctx context.Context, q query.Query) (*core.Result, error) {
	t := s.cart.Table()
	if q.Table != "" && q.Table != t.Name() {
		// Let the Cartographer surface its canonical mismatch error.
		return s.cart.ExploreCtx(ctx, q)
	}
	// Cache misses scan with the cartographer's scan options, keeping
	// the chunk-parallel sharding of Explore and feeding its cumulative
	// verdict counters.
	bctx, sp := obsv.StartSpan(ctx, "base")
	sopts := s.cart.ScanOpts(bctx)
	if s.shards != nil {
		base, err := s.shardedBase(bctx, q, sopts)
		sp.End()
		if err != nil {
			return nil, err
		}
		return s.cart.ExploreSelCtx(ctx, q, base)
	}
	base := bitvec.NewFull(t.NumRows())
	for _, p := range q.Preds {
		if err := obsv.CheckCtx(bctx, "session.base"); err != nil {
			sp.End()
			return nil, err
		}
		bm, err := s.preds.getOrCompute(t, p, sopts)
		if err != nil {
			sp.End()
			return nil, err
		}
		base.And(bm)
		if !base.Any() {
			break
		}
	}
	sp.End()
	return s.cart.ExploreSelCtx(ctx, q, base)
}

// shardedBase assembles Eval(q) shard by shard: per shard, the cached
// (or freshly scanned) per-predicate bitmaps AND together into the
// shard's selection, and the shard selections blit into their row
// ranges of the combined bitmap. Shards fan out over up to workers
// goroutines; the assembled result is the exact concatenation, so it is
// identical at any shard count and parallelism.
func (s *Session) shardedBase(ctx context.Context, q query.Query, sopts engine.ScanOptions) (*bitvec.Vector, error) {
	n := s.shards.NumShards()
	// Divide the worker budget: shards are the outer parallel axis; any
	// leftover workers shard each predicate scan chunk-wise.
	workers := sopts.Workers
	inner := sopts
	inner.Workers = workers / n
	if inner.Workers < 1 {
		inner.Workers = 1
	}
	sels := make([]*bitvec.Vector, n)
	err := par.For(workers, n, func(i int) error {
		// Per-shard-work-item cancellation: a dead caller abandons the
		// remaining shard assemblies before their scans or RPCs start.
		if err := obsv.CheckCtx(ctx, "session.base"); err != nil {
			return err
		}
		sctx, ssp := obsv.StartSpan(ctx, fmt.Sprintf("shard %d base", i))
		defer ssp.End()
		sopts := inner
		sopts.Ctx = sctx
		view := s.shards.ShardTable(i)
		sel := bitvec.NewFull(view.NumRows())
		for _, p := range q.Preds {
			if err := obsv.CheckCtx(sctx, "session.base"); err != nil {
				return err
			}
			if !s.shards.ShardMayMatch(i, p) {
				// Manifest statistics prove the predicate is disjoint with
				// this shard: empty selection, no scan, no file open.
				sel.Zero()
				break
			}
			// On a miss, a remote shard's statistics plane is asked for the
			// bitmap first; a probe failure or ok=false falls through to the
			// ordinary scan (whose own error names the shard if it is really
			// down).
			bm, err := s.preds.getOrComputeShard(p, i, func() (*bitvec.Vector, error) {
				if bm, ok, err := s.shards.RemotePredicateBits(sctx, i, p); err == nil && ok {
					return bm, nil
				}
				return engine.EvalPredicateOpts(view, p, sopts)
			})
			if err != nil {
				return err
			}
			sel.And(bm)
			if !sel.Any() {
				break
			}
		}
		sels[i] = sel
		return nil
	})
	if err != nil {
		return nil, err
	}
	base := bitvec.New(s.cart.Table().NumRows())
	for i, sel := range sels {
		base.OrBlit(s.shards.ShardOffset(i), sel)
	}
	return base, nil
}

// exploreLocked runs (or serves from cache) an exploration and appends a
// node. Caller holds s.mu.
func (s *Session) exploreLocked(ctx context.Context, q query.Query, parent int) (*Node, error) {
	res, cached, err := s.resultFor(ctx, q)
	if err != nil {
		return nil, err
	}
	n := &Node{ID: len(s.nodes), Parent: parent, Query: q, Result: res, Cached: cached}
	s.nodes = append(s.nodes, n)
	if parent >= 0 {
		s.nodes[parent].Children = append(s.nodes[parent].Children, n.ID)
	}
	s.current = n.ID
	return n, nil
}

// resultFor serves q's result from the result cache, computing it (or
// joining a computation already in flight, a prefetch included) on a
// miss. Failed and cancelled explorations cache nothing.
func (s *Session) resultFor(ctx context.Context, q query.Query) (*core.Result, bool, error) {
	return s.results.Get(ctx, s.cart.Options(), q, func() (*core.Result, error) {
		return s.explore(ctx, q)
	})
}

// Explore starts a new exploration root for q.
func (s *Session) Explore(q query.Query) (*Node, error) {
	return s.ExploreCtx(context.Background(), q)
}

// ExploreCtx is Explore with a request context: when ctx carries a
// trace span, the whole pipeline — base assembly included — records
// into it (see core.Cartographer.ExploreCtx).
func (s *Session) ExploreCtx(ctx context.Context, q query.Query) (*Node, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.exploreLocked(ctx, q, -1)
}

// DrillDown explores region regionIdx of map mapIdx of the current
// node's result — the user "submitting one of the queries for further
// analysis".
func (s *Session) DrillDown(mapIdx, regionIdx int) (*Node, error) {
	return s.DrillDownCtx(context.Background(), mapIdx, regionIdx)
}

// DrillDownCtx is DrillDown with a request context (see ExploreCtx).
func (s *Session) DrillDownCtx(ctx context.Context, mapIdx, regionIdx int) (*Node, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, err := s.currentLocked()
	if err != nil {
		return nil, err
	}
	if mapIdx < 0 || mapIdx >= len(cur.Result.Maps) {
		return nil, fmt.Errorf("session: map index %d out of range (%d maps)", mapIdx, len(cur.Result.Maps))
	}
	m := cur.Result.Maps[mapIdx]
	if regionIdx < 0 || regionIdx >= len(m.Regions) {
		return nil, fmt.Errorf("session: region index %d out of range (%d regions)", regionIdx, len(m.Regions))
	}
	s.recordInterest(m.Attrs)
	return s.exploreLocked(ctx, m.Regions[regionIdx].Query, cur.ID)
}

// Back moves the cursor to the parent of the current node and returns it.
func (s *Session) Back() (*Node, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, err := s.currentLocked()
	if err != nil {
		return nil, err
	}
	if cur.Parent < 0 {
		return nil, fmt.Errorf("session: already at the root")
	}
	s.current = cur.Parent
	return s.nodes[s.current], nil
}

// Current returns the node the cursor is on.
func (s *Session) Current() (*Node, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.currentLocked()
}

func (s *Session) currentLocked() (*Node, error) {
	if s.current < 0 || s.current >= len(s.nodes) {
		return nil, fmt.Errorf("session: no exploration yet")
	}
	return s.nodes[s.current], nil
}

// Node returns the node with the given id.
func (s *Session) Node(id int) (*Node, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= len(s.nodes) {
		return nil, fmt.Errorf("session: no node %d", id)
	}
	return s.nodes[id], nil
}

// History returns every node in creation order.
func (s *Session) History() []*Node {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Node(nil), s.nodes...)
}

// PredCacheSize returns the number of cached per-predicate bitmaps.
func (s *Session) PredCacheSize() int { return s.preds.len() }

// PredCacheStats returns the predicate-bitmap cache's (hits, misses).
func (s *Session) PredCacheStats() (hits, misses int) { return s.preds.stats() }

// Prefetch warms the result cache with the explorations the user is
// most likely to ask for next: the first limit non-empty regions of the
// current node's top maps. Regions whose result is already cached, or
// being computed by anyone sharing the cache, cost nothing — no
// goroutine, no second computation; the rest run in background
// goroutines ("during the idle time between each query", Section 5.1).
// Prefetch returns immediately; Wait blocks until the warm-up finishes.
func (s *Session) Prefetch(limit int) {
	s.mu.Lock()
	cur, err := s.currentLocked()
	s.mu.Unlock()
	if err != nil {
		return
	}
	for _, m := range cur.Result.Maps {
		for _, r := range m.Regions {
			if limit <= 0 {
				return
			}
			if r.Count == 0 {
				continue
			}
			limit--
			if s.results.Contains(s.cart.Options(), r.Query) {
				continue
			}
			q := r.Query
			s.prefetching.Add(1)
			go func() {
				defer s.prefetching.Done()
				// Best-effort: an error caches nothing and is dropped.
				_, _, _ = s.resultFor(context.Background(), q)
			}()
		}
	}
}

// Wait blocks until all in-flight prefetches complete.
func (s *Session) Wait() { s.prefetching.Wait() }
