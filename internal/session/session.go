// Package session implements exploration sessions: the drill-down tree a
// user walks while "answering queries with queries" (Figure 1), the
// result cache sessions share (see ResultCache), and the anticipative
// computation of Section 5.1 (precomputing the maps of regions the user
// is likely to open next during idle time).
package session

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/obsv"
	"repro/internal/query"
)

// ErrBadDrill marks a drill-down the session cannot take: no exploration
// yet, or a map or region index out of range. Every other DrillDown
// error is a failure of the exploration itself.
var ErrBadDrill = errors.New("session: bad drill-down")

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

// Session is a stateful exploration over one table. It is safe for
// concurrent use.
type Session struct {
	mu      sync.Mutex
	cart    *core.Cartographer
	nodes   []*Node
	current int
	// results caches whole explorations by query text: private to a
	// standalone session, shared across sessions when a server owns it.
	results *ResultCache
	// totals, when set, receives the ledger of every prefetch: the
	// lifetime bill of the server that owns the session.
	totals *obsv.Ledger
	// interest holds the decayed per-attribute weights behind
	// personalized ranking (see preference.go).
	interest map[string]float64
	// prefetch bookkeeping
	prefetching sync.WaitGroup
}

// New creates an empty session over the cartographer's table, with a
// result cache of its own.
func New(cart *core.Cartographer) *Session {
	return NewWithCache(cart, NewResultCache(), nil)
}

// NewWithCache creates a session that reads and fills results — the
// cache a server shares across its sessions and stateless explorations,
// so none of them recomputes a map another already holds — and adds
// each prefetch's bill to totals (nil keeps no totals). Every user of
// one cache must explore the same table on the same Cartographer.
func NewWithCache(cart *core.Cartographer, results *ResultCache, totals *obsv.Ledger) *Session {
	return &Session{cart: cart, current: -1, results: results, totals: totals}
}

// exploreLocked runs (or serves from cache) an exploration of q, whose
// canonical text is key, and appends a node. Caller holds s.mu.
func (s *Session) exploreLocked(ctx context.Context, key string, q query.Query, base *bitvec.Vector, parent int) (*Node, error) {
	res, cached, err := s.resultFor(ctx, key, q, base)
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

// resultFor serves q's result from the result cache under key, q's
// canonical text, computing it (or joining a computation already in
// flight, a prefetch included) on a miss. A nil base explores q from
// the table, as a stateless exploration does; otherwise base is Eval(q)
// already in hand — a parent region's bitmap — and the pipeline starts
// from a copy of it with no base scan. Failed and cancelled
// explorations cache nothing.
func (s *Session) resultFor(ctx context.Context, key string, q query.Query, base *bitvec.Vector) (*core.Result, bool, error) {
	return s.results.Get(ctx, key, func() (*core.Result, error) {
		if base == nil {
			return s.cart.ExploreCtx(ctx, q)
		}
		return s.cart.ExploreSelCtx(ctx, q, base.Clone())
	})
}

// Explore starts a new exploration root for q.
func (s *Session) Explore(q query.Query) (*Node, error) {
	return s.ExploreCtx(context.Background(), q)
}

// ExploreCtx is Explore with a request context: when ctx carries a
// trace span, the whole pipeline records into it (see
// core.Cartographer.ExploreCtx).
func (s *Session) ExploreCtx(ctx context.Context, q query.Query) (*Node, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.exploreLocked(ctx, q.String(), q, nil, -1)
}

// DrillDown explores region regionIdx of map mapIdx of the current
// node's result — the user "submitting one of the queries for further
// analysis". The region's rows are already in hand (the map's
// assignment holds exactly Eval of the region's query), so the drill
// runs no base scan. A bad index, or no exploration yet, returns an
// error wrapping ErrBadDrill.
func (s *Session) DrillDown(mapIdx, regionIdx int) (*Node, error) {
	return s.DrillDownCtx(context.Background(), mapIdx, regionIdx)
}

// DrillDownCtx is DrillDown with a request context (see ExploreCtx).
func (s *Session) DrillDownCtx(ctx context.Context, mapIdx, regionIdx int) (*Node, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, err := s.currentLocked()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadDrill, err)
	}
	if mapIdx < 0 || mapIdx >= len(cur.Result.Maps) {
		return nil, fmt.Errorf("%w: map index %d out of range (%d maps)", ErrBadDrill, mapIdx, len(cur.Result.Maps))
	}
	m := cur.Result.Maps[mapIdx]
	if regionIdx < 0 || regionIdx >= len(m.Regions) {
		return nil, fmt.Errorf("%w: region index %d out of range (%d regions)", ErrBadDrill, regionIdx, len(m.Regions))
	}
	s.recordInterest(m.Attrs)
	return s.exploreLocked(ctx, m.RegionText(regionIdx), m.Regions[regionIdx].Query, m.Assignment().RegionBits(regionIdx), cur.ID)
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

// PredCacheStats returns (0, 0).
//
// Deprecated: sessions keep no predicate cache; a drill starts from its
// parent region's bitmap. Kept one release for existing callers.
func (s *Session) PredCacheStats() (hits, misses int) { return 0, 0 }

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
		for ri, r := range m.Regions {
			if limit <= 0 {
				return
			}
			if r.Count == 0 {
				continue
			}
			limit--
			key := m.RegionText(ri)
			if s.results.Contains(key) {
				continue
			}
			q, base := r.Query, m.Assignment().RegionBits(ri)
			s.prefetching.Add(1)
			go func() {
				defer s.prefetching.Done()
				// A prefetch is no request's work: it bills a ledger of its
				// own, added to the totals once it finishes. Best-effort: an
				// error caches nothing and is dropped.
				led := new(obsv.Ledger)
				_, _, _ = s.resultFor(obsv.WithLedger(context.Background(), led), key, q, base)
				s.totals.Add(led.Snapshot())
			}()
		}
	}
}

// Wait blocks until all in-flight prefetches complete.
func (s *Session) Wait() { s.prefetching.Wait() }
