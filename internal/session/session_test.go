package session

import (
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/query"
)

func newSession(t testing.TB) *Session {
	t.Helper()
	tbl := datagen.Census(5000, 1)
	cart, err := core.NewCartographer(tbl, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return New(cart)
}

func TestSessionExploreAndCurrent(t *testing.T) {
	s := newSession(t)
	if _, err := s.Current(); err == nil {
		t.Fatal("empty session should have no current node")
	}
	n, err := s.Explore(query.New("census"))
	if err != nil {
		t.Fatal(err)
	}
	if n.ID != 0 || n.Parent != -1 {
		t.Fatalf("node = %+v", n)
	}
	if len(n.Result.Maps) == 0 {
		t.Fatal("no maps")
	}
	cur, err := s.Current()
	if err != nil || cur.ID != 0 {
		t.Fatal("current should be the root")
	}
}

func TestSessionDrillDownAndBack(t *testing.T) {
	s := newSession(t)
	root, err := s.Explore(query.New("census"))
	if err != nil {
		t.Fatal(err)
	}
	child, err := s.DrillDown(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if child.Parent != root.ID {
		t.Fatal("parent link wrong")
	}
	if child.Query.Equal(root.Query) {
		t.Fatal("drill-down should narrow the query")
	}
	// the root now lists the child
	r2, _ := s.Node(root.ID)
	if len(r2.Children) != 1 || r2.Children[0] != child.ID {
		t.Fatalf("children = %v", r2.Children)
	}
	back, err := s.Back()
	if err != nil || back.ID != root.ID {
		t.Fatal("Back should return to the root")
	}
	if _, err := s.Back(); err == nil {
		t.Fatal("Back at root should error")
	}
}

func TestSessionDrillDownValidation(t *testing.T) {
	s := newSession(t)
	if _, err := s.DrillDown(0, 0); err == nil {
		t.Fatal("drill-down before explore should error")
	}
	if _, err := s.Explore(query.New("census")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DrillDown(99, 0); err == nil {
		t.Fatal("bad map index")
	}
	if _, err := s.DrillDown(0, 99); err == nil {
		t.Fatal("bad region index")
	}
	if _, err := s.Node(42); err == nil {
		t.Fatal("bad node id")
	}
}

func TestSessionHistory(t *testing.T) {
	s := newSession(t)
	if _, err := s.Explore(query.New("census")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DrillDown(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DrillDown(0, 0); err != nil {
		t.Fatal(err)
	}
	h := s.History()
	if len(h) != 3 {
		t.Fatalf("history = %d nodes", len(h))
	}
	for i, n := range h {
		if n.ID != i {
			t.Fatal("history order wrong")
		}
	}
}

func TestSessionCacheHit(t *testing.T) {
	s := newSession(t)
	n1, err := s.Explore(query.New("census"))
	if err != nil {
		t.Fatal(err)
	}
	if n1.Cached {
		t.Fatal("first exploration cannot be a cache hit")
	}
	scans := s.cart.ScanStats()
	// exploring the same query again must hit the cache
	n2, err := s.Explore(query.New("census"))
	if err != nil {
		t.Fatal(err)
	}
	if st := s.results.Stats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("repeat exploration: stats = %+v, want 1 hit, 1 miss, 1 entry", st)
	}
	if !n2.Cached || n2.Result != n1.Result {
		t.Fatal("repeat exploration must be served the cached result")
	}
	if s.cart.ScanStats() != scans {
		t.Fatal("a cache hit must not scan")
	}
	if n2.ID == 0 {
		t.Fatal("repeat exploration still creates a node")
	}
}

func TestSessionPrefetchWarmsCache(t *testing.T) {
	s := newSession(t)
	if _, err := s.Explore(query.New("census")); err != nil {
		t.Fatal(err)
	}
	s.Prefetch(3)
	s.Wait()
	if st := s.results.Stats(); st.Entries != 4 || st.Misses != 4 {
		t.Fatalf("prefetch(3) after one explore: stats = %+v, want 4 entries, 4 misses", st)
	}
	// A second prefetch of the same regions finds them cached: no work.
	s.Prefetch(3)
	s.Wait()
	if st := s.results.Stats(); st.Entries != 4 || st.Misses != 4 {
		t.Fatalf("repeated prefetch recomputed: stats = %+v", st)
	}
	// drilling into a prefetched region must be a hit
	cur, _ := s.Current()
	opts := s.cart.Options()
	for mi, m := range cur.Result.Maps {
		for ri, r := range m.Regions {
			if !s.results.Contains(opts, r.Query) {
				continue
			}
			n, err := s.DrillDown(mi, ri)
			if err != nil {
				t.Fatal(err)
			}
			if st := s.results.Stats(); !n.Cached || st.Hits != 1 || st.Misses != 4 {
				t.Fatalf("drill-down into prefetched region should hit the cache: cached=%v stats=%+v", n.Cached, st)
			}
			return
		}
	}
	t.Fatal("no prefetched region found")
}

func TestSessionPrefetchBeforeExploreIsNoop(t *testing.T) {
	s := newSession(t)
	s.Prefetch(5)
	s.Wait()
	if st := s.results.Stats(); st.Entries != 0 || st.Misses != 0 {
		t.Fatal("prefetch on empty session should do nothing")
	}
}
