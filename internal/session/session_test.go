package session

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/obsv"
	"repro/internal/query"
	"repro/internal/storage"
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
	if _, err := s.DrillDown(0, 0); !errors.Is(err, ErrBadDrill) {
		t.Fatalf("drill-down before explore: err %v, want ErrBadDrill", err)
	}
	if _, err := s.Explore(query.New("census")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DrillDown(99, 0); !errors.Is(err, ErrBadDrill) {
		t.Fatalf("bad map index: err %v, want ErrBadDrill", err)
	}
	if _, err := s.DrillDown(0, -1); !errors.Is(err, ErrBadDrill) {
		t.Fatalf("bad region index: err %v, want ErrBadDrill", err)
	}
	if _, err := s.Node(42); err == nil {
		t.Fatal("bad node id")
	}
}

// TestSessionDrillDownMatchesRequery: a drill starts from the parent
// region's bitmap — no predicate of its query is scanned again — and
// answers exactly what exploring the region's query from scratch does.
func TestSessionDrillDownMatchesRequery(t *testing.T) {
	plain := datagen.Census(5000, 1)
	cols := make([]storage.Column, plain.NumCols())
	for i := range cols {
		cols[i] = plain.Column(i)
	}
	ck, err := storage.ComputeChunking(plain, 256)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := storage.NewChunkedTable("census", plain.Schema(), cols, ck)
	if err != nil {
		t.Fatal(err)
	}
	cart, err := core.NewCartographer(tbl, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := New(cart)
	root, err := s.Explore(query.New("census", query.NewRange("age", 20, 60)))
	if err != nil {
		t.Fatal(err)
	}
	// The last region: region 0's bitmap would not tell regions apart.
	last := len(root.Result.Maps[0].Regions) - 1
	led := new(obsv.Ledger)
	node, err := s.DrillDownCtx(obsv.WithLedger(context.Background(), led), 0, last)
	if err != nil {
		t.Fatal(err)
	}
	sn := led.Snapshot()
	if verdicts := sn.ChunksScanned + sn.ChunksPruned + sn.ChunksFull; node.Cached || verdicts != 0 {
		t.Errorf("drill: cached=%v, %d chunk verdicts; want a computed drill with no base scan", node.Cached, verdicts)
	}
	want, err := cart.Explore(node.Query)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderMaps(node.Result.Maps), renderMaps(want.Maps); got != want {
		t.Errorf("drill from the region bitmap differs from re-querying the region:\n got: %s\nwant: %s", got, want)
	}
}

func renderMaps(maps []*core.Map) string {
	out := ""
	for _, m := range maps {
		out += m.String()
	}
	return out
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
	// exploring the same query again must hit the cache
	led := new(obsv.Ledger)
	n2, err := s.ExploreCtx(obsv.WithLedger(context.Background(), led), query.New("census"))
	if err != nil {
		t.Fatal(err)
	}
	if st := s.results.Stats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("repeat exploration: stats = %+v, want 1 hit, 1 miss, 1 entry", st)
	}
	if !n2.Cached || n2.Result != n1.Result {
		t.Fatal("repeat exploration must be served the cached result")
	}
	if sn := led.Snapshot().ScanSnapshot; sn != (obsv.ScanSnapshot{}) {
		t.Fatalf("a cache hit must not scan: %+v", sn)
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
	for mi, m := range cur.Result.Maps {
		for ri, r := range m.Regions {
			if !s.results.Contains(r.Query.String()) {
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
