package session

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/obsv"
	"repro/internal/query"
)

// mapsText renders the part of a result an answer is made of.
func mapsText(r *core.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s base=%d\n", r.Input, r.BaseCount)
	for _, m := range r.Maps {
		b.WriteString(m.String())
	}
	return b.String()
}

func ageBand(lo int) query.Query {
	return query.New("census", query.NewRange("age", float64(lo), float64(lo+30)))
}

// TestResultCacheSingleFlight: K concurrent identical misses run the
// pipeline exactly once, and every caller gets the same result.
func TestResultCacheSingleFlight(t *testing.T) {
	cart, err := core.NewCartographer(datagen.Census(5000, 1), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// What one exploration scans, on a cartographer of its own.
	ref, err := core.NewCartographer(cart.Table(), cart.Options())
	if err != nil {
		t.Fatal(err)
	}
	q := ageBand(20)
	if _, err := ref.Explore(q); err != nil {
		t.Fatal(err)
	}

	const k = 8
	c := NewResultCache()
	started, release := make(chan struct{}), make(chan struct{})
	var computes atomic.Int32
	compute := func() (*core.Result, error) {
		if computes.Add(1) == 1 {
			close(started)
		}
		<-release
		return cart.Explore(q)
	}
	results := make([]*core.Result, k)
	var wg, calling sync.WaitGroup
	get := func(i int) {
		defer wg.Done()
		calling.Done()
		res, _, err := c.Get(context.Background(), cart.Options(), q, compute)
		if err != nil {
			t.Error(err)
		}
		results[i] = res
	}
	wg.Add(k)
	calling.Add(k)
	go get(0)
	<-started // the leader is computing: everyone below joins its flight
	for i := 1; i < k; i++ {
		go get(i)
	}
	calling.Wait()
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("pipeline ran %d times for %d identical lookups", n, k)
	}
	if got, want := cart.ScanStats(), ref.ScanStats(); got != want {
		t.Fatalf("scan work of %d lookups = %+v, want one exploration's %+v", k, got, want)
	}
	for i, res := range results {
		if res != results[0] {
			t.Fatalf("caller %d got a different *Result", i)
		}
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits+st.Coalesced != k-1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits+coalesced", st, k-1)
	}
}

// TestResultCacheCancelledLeaderHandsOff: a leader cancelled by its own
// context caches nothing and does not fail the callers waiting on it —
// one of them recomputes under its own context.
func TestResultCacheCancelledLeaderHandsOff(t *testing.T) {
	s := newSession(t)
	c, opts, q := s.results, s.cart.Options(), ageBand(25)
	leaderCtx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.Get(leaderCtx, opts, q, func() (*core.Result, error) {
			close(started)
			<-leaderCtx.Done()
			return nil, obsv.Cancelled(leaderCtx, "test.leader")
		})
		leaderErr <- err
	}()
	<-started

	const followers = 4
	var computes atomic.Int32
	var wg, calling sync.WaitGroup
	wg.Add(followers)
	calling.Add(followers)
	for i := 0; i < followers; i++ {
		go func() {
			defer wg.Done()
			calling.Done()
			res, _, err := c.Get(context.Background(), opts, q, func() (*core.Result, error) {
				computes.Add(1)
				return s.cart.Explore(q)
			})
			if err != nil || res == nil || res.Input.String() != q.String() {
				t.Errorf("follower of a cancelled leader: res=%v err=%v", res, err)
			}
		}()
	}
	calling.Wait()
	cancel()
	wg.Wait()
	if err := <-leaderErr; !obsv.IsCancellation(err) {
		t.Fatalf("leader err = %v, want its cancellation", err)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("followers recomputed %d times, want exactly one new leader", n)
	}
	if !c.Contains(opts, q) {
		t.Fatal("the new leader's result was not cached")
	}
}

// TestResultCacheCancelledWaiterLeavesFlight: a waiter whose own context
// ends gives up alone; the flight completes and is cached.
func TestResultCacheCancelledWaiterLeavesFlight(t *testing.T) {
	s := newSession(t)
	c, opts, q := s.results, s.cart.Options(), ageBand(30)
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Get(context.Background(), opts, q, func() (*core.Result, error) {
			close(started)
			<-release
			return s.cart.Explore(q)
		})
		done <- err
	}()
	<-started
	wctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.Get(wctx, opts, q, func() (*core.Result, error) {
		t.Error("a waiter must not compute while the flight is live")
		return nil, nil
	})
	if !obsv.IsCancellation(err) {
		t.Fatalf("cancelled waiter err = %v", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, cached, err := c.Get(context.Background(), opts, q, func() (*core.Result, error) {
		return nil, errors.New("recomputed a cached result")
	}); err != nil || !cached {
		t.Fatalf("flight result not cached: cached=%v err=%v", cached, err)
	}
}

// TestResultCacheErrorNotCached: a failed exploration caches nothing
// and the next lookup recomputes.
func TestResultCacheErrorNotCached(t *testing.T) {
	s := newSession(t)
	c, opts, q := s.results, s.cart.Options(), ageBand(35)
	boom := errors.New("boom")
	if _, _, err := c.Get(context.Background(), opts, q, func() (*core.Result, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Contains(opts, q) || c.Stats().Entries != 0 {
		t.Fatal("a failed exploration left an entry behind")
	}
	res, cached, err := c.Get(context.Background(), opts, q, func() (*core.Result, error) { return s.cart.Explore(q) })
	if err != nil || cached || res == nil {
		t.Fatalf("retry after an error: cached=%v err=%v", cached, err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 misses, 1 entry", st)
	}
}

// TestResultCacheKeyedByOptions: the same query under different pipeline
// options is a different entry.
func TestResultCacheKeyedByOptions(t *testing.T) {
	s := newSession(t)
	c, q := s.results, ageBand(20)
	two := s.cart.Options()
	two.MaxMaps = 2
	for _, opts := range []core.Options{s.cart.Options(), two} {
		cart, err := core.NewCartographer(s.cart.Table(), opts)
		if err != nil {
			t.Fatal(err)
		}
		res, cached, err := c.Get(context.Background(), opts, q, func() (*core.Result, error) { return cart.Explore(q) })
		if err != nil || cached {
			t.Fatalf("MaxMaps=%d: cached=%v err=%v", opts.MaxMaps, cached, err)
		}
		if len(res.Maps) > opts.MaxMaps {
			t.Fatalf("MaxMaps=%d answered with %d maps", opts.MaxMaps, len(res.Maps))
		}
	}
}

// TestResultCacheEvictionHonorsBudget: under a budget of a few results,
// concurrent lookups over more queries than fit never exceed it, evict,
// and every answer — hit, joined flight or recomputation — is the
// complete result of the query asked.
func TestResultCacheEvictionHonorsBudget(t *testing.T) {
	cart, err := core.NewCartographer(datagen.Census(5000, 1), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const nq = 12
	queries := make([]query.Query, nq)
	want := make([]string, nq)
	var maxBytes int64
	for i := range queries {
		queries[i] = ageBand(17 + 3*i)
		res, err := cart.Explore(queries[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = mapsText(res)
		maxBytes = max(maxBytes, resultBytes(res))
	}
	budget := 3 * maxBytes
	c := newResultCache(budget)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				for k := 0; k < nq; k++ {
					i := (k*(g+1) + round) % nq
					res, _, err := c.Get(context.Background(), cart.Options(), queries[i], func() (*core.Result, error) {
						return cart.Explore(queries[i])
					})
					if err != nil {
						t.Error(err)
						return
					}
					if got := mapsText(res); got != want[i] {
						t.Errorf("query %d answered with\n%s\nwant\n%s", i, got, want[i])
						return
					}
					if st := c.Stats(); st.Bytes > budget {
						t.Errorf("cache holds %d bytes, budget %d", st.Bytes, budget)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("%d queries through a 3-result budget evicted nothing: %+v", nq, st)
	}
	if st.Hits+st.Coalesced+st.Misses != 4*5*nq {
		t.Fatalf("lookups do not add up: %+v", st)
	}
}

// TestResultBytesCountsRegionBitmaps: the size estimate is at least the
// region bitmaps the result's maps keep, each counted once.
func TestResultBytesCountsRegionBitmaps(t *testing.T) {
	s := newSession(t)
	n, err := s.Explore(query.New("census"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[*core.Map]bool{}
	var bitmaps int64
	for _, maps := range [][]*core.Map{n.Result.Maps, n.Result.Candidates} {
		for _, m := range maps {
			if !seen[m] {
				seen[m] = true
				bitmaps += int64(len(m.Regions)) * int64((s.cart.Table().NumRows()+63)/64*8)
			}
		}
	}
	got := resultBytes(n.Result)
	if got < bitmaps || got > 2*bitmaps {
		t.Fatalf("resultBytes = %d, region bitmaps alone = %d", got, bitmaps)
	}
	if st := s.results.Stats(); st.Bytes != got {
		t.Fatalf("cache accounts %d bytes for its one result, estimate %d", st.Bytes, got)
	}
}

// TestSessionsShareResults: sessions over one cache serve each other's
// explorations and prefetches; sessions with private caches do not.
func TestSessionsShareResults(t *testing.T) {
	a := newSession(t)
	b := NewWithCache(a.cart, nil, a.results)
	na, err := a.Explore(ageBand(20))
	if err != nil {
		t.Fatal(err)
	}
	a.Prefetch(2)
	a.Wait()
	nb, err := b.Explore(ageBand(20))
	if err != nil {
		t.Fatal(err)
	}
	if !nb.Cached || nb.Result != na.Result {
		t.Fatal("second session recomputed a result the shared cache holds")
	}
	misses := a.results.Stats().Misses
	b.Prefetch(2) // already warmed by a's prefetch: no goroutine, no work
	b.Wait()
	if d, err := b.DrillDown(0, 0); err != nil || !d.Cached {
		t.Fatalf("drill into a region another session prefetched: cached=%v err=%v", d != nil && d.Cached, err)
	}
	if got := a.results.Stats().Misses; got != misses {
		t.Fatalf("shared prefetch + drill ran %d more pipelines", got-misses)
	}
	private := New(a.cart)
	if n, err := private.Explore(ageBand(20)); err != nil || n.Cached {
		t.Fatalf("a standalone session must not see another cache: cached=%v err=%v", n != nil && n.Cached, err)
	}
}

// TestResultCachePanickingLeaderFreesSlot: a pipeline panic travels to
// its caller and leaves no entry for later lookups to hang on.
func TestResultCachePanickingLeaderFreesSlot(t *testing.T) {
	s := newSession(t)
	c, opts, q := s.results, s.cart.Options(), ageBand(40)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the leader's panic was swallowed")
			}
		}()
		_, _, _ = c.Get(context.Background(), opts, q, func() (*core.Result, error) { panic("boom") })
	}()
	if c.Contains(opts, q) {
		t.Fatal("a panicked flight left its entry behind")
	}
	if _, cached, err := c.Get(context.Background(), opts, q, func() (*core.Result, error) { return s.cart.Explore(q) }); err != nil || cached {
		t.Fatalf("lookup after a panicked flight: cached=%v err=%v", cached, err)
	}
}
