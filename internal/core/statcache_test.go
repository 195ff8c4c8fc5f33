package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/query"
)

// failingProvider is a StatProvider over an in-memory table whose first
// full-selection extraction fails through fail; every other call
// answers from the table.
type failingProvider struct {
	StatProvider
	calls atomic.Int32
	fail  func(ctx context.Context) error
}

func (p *failingProvider) Extract(ctx context.Context, xs []*engine.NumericExtract, attrs []string, sel *bitvec.Vector) error {
	if sel.Count() == sel.Len() && p.calls.Add(1) == 1 {
		return p.fail(ctx)
	}
	return p.StatProvider.Extract(ctx, xs, attrs, sel)
}

func renderMaps(r *Result) string {
	var b strings.Builder
	for _, m := range r.Maps {
		b.WriteString(m.String())
	}
	return b.String()
}

// testMemoRecovers runs a no-predicate exploration whose first numeric
// statistic fails under ctx, then the same exploration under a live
// context: the memo must not have kept the failure, so the second run
// recomputes and answers like a Cartographer that never failed.
func testMemoRecovers(t *testing.T, ctx context.Context, fail func(ctx context.Context) error, wantErr func(error) bool) {
	t.Helper()
	tbl := datagen.Census(3000, 4) // one numeric column: age
	opts := DefaultOptions()
	opts.Parallelism = 1
	ref, err := NewCartographer(tbl, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Explore(query.New("census"))
	if err != nil {
		t.Fatal(err)
	}

	p := &failingProvider{StatProvider: NewTableProvider(tbl, 1), fail: fail}
	cart, err := NewCartographerWith(tbl, opts, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cart.ExploreCtx(ctx, query.New("census")); !wantErr(err) {
		t.Fatalf("first exploration: got %v", err)
	}
	got, err := cart.ExploreCtx(context.Background(), query.New("census"))
	if err != nil {
		t.Fatalf("exploration after a failed first touch: %v", err)
	}
	if calls := p.calls.Load(); calls != 2 {
		t.Errorf("provider called %d times, want 2 (the failure must not be memoized)", calls)
	}
	if renderMaps(got) != renderMaps(want) {
		t.Errorf("maps after recovery differ:\n got: %s\nwant: %s", renderMaps(got), renderMaps(want))
	}
	if _, err := cart.ExploreCtx(context.Background(), query.New("census")); err != nil {
		t.Fatal(err)
	}
	if calls := p.calls.Load(); calls != 2 {
		t.Errorf("provider called %d times after a repeat, want 2 (answers are memoized)", calls)
	}
}

// TestStatCacheDoesNotMemoizeCancellation: a first touch cancelled while
// the provider works must not poison the attribute for later callers.
func TestStatCacheDoesNotMemoizeCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fail := func(ctx context.Context) error {
		cancel()
		<-ctx.Done()
		return ctx.Err()
	}
	testMemoRecovers(t, ctx, fail, func(err error) bool { return errors.Is(err, context.Canceled) })
}

// TestStatCacheDoesNotMemoizeErrors: a provider's transient failure (a
// remote shard that did not answer) fails that exploration only.
func TestStatCacheDoesNotMemoizeErrors(t *testing.T) {
	transient := errors.New("shard unavailable")
	fail := func(context.Context) error { return transient }
	testMemoRecovers(t, context.Background(), fail, func(err error) bool { return errors.Is(err, transient) })
}

// TestMemoBoundedUnderManyCutOptions: views under 50 distinct SPLITS
// values leave the memo holding at most two cut-option sets — the
// Cartographer's own, whose answers stay, and the latest other — and
// each view answers as a Cartographer of its own under its options.
func TestMemoBoundedUnderManyCutOptions(t *testing.T) {
	tbl := datagen.Census(2000, 3)
	opts := DefaultOptions()
	opts.Parallelism = 1
	cart, err := NewCartographer(tbl, opts)
	if err != nil {
		t.Fatal(err)
	}
	q := query.New("census")
	if _, err := cart.Explore(q); err != nil {
		t.Fatal(err)
	}
	for k := 3; k < 53; k++ {
		o := opts
		o.Cut.Splits = k
		v, err := cart.With(o)
		if err != nil {
			t.Fatal(err)
		}
		got, err := v.Explore(q)
		if err != nil {
			t.Fatal(err)
		}
		if k%10 == 0 {
			own, err := NewCartographer(tbl, o)
			if err != nil {
				t.Fatal(err)
			}
			want, err := own.Explore(q)
			if err != nil {
				t.Fatal(err)
			}
			if renderMaps(got) != renderMaps(want) {
				t.Errorf("SPLITS %d: view answers\n%s\nwant\n%s", k, renderMaps(got), renderMaps(want))
			}
		}
		sets := map[CutOptions]bool{}
		cart.stats.mu.Lock()
		for key := range cart.stats.cuts {
			sets[key.opts] = true
		}
		cart.stats.mu.Unlock()
		if len(sets) > 2 || !sets[opts.Cut] || !sets[o.Cut] {
			t.Fatalf("after SPLITS %d the memo holds %d cut-option sets %v, want the own and the latest", k, len(sets), sets)
		}
	}
}

// TestWithKeepsParallelism: a view shares the stat provider its
// Cartographer's Parallelism sized, so it refuses another, as it
// refuses options that do not validate; the same options are the
// Cartographer itself.
func TestWithKeepsParallelism(t *testing.T) {
	cart, err := NewCartographer(datagen.Census(200, 1), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if v, err := cart.With(cart.Options()); v != cart || err != nil {
		t.Fatalf("With(own options) = %p, %v; want the Cartographer", v, err)
	}
	o := cart.Options()
	o.Parallelism = 3
	if _, err := cart.With(o); err == nil {
		t.Error("With accepted another Parallelism")
	}
	o = cart.Options()
	o.MaxRegions = 1
	if _, err := cart.With(o); err == nil {
		t.Error("With accepted MaxRegions 1")
	}
}

// TestViewsConcurrentShareMemo: views under different cut options
// explore one Cartographer at once, taking turns at the memo's slot for
// other options, and each answers as a Cartographer of its own would.
func TestViewsConcurrentShareMemo(t *testing.T) {
	tbl := datagen.Census(2000, 5)
	q := query.New("census")
	opts := DefaultOptions()
	opts.Parallelism = 2
	variants := []Options{opts, opts, opts, opts}
	variants[1].Cut.Splits = 3
	variants[2].Cut.Numeric = CutVariance
	variants[3].MaxMaps = 2
	want := make([]string, len(variants))
	for i, o := range variants {
		own, err := NewCartographer(tbl, o)
		if err != nil {
			t.Fatal(err)
		}
		r, err := own.Explore(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = renderMaps(r)
	}
	cart, err := NewCartographer(tbl, opts)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 6 {
				i := (g + k) % len(variants)
				v, err := cart.With(variants[i])
				if err != nil {
					t.Error(err)
					return
				}
				r, err := v.Explore(q)
				if err != nil {
					t.Error(err)
					return
				}
				if got := renderMaps(r); got != want[i] {
					t.Errorf("variant %d: view answers\n%s\nwant\n%s", i, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
