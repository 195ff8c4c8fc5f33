package core

import (
	"context"
	"errors"
	"strings"
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
