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
	"repro/internal/storage"
)

// failingProvider is a StatProvider over an in-memory table whose first
// NumericStats call fails through fail; every later call answers from
// the table.
type failingProvider struct {
	t     *storage.Table
	calls atomic.Int32
	fail  func(ctx context.Context) error
}

func (p *failingProvider) NumericStats(ctx context.Context, attr string, _ CutOptions) ([]float64, engine.NumericSummary, error) {
	if p.calls.Add(1) == 1 {
		return nil, engine.NumericSummary{}, p.fail(ctx)
	}
	var x engine.NumericExtract
	err := engine.ExtractNumericUnder(&x, p.t, attr, bitvec.NewFull(p.t.NumRows()), engine.ScanOptions{Ctx: ctx})
	return x.Vals, x.Sum, err
}

func (p *failingProvider) CategoryStats(ctx context.Context, attr string) ([]string, []int, error) {
	return engine.CategoryCountsUnderOpts(p.t, attr, bitvec.NewFull(p.t.NumRows()), engine.ScanOptions{Ctx: ctx})
}

func (p *failingProvider) BoolStats(ctx context.Context, attr string) (int, int, error) {
	return engine.BoolCountsUnderOpts(p.t, attr, bitvec.NewFull(p.t.NumRows()), engine.ScanOptions{Ctx: ctx})
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

	p := &failingProvider{t: tbl, fail: fail}
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
