package core

import (
	"context"
	"errors"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/storage"
)

// StatProvider reads what CUT needs of one column under a selection:
// a numeric column's selected values, the category or boolean counts of
// the others, and the partition of the selected rows by a cut's
// predicates. Every CUT data read goes through it. Its answers must be
// exactly what a pass over the table gives — values in row order, exact
// counts, identical bitmaps — so that an exploration answers alike
// whoever computes them: a pass over the table (NewTableProvider), or a
// sharded store that asks each shard about its slice of the selection.
// sel has the table's length and is only read; ctx carries the caller's
// trace span, request ID and ledger into the work.
type StatProvider interface {
	// Extract fills each xs[i], as engine.ExtractNumericUnder does, with
	// the non-NULL values of numeric attribute attrs[i] under sel in row
	// order, the rows they came from and their summary: one call reads
	// every attribute a stage needs.
	Extract(ctx context.Context, xs []*engine.NumericExtract, attrs []string, sel *bitvec.Vector) error
	// Categories returns attr's dictionary and its per-code counts under
	// sel.
	Categories(ctx context.Context, attr string, sel *bitvec.Vector) (dict []string, counts []int, err error)
	// Bools returns attr's (false, true) tallies under sel.
	Bools(ctx context.Context, attr string, sel *bitvec.Vector) (falses, trues int, err error)
	// Partition returns one bitmap per predicate on attr: the rows of
	// sel it is the first to admit (see engine.PartitionBits).
	Partition(ctx context.Context, attr string, preds []query.Predicate, sel *bitvec.Vector) ([]*bitvec.Vector, error)
}

// NewTableProvider returns the StatProvider that answers with passes
// over t itself, partitioning on up to workers goroutines: what a
// Cartographer built without a provider uses.
func NewTableProvider(t *storage.Table, workers int) StatProvider {
	return tableProvider{t: t, workers: workers}
}

type tableProvider struct {
	t       *storage.Table
	workers int
}

func (p tableProvider) Extract(ctx context.Context, xs []*engine.NumericExtract, attrs []string, sel *bitvec.Vector) error {
	for i, x := range xs {
		if err := engine.ExtractNumericUnder(x, p.t, attrs[i], sel, engine.ScanOptions{Ctx: ctx}); err != nil {
			return err
		}
	}
	return nil
}

func (p tableProvider) Categories(ctx context.Context, attr string, sel *bitvec.Vector) ([]string, []int, error) {
	return engine.CategoryCountsUnderOpts(p.t, attr, sel, engine.ScanOptions{Ctx: ctx})
}

func (p tableProvider) Bools(ctx context.Context, attr string, sel *bitvec.Vector) (int, int, error) {
	return engine.BoolCountsUnderOpts(p.t, attr, sel, engine.ScanOptions{Ctx: ctx})
}

func (p tableProvider) Partition(ctx context.Context, attr string, preds []query.Predicate, sel *bitvec.Vector) ([]*bitvec.Vector, error) {
	return engine.PartitionBitsOpts(p.t, attr, preds, sel, engine.ScanOptions{Workers: p.workers, Ctx: ctx})
}

// statCache memoizes the CUT answer under the full selection (every row
// of the table), one entry per attribute and CutOptions: the predicates
// with the partition of the table's rows into their regions, or the
// *ErrDegenerate saying the attribute cannot be cut. Tables are
// immutable, so an answer never goes stale. The memo keeps the answers
// under own, the Cartographer's cut options, for its life, and those
// under the most recent other cut options (a WITH clause's) until
// another set arrives, so it stays bounded by the schema whatever cut
// options calls ask for. Answers are shared read-only across goroutines,
// repeated Explore calls, the Cartographer's views (With) and anytime
// rounds, so a repeated full exploration reads no column to build its
// candidates; selections that do not cover the whole table bypass the
// memo.
//
// No other failure is cached: a cancelled first touch, or a remote
// shard's transient error, must not poison the attribute, so the next
// caller recomputes under its own context.
type statCache struct {
	own CutOptions

	mu    sync.Mutex
	other CutOptions // the other cut options whose answers cuts holds
	cuts  map[cutKey]*cutMemo
}

type cutKey struct {
	attr string
	opts CutOptions
}

// cutMemo is one attribute's memoized answer. Its mutex single-flights
// concurrent first touches; done is set once the answer is final.
type cutMemo struct {
	mu    sync.Mutex
	done  bool
	preds []query.Predicate
	bits  []*bitvec.Vector
	err   error // nil or *ErrDegenerate
}

func newStatCache(own CutOptions) *statCache {
	return &statCache{own: own, cuts: map[cutKey]*cutMemo{}}
}

// cut returns attr's memoized answer under opts, running compute on the
// first touch and again after any failure that is not *ErrDegenerate.
// Cut options other than own and the current other ones drop the other
// ones' answers.
func (s *statCache) cut(attr string, opts CutOptions, compute func() ([]query.Predicate, []*bitvec.Vector, error)) ([]query.Predicate, []*bitvec.Vector, error) {
	key := cutKey{attr, opts}
	s.mu.Lock()
	if opts != s.own && opts != s.other {
		for k := range s.cuts {
			if k.opts == s.other {
				delete(s.cuts, k)
			}
		}
		s.other = opts
	}
	m := s.cuts[key]
	if m == nil {
		m = &cutMemo{}
		s.cuts[key] = m
	}
	s.mu.Unlock()

	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.done {
		preds, bits, err := compute()
		var deg *ErrDegenerate
		if err != nil && !errors.As(err, &deg) {
			return nil, nil, err
		}
		m.preds, m.bits, m.err, m.done = preds, bits, err, true
	}
	return m.preds, m.bits, m.err
}
