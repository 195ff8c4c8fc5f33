package core

import (
	"context"
	"errors"
	"sync"

	"repro/internal/engine"
	"repro/internal/query"
)

// StatProvider supplies full-selection column statistics from a
// substrate that can compute them better than a whole-column pass — a
// sharded store reducing per-shard statistics, or a remote backend. A
// provider's answers must be exactly what the table-order computation
// would produce. The Cartographer consults it only on the first touch of
// an attribute under the full selection (see statCache).
type StatProvider interface {
	// NumericStats returns attr's non-NULL values in table row order, in
	// a fresh slice the caller may overwrite, with their summary. opts is
	// the cut the values serve; every strategy reads the same values, so
	// providers may ignore it. ctx carries the caller's trace span and
	// request ID into remote fan-outs.
	NumericStats(ctx context.Context, attr string, opts CutOptions) ([]float64, engine.NumericSummary, error)
	// CategoryStats returns attr's dictionary and per-code counts.
	CategoryStats(ctx context.Context, attr string) (dict []string, counts []int, err error)
	// BoolStats returns attr's (false, true) tallies.
	BoolStats(ctx context.Context, attr string) (falses, trues int, err error)
}

// statCache memoizes the CUT answer under the full selection (every row
// of the table), one entry per attribute: the predicates, or the
// *ErrDegenerate saying the attribute cannot be cut. Tables are
// immutable and a Cartographer's CutOptions never change, so an answer
// never goes stale and the memo is bounded by the schema. Answers are
// shared read-only across goroutines, repeated Explore calls and anytime
// rounds; selections that do not cover the whole table, or cuts under
// other options, bypass the memo.
//
// No other failure is cached: a cancelled first touch, or a remote
// shard's transient error, must not poison the attribute, so the next
// caller recomputes under its own context.
type statCache struct {
	opts     CutOptions
	provider StatProvider // nil: first touches scan the table

	mu   sync.Mutex
	cuts map[string]*cutMemo
}

// cutMemo is one attribute's memoized answer. Its mutex single-flights
// concurrent first touches; done is set once the answer is final.
type cutMemo struct {
	mu    sync.Mutex
	done  bool
	preds []query.Predicate
	err   error // nil or *ErrDegenerate
}

func newStatCache(opts CutOptions, sp StatProvider) *statCache {
	return &statCache{opts: opts, provider: sp, cuts: map[string]*cutMemo{}}
}

// cut returns attr's memoized answer, running compute on the first touch
// and again after any failure that is not *ErrDegenerate.
func (s *statCache) cut(attr string, compute func() ([]query.Predicate, error)) ([]query.Predicate, error) {
	s.mu.Lock()
	m := s.cuts[attr]
	if m == nil {
		m = &cutMemo{}
		s.cuts[attr] = m
	}
	s.mu.Unlock()

	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.done {
		preds, err := compute()
		var deg *ErrDegenerate
		if err != nil && !errors.As(err, &deg) {
			return nil, err
		}
		m.preds, m.err, m.done = preds, err, true
	}
	return m.preds, m.err
}
