package shard

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/storage"
)

// CutKind names the statistic a CutRequest asks a shard for.
type CutKind uint8

const (
	// CutValues asks for numeric columns' selected non-NULL values in
	// row order, the rows they came from and their summary: any number
	// of columns under one selection.
	CutValues CutKind = 1 + iota
	// CutCategories asks for a string column's per-code counts, in the
	// dictionary every shard of the set holds.
	CutCategories
	// CutBools asks for a bool column's (false, true) tallies.
	CutBools
	// CutPartition asks for the partition of the selected rows of a
	// string or bool column by a cut's predicates: one bitmap each.
	CutPartition
	// CutSummary asks for the statistics of any number of columns of
	// any type under one selection: one Summary each.
	CutSummary
)

// SummaryBins is the number of equal-width bins a CutSummary counts a
// ranged numeric column into.
const SummaryBins = 64

// SummaryHist returns the empty histogram a CutSummary counts a column's
// finite values ranged [lo, hi] into: SummaryBins bins, or one when
// lo == hi.
func SummaryHist(lo, hi float64) (*stats.Histogram, error) {
	return stats.FixedHist(lo, hi, SummaryBins)
}

// CutRequest is one CUT read of one shard: a statistic of columns Cols
// under the shard's slice of the selection — one column, or for
// CutValues and CutSummary any number. Sel holds the selection's words
// from shard-local word W0 on; words outside it select nothing. A nil
// Sel selects every row of the shard.
type CutRequest struct {
	Kind CutKind
	Cols []int
	W0   int
	Sel  []uint64
	// Preds are a CutPartition's predicates, all on its column: In
	// predicates for a string column, BoolEq for a bool one.
	Preds []query.Predicate
	// Ranges, when non-nil, give a CutSummary of numeric columns one
	// range [lo, hi] per column, lo <= hi: each column's values are also
	// counted into the bins of SummaryHist(lo, hi).
	Ranges [][2]float64
}

// CutAnswer is a shard's answer to a CutRequest. Bitmaps cover the
// request's words: from W0 on, as many as the request's Sel — or all
// the shard's words when it had none. Only the fields of the request's
// kind are meaningful; the slices are reused by the next answer into
// the same value.
type CutAnswer struct {
	// W0 is the request's first word.
	W0 int
	// Values is CutValues' answer, one run per requested column.
	Values []ValueRun
	// Counts is CutCategories' answer, one count per dictionary code.
	Counts []int
	// Falses and Trues are CutBools' answer.
	Falses, Trues int
	// Bits is CutPartition's answer, one bitmap per predicate.
	Bits [][]uint64
	// Summaries is CutSummary's answer, one per requested column.
	Summaries []Summary
}

// Summary is one column's statistics in a CutSummary answer, over the
// selected rows. Count is the column's non-NULL selected rows whatever
// its type; the other fields are those of its type.
type Summary struct {
	Count int
	// Sum adds a numeric column's values in row order from +0, and Stats
	// holds their NaN count and extremes. NegInf and PosInf count its
	// −Inf and +Inf values, and Finite summarizes the others: their NaN
	// count and the extremes of the finite ones. Bins counts the finite
	// values into the request's range, when it gave one.
	Sum            float64
	Stats          engine.NumericSummary
	NegInf, PosInf int
	Finite         engine.NumericSummary
	Bins           []int
	// Counts are a string column's per-code counts, in the shard's
	// dictionary.
	Counts []int
	// Falses and Trues tally a bool column.
	Falses, Trues int
}

// ValueRun is one column's values in a CutValues answer: the values,
// the rows they came from (Vals[j] belongs to Present's j-th set bit)
// and their summary.
type ValueRun struct {
	Vals    []float64
	Present []uint64
	Sum     engine.NumericSummary
}

// extractPool recycles ComputeCut's extractions' present words. An
// answer's slices are its own, whoever fills it next: values are
// extracted into the answer's buffer, present words copied.
var extractPool = sync.Pool{New: func() any { return new(engine.NumericExtract) }}

// ComputeCut answers req over t, a shard's table, into a: the one
// computation behind every cut answer of a set, in process for a local
// shard (or an unaligned set's combined table) and on the shard server
// for a remote one. It validates what the request asks of t's schema.
func ComputeCut(ctx context.Context, t *storage.Table, req CutRequest, a *CutAnswer) error {
	if len(req.Cols) == 0 || !req.Kind.ManyColumns() && len(req.Cols) > 1 {
		return fmt.Errorf("shard: cut kind %d of %d columns", req.Kind, len(req.Cols))
	}
	if req.Ranges != nil && (req.Kind != CutSummary || len(req.Ranges) != len(req.Cols)) {
		return fmt.Errorf("shard: cut kind %d of %d columns with %d ranges", req.Kind, len(req.Cols), len(req.Ranges))
	}
	for c, ci := range req.Cols {
		if ci < 0 || ci >= t.NumCols() {
			return fmt.Errorf("shard: cut of column %d out of range", ci)
		}
		f := t.Schema().Field(ci)
		if !req.Kind.Fits(f.Type) {
			return fmt.Errorf("shard: cut kind %d does not apply to %v column %q", req.Kind, f.Type, f.Name)
		}
		if req.Ranges != nil && (!f.Type.IsNumeric() || !(req.Ranges[c][0] <= req.Ranges[c][1])) {
			return fmt.Errorf("shard: range %v of %v column %q", req.Ranges[c], f.Type, f.Name)
		}
	}
	// The selection is the request's words, read in place: every pass
	// below only reads it, and every bitmap it makes holds its window.
	var (
		sel *bitvec.Vector
		err error
	)
	if req.Sel == nil {
		sel = bitvec.NewFull(t.NumRows())
	} else if sel, err = bitvec.FromWindow(t.NumRows(), req.W0, req.Sel); err != nil {
		return fmt.Errorf("shard: cut selection: %w", err)
	}
	a.W0, _ = sel.Window()
	attr := t.Schema().Field(req.Cols[0]).Name
	opts := engine.ScanOptions{Ctx: ctx}
	switch req.Kind {
	case CutValues:
		a.Values = slices.Grow(a.Values[:0], len(req.Cols))[:len(req.Cols)]
		x := extractPool.Get().(*engine.NumericExtract)
		defer extractPool.Put(x)
		for c, ci := range req.Cols {
			// Into the answer's buffer, where a caller may have placed it.
			v := &a.Values[c]
			x.Vals = v.Vals[:0]
			err := engine.ExtractNumericUnder(x, t, t.Schema().Field(ci).Name, sel, opts)
			v.Vals, x.Vals = x.Vals, nil
			if err != nil {
				return err
			}
			_, present := x.Present.Window()
			v.Present = append(v.Present[:0], present...)
			v.Sum = x.Sum
		}
	case CutCategories:
		_, a.Counts, err = engine.CategoryCountsUnderOpts(t, attr, sel, opts)
	case CutBools:
		a.Falses, a.Trues, err = engine.BoolCountsUnderOpts(t, attr, sel, opts)
	case CutPartition:
		// Into the answer's words, where a caller may have placed them.
		_, words := sel.Window()
		a.Bits = slices.Grow(a.Bits[:0], len(req.Preds))[:len(req.Preds)]
		for i := range a.Bits {
			a.Bits[i] = slices.Grow(a.Bits[i][:0], len(words))[:len(words)]
			clear(a.Bits[i])
		}
		err = engine.PartitionBitsInto(a.Bits, t, attr, req.Preds, sel, opts)
	case CutSummary:
		a.Summaries = slices.Grow(a.Summaries[:0], len(req.Cols))[:len(req.Cols)]
		for c, ci := range req.Cols {
			var rng *[2]float64
			if req.Ranges != nil {
				rng = &req.Ranges[c]
			}
			if err := summarize(t, ci, sel, rng, opts, &a.Summaries[c]); err != nil {
				return err
			}
		}
	}
	return err
}

// summarize computes column ci's Summary under sel into s, counting a
// numeric column's values into the bins of rng when it is non-nil.
func summarize(t *storage.Table, ci int, sel *bitvec.Vector, rng *[2]float64, opts engine.ScanOptions, s *Summary) error {
	*s = Summary{}
	attr := t.Schema().Field(ci).Name
	var err error
	switch t.Schema().Field(ci).Type {
	case storage.String:
		if _, s.Counts, err = engine.CategoryCountsUnderOpts(t, attr, sel, opts); err == nil {
			for _, n := range s.Counts {
				s.Count += n
			}
		}
	case storage.Bool:
		s.Falses, s.Trues, err = engine.BoolCountsUnderOpts(t, attr, sel, opts)
		s.Count = s.Falses + s.Trues
	default:
		x := extractPool.Get().(*engine.NumericExtract)
		defer extractPool.Put(x)
		if err = engine.ExtractNumericUnder(x, t, attr, sel, opts); err != nil {
			return err
		}
		s.Count, s.Stats, s.Finite = len(x.Vals), x.Sum, engine.SummarizeNumeric(nil)
		for _, v := range x.Vals {
			s.Sum += v
			switch {
			case math.IsInf(v, -1):
				s.NegInf++
			case math.IsInf(v, 1):
				s.PosInf++
			default:
				s.Finite.Observe(v)
			}
		}
		if rng != nil {
			h, err := SummaryHist(rng[0], rng[1])
			if err != nil {
				return err
			}
			for _, v := range x.Vals {
				h.Observe(v)
			}
			s.Bins = h.Counts
		}
	}
	return err
}

// Fits reports whether a cut of kind k applies to a column of type typ.
func (k CutKind) Fits(typ storage.DataType) bool {
	switch k {
	case CutValues:
		return typ.IsNumeric()
	case CutCategories:
		return typ == storage.String
	case CutBools:
		return typ == storage.Bool
	case CutPartition:
		return typ == storage.String || typ == storage.Bool
	case CutSummary:
		return typ.IsNumeric() || typ == storage.String || typ == storage.Bool
	}
	return false
}

// ManyColumns reports whether a cut of kind k may read several columns
// at once.
func (k CutKind) ManyColumns() bool { return k == CutValues || k == CutSummary }
