// Package engine evaluates conjunctive queries against columnar tables and
// provides the physical operators Atlas pushes to the store: filters to
// selection bitmaps, counting aggregates, per-map region assignment,
// contingency (joint group-count) between maps, and FK hash joins.
package engine

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/bitvec"
	"repro/internal/obsv"
	"repro/internal/query"
	"repro/internal/storage"
)

func kindErr(p query.Predicate, col storage.Column) error {
	return fmt.Errorf("engine: predicate kind %v cannot apply to column %q of type %v",
		p.Kind, p.Attr, col.Type())
}

// Eval evaluates a conjunctive query, returning the selection bitmap of
// matching rows. A query with no predicates selects every row.
func Eval(t *storage.Table, q query.Query) (*bitvec.Vector, error) {
	sel := bitvec.NewFull(t.NumRows())
	if err := evalAndInto(t, q, sel); err != nil {
		return nil, err
	}
	return sel, nil
}

// evalAndInto ANDs every predicate of q into sel using the fused
// word-level kernel: each predicate is checked only on still-selected
// rows and cleared bits never allocate an intermediate bitmap. Tables
// with chunk metadata additionally consult zone maps (see scan.go).
func evalAndInto(t *storage.Table, q query.Query, sel *bitvec.Vector) error {
	cps, err := compileQuery(t, q)
	if err != nil {
		return err
	}
	return evalCompiled(t, cps, sel, ScanOptions{})
}

// Count evaluates q and returns the number of matching rows.
func Count(t *storage.Table, q query.Query) (int, error) {
	sel, err := Eval(t, q)
	if err != nil {
		return 0, err
	}
	return sel.Count(), nil
}

// NumericValuesUnder materializes the non-null float values of a numeric
// column restricted to the selection. Int64 columns are widened.
func NumericValuesUnder(t *storage.Table, attr string, sel *bitvec.Vector) ([]float64, error) {
	var x NumericExtract
	if err := ExtractNumericUnder(&x, t, attr, sel, ScanOptions{}); err != nil {
		return nil, err
	}
	return x.Vals, nil
}

// NumericSummary describes the values one extraction produced, gathered
// in the same pass: what CUT needs before it looks at any value twice.
type NumericSummary struct {
	// NaN counts the NaN values (a CSV "NaN" cell is non-NULL).
	NaN int
	// Min and Max are the extremes of the other values; they are
	// meaningless when there are none.
	Min, Max float64
}

// SummarizeNumeric is the summary ExtractNumericUnder gathers, taken
// over values already materialized.
func SummarizeNumeric(vals []float64) NumericSummary {
	sum := NumericSummary{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, v := range vals {
		sum.Observe(v)
	}
	return sum
}

// Merge folds in the summary of values that follow the ones s
// summarizes, with Observe's strict comparisons: of equal extremes the
// earlier is kept, so −0 and +0 resolve as they do in row order, and a
// NaN is never an extreme.
func (s *NumericSummary) Merge(o NumericSummary) {
	if o.Min < s.Min {
		s.Min = o.Min
	}
	if o.Max > s.Max {
		s.Max = o.Max
	}
	s.NaN += o.NaN
}

// Observe folds one more value into the summary.
func (s *NumericSummary) Observe(v float64) {
	if v < s.Min {
		s.Min = v
	}
	if v > s.Max {
		s.Max = v
	}
	if v != v {
		s.NaN++
	}
}

// NumericExtract is what one pass of ExtractNumericUnder gathers. Its
// slices are overwritten by the next extraction into the same value, so
// a caller that cuts repeatedly recycles them.
type NumericExtract struct {
	// Vals are the selected non-NULL values in row order, Int64 widened.
	Vals []float64
	// Present marks the rows the values came from — the selection less
	// the column's NULLs, in the selection's window: Vals[j] is the
	// value of the j-th set bit. PartitionValues reads the two in step.
	Present bitvec.Vector
	// Sum summarizes Vals.
	Sum NumericSummary
}

// Reset empties x for an extraction under sel: Present takes sel's
// window, and clearing it costs that window.
func (x *NumericExtract) Reset(sel *bitvec.Vector) {
	x.Present.ResetLike(sel)
	x.Vals, x.Sum = x.Vals[:0], SummarizeNumeric(nil)
}

// AppendRun appends the extraction of a run of rows that starts at word
// w0, inside Present's window and past every run appended before it:
// present marks its rows, vals holds their values in row order and sum
// summarizes them. Runs extracted apart and appended in row order make
// the extraction of their union — how a sharded table's answers
// reassemble. vals may already lie where they belong, just past x.Vals
// in its spare capacity; they are then not copied.
func (x *NumericExtract) AppendRun(w0 int, present []uint64, vals []float64, sum NumericSummary) {
	if len(present) == 0 {
		return
	}
	pw0, words := x.Present.Window()
	copy(words[w0-pw0:w0-pw0+len(present)], present)
	if n := len(x.Vals); len(vals) > 0 && cap(x.Vals) > n && &x.Vals[:n+1][n] == &vals[0] {
		x.Vals = x.Vals[:n+len(vals)]
	} else {
		x.Vals = append(x.Vals, vals...)
	}
	x.Sum.Merge(sum)
}

// Restrict sets dst to the extraction of x's column under sel, a
// selection within the one x was extracted under: the values of x whose
// rows sel keeps, in row order, and their summary. It reads no column,
// and costs the words of Present's window plus its values, each copied
// without a branch on whether it is kept.
func (x *NumericExtract) Restrict(dst *NumericExtract, sel *bitvec.Vector) {
	dst.Reset(sel)
	pw0, present := x.Present.Window()
	sw0, selWords := sel.Window()
	_, keptWords := dst.Present.Window()
	kept := bitvec.AndCount(&x.Present, sel)
	// One slot to spare: a value that is not kept is written past the
	// last kept one.
	out := slices.Grow(dst.Vals[:0], kept+1)[:kept+1]
	n := 0
	vals := x.Vals
	// Only the words both windows hold can keep a value; those of
	// Present before them hold values to pass over.
	lo, hi := max(pw0, sw0), min(pw0+len(present), sw0+len(selWords))
	for wi := pw0; wi < min(lo, hi); wi++ {
		vals = vals[bits.OnesCount64(present[wi-pw0]):]
	}
	for wi := lo; wi < hi; wi++ {
		word := present[wi-pw0]
		if word == 0 {
			continue
		}
		row := vals[:bits.OnesCount64(word)]
		vals = vals[len(row):]
		keep := word & selWords[wi-sw0]
		if keep == 0 {
			continue
		}
		keptWords[wi-sw0] = keep
		if keep == word {
			n += copy(out[n:], row)
			continue
		}
		// Every value is written at n; only a kept one moves n on.
		for k, w := 0, word; w != 0; k, w = k+1, w&(w-1) {
			out[n] = row[k]
			n += int(keep >> uint(bits.TrailingZeros64(w)) & 1)
		}
	}
	dst.Vals = out[:n]
	for _, v := range dst.Vals {
		dst.Sum.Observe(v)
	}
}

// ExtractNumericUnder reads a numeric column under the selection once:
// it fills x with the selected non-NULL values, the rows they came from
// and their summary. Only the runs holding a selected row are read; a
// lazy column's fetches are billed like a scan's (see ScanOptions.Stats).
func ExtractNumericUnder(x *NumericExtract, t *storage.Table, attr string, sel *bitvec.Vector, opts ScanOptions) error {
	x.Reset(sel)
	if err := obsv.CheckCtx(opts.context(), "engine.stats"); err != nil {
		return err
	}
	col, err := t.ColumnByName(attr)
	if err != nil {
		return err
	}
	if sel.Len() != t.NumRows() {
		return fmt.Errorf("engine: selection length %d != table rows %d", sel.Len(), t.NumRows())
	}
	if n := sel.Count(); cap(x.Vals) < n {
		x.Vals = make([]float64, 0, n)
	}
	if !col.Type().IsNumeric() {
		return fmt.Errorf("engine: column %q is not numeric (type %v)", attr, col.Type())
	}
	pw0, present := x.Present.Window()
	ctx := opts.context()
	return t.Runs(t.Schema().Index(attr)).Walk(ctx, sel, 1, "engine.stats", opts.sink(ctx).BillFetch, func(w0 int, sw []uint64, p *storage.ChunkPayload) {
		pr := present[w0-pw0 : w0-pw0+len(sw)]
		if p.Ints != nil {
			x.Vals = appendSelected(x.Vals, &x.Sum, p.Ints, p.Nulls, sw, pr)
		} else {
			x.Vals = appendSelected(x.Vals, &x.Sum, p.Floats, p.Nulls, sw, pr)
		}
	})
}

// appendSelected appends the selected non-NULL values of a run of rows,
// walking the selection a word at a time, and records each word's taken
// rows in present. vals, nulls (nil when the run has no NULLs), sel and
// present all start at the run's first row.
func appendSelected[T numeric](out []float64, sum *NumericSummary, vals []T, nulls, sel, present []uint64) []float64 {
	s := *sum
	for wi, w := range sel {
		if nulls != nil {
			w &^= nulls[wi]
		}
		present[wi] = w
		if w == 0 {
			continue
		}
		row := vals[wi*64:]
		for ; w != 0; w &= w - 1 {
			v := float64(row[bits.TrailingZeros64(w)])
			out = append(out, v)
			s.Observe(v)
		}
	}
	*sum = s
	return out
}

// CategoryCountsUnder returns per-dictionary-code counts of a string
// column restricted to the selection, plus the dictionary.
func CategoryCountsUnder(t *storage.Table, attr string, sel *bitvec.Vector) (dict []string, counts []int, err error) {
	return CategoryCountsUnderOpts(t, attr, sel, ScanOptions{})
}

// CategoryCountsUnderOpts is CategoryCountsUnder with scan options: lazy
// chunk fetches ride opts.Ctx and are billed like a scan's.
func CategoryCountsUnderOpts(t *storage.Table, attr string, sel *bitvec.Vector, opts ScanOptions) (dict []string, counts []int, err error) {
	if err := obsv.CheckCtx(opts.context(), "engine.stats"); err != nil {
		return nil, nil, err
	}
	col, err := t.ColumnByName(attr)
	if err != nil {
		return nil, nil, err
	}
	if col.Type() != storage.String {
		return nil, nil, fmt.Errorf("engine: column %q is not categorical (type %v)", attr, col.Type())
	}
	if dict, err = storage.Dictionary(col); err != nil {
		return nil, nil, err
	}
	counts = make([]int, len(dict))
	ctx := opts.context()
	err = t.Runs(t.Schema().Index(attr)).Walk(ctx, sel, 1, "engine.stats", opts.sink(ctx).BillFetch, func(w0 int, sw []uint64, p *storage.ChunkPayload) {
		codes := p.Codes
		p.EachRow(sw, w0, func(_, l int) bool {
			counts[codes[l]]++
			return true
		})
	})
	if err != nil {
		return nil, nil, err
	}
	return dict, counts, nil
}

// BoolCountsUnder returns the (false, true) counts of a bool column under
// the selection.
func BoolCountsUnder(t *storage.Table, attr string, sel *bitvec.Vector) (falses, trues int, err error) {
	return BoolCountsUnderOpts(t, attr, sel, ScanOptions{})
}

// BoolCountsUnderOpts is BoolCountsUnder with scan options, billed like
// CategoryCountsUnderOpts.
func BoolCountsUnderOpts(t *storage.Table, attr string, sel *bitvec.Vector, opts ScanOptions) (falses, trues int, err error) {
	if err := obsv.CheckCtx(opts.context(), "engine.stats"); err != nil {
		return 0, 0, err
	}
	col, err := t.ColumnByName(attr)
	if err != nil {
		return 0, 0, err
	}
	if col.Type() != storage.Bool {
		return 0, 0, fmt.Errorf("engine: column %q is not boolean (type %v)", attr, col.Type())
	}
	ctx := opts.context()
	err = t.Runs(t.Schema().Index(attr)).Walk(ctx, sel, 1, "engine.stats", opts.sink(ctx).BillFetch, func(w0 int, sw []uint64, p *storage.ChunkPayload) {
		vals := p.Bools
		p.EachRow(sw, w0, func(_, l int) bool {
			if vals[l] {
				trues++
			} else {
				falses++
			}
			return true
		})
	})
	if err != nil {
		return 0, 0, err
	}
	return falses, trues, nil
}
