// Package engine evaluates conjunctive queries against columnar tables and
// provides the physical operators Atlas pushes to the store: filters to
// selection bitmaps, counting aggregates, per-map region assignment,
// contingency (joint group-count) between maps, and FK hash joins.
package engine

import (
	"context"
	"fmt"
	"math"
	"math/bits"

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
	return NumericValuesUnderCtx(context.Background(), t, attr, sel)
}

// NumericValuesUnderCtx is NumericValuesUnder with a request context:
// lazy chunk fetches ride the caller's trace and resource ledger.
func NumericValuesUnderCtx(ctx context.Context, t *storage.Table, attr string, sel *bitvec.Vector) ([]float64, error) {
	vals, _, err := ExtractNumericUnder(ctx, nil, t, attr, sel)
	return vals, err
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
		sum.observe(v)
	}
	return sum
}

func (s *NumericSummary) observe(v float64) {
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

// ExtractNumericUnder is NumericValuesUnder for callers that recycle
// value slices across cuts: the values overwrite dst when it is large
// enough, and they are summarized on the way.
func ExtractNumericUnder(ctx context.Context, dst []float64, t *storage.Table, attr string, sel *bitvec.Vector) ([]float64, NumericSummary, error) {
	sum := SummarizeNumeric(nil)
	if err := obsv.CheckCtx(ctx, "engine.stats"); err != nil {
		return nil, sum, err
	}
	col, err := t.ColumnByName(attr)
	if err != nil {
		return nil, sum, err
	}
	out := dst[:0]
	if n := sel.Count(); cap(out) < n {
		out = make([]float64, 0, n)
	}
	switch c := col.(type) {
	case *storage.Int64Column:
		out = appendSelected(out, &sum, c.Values(), storage.NullWords(c), sel.Words())
	case *storage.Float64Column:
		out = appendSelected(out, &sum, c.Values(), storage.NullWords(c), sel.Words())
	case *storage.LazyColumn:
		if !c.Type().IsNumeric() {
			return nil, sum, fmt.Errorf("engine: column %q is not numeric (type %v)", attr, col.Type())
		}
		// Chunk-wise: chunks with no selected rows are never fetched, so
		// a selective extraction reads only the touched byte ranges.
		err := c.ForEachSelected(ctx, sel, func(p *storage.ChunkPayload, lo, i int) {
			if l := i - lo; !p.IsNull(l) {
				v := p.Numeric(l)
				out = append(out, v)
				sum.observe(v)
			}
		})
		if err != nil {
			return nil, sum, err
		}
	default:
		return nil, sum, fmt.Errorf("engine: column %q is not numeric (type %v)", attr, col.Type())
	}
	return out, sum, nil
}

// appendSelected appends the selected non-NULL values of an in-memory
// column, walking the selection a word at a time. nulls is nil or the
// column's null words.
func appendSelected[T numeric](out []float64, sum *NumericSummary, vals []T, nulls, sel []uint64) []float64 {
	s := *sum
	for wi, w := range sel {
		if nulls != nil {
			w &^= nulls[wi]
		}
		if w == 0 {
			continue
		}
		row := vals[wi*64:]
		for ; w != 0; w &= w - 1 {
			v := float64(row[bits.TrailingZeros64(w)])
			out = append(out, v)
			s.observe(v)
		}
	}
	*sum = s
	return out
}

// CategoryCountsUnder returns per-dictionary-code counts of a string
// column restricted to the selection, plus the dictionary.
func CategoryCountsUnder(t *storage.Table, attr string, sel *bitvec.Vector) (dict []string, counts []int, err error) {
	return CategoryCountsUnderCtx(context.Background(), t, attr, sel)
}

// CategoryCountsUnderCtx is CategoryCountsUnder with a request context
// for lazy chunk fetches.
func CategoryCountsUnderCtx(ctx context.Context, t *storage.Table, attr string, sel *bitvec.Vector) (dict []string, counts []int, err error) {
	if err := obsv.CheckCtx(ctx, "engine.stats"); err != nil {
		return nil, nil, err
	}
	col, err := t.ColumnByName(attr)
	if err != nil {
		return nil, nil, err
	}
	if lc, ok := col.(*storage.LazyColumn); ok {
		if lc.Type() != storage.String {
			return nil, nil, fmt.Errorf("engine: column %q is not categorical (type %v)", attr, col.Type())
		}
		dict, err = lc.DictValues()
		if err != nil {
			return nil, nil, err
		}
		counts = make([]int, len(dict))
		err = lc.ForEachSelected(ctx, sel, func(p *storage.ChunkPayload, lo, i int) {
			if l := i - lo; !p.IsNull(l) {
				counts[p.Codes[l]]++
			}
		})
		if err != nil {
			return nil, nil, err
		}
		return dict, counts, nil
	}
	c, ok := col.(*storage.StringColumn)
	if !ok {
		return nil, nil, fmt.Errorf("engine: column %q is not categorical (type %v)", attr, col.Type())
	}
	counts = make([]int, c.Cardinality())
	codes := c.Codes()
	sel.ForEach(func(i int) bool {
		if !c.IsNull(i) {
			counts[codes[i]]++
		}
		return true
	})
	return c.Dict(), counts, nil
}

// BoolCountsUnder returns the (false, true) counts of a bool column under
// the selection.
func BoolCountsUnder(t *storage.Table, attr string, sel *bitvec.Vector) (falses, trues int, err error) {
	return BoolCountsUnderCtx(context.Background(), t, attr, sel)
}

// BoolCountsUnderCtx is BoolCountsUnder with a request context for lazy
// chunk fetches.
func BoolCountsUnderCtx(ctx context.Context, t *storage.Table, attr string, sel *bitvec.Vector) (falses, trues int, err error) {
	if err := obsv.CheckCtx(ctx, "engine.stats"); err != nil {
		return 0, 0, err
	}
	col, err := t.ColumnByName(attr)
	if err != nil {
		return 0, 0, err
	}
	if lc, ok := col.(*storage.LazyColumn); ok {
		if lc.Type() != storage.Bool {
			return 0, 0, fmt.Errorf("engine: column %q is not boolean (type %v)", attr, col.Type())
		}
		err = lc.ForEachSelected(ctx, sel, func(p *storage.ChunkPayload, lo, i int) {
			if l := i - lo; !p.IsNull(l) {
				if p.Bools[l] {
					trues++
				} else {
					falses++
				}
			}
		})
		if err != nil {
			return 0, 0, err
		}
		return falses, trues, nil
	}
	c, ok := col.(*storage.BoolColumn)
	if !ok {
		return 0, 0, fmt.Errorf("engine: column %q is not boolean (type %v)", attr, col.Type())
	}
	sel.ForEach(func(i int) bool {
		if !c.IsNull(i) {
			if c.At(i) {
				trues++
			} else {
				falses++
			}
		}
		return true
	})
	return falses, trues, nil
}
