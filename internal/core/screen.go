package core

import (
	"context"
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/storage"
)

// ScreenReason explains why a column was excluded from map generation.
type ScreenReason string

const (
	// ScreenHighCardinality flags categorical columns with too many
	// distinct values (codes, names) — Section 5.2's first nuisance.
	ScreenHighCardinality ScreenReason = "high cardinality"
	// ScreenNearUnique flags columns whose values are (almost) unique
	// per row: keys, identifiers, free-text comments.
	ScreenNearUnique ScreenReason = "near-unique values"
	// ScreenConstant flags columns with a single value under the
	// selection — nothing to cut.
	ScreenConstant ScreenReason = "constant"
	// ScreenAllNull flags columns with no non-NULL value.
	ScreenAllNull ScreenReason = "all NULL"
)

// ScreenFinding reports one excluded column.
type ScreenFinding struct {
	Attr   string
	Reason ScreenReason
	// Cardinality is the observed distinct count (capped at the
	// sampling limit for near-unique columns).
	Cardinality int
}

// ScreenOptions tunes the Section 5.2 column screening.
type ScreenOptions struct {
	// MaxCardinality is the maximum distinct count a categorical column
	// may have before it is flagged.
	MaxCardinality int
	// UniqueRatio flags a column when distinct/rows exceeds it.
	UniqueRatio float64
	// SampleRows caps the rows examined per column (0 = all).
	SampleRows int
}

// DefaultScreenOptions returns the screening defaults: at most 64
// categories, flag when over 80% of sampled rows are distinct, examine at
// most 50k rows.
func DefaultScreenOptions() ScreenOptions {
	return ScreenOptions{MaxCardinality: 64, UniqueRatio: 0.8, SampleRows: 50000}
}

// ScreenColumns partitions the table's columns into usable exploration
// attributes and flagged nuisance columns (keys, codes, comments,
// constants), per Section 5.2: "some columns may have a very large
// cardinality and/or no semantics … a failure to detect this could lead
// to very long and useless computations".
func ScreenColumns(t *storage.Table, sel *bitvec.Vector, opts ScreenOptions) (keep []string, flagged []ScreenFinding) {
	return screenColumnsN(context.Background(), t, sel, opts, 1)
}

// screenColumnsN is ScreenColumns over a bounded worker pool: columns
// are screened independently and findings collected in schema order.
// ctx carries the exploration's trace and resource ledger into the
// chunk fetches of lazy columns; nil is fine.
func screenColumnsN(ctx context.Context, t *storage.Table, sel *bitvec.Vector, opts ScreenOptions, workers int) (keep []string, flagged []ScreenFinding) {
	if opts.MaxCardinality <= 0 {
		opts.MaxCardinality = DefaultScreenOptions().MaxCardinality
	}
	if opts.UniqueRatio <= 0 || opts.UniqueRatio > 1 {
		opts.UniqueRatio = DefaultScreenOptions().UniqueRatio
	}
	findings := make([]*ScreenFinding, t.NumCols())
	_ = parallelFor(workers, t.NumCols(), func(ci int) error {
		findings[ci] = screenColumn(ctx, t.Column(ci), t.Schema().Field(ci), sel, opts)
		return nil
	})
	for ci, finding := range findings {
		if finding == nil {
			keep = append(keep, t.Schema().Field(ci).Name)
		} else {
			flagged = append(flagged, *finding)
		}
	}
	return keep, flagged
}

func screenColumn(ctx context.Context, col storage.Column, f storage.Field, sel *bitvec.Vector, opts ScreenOptions) *ScreenFinding {
	limit := opts.SampleRows
	if limit <= 0 {
		limit = sel.Count()
	}
	switch c := col.(type) {
	case *storage.StringColumn:
		// Dictionary cardinality is the global distinct count; check the
		// selection-local counts up to the sample limit.
		distinct := map[uint32]struct{}{}
		rows := 0
		sel.ForEach(func(i int) bool {
			if c.IsNull(i) {
				return true
			}
			rows++
			distinct[c.Codes()[i]] = struct{}{}
			return rows < limit
		})
		switch {
		case rows == 0:
			return &ScreenFinding{f.Name, ScreenAllNull, 0}
		case len(distinct) <= 1:
			return &ScreenFinding{f.Name, ScreenConstant, len(distinct)}
		case float64(len(distinct)) > opts.UniqueRatio*float64(rows):
			return &ScreenFinding{f.Name, ScreenNearUnique, len(distinct)}
		case len(distinct) > opts.MaxCardinality:
			return &ScreenFinding{f.Name, ScreenHighCardinality, len(distinct)}
		}
		return nil
	case *storage.Int64Column:
		distinct := map[int64]struct{}{}
		rows := 0
		sel.ForEach(func(i int) bool {
			if c.IsNull(i) {
				return true
			}
			rows++
			distinct[c.At(i)] = struct{}{}
			return rows < limit
		})
		switch {
		case rows == 0:
			return &ScreenFinding{f.Name, ScreenAllNull, 0}
		case len(distinct) <= 1:
			return &ScreenFinding{f.Name, ScreenConstant, len(distinct)}
		case rows >= 100 && float64(len(distinct)) > 0.95*float64(rows):
			// integer keys: oid-style surrogate identifiers
			return &ScreenFinding{f.Name, ScreenNearUnique, len(distinct)}
		}
		return nil
	case *storage.Float64Column:
		// Continuous columns are legitimately near-unique; only flag
		// degenerate ones.
		var first float64
		rows, constant := 0, true
		sel.ForEach(func(i int) bool {
			if c.IsNull(i) {
				return true
			}
			if rows == 0 {
				first = c.At(i)
			} else if c.At(i) != first {
				constant = false
				return false
			}
			rows++
			return rows < limit
		})
		switch {
		case rows == 0:
			return &ScreenFinding{f.Name, ScreenAllNull, 0}
		case constant:
			return &ScreenFinding{f.Name, ScreenConstant, 1}
		}
		return nil
	case *storage.BoolColumn:
		falses, trues, rows := 0, 0, 0
		sel.ForEach(func(i int) bool {
			if c.IsNull(i) {
				return true
			}
			rows++
			if c.At(i) {
				trues++
			} else {
				falses++
			}
			return rows < limit && (falses == 0 || trues == 0)
		})
		switch {
		case rows == 0:
			return &ScreenFinding{f.Name, ScreenAllNull, 0}
		case falses == 0 || trues == 0:
			return &ScreenFinding{f.Name, ScreenConstant, 1}
		}
		return nil
	case *storage.LazyColumn:
		return screenLazyColumn(ctx, c, f, sel, opts, limit)
	default:
		return &ScreenFinding{f.Name, ScreenReason(fmt.Sprintf("unsupported type %T", col)), 0}
	}
}

// screenLazyColumn screens a memory-tiered column chunk-wise: rows are
// visited in the same order with the same early exits as the eager
// kinds (findings are identical), touching only chunks that hold
// selected rows up to the sample limit. A chunk-fetch failure panics
// with the ChunkError; the pipeline's recovery converts it to an error.
func screenLazyColumn(ctx context.Context, c *storage.LazyColumn, f storage.Field, sel *bitvec.Vector, opts ScreenOptions, limit int) *ScreenFinding {
	visit := func(fn func(p *storage.ChunkPayload, l int) bool) {
		err := c.ForEachSelected(ctx, sel, func(p *storage.ChunkPayload, lo, i int) bool {
			return fn(p, i-lo)
		})
		if err != nil {
			panic(&storage.ChunkError{Col: -1, Chunk: -1, Err: err})
		}
	}
	switch c.Type() {
	case storage.String:
		distinct := map[uint32]struct{}{}
		rows := 0
		visit(func(p *storage.ChunkPayload, l int) bool {
			if p.IsNull(l) {
				return true
			}
			rows++
			distinct[p.Codes[l]] = struct{}{}
			return rows < limit
		})
		switch {
		case rows == 0:
			return &ScreenFinding{f.Name, ScreenAllNull, 0}
		case len(distinct) <= 1:
			return &ScreenFinding{f.Name, ScreenConstant, len(distinct)}
		case float64(len(distinct)) > opts.UniqueRatio*float64(rows):
			return &ScreenFinding{f.Name, ScreenNearUnique, len(distinct)}
		case len(distinct) > opts.MaxCardinality:
			return &ScreenFinding{f.Name, ScreenHighCardinality, len(distinct)}
		}
		return nil
	case storage.Int64:
		distinct := map[int64]struct{}{}
		rows := 0
		visit(func(p *storage.ChunkPayload, l int) bool {
			if p.IsNull(l) {
				return true
			}
			rows++
			distinct[p.Ints[l]] = struct{}{}
			return rows < limit
		})
		switch {
		case rows == 0:
			return &ScreenFinding{f.Name, ScreenAllNull, 0}
		case len(distinct) <= 1:
			return &ScreenFinding{f.Name, ScreenConstant, len(distinct)}
		case rows >= 100 && float64(len(distinct)) > 0.95*float64(rows):
			return &ScreenFinding{f.Name, ScreenNearUnique, len(distinct)}
		}
		return nil
	case storage.Float64:
		var first float64
		rows, constant := 0, true
		visit(func(p *storage.ChunkPayload, l int) bool {
			if p.IsNull(l) {
				return true
			}
			if rows == 0 {
				first = p.Floats[l]
			} else if p.Floats[l] != first {
				constant = false
				return false
			}
			rows++
			return rows < limit
		})
		switch {
		case rows == 0:
			return &ScreenFinding{f.Name, ScreenAllNull, 0}
		case constant:
			return &ScreenFinding{f.Name, ScreenConstant, 1}
		}
		return nil
	case storage.Bool:
		falses, trues, rows := 0, 0, 0
		visit(func(p *storage.ChunkPayload, l int) bool {
			if p.IsNull(l) {
				return true
			}
			rows++
			if p.Bools[l] {
				trues++
			} else {
				falses++
			}
			return rows < limit && (falses == 0 || trues == 0)
		})
		switch {
		case rows == 0:
			return &ScreenFinding{f.Name, ScreenAllNull, 0}
		case falses == 0 || trues == 0:
			return &ScreenFinding{f.Name, ScreenConstant, 1}
		}
		return nil
	default:
		return &ScreenFinding{f.Name, ScreenReason(fmt.Sprintf("unsupported type %v", c.Type())), 0}
	}
}
