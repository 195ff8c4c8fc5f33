package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/bitvec"
	"repro/internal/obsv"
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
	// UniqueRatio flags a String column as near-unique when its
	// distinct/rows exceeds it. Int64 columns follow a fixed key rule
	// instead: flagged when more than 0.95 of at least 100 rows are
	// distinct. Float64 columns are never flagged for uniqueness.
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
		findings[ci] = screenColumn(ctx, t.Runs(ci), t.Schema().Field(ci), sel, opts)
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

// screenColumn visits the selected non-NULL rows of one column in row
// order until its verdict is settled or the sample limit is reached,
// reading only the runs that hold them. A chunk-fetch failure panics
// with the ChunkError; the pipeline's recovery converts it to an error.
//
// String and Int64 columns stop early only when the duplicates seen
// prove the column will be kept: enough of them that it cannot turn out
// near-unique however the sample ends, at least two distinct values, and
// for a String column a dictionary no larger than MaxCardinality. Its
// finding is then none, as the walk to the limit would have found, and a
// column that is flagged is always walked to the limit, so every finding
// and its Cardinality are those of the full sample.
func screenColumn(ctx context.Context, runs *storage.Runs, f storage.Field, sel *bitvec.Vector, opts ScreenOptions) *ScreenFinding {
	selected := sel.Count()
	limit := opts.SampleRows
	if limit <= 0 {
		limit = selected
	}
	// At most min(limit, selected) rows are visited. Once settled(share)
	// of them are duplicates, at most 1−share of the rows visited by the
	// end can be distinct, with a duplicate to spare against rounding.
	settled := func(share float64) int { return int(math.Ceil(share*float64(min(limit, selected)))) + 1 }
	// walk hands visit the runs holding selected rows, in row order, until
	// it returns false; EachRow then visits a run's selected non-NULL rows.
	bill := obsv.LedgerFrom(ctx).Scan().BillFetch
	walk := func(visit func(w0 int, sw []uint64, p *storage.ChunkPayload) bool) {
		if err := runs.WalkUntil(ctx, sel, "core.screen", bill, visit); err != nil {
			panic(&storage.ChunkError{Col: -1, Chunk: -1, Err: err})
		}
	}
	switch runs.Type() {
	case storage.String:
		// Dictionary cardinality is the global distinct count; check the
		// selection-local counts up to the sample limit. seen is a bitset
		// over the codes met so far. The dictionary's length bounds the
		// distinct count; it settles the verdict once the duplicates
		// would.
		var seen []uint64
		rows, distinct := 0, 0
		dups, smallDict := settled(1-opts.UniqueRatio), runs.DictLen() <= opts.MaxCardinality
		walk(func(w0 int, sw []uint64, p *storage.ChunkPayload) bool {
			return p.EachRow(sw, w0, func(_, l int) bool {
				c := p.Codes[l]
				if wi := int(c >> 6); wi >= len(seen) {
					seen = append(seen, make([]uint64, wi+1-len(seen))...)
				}
				distinct += int(^seen[c>>6] >> (c & 63) & 1)
				seen[c>>6] |= 1 << (c & 63)
				rows++
				return rows < limit && !(smallDict && rows-distinct >= dups && distinct > 1)
			})
		})
		switch {
		case rows == 0:
			return &ScreenFinding{f.Name, ScreenAllNull, 0}
		case distinct <= 1:
			return &ScreenFinding{f.Name, ScreenConstant, distinct}
		case float64(distinct) > opts.UniqueRatio*float64(rows):
			return &ScreenFinding{f.Name, ScreenNearUnique, distinct}
		case distinct > opts.MaxCardinality:
			return &ScreenFinding{f.Name, ScreenHighCardinality, distinct}
		}
		return nil
	case storage.Int64:
		distinct := map[int64]struct{}{}
		rows, dups := 0, settled(0.05)
		walk(func(w0 int, sw []uint64, p *storage.ChunkPayload) bool {
			return p.EachRow(sw, w0, func(_, l int) bool {
				rows++
				distinct[p.Ints[l]] = struct{}{}
				return rows < limit && (rows-len(distinct) < dups || len(distinct) < 2)
			})
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
	case storage.Float64:
		// Continuous columns are legitimately near-unique; only flag
		// degenerate ones.
		var first float64
		rows, constant := 0, true
		walk(func(w0 int, sw []uint64, p *storage.ChunkPayload) bool {
			return p.EachRow(sw, w0, func(_, l int) bool {
				if rows == 0 {
					first = p.Floats[l]
				} else if p.Floats[l] != first {
					constant = false
					return false
				}
				rows++
				return rows < limit
			})
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
		walk(func(w0 int, sw []uint64, p *storage.ChunkPayload) bool {
			return p.EachRow(sw, w0, func(_, l int) bool {
				rows++
				if p.Bools[l] {
					trues++
				} else {
					falses++
				}
				return rows < limit && (falses == 0 || trues == 0)
			})
		})
		switch {
		case rows == 0:
			return &ScreenFinding{f.Name, ScreenAllNull, 0}
		case falses == 0 || trues == 0:
			return &ScreenFinding{f.Name, ScreenConstant, 1}
		}
		return nil
	default:
		return &ScreenFinding{f.Name, ScreenReason(fmt.Sprintf("unsupported type %v", runs.Type())), 0}
	}
}
