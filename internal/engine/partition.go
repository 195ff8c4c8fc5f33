package engine

import (
	"fmt"
	"slices"

	"repro/internal/bitvec"
	"repro/internal/query"
	"repro/internal/storage"
)

// PartitionBits assigns every selected row to the first of the given
// single-attribute predicates it satisfies, in one pass over the column:
// the fused kernel behind CUT-produced region partitions. It returns one
// disjoint bitmap per predicate; NULL rows and rows matching no
// predicate are left out. For categorical columns the predicates are
// compiled to a code→region table, making the per-row cost O(1)
// regardless of the number of regions. Numeric predicates in CUT's shape
// — a chain [e0,e1) … [e(k−1),ek] — are compiled to their edges, one
// comparison per interior edge (edgeChain); any other list is tested
// range by range, first match wins.
//
// All predicates must target attr with the kind matching the column
// type. Compared with evaluating each region query independently, this
// replaces k full scans with one.
func PartitionBits(t *storage.Table, attr string, preds []query.Predicate, sel *bitvec.Vector) ([]*bitvec.Vector, error) {
	return PartitionBitsOpts(t, attr, preds, sel, ScanOptions{})
}

// PartitionBitsOpts is PartitionBits with scan options: on tables with
// chunk metadata, opts.Workers shards the partitioning pass chunk by
// chunk across workers, exactly like a predicate scan. Chunks map to
// disjoint word ranges of every output bitmap, so the partition is
// byte-identical at any worker count.
func PartitionBitsOpts(t *storage.Table, attr string, preds []query.Predicate, sel *bitvec.Vector, opts ScanOptions) ([]*bitvec.Vector, error) {
	if len(preds) == 0 {
		return nil, fmt.Errorf("engine: partition with zero predicates")
	}
	if sel.Len() != t.NumRows() {
		return nil, fmt.Errorf("engine: selection length %d != table rows %d", sel.Len(), t.NumRows())
	}
	col, err := t.ColumnByName(attr)
	if err != nil {
		return nil, err
	}
	for _, p := range preds {
		if p.Attr != attr {
			return nil, fmt.Errorf("engine: partition predicate on %q, want %q", p.Attr, attr)
		}
	}
	n := t.NumRows()
	out := make([]*bitvec.Vector, len(preds))
	outWords := make([][]uint64, len(preds))
	for i := range out {
		out[i] = bitvec.New(n)
		outWords[i] = out[i].Words()
	}
	selWords := sel.Words()
	runs := t.Runs(t.Schema().Index(attr))

	// part resolves the selected rows of words [w0, w1), those of run p:
	// tests each against the predicates in order and records the first
	// match. Rows are only ever touched once and runs cover disjoint
	// word ranges, so driving part over several runs from several
	// workers races on nothing. Runs with no selected row are never
	// read.
	var part func(w0, w1 int, p *storage.ChunkPayload)
	switch col.Type() {
	case storage.Int64, storage.Float64:
		if err := predsAreKind(preds, query.Range, col); err != nil {
			return nil, err
		}
		if c, ok := chainOf(preds); ok {
			part = func(w0, w1 int, p *storage.ChunkPayload) {
				if p.Ints != nil {
					partitionChain(&c, p.Ints, p.Nulls, selWords, outWords, w0, w1)
				} else {
					partitionChain(&c, p.Floats, p.Nulls, selWords, outWords, w0, w1)
				}
			}
			break
		}
		ms := compileRanges(preds)
		part = func(w0, w1 int, p *storage.ChunkPayload) {
			if p.Ints != nil {
				partitionRanges(ms, p.Ints, p.Nulls, selWords, outWords, w0, w1)
			} else {
				partitionRanges(ms, p.Floats, p.Nulls, selWords, outWords, w0, w1)
			}
		}
	case storage.String:
		if err := predsAreKind(preds, query.In, col); err != nil {
			return nil, err
		}
		dict, err := storage.Dictionary(col)
		if err != nil {
			return nil, err
		}
		// compile once: dictionary code → first admitting region
		region := make([]int32, len(dict))
		for i := range region {
			region[i] = -1
		}
		for ri, p := range preds {
			for _, v := range p.Values {
				if code := slices.Index(dict, v); code >= 0 && region[code] < 0 {
					region[code] = int32(ri)
				}
			}
		}
		part = func(w0, w1 int, p *storage.ChunkPayload) {
			codes := p.Codes
			p.EachRow(selWords, w0, w1, func(i, l int) bool {
				if ri := region[codes[l]]; ri >= 0 {
					outWords[ri][i>>6] |= uint64(1) << uint(i&63)
				}
				return true
			})
		}
	case storage.Bool:
		if err := predsAreKind(preds, query.BoolEq, col); err != nil {
			return nil, err
		}
		part = func(w0, w1 int, p *storage.ChunkPayload) {
			vals := p.Bools
			p.EachRow(selWords, w0, w1, func(i, l int) bool {
				for ri := range preds {
					if preds[ri].MatchBool(vals[l]) {
						outWords[ri][i>>6] |= uint64(1) << uint(i&63)
						break
					}
				}
				return true
			})
		}
	default:
		return nil, fmt.Errorf("engine: unsupported column type %v", col.Type())
	}
	ctx := opts.context()
	if err := runs.Walk(ctx, selWords, opts.Workers, "engine.partition", opts.billFetch(ctx), part); err != nil {
		return nil, err
	}
	return out, nil
}

// PartitionValues is PartitionBits computed from an extraction instead
// of the column: the row of each of x's values goes to the first of the
// Range predicates admitting it, so the region bitmaps are bit-identical
// to PartitionBits over the selection x was extracted under — NaN, like
// NULL, falls in no region. x must be as ExtractNumericUnder left it.
// Numeric CUT partitions this way from the values it already read to
// find its edges, so a cut reads its column once. A cut's predicates are
// a chain whose ends are the extremes of its values, so unless x holds
// NaN its summary proves every value passes the chain's gate, which is
// then skipped: a median split is one comparison per value.
func PartitionValues(x *NumericExtract, preds []query.Predicate) ([]*bitvec.Vector, error) {
	if len(preds) == 0 {
		return nil, fmt.Errorf("engine: partition with zero predicates")
	}
	for _, p := range preds {
		if p.Kind != query.Range {
			return nil, fmt.Errorf("engine: value partition needs Range predicates, got %v on %q", p.Kind, p.Attr)
		}
	}
	out := make([]*bitvec.Vector, len(preds))
	outWords := make([][]uint64, len(preds))
	for i := range out {
		out[i] = bitvec.New(x.rows)
		outWords[i] = out[i].Words()
	}
	if c, ok := chainOf(preds); ok {
		gate := x.Sum.NaN > 0 || x.Sum.Min < c.lo || x.Sum.Max > c.hi
		partitionChainValues(&c, gate, x.Vals, x.Present, outWords)
	} else {
		partitionValues(compileRanges(preds), x.Vals, x.Present, outWords)
	}
	return out, nil
}

func predsAreKind(preds []query.Predicate, kind query.PredKind, col storage.Column) error {
	for _, p := range preds {
		if p.Kind != kind {
			return kindErr(p, col)
		}
	}
	return nil
}

// AssignFromPartition builds an Assignment directly from the disjoint
// per-region bitmaps of PartitionBits — no re-evaluation of the region
// queries. The caller guarantees disjointness.
func AssignFromPartition(regionBits []*bitvec.Vector, base *bitvec.Vector) *Assignment {
	counts := make([]int, len(regionBits))
	assigned := 0
	for i, rv := range regionBits {
		counts[i] = rv.Count()
		assigned += counts[i]
	}
	return &Assignment{
		Regions:    len(regionBits),
		Counts:     counts,
		Rest:       base.Count() - assigned,
		n:          base.Len(),
		regionBits: regionBits,
	}
}
