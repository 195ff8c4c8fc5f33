package engine

import (
	"fmt"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/obsv"
	"repro/internal/par"
	"repro/internal/query"
	"repro/internal/storage"
)

// PartitionBits assigns every selected row to the first of the given
// single-attribute predicates it satisfies, in one pass over the column:
// the fused kernel behind CUT-produced region partitions. It returns one
// disjoint bitmap per predicate; NULL rows and rows matching no
// predicate are left out. For categorical columns the predicates are
// compiled to a code→region table, making the per-row cost O(1)
// regardless of the number of regions.
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
	place := func(i, ri int) {
		outWords[ri][i>>6] |= uint64(1) << uint(i&63)
	}
	// visiting adapts a per-row visitor to a word range.
	visiting := func(visit func(i int)) func(w0, w1 int, _ *storage.ChunkPayload) {
		return func(w0, w1 int, _ *storage.ChunkPayload) { visitSelectedRange(selWords, w0, w1, visit) }
	}

	// part resolves the selected rows of words [w0, w1): tests each against
	// the predicates in order and records the first match. Rows are only
	// ever touched once and chunk boundaries are word-aligned, so driving
	// part over disjoint word ranges from several workers races on
	// nothing. On memory-tiered columns p is the fetched payload of the
	// chunk those words cover; chunks with no selected rows are never
	// fetched. Numeric columns of every kind share one compiled kernel.
	var part func(w0, w1 int, p *storage.ChunkPayload)
	var lazyCol *storage.LazyColumn
	switch c := col.(type) {
	case *storage.Int64Column:
		if err := predsAreKind(preds, query.Range, col); err != nil {
			return nil, err
		}
		part = eagerRangePart(compileRanges(preds), c.Values(), storage.NullWords(c), selWords, outWords)
	case *storage.Float64Column:
		if err := predsAreKind(preds, query.Range, col); err != nil {
			return nil, err
		}
		part = eagerRangePart(compileRanges(preds), c.Values(), storage.NullWords(c), selWords, outWords)
	case *storage.StringColumn:
		if err := predsAreKind(preds, query.In, col); err != nil {
			return nil, err
		}
		// compile once: dictionary code → first admitting region
		region := make([]int32, c.Cardinality())
		for i := range region {
			region[i] = -1
		}
		for ri, p := range preds {
			for _, v := range p.Values {
				if code, ok := c.CodeOf(v); ok && region[code] < 0 {
					region[code] = int32(ri)
				}
			}
		}
		codes := c.Codes()
		part = visiting(func(i int) {
			// Null check first: null rows may carry placeholder codes.
			if c.IsNull(i) {
				return
			}
			if ri := region[codes[i]]; ri >= 0 {
				place(i, int(ri))
			}
		})
	case *storage.BoolColumn:
		if err := predsAreKind(preds, query.BoolEq, col); err != nil {
			return nil, err
		}
		vals := c.Values()
		part = visiting(func(i int) {
			if c.IsNull(i) {
				return
			}
			for ri := range preds {
				if preds[ri].MatchBool(vals[i]) {
					place(i, ri)
					return
				}
			}
		})
	case *storage.LazyColumn:
		lazyCol = c
		part, err = compileLazyPart(c, preds, selWords, outWords, place)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("engine: unsupported column type %T", col)
	}

	if lazyCol != nil {
		// Only chunks holding a selected row are fetched.
		if err := fetchTouched(t, lazyCol, selWords, opts.Workers, opts, "engine.partition", part); err != nil {
			return nil, err
		}
		return out, nil
	}
	ck := t.Chunking()
	if ck == nil || opts.Workers <= 1 {
		part(0, len(selWords), nil)
		return out, nil
	}
	ctx := opts.context()
	numChunks := ck.NumChunks(n)
	wordsPerChunk := ck.Size / 64
	err = par.For(min(opts.Workers, numChunks), numChunks, func(k int) error {
		// Chunk-granular cancellation, before any row visit.
		if err := obsv.CheckCtx(ctx, "engine.partition"); err != nil {
			return err
		}
		w0 := k * wordsPerChunk
		part(w0, min(w0+wordsPerChunk, len(selWords)), nil)
		return nil
	})
	if err != nil {
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
// find its edges, so a cut reads its column once.
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
	partitionValues(compileRanges(preds), x.Vals, x.Present, outWords)
	return out, nil
}

// eagerRangePart is the numeric partition pass over an in-memory column.
func eagerRangePart[T numeric](ms []rangeMatcher, vals []T, nulls, sel []uint64, out [][]uint64) func(w0, w1 int, _ *storage.ChunkPayload) {
	return func(w0, w1 int, _ *storage.ChunkPayload) {
		var runNulls []uint64
		if nulls != nil {
			runNulls = nulls[w0:]
		}
		partitionRanges(ms, vals[w0*64:], runNulls, sel, out, w0, w1)
	}
}

// compileLazyPart builds the per-chunk partition pass over a
// memory-tiered column: p is the payload of the chunk starting at row
// w0*64.
func compileLazyPart(c *storage.LazyColumn, preds []query.Predicate, sel []uint64, out [][]uint64, place func(i, ri int)) (func(w0, w1 int, p *storage.ChunkPayload), error) {
	switch c.Type() {
	case storage.Int64, storage.Float64:
		if err := predsAreKind(preds, query.Range, c); err != nil {
			return nil, err
		}
		ms := compileRanges(preds)
		if c.Type() == storage.Int64 {
			return func(w0, w1 int, p *storage.ChunkPayload) {
				partitionRanges(ms, p.Ints, p.Nulls, sel, out, w0, w1)
			}, nil
		}
		return func(w0, w1 int, p *storage.ChunkPayload) {
			partitionRanges(ms, p.Floats, p.Nulls, sel, out, w0, w1)
		}, nil
	case storage.String:
		if err := predsAreKind(preds, query.In, c); err != nil {
			return nil, err
		}
		dict, err := c.DictValues()
		if err != nil {
			return nil, err
		}
		// compile once: dictionary code → first admitting region
		index := make(map[string]int32, len(dict))
		for code, v := range dict {
			index[v] = int32(code)
		}
		region := make([]int32, len(dict))
		for i := range region {
			region[i] = -1
		}
		for ri, p := range preds {
			for _, v := range p.Values {
				if code, ok := index[v]; ok && region[code] < 0 {
					region[code] = int32(ri)
				}
			}
		}
		return func(w0, w1 int, p *storage.ChunkPayload) {
			lo := w0 * 64
			visitSelectedRange(sel, w0, w1, func(i int) {
				l := i - lo
				// Null check first: null rows may carry placeholder codes.
				if p.IsNull(l) {
					return
				}
				if ri := region[p.Codes[l]]; ri >= 0 {
					place(i, int(ri))
				}
			})
		}, nil
	case storage.Bool:
		if err := predsAreKind(preds, query.BoolEq, c); err != nil {
			return nil, err
		}
		return func(w0, w1 int, p *storage.ChunkPayload) {
			lo := w0 * 64
			visitSelectedRange(sel, w0, w1, func(i int) {
				l := i - lo
				if p.IsNull(l) {
					return
				}
				for ri := range preds {
					if preds[ri].MatchBool(p.Bools[l]) {
						place(i, ri)
						return
					}
				}
			})
		}, nil
	default:
		return nil, fmt.Errorf("engine: unsupported lazy column type %v", c.Type())
	}
}

func predsAreKind(preds []query.Predicate, kind query.PredKind, col storage.Column) error {
	for _, p := range preds {
		if p.Kind != kind {
			return kindErr(p, col)
		}
	}
	return nil
}

// visitSelectedRange visits the set bits of words[w0:w1] in ascending
// order; zero words cost one load each.
func visitSelectedRange(words []uint64, w0, w1 int, fn func(i int)) {
	for wi := w0; wi < w1; wi++ {
		base := wi * 64
		for w := words[wi]; w != 0; w &= w - 1 {
			fn(base + bits.TrailingZeros64(w))
		}
	}
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
