package storage

import (
	"context"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/obsv"
	"repro/internal/par"
)

// Runs reads one column of a table as word-aligned runs of chunk
// payloads: the one reader of every scan, partition, extraction, screen,
// partial and summary, whatever holds the column. Runs are the table's
// chunks: a resident column's are zero-copy views of its slices, built
// once with its table, and a lazy column's are fetched on demand. Every
// run but the last holds the same number of rows, a multiple of 64, so
// runs cover disjoint ranges of selection words.
type Runs struct {
	col   Column
	lazy  *LazyColumn    // nil for resident columns
	views []ChunkPayload // a resident column's runs
	size  int
	rows  int
	err   error // a lazy column whose chunks are not the table's runs
}

// Runs returns the reader of column ci.
func (t *Table) Runs(ci int) *Runs {
	r := &Runs{col: t.cols[ci], views: t.runs[ci], rows: t.rows, size: t.chunking.Size}
	if lc, ok := r.col.(*LazyColumn); ok {
		r.lazy = lc
		if lc.chunkSize != r.size {
			r.err = fmt.Errorf("storage: lazy column %d has %d-row chunks, its table %d-row runs", lc.ci, lc.chunkSize, r.size)
		}
	}
	return r
}

// lazyRuns reads a lazy column on its own chunk grid.
func lazyRuns(c *LazyColumn) *Runs {
	return &Runs{col: c, lazy: c, size: c.chunkSize, rows: c.rows}
}

// Type returns the column's data type.
func (r *Runs) Type() DataType { return r.col.Type() }

// Fetches reports whether reading a run fetches a chunk from a store,
// as a lazy column's do, rather than viewing resident memory.
func (r *Runs) Fetches() bool { return r.lazy != nil }

// Dictionary returns the dictionary of a String column, resident or
// lazy.
func Dictionary(c Column) ([]string, error) {
	switch c := c.(type) {
	case *StringColumn:
		return c.dict, nil
	case *LazyColumn:
		if c.typ == String {
			return c.dict, nil
		}
	}
	return nil, fmt.Errorf("storage: no dictionary on a %v column", c.Type())
}

// DictLen returns the dictionary length of a String column.
func (r *Runs) DictLen() int {
	dict, _ := Dictionary(r.col)
	return len(dict)
}

// Hint hands a lazy column's source the window ks of runs the caller is
// about to read (see ChunkSource.PrefetchChunks); resident runs need no
// loading.
func (r *Runs) Hint(ctx context.Context, ks []int) {
	if r.lazy != nil {
		r.lazy.PrefetchHint(ctx, ks)
	}
}

// Run returns run k. A lazy column fetches the chunk under ctx and
// reports the fetch to bill (when non-nil): hit is true when a decoded
// cache served it. A resident view is no fetch and bills nothing.
func (r *Runs) Run(ctx context.Context, k int, bill func(hit bool)) (*ChunkPayload, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.lazy == nil {
		if k < 0 || k >= len(r.views) {
			return nil, fmt.Errorf("storage: run %d of a %T out of range", k, r.col)
		}
		return &r.views[k], nil
	}
	p, hit, err := r.lazy.Chunk(ctx, k)
	if err != nil {
		return nil, err
	}
	if bill != nil {
		bill(hit)
	}
	return p, nil
}

// Walk reads, in row order, every run (sel nil) or only the runs holding
// a selected row of sel, a bitmap over the column's rows, and hands each
// to fn: p is the run's payload, w0 the word of p's row 0 and sw sel's
// words over p's rows (nil when sel is nil). Only the runs sel's window
// reaches are visited, and a run the window cuts short is handed from
// the window's first word on, p starting there, and with sw ending at
// its last. Every fetch is preceded by the hint of the window of runs it
// opens, so a remote source loads a window per round trip; real fetches
// are reported to bill as Run does. With workers > 1 runs are read
// concurrently, each on its own words. The walk polls ctx before each
// run, failing with the cancellation error of stage op.
func (r *Runs) Walk(ctx context.Context, sel *bitvec.Vector, workers int, op string, bill func(hit bool), fn func(w0 int, sw []uint64, p *ChunkPayload)) error {
	return r.walk(ctx, sel, workers, op, bill, true, func(w0 int, sw []uint64, p *ChunkPayload) bool {
		fn(w0, sw, p)
		return true
	})
}

// WalkUntil is a serial Walk that stops once fn returns false. Since it
// may stop early, its first fetch is not hinted — a walk that ends in
// its first run loads no window. Its fetches are reported to bill as
// Walk's are.
func (r *Runs) WalkUntil(ctx context.Context, sel *bitvec.Vector, op string, bill func(hit bool), fn func(w0 int, sw []uint64, p *ChunkPayload) bool) error {
	return r.walk(ctx, sel, 1, op, bill, false, fn)
}

// errStopWalk ends a walk whose visitor has seen enough.
var errStopWalk = errors.New("storage: walk stopped")

func (r *Runs) walk(ctx context.Context, sel *bitvec.Vector, workers int, op string, bill func(hit bool), hintFirst bool, fn func(w0 int, sw []uint64, p *ChunkPayload) bool) error {
	words, wordsPerRun := (r.rows+63)/64, r.size/64
	var (
		sw0      int
		selWords []uint64
	)
	// The walk visits runs [k0, k1): every run, or those sel's window
	// reaches. A fetching walk lists the runs it reads in ks first, to
	// hint each window of them before fetching; a resident walk skips
	// its empty runs in place.
	k0, k1 := 0, (r.rows+r.size-1)/r.size
	if sel != nil {
		if sel.Len() != r.rows {
			return fmt.Errorf("storage: selection of %d rows over %d rows", sel.Len(), r.rows)
		}
		sw0, selWords = sel.Window()
		k0, k1 = 0, 0
		if len(selWords) > 0 {
			k0, k1 = sw0/wordsPerRun, (sw0+len(selWords)-1)/wordsPerRun+1
		}
	}
	var ks []int
	if r.lazy != nil {
		if sel == nil {
			ks = make([]int, k1)
			for k := range ks {
				ks[k] = k
			}
		} else {
			ks = touchedChunks(sw0, selWords, wordsPerRun)
		}
		k0, k1 = 0, len(ks)
	}
	err := par.For(workers, k1-k0, func(ti int) error {
		if err := obsv.CheckCtx(ctx, op); err != nil {
			return err
		}
		k := k0 + ti
		if ks != nil {
			if ti > 0 || hintFirst {
				r.Hint(ctx, hintWindow(ks, ti))
			}
			k = ks[ti]
		}
		w0 := k * wordsPerRun
		var sw []uint64
		a := w0
		if sel != nil {
			a = max(w0, sw0)
			sw = selWords[a-sw0 : min(w0+wordsPerRun, words, sw0+len(selWords))-sw0]
			if ks == nil && !anyWord(sw) {
				return nil
			}
		}
		p, err := r.Run(ctx, k, bill)
		if err != nil {
			return err
		}
		if !fn(a, sw, p.FromWord(a-w0)) {
			return errStopWalk
		}
		return nil
	})
	if err == errStopWalk {
		return nil
	}
	return err
}

// FromWord returns the payload of p's rows from word k of the run on: a
// view sharing p's slices, or p itself when k is 0.
func (p *ChunkPayload) FromWord(k int) *ChunkPayload {
	if k == 0 {
		return p
	}
	q, lo := *p, k*64
	if p.Ints != nil {
		q.Ints = p.Ints[lo:]
	}
	if p.Floats != nil {
		q.Floats = p.Floats[lo:]
	}
	if p.Bools != nil {
		q.Bools = p.Bools[lo:]
	}
	if p.Codes != nil {
		q.Codes = p.Codes[lo:]
	}
	if p.Nulls != nil {
		q.Nulls = p.Nulls[k:]
	}
	return &q
}

// residentRun sets p to the zero-copy payload view of rows [lo, hi) of a
// resident column; lo is a multiple of 64.
func residentRun(p *ChunkPayload, col Column, lo, hi int) error {
	var nulls *nullSet
	switch c := col.(type) {
	case *Int64Column:
		p.Ints, nulls = c.vals[lo:hi], &c.nullSet
	case *Float64Column:
		p.Floats, nulls = c.vals[lo:hi], &c.nullSet
	case *BoolColumn:
		p.Bools, nulls = c.vals[lo:hi], &c.nullSet
	case *StringColumn:
		p.Codes, nulls = c.codes[lo:hi], &c.nullSet
	default:
		return fmt.Errorf("storage: unsupported column type %T", col)
	}
	if nulls.nulls != nil {
		_, words := nulls.nulls.Window() // null bitmaps hold every word
		runWords := words[lo/64 : (hi+63)/64]
		for _, w := range runWords {
			if w != 0 {
				p.Nulls = runWords
				break
			}
		}
	}
	return nil
}

// anyWord reports whether any of words is non-zero.
func anyWord(words []uint64) bool {
	for _, w := range words {
		if w != 0 {
			return true
		}
	}
	return false
}

// touchedChunks lists, ascending, the chunks (wordsPerChunk selection
// words each) that hold at least one selected row of words, a
// selection's window from word w0 on — the chunks a selection-driven
// pass fetches, known before it fetches any.
func touchedChunks(w0 int, words []uint64, wordsPerChunk int) []int {
	var touched []int
	for i := 0; i < len(words); {
		k := (w0 + i) / wordsPerChunk
		next := min((k+1)*wordsPerChunk-w0, len(words))
		for _, w := range words[i:next] {
			if w != 0 {
				touched = append(touched, k)
				break
			}
		}
		i = next
	}
	return touched
}

// hintWindow returns the window of the chunks of touched, read in order,
// that starts at touched[ti]: at most PrefetchWindow of them. The result
// aliases touched.
func hintWindow(touched []int, ti int) []int {
	return touched[ti:min(ti+PrefetchWindow, len(touched))]
}

// EachRow calls fn(i, l) for the non-NULL rows of the run that sel
// selects, in ascending order, until fn returns false: sel are the
// selection words over the run's rows, w0 the word of its row 0, i is
// the row and l its index in the run. It reports whether fn never
// returned false.
func (p *ChunkPayload) EachRow(sel []uint64, w0 int, fn func(i, l int) bool) bool {
	for wi, w := range sel {
		if p.Nulls != nil {
			w &^= p.Nulls[wi]
		}
		for ; w != 0; w &= w - 1 {
			if l := wi*64 + bits.TrailingZeros64(w); !fn(w0*64+l, l) {
				return false
			}
		}
	}
	return true
}

// EachFloat calls fn with every non-NULL value of a numeric run in row
// order, Int64 widened: the typed loop is picked once per run.
func (p *ChunkPayload) EachFloat(fn func(v float64)) {
	if p.Ints != nil {
		for i, v := range p.Ints {
			if !p.IsNull(i) {
				fn(float64(v))
			}
		}
		return
	}
	for i, v := range p.Floats {
		if !p.IsNull(i) {
			fn(v)
		}
	}
}

// CountCodes adds the run's non-NULL dictionary codes into counts.
func (p *ChunkPayload) CountCodes(counts []int) {
	for i, code := range p.Codes {
		// Null check first: null rows may carry placeholder codes.
		if !p.IsNull(i) {
			counts[code]++
		}
	}
}

// CountBools returns the run's non-NULL false and true counts.
func (p *ChunkPayload) CountBools() (falses, trues int) {
	for i, v := range p.Bools {
		if p.IsNull(i) {
			continue
		}
		if v {
			trues++
		} else {
			falses++
		}
	}
	return falses, trues
}

// Materialize returns t with every lazy column decoded into a resident
// one (t itself when every column is resident) — the adapter that lets
// an opened lazy store be re-ingested with full zone maps.
func (t *Table) Materialize() (*Table, error) {
	cols := make([]Column, len(t.cols))
	lazy := false
	for ci, c := range t.cols {
		cols[ci] = c
		if lc, ok := c.(*LazyColumn); ok {
			mat, err := lc.Materialize()
			if err != nil {
				return nil, fmt.Errorf("storage: materializing column %q: %w", t.schema.Field(ci).Name, err)
			}
			cols[ci], lazy = mat, true
		}
	}
	if !lazy {
		return t, nil
	}
	return NewTable(t.name, t.schema, cols)
}
