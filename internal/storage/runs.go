package storage

import (
	"context"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/obsv"
	"repro/internal/par"
)

// Runs reads one column of a table as word-aligned runs of chunk
// payloads: the one reader of every scan, partition, extraction, screen,
// partial and summary, whatever holds the column. A resident column's runs are zero-copy views of its slices — one run
// for an unchunked table, one per chunk for a chunked one — and a lazy
// column's runs are its chunks, fetched on demand. Every run but the
// last holds the same number of rows, a multiple of 64, so runs cover
// disjoint ranges of selection words.
type Runs struct {
	col  Column
	lazy *LazyColumn // nil for resident columns
	size int
	rows int
	err  error // a lazy column whose chunks are not the table's runs
}

// RunRows returns the rows per run of every column of t: its chunk
// size, or for an unchunked table all its rows, rounded up to a word.
func (t *Table) RunRows() int {
	if t.chunking != nil {
		return t.chunking.Size
	}
	return max(64, (t.rows+63)&^63)
}

// Runs returns the reader of column ci.
func (t *Table) Runs(ci int) *Runs {
	r := &Runs{col: t.cols[ci], rows: t.rows, size: t.RunRows()}
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

// Dictionary returns the dictionary of a String column, resolving a
// lazy column's on first use.
func Dictionary(c Column) ([]string, error) {
	switch c := c.(type) {
	case *StringColumn:
		return c.dict, nil
	case *LazyColumn:
		return c.DictValues()
	default:
		return nil, fmt.Errorf("storage: no dictionary on a %v column", c.Type())
	}
}

// DictLen returns the dictionary length of a String column when it is
// known without loading anything — a resident column's, or a lazy
// column's once resolved — and ok false otherwise.
func (r *Runs) DictLen() (n int, ok bool) {
	switch c := r.col.(type) {
	case *StringColumn:
		return len(c.dict), true
	case *LazyColumn:
		if c.dictReady.Load() {
			return len(c.dict), true
		}
	}
	return 0, false
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
		lo := k * r.size
		return residentRun(r.col, lo, min(lo+r.size, r.rows))
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
// to fn with the selection words [w0, w1) it covers; run row 0 is row
// w0*64. Every fetch is preceded by the hint of the window of runs it
// opens, so a remote source loads a window per round trip; real fetches
// are reported to bill as Run does. With workers > 1 runs are read
// concurrently, each on its own words. The walk polls ctx before each
// run, failing with the cancellation error of stage op.
func (r *Runs) Walk(ctx context.Context, sel []uint64, workers int, op string, bill func(hit bool), fn func(w0, w1 int, p *ChunkPayload)) error {
	return r.walk(ctx, sel, workers, op, bill, true, func(w0, w1 int, p *ChunkPayload) bool {
		fn(w0, w1, p)
		return true
	})
}

// WalkUntil is a serial Walk that stops once fn returns false. Since it
// may stop early, its first fetch is not hinted — a walk that ends in
// its first run loads no window — and its fetches bill nothing.
func (r *Runs) WalkUntil(ctx context.Context, sel []uint64, op string, fn func(w0, w1 int, p *ChunkPayload) bool) error {
	return r.walk(ctx, sel, 1, op, nil, false, fn)
}

// errStopWalk ends a walk whose visitor has seen enough.
var errStopWalk = errors.New("storage: walk stopped")

func (r *Runs) walk(ctx context.Context, sel []uint64, workers int, op string, bill func(hit bool), hintFirst bool, fn func(w0, w1 int, p *ChunkPayload) bool) error {
	words, wordsPerRun := (r.rows+63)/64, r.size/64
	var ks []int
	if sel == nil {
		ks = make([]int, (r.rows+r.size-1)/r.size)
		for k := range ks {
			ks[k] = k
		}
	} else {
		if len(sel) != words {
			return fmt.Errorf("storage: selection of %d words over %d rows", len(sel), r.rows)
		}
		ks = touchedChunks(sel, wordsPerRun)
	}
	err := par.For(workers, len(ks), func(ti int) error {
		if err := obsv.CheckCtx(ctx, op); err != nil {
			return err
		}
		if ti > 0 || hintFirst {
			r.Hint(ctx, hintWindow(ks, ti))
		}
		k := ks[ti]
		p, err := r.Run(ctx, k, bill)
		if err != nil {
			return err
		}
		w0 := k * wordsPerRun
		if !fn(w0, min(w0+wordsPerRun, words), p) {
			return errStopWalk
		}
		return nil
	})
	if err == errStopWalk {
		return nil
	}
	return err
}

// residentRun is the zero-copy payload view of rows [lo, hi) of a
// resident column; lo is a multiple of 64.
func residentRun(col Column, lo, hi int) (*ChunkPayload, error) {
	p := &ChunkPayload{}
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
		return nil, fmt.Errorf("storage: unsupported column type %T", col)
	}
	if nulls.nulls != nil {
		runWords := nulls.nulls.Words()[lo/64 : (hi+63)/64]
		for _, w := range runWords {
			if w != 0 {
				p.Nulls = runWords
				break
			}
		}
	}
	return p, nil
}

// touchedChunks lists, ascending, the chunks (wordsPerChunk selection
// words each) that hold at least one selected row — the chunks a
// selection-driven pass fetches, known before it fetches any.
func touchedChunks(words []uint64, wordsPerChunk int) []int {
	var touched []int
	for w0 := 0; w0 < len(words); w0 += wordsPerChunk {
		for _, w := range words[w0:min(w0+wordsPerChunk, len(words))] {
			if w != 0 {
				touched = append(touched, w0/wordsPerChunk)
				break
			}
		}
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
// selects, in ascending order, until fn returns false: sel[w0:w1] are the
// selection words the run covers, i is the row and l its index in the
// run. It reports whether fn never returned false.
func (p *ChunkPayload) EachRow(sel []uint64, w0, w1 int, fn func(i, l int) bool) bool {
	for wi, w := range sel[w0:w1] {
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
