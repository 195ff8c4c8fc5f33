package storage

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/bitvec"
)

// This file is the memory-tier boundary of the storage layer: columns
// whose values live in a backing store (an mmapped .atl segment file, a
// shard set routing to several of them) and decode chunk by chunk on
// first touch. A LazyColumn satisfies Column, so the edges (rendering,
// gathers) keep working row by row; the passes over column values do
// not tell it apart from a resident column at all. They read every
// column through Runs (runs.go), which serves a lazy column's chunks
// through the error-returning Chunk accessor — fetching a chunk only
// when a pass asks for it — and a resident column's as zero-copy views.

// ChunkPayload is one decoded chunk of one column: exactly one of the
// value slices is non-nil, matching the column type, with chunk-local
// indexing (row i of the chunk is element i). Payloads are immutable
// once returned by a ChunkSource; they may be shared across goroutines
// and outlive their cache entry (eviction drops the cache's reference,
// not the caller's).
type ChunkPayload struct {
	// Ints, Floats, Bools, Codes hold the chunk's values for Int64,
	// Float64, Bool and String columns respectively.
	Ints   []int64
	Floats []float64
	Bools  []bool
	Codes  []uint32
	// Nulls holds the chunk's packed null-bitmap words (chunk-local: bit
	// i of word i/64 covers chunk row i), or nil when the chunk has no
	// NULLs.
	Nulls []uint64
}

// Rows returns the chunk's row count.
func (p *ChunkPayload) Rows() int {
	switch {
	case p.Ints != nil:
		return len(p.Ints)
	case p.Floats != nil:
		return len(p.Floats)
	case p.Bools != nil:
		return len(p.Bools)
	default:
		return len(p.Codes)
	}
}

// IsNull reports whether chunk-local row i is NULL.
func (p *ChunkPayload) IsNull(i int) bool {
	return p.Nulls != nil && p.Nulls[i>>6]&(1<<uint(i&63)) != 0
}

// MemBytes estimates the payload's decoded size for cache accounting.
func (p *ChunkPayload) MemBytes() int64 {
	n := int64(len(p.Ints))*8 + int64(len(p.Floats))*8 +
		int64(len(p.Bools)) + int64(len(p.Codes))*4 + int64(len(p.Nulls))*8
	return n
}

// ChunkSource supplies decoded column chunks on demand — the
// materialization hook behind lazy tables, and the only chunk interface:
// a local file, a remote shard client and a shard set's routing source
// all implement exactly this. Implementations must be safe for
// concurrent use and must always return identical payload contents for
// the same (column, chunk), regardless of cache state: that is what
// keeps lazy scans byte-identical to eager ones at any cache budget.
type ChunkSource interface {
	// FetchChunk returns chunk k of column ci. hit reports whether the
	// payload was served from a decoded-chunk cache (false = it was
	// decoded for this call: by the call itself, or by a prefetch or
	// window hinted ahead of it). I/O on a miss runs under ctx: it is
	// cancelled with it, traced under its span and billed to its
	// resource ledger.
	FetchChunk(ctx context.Context, ci, k int) (p *ChunkPayload, hit bool, err error)
	// PrefetchChunks hands the source the window a scan is about to read:
	// chunks ks of column ci, ascending, at most PrefetchWindow of them,
	// every one of which the scan will fetch, ks[0] next. Loads share the
	// fetch path's single-flight cache, so the scan's FetchChunk either
	// hits or joins them, and bill ctx's ledger — the query that hinted
	// them. When ks[0] is neither resident nor loading, a remote source
	// loads the window's non-resident chunks in one round trip under ctx,
	// before it returns: the window is demand, so it may evict LRU
	// entries, but it is capped at a fraction of the cache budget so it
	// never evicts itself or a concurrent window. A local file, whose
	// reads are cheap, overlaps one: when ks[0] is about to miss, it
	// prefetches ks[1] asynchronously, detached from ctx's cancellation,
	// and only when it fits without evicting. Sources with nothing to load
	// ignore the hint. ks is only read during the call.
	PrefetchChunks(ctx context.Context, ci int, ks []int)
}

// PrefetchWindow bounds the chunks one PrefetchChunks hint names. The
// walkers of Runs and the engine's scan hint, before each fetch, the
// window it opens: the fetched chunk and the ones they will read after
// it. A remote source
// with nothing to do for a window whose first chunk is resident or
// loading returns at once, so windows load exactly where the scan would
// otherwise miss.
const PrefetchWindow = 16

// ChunkError is the named error for a chunk that could not be read or
// decoded on first touch (CRC mismatch, short read, corrupt encoding).
// It is returned by the error-aware access paths and carried by the
// panic of the error-free Column accessors; engine entry points convert
// either form into a plain error, so a corrupted chunk fails an
// exploration instead of crashing it.
type ChunkError struct {
	Col, Chunk int
	Err        error
}

func (e *ChunkError) Error() string {
	return fmt.Sprintf("storage: column %d chunk %d: %v", e.Col, e.Chunk, e.Err)
}

func (e *ChunkError) Unwrap() error { return e.Err }

// AsChunkPanic converts a recovered panic value back into the
// *ChunkError a lazy Column accessor carried, or nil when the panic (if
// any) was something else — in which case the caller must re-panic.
func AsChunkPanic(r any) *ChunkError {
	if ce, ok := r.(*ChunkError); ok {
		return ce
	}
	return nil
}

// LazyColumn is a Column whose values decode chunk-wise from a
// ChunkSource on first touch. The interface accessors (IsNull, Value,
// Render, At-style access via Value, Gather) fault chunks in
// transparently and panic with a *ChunkError if the backing store fails;
// passes over its values read it through Runs and get errors instead.
type LazyColumn struct {
	src       ChunkSource
	ci        int
	typ       DataType
	rows      int
	chunkSize int
	nullCount int

	// dictOnce resolves the dictionary of String columns on first use;
	// deferred stores load it without touching value chunks.
	dictOnce sync.Once
	dictFn   func() ([]string, error)
	dict     []string
	dictErr  error
	// dictReady is set once dict holds the resolved dictionary.
	dictReady atomic.Bool
}

// LazyColumnConfig assembles a LazyColumn.
type LazyColumnConfig struct {
	// Source supplies the column's chunks.
	Source ChunkSource
	// Col is the column index FetchChunk is called with.
	Col int
	// Type is the column's data type.
	Type DataType
	// Rows is the column length.
	Rows int
	// ChunkSize is the rows per chunk (positive multiple of 64).
	ChunkSize int
	// NullCount is the column's total NULL count (known from zone maps).
	NullCount int
	// Dict is the dictionary of String columns. Exactly one of Dict and
	// DictFn must be set for String columns.
	Dict []string
	// DictFn lazily resolves the dictionary on first use, for sources
	// that can defer even metadata reads.
	DictFn func() ([]string, error)
}

// NewLazyColumn builds a lazy column over a chunk source.
func NewLazyColumn(cfg LazyColumnConfig) (*LazyColumn, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("storage: lazy column with nil source")
	}
	if cfg.ChunkSize <= 0 || cfg.ChunkSize%64 != 0 {
		return nil, fmt.Errorf("storage: lazy column chunk size %d must be a positive multiple of 64", cfg.ChunkSize)
	}
	if cfg.Rows < 0 {
		return nil, fmt.Errorf("storage: lazy column with %d rows", cfg.Rows)
	}
	c := &LazyColumn{
		src: cfg.Source, ci: cfg.Col, typ: cfg.Type, rows: cfg.Rows,
		chunkSize: cfg.ChunkSize, nullCount: cfg.NullCount,
		dictFn: cfg.DictFn,
	}
	if cfg.Type == String && cfg.DictFn == nil {
		dict := cfg.Dict
		c.dictFn = func() ([]string, error) { return dict, nil }
	}
	return c, nil
}

// Type implements Column.
func (c *LazyColumn) Type() DataType { return c.typ }

// Len implements Column.
func (c *LazyColumn) Len() int { return c.rows }

// NullCount implements Column; the total is known from zone maps, so no
// chunk is touched.
func (c *LazyColumn) NullCount() int { return c.nullCount }

// NumChunks returns the chunk count covering the column.
func (c *LazyColumn) NumChunks() int {
	if c.rows == 0 {
		return 0
	}
	return (c.rows + c.chunkSize - 1) / c.chunkSize
}

// Chunk fetches chunk k under ctx, reporting whether it came from cache.
func (c *LazyColumn) Chunk(ctx context.Context, k int) (*ChunkPayload, bool, error) {
	p, hit, err := c.src.FetchChunk(ctx, c.ci, k)
	if err != nil {
		return nil, false, &ChunkError{Col: c.ci, Chunk: k, Err: err}
	}
	return p, hit, nil
}

// chunkOrPanic is Chunk for the error-free Column accessors, whose
// signatures carry no context.
func (c *LazyColumn) chunkOrPanic(k int) *ChunkPayload {
	p, _, err := c.Chunk(context.TODO(), k)
	if err != nil {
		panic(err.(*ChunkError))
	}
	return p
}

// PrefetchHint hands the column's source the window of chunks ks
// (ascending, at most PrefetchWindow, all of which the caller will
// fetch, ks[0] next) — see ChunkSource.PrefetchChunks. The walkers of
// Runs and the engine's scan hint before their fetches, which is what
// turns a remote source's per-chunk round trips into one per window.
func (c *LazyColumn) PrefetchHint(ctx context.Context, ks []int) {
	if len(ks) > 0 {
		c.src.PrefetchChunks(ctx, c.ci, ks)
	}
}

// DictValues returns the dictionary of a String column, resolving it on
// first use.
func (c *LazyColumn) DictValues() ([]string, error) {
	if c.typ != String {
		return nil, fmt.Errorf("storage: DictValues on %v column", c.typ)
	}
	c.dictOnce.Do(func() {
		c.dict, c.dictErr = c.dictFn()
		c.dictReady.Store(c.dictErr == nil)
	})
	return c.dict, c.dictErr
}

// Dict returns the dictionary, panicking with a *ChunkError when it
// cannot be resolved — the error-free counterpart of DictValues for
// Column-interface consumers.
func (c *LazyColumn) Dict() []string {
	dict, err := c.DictValues()
	if err != nil {
		panic(&ChunkError{Col: c.ci, Chunk: -1, Err: err})
	}
	return dict
}

// Cardinality returns the dictionary size of a String column.
func (c *LazyColumn) Cardinality() int { return len(c.Dict()) }

// IsNull implements Column, faulting in the row's chunk.
func (c *LazyColumn) IsNull(i int) bool {
	if c.nullCount == 0 {
		return false
	}
	p := c.chunkOrPanic(i / c.chunkSize)
	return p.IsNull(i % c.chunkSize)
}

// Value implements Column, faulting in the row's chunk.
func (c *LazyColumn) Value(i int) any {
	p := c.chunkOrPanic(i / c.chunkSize)
	l := i % c.chunkSize
	if p.IsNull(l) {
		return nil
	}
	switch c.typ {
	case Int64:
		return p.Ints[l]
	case Float64:
		return p.Floats[l]
	case Bool:
		return p.Bools[l]
	default:
		return c.Dict()[p.Codes[l]]
	}
}

// Render implements Column.
func (c *LazyColumn) Render(i int) string {
	v := c.Value(i)
	if v == nil {
		return ""
	}
	return renderValue(v)
}

// Gather implements Column: the result is an eager column (gathers are
// small working sets — samples, join outputs). Chunks are fetched at
// most once per run of indexes falling in them.
func (c *LazyColumn) Gather(idx []int) Column {
	var (
		ints   []int64
		floats []float64
		bools  []bool
		codes  []uint32
	)
	switch c.typ {
	case Int64:
		ints = make([]int64, len(idx))
	case Float64:
		floats = make([]float64, len(idx))
	case Bool:
		bools = make([]bool, len(idx))
	default:
		codes = make([]uint32, len(idx))
	}
	var nulls *bitvec.Vector
	lastK := -1
	var p *ChunkPayload
	for o, i := range idx {
		if k := i / c.chunkSize; k != lastK {
			p = c.chunkOrPanic(k)
			lastK = k
		}
		l := i % c.chunkSize
		if p.IsNull(l) {
			if nulls == nil {
				nulls = bitvec.New(len(idx))
			}
			nulls.Set(o)
			continue
		}
		switch c.typ {
		case Int64:
			ints[o] = p.Ints[l]
		case Float64:
			floats[o] = p.Floats[l]
		case Bool:
			bools[o] = p.Bools[l]
		default:
			codes[o] = p.Codes[l]
		}
	}
	switch c.typ {
	case Int64:
		return NewInt64Column(ints, nulls)
	case Float64:
		return NewFloat64Column(floats, nulls)
	case Bool:
		return NewBoolColumn(bools, nulls)
	default:
		return NewStringColumnFromDict(c.Dict(), codes, nulls)
	}
}

// Materialize decodes every chunk into a plain eager column. The result
// is caller-owned; the chunk cache keeps only what its budget allows.
func (c *LazyColumn) Materialize() (Column, error) {
	var (
		ints   []int64
		floats []float64
		bools  []bool
		codes  []uint32
	)
	switch c.typ {
	case Int64:
		ints = make([]int64, c.rows)
	case Float64:
		floats = make([]float64, c.rows)
	case Bool:
		bools = make([]bool, c.rows)
	default:
		codes = make([]uint32, c.rows)
	}
	var nulls *bitvec.Vector
	err := lazyRuns(c).Walk(context.TODO(), nil, 1, "storage.materialize", nil, func(w0, _ int, p *ChunkPayload) {
		lo := w0 * 64
		switch c.typ {
		case Int64:
			copy(ints[lo:], p.Ints)
		case Float64:
			copy(floats[lo:], p.Floats)
		case Bool:
			copy(bools[lo:], p.Bools)
		default:
			copy(codes[lo:], p.Codes)
		}
		if p.Nulls != nil {
			if nulls == nil {
				nulls = bitvec.New(c.rows)
			}
			// Chunk boundaries are word-aligned, so the chunk's null words
			// blit straight into the column bitmap.
			copy(nulls.Words()[w0:], p.Nulls)
		}
	})
	if err != nil {
		return nil, err
	}
	switch c.typ {
	case Int64:
		return NewInt64Column(ints, nulls), nil
	case Float64:
		return NewFloat64Column(floats, nulls), nil
	case Bool:
		return NewBoolColumn(bools, nulls), nil
	default:
		dict, err := c.DictValues()
		if err != nil {
			return nil, err
		}
		return NewStringColumnFromDict(dict, codes, nulls), nil
	}
}

// renderValue formats a boxed value exactly as the typed columns do.
func renderValue(v any) string {
	switch x := v.(type) {
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		return strconv.FormatBool(x)
	case string:
		return x
	default:
		return fmt.Sprint(v)
	}
}

// MaterializeColumn returns an eager copy of col when it is lazy, and
// col itself otherwise — the adapter for cold paths that genuinely need
// whole-column access (join keys, store re-ingest).
func MaterializeColumn(col Column) (Column, error) {
	if lc, ok := col.(*LazyColumn); ok {
		return lc.Materialize()
	}
	return col, nil
}

// tableSource serves chunk payloads by slicing an eager chunked table's
// columns — zero-copy views, no decode. It is what lets a shard set
// present eagerly-opened shard files through the same lazy combined
// view that removes the concat-at-open memory peak.
type tableSource struct {
	t  *Table
	ck *Chunking
}

// TableChunkSource wraps an eager table with chunk metadata as a
// ChunkSource. Payload slices alias the table's columns.
func TableChunkSource(t *Table) (ChunkSource, error) {
	ck := t.Chunking()
	if ck == nil {
		return nil, fmt.Errorf("storage: table %q has no chunk metadata", t.Name())
	}
	return &tableSource{t: t, ck: ck}, nil
}

// FetchChunk implements ChunkSource.
func (s *tableSource) FetchChunk(_ context.Context, ci, k int) (*ChunkPayload, bool, error) {
	lo := k * s.ck.Size
	hi := lo + s.ck.Size
	if hi > s.t.NumRows() {
		hi = s.t.NumRows()
	}
	if lo < 0 || lo >= hi {
		return nil, false, fmt.Errorf("chunk %d out of range", k)
	}
	p, err := residentRun(s.t.Column(ci), lo, hi)
	if err != nil {
		return nil, false, err
	}
	return p, true, nil
}

// PrefetchChunks implements ChunkSource: the table is already in memory.
func (s *tableSource) PrefetchChunks(context.Context, int, []int) {}
