package storage

import (
	"context"
	"fmt"
	"math/bits"
	"strconv"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/obsv"
)

// This file is the memory-tier boundary of the storage layer: columns
// whose values live in a backing store (an mmapped .atl segment file, a
// shard set routing to several of them) and decode chunk by chunk on
// first touch. A LazyColumn satisfies Column, so every consumer keeps
// working; the hot paths (engine scans, partitions, value extraction)
// additionally recognize lazy columns and drive them chunk-wise through
// the error-returning Chunk accessor, fetching a chunk's payload only
// when a zone map could not rule the chunk out.

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

// Numeric returns chunk-local row i widened to the engine's float
// comparison space. Only valid on Int64/Float64 payloads.
func (p *ChunkPayload) Numeric(i int) float64 {
	if p.Ints != nil {
		return float64(p.Ints[i])
	}
	return p.Floats[i]
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
	// payload was served from a decoded-chunk cache (false = this call
	// decoded it). I/O on a miss runs under ctx: it is cancelled with
	// it, traced under its span and billed to its resource ledger.
	FetchChunk(ctx context.Context, ci, k int) (p *ChunkPayload, hit bool, err error)
	// PrefetchChunk hints that chunk k of column ci is about to be
	// fetched. Sources that do I/O start an asynchronous single-flight
	// load sharing the fetch path's cache (the real fetch either hits or
	// joins the flight) and must be eviction-aware — a prefetch that
	// would push resident chunks out of a bounded cache is skipped, never
	// traded. The load keeps ctx's values (ledger, request id), so
	// speculative I/O is billed to the query that caused it, but detaches
	// from its cancellation: the request may complete before the flight
	// does. Sources with nothing to load ignore the hint.
	PrefetchChunk(ctx context.Context, ci, k int)
}

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
// performance-critical consumers use Chunk/ForEachSelected and get
// errors instead.
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

// ChunkSize returns the rows per chunk.
func (c *LazyColumn) ChunkSize() int { return c.chunkSize }

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

// PrefetchHint tells the column's source that chunk k is about to be
// fetched. Out-of-range hints are dropped. The sequential drivers
// (ForEachChunk, ForEachSelected, the engine's serial chunk scan) hint
// their next touched chunk after a cache miss, overlapping the current
// chunk's work with the next one's fetch — which is what hides a remote
// source's round-trip latency.
func (c *LazyColumn) PrefetchHint(ctx context.Context, k int) {
	if k < 0 || k >= c.NumChunks() {
		return
	}
	c.src.PrefetchChunk(ctx, c.ci, k)
}

// DictValues returns the dictionary of a String column, resolving it on
// first use.
func (c *LazyColumn) DictValues() ([]string, error) {
	if c.typ != String {
		return nil, fmt.Errorf("storage: DictValues on %v column", c.typ)
	}
	c.dictOnce.Do(func() { c.dict, c.dictErr = c.dictFn() })
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

// CodeOf returns the dictionary code for value v, and whether it exists.
func (c *LazyColumn) CodeOf(v string) (uint32, bool) {
	for code, s := range c.Dict() {
		if s == v {
			return uint32(code), true
		}
	}
	return 0, false
}

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
	err := c.ForEachChunk(context.TODO(), func(k, lo int, p *ChunkPayload) (bool, error) {
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
			copy(nulls.Words()[lo/64:], p.Nulls)
		}
		return true, nil
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

// ForEachChunk fetches every chunk in order under ctx and calls
// fn(k, lo, payload) where lo is the chunk's first row. fn returns false
// to stop early. After a fetch that missed the cache, the next chunk is
// prefetched so its load overlaps fn's work on this one.
func (c *LazyColumn) ForEachChunk(ctx context.Context, fn func(k, lo int, p *ChunkPayload) (bool, error)) error {
	n := c.NumChunks()
	for k := 0; k < n; k++ {
		p, hit, err := c.Chunk(ctx, k)
		if err != nil {
			return err
		}
		if !hit {
			c.PrefetchHint(ctx, k+1)
		}
		cont, err := fn(k, k*c.chunkSize, p)
		if err != nil {
			return err
		}
		if !cont {
			return nil
		}
	}
	return nil
}

// ForEachSelected visits the set bits of sel in ascending row order,
// fetching each touched chunk at most once (under ctx) and skipping
// chunks with no selected rows entirely — the chunk-wise counterpart of
// bitvec.Vector.ForEach for lazy columns. fn receives the row's chunk
// payload, the chunk's first row lo, and the global row index i; it
// returns false to stop.
func (c *LazyColumn) ForEachSelected(ctx context.Context, sel *bitvec.Vector, fn func(p *ChunkPayload, lo, i int) bool) error {
	if sel.Len() != c.rows {
		return fmt.Errorf("storage: selection length %d != column length %d", sel.Len(), c.rows)
	}
	words := sel.Words()
	wordsPerChunk := c.chunkSize / 64
	n := c.NumChunks()
	// The touched chunk set is known from the selection alone, so collect
	// it up front: the loop then prefetches exactly the next chunk it
	// will fetch — never one a zone map already ruled out.
	touched := make([]int, 0, n)
	for k := 0; k < n; k++ {
		w0 := k * wordsPerChunk
		w1 := w0 + wordsPerChunk
		if w1 > len(words) {
			w1 = len(words)
		}
		for wi := w0; wi < w1; wi++ {
			if words[wi] != 0 {
				touched = append(touched, k)
				break
			}
		}
	}
	for ti, k := range touched {
		// Chunk-granular cancellation: resident chunks would never
		// surface the dead context through the fetch, so poll here.
		if err := obsv.CheckCtx(ctx, "storage.extract"); err != nil {
			return err
		}
		p, hit, err := c.Chunk(ctx, k)
		if err != nil {
			return err
		}
		if !hit && ti+1 < len(touched) {
			c.PrefetchHint(ctx, touched[ti+1])
		}
		w0 := k * wordsPerChunk
		w1 := w0 + wordsPerChunk
		if w1 > len(words) {
			w1 = len(words)
		}
		lo := k * c.chunkSize
		for wi := w0; wi < w1; wi++ {
			base := wi * 64
			for w := words[wi]; w != 0; w &= w - 1 {
				i := base + bits.TrailingZeros64(w)
				if !fn(p, lo, i) {
					return nil
				}
			}
		}
	}
	return nil
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
	p := &ChunkPayload{}
	col := s.t.Column(ci)
	switch c := col.(type) {
	case *Int64Column:
		p.Ints = c.Values()[lo:hi]
	case *Float64Column:
		p.Floats = c.Values()[lo:hi]
	case *BoolColumn:
		p.Bools = c.Values()[lo:hi]
	case *StringColumn:
		p.Codes = c.Codes()[lo:hi]
	default:
		return nil, false, fmt.Errorf("unsupported column type %T", col)
	}
	if words := NullWords(col); words != nil {
		w0, w1 := lo/64, (hi+63)/64
		chunkWords := words[w0:w1]
		for _, w := range chunkWords {
			if w != 0 {
				p.Nulls = chunkWords
				break
			}
		}
	}
	return p, true, nil
}

// PrefetchChunk implements ChunkSource: the table is already in memory.
func (s *tableSource) PrefetchChunk(context.Context, int, int) {}
