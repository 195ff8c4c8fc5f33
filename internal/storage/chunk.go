package storage

import (
	"fmt"
	"math"

	"repro/internal/bitvec"
)

// ChunkRows is the default number of rows per chunk: 64k rows keeps a
// chunk's bitmap words (1 KiB) and typical value payload (512 KiB for
// 8-byte types) cache-friendly while leaving enough chunks to shard a
// scan across workers. Chunk sizes must be a multiple of 64 so that
// chunk boundaries always fall on selection-bitmap word boundaries:
// that is what lets the engine prune or scan a chunk by touching a
// disjoint word range, and lets chunk-parallel scans stay byte-identical
// to serial ones.
const ChunkRows = 1 << 16

// ZoneMap summarizes one chunk of one column — the per-chunk statistics
// a store writes at ingest so scans can skip chunks without reading
// them. Min/Max are in the engine's comparison space: for Int64 columns
// they hold float64(v), matching the float conversion the scan kernel
// applies per row, so pruning decisions are exactly consistent with a
// full scan.
type ZoneMap struct {
	// Min and Max bound the chunk's non-null values. Valid only when
	// HasMinMax; non-numeric columns and all-null or NaN-containing
	// chunks leave it unset, which disables value pruning for the chunk.
	Min, Max float64
	// HasMinMax reports whether Min/Max are meaningful.
	HasMinMax bool
	// NullCount is the number of NULL rows in the chunk.
	NullCount int
	// Distinct estimates the number of distinct non-null values in the
	// chunk: exact for dictionary and bool columns; for numeric columns
	// a run-count estimate (consecutive unequal values), which is exact
	// on sorted chunks and costs no per-value hashing at ingest.
	Distinct int
	// CodeSet is the categorical counterpart of Min/Max: for
	// dictionary-encoded columns of cardinality at most MaxZoneCodes, a
	// packed bitset (code i → bit i) of the codes present in the chunk.
	// Equality/IN predicates prune chunks whose code sets are disjoint
	// from the admitted values — and skip row tests entirely when the
	// chunk's codes are a subset of them. nil disables code pruning.
	CodeSet []uint64
}

// MaxZoneCodes bounds the dictionary cardinality for which per-chunk code
// sets are kept: 4096 codes cost at most 512 bytes per chunk. Above it,
// chunks rarely concentrate few codes and the bitsets would outgrow their
// benefit.
const MaxZoneCodes = 4096

// Check reports why zm cannot be a zone map of a chunk of chunkRows rows
// of a column of type t whose dictionary holds dictLen entries: a NULL
// count outside [0, chunkRows], bounds that are NaN or not ordered
// (min above max), a code set on a non-string column, or a code set not
// sized to the dictionary. Each would mis-prune scans silently. With dictLen -1 (the dictionary is not at hand) a code set
// meets the structural bound only.
func (zm ZoneMap) Check(t DataType, dictLen, chunkRows int) error {
	if zm.NullCount < 0 || zm.NullCount > chunkRows {
		return fmt.Errorf("null count %d out of range", zm.NullCount)
	}
	if zm.HasMinMax && !(zm.Min <= zm.Max) {
		return fmt.Errorf("bounds [%v, %v] are not ordered", zm.Min, zm.Max)
	}
	if zm.CodeSet == nil {
		return nil
	}
	nw := len(zm.CodeSet)
	switch {
	case t != String:
		return fmt.Errorf("code set on %v column", t)
	case dictLen < 0:
		if nw == 0 || nw > (MaxZoneCodes+63)/64 {
			return fmt.Errorf("implausible code set of %d words", nw)
		}
	case dictLen == 0 || dictLen > MaxZoneCodes || nw != (dictLen+63)/64:
		return fmt.Errorf("code set of %d words for %d dictionary entries", nw, dictLen)
	}
	return nil
}

// Chunking is the chunk-level metadata every table carries: the chunk
// size and one zone map per (column, chunk).
type Chunking struct {
	// Size is the number of rows per chunk (the last chunk may be
	// shorter). Always a positive multiple of 64.
	Size int
	// Zones holds one zone-map slice per column, each with NumChunks
	// entries.
	Zones [][]ZoneMap
}

// NumChunks returns the number of chunks covering n rows.
func (c *Chunking) NumChunks(n int) int {
	if n == 0 {
		return 0
	}
	return (n + c.Size - 1) / c.Size
}

// validate checks the chunking invariants against a table shape.
func (c *Chunking) validate(cols, rows int) error {
	if c.Size <= 0 || c.Size%64 != 0 {
		return fmt.Errorf("storage: chunk size %d must be a positive multiple of 64", c.Size)
	}
	if len(c.Zones) != cols {
		return fmt.Errorf("storage: chunking has zones for %d columns, table has %d", len(c.Zones), cols)
	}
	want := c.NumChunks(rows)
	for i, z := range c.Zones {
		if len(z) != want {
			return fmt.Errorf("storage: column %d has %d zone maps, want %d", i, len(z), want)
		}
	}
	return nil
}

// ResidentChunkRows is the chunk size of every table built from resident
// columns (NewTable, Builder.Build, Gather, ReadCSV, joins): each carries
// zone maps over 4 096-row chunks from construction, so a scan over it
// prunes and shards across workers as one over a store does. A chunk
// pass costs a few milliseconds per 200k rows, paid where the table is
// built, never by an exploration.
const ResidentChunkRows = 4096

// NewChunkedTable is NewTable for chunk-aware tables: the columns came
// from fixed-size chunked segments (a column store) and chunking carries
// their per-chunk zone maps, which the table keeps as given — no chunk
// is read, and a lazy column's stay unfetched. The engine's scan path
// uses the zone maps to skip chunks that cannot match and to shard one
// scan across workers.
func NewChunkedTable(name string, schema *Schema, cols []Column, chunking *Chunking) (*Table, error) {
	t, err := newTable(name, schema, cols)
	if err != nil {
		return nil, err
	}
	if chunking == nil {
		return nil, fmt.Errorf("storage: NewChunkedTable with nil chunking")
	}
	if err := chunking.validate(len(cols), t.rows); err != nil {
		return nil, err
	}
	return t.attach(chunking), nil
}

// Chunking returns the table's chunk grid and zone maps: a store's, or
// for a table built from resident columns its own ResidentChunkRows
// grid. Every table has one.
func (t *Table) Chunking() *Chunking { return t.chunking }

// ComputeChunking scans a table's columns once and builds zone maps for
// fixed chunks of size rows each (0 means ChunkRows). It is what a
// column store runs at ingest on a grid other than the table's own.
func ComputeChunking(t *Table, size int) (*Chunking, error) {
	if size == 0 {
		size = ChunkRows
	}
	if size <= 0 || size%64 != 0 {
		return nil, fmt.Errorf("storage: chunk size %d must be a positive multiple of 64", size)
	}
	if t.chunking != nil && t.chunking.Size == size {
		return t.chunking, nil
	}
	return computeChunking(t.cols, t.rows, size), nil
}

// computeChunking builds the zone maps of resident cols, rows long, over
// chunks of size rows.
func computeChunking(cols []Column, rows, size int) *Chunking {
	ck := &Chunking{Size: size, Zones: make([][]ZoneMap, len(cols))}
	numChunks := ck.NumChunks(rows)
	for ci, col := range cols {
		zones := make([]ZoneMap, numChunks)
		for k := range zones {
			lo := k * size
			zones[k] = computeZone(col, lo, min(lo+size, rows))
		}
		ck.Zones[ci] = zones
	}
	return ck
}

// chunked gives t, whose columns are resident, its zone maps over
// size-row chunks and returns it.
func (t *Table) chunked(size int) *Table {
	return t.attach(computeChunking(t.cols, t.rows, size))
}

// attach sets t's chunking and builds each resident column's run
// payloads on its grid, once for the table's life; a lazy column's runs
// are fetched instead. It returns t.
func (t *Table) attach(ck *Chunking) *Table {
	t.chunking = ck
	t.runs = make([][]ChunkPayload, len(t.cols))
	n := ck.NumChunks(t.rows)
	for ci, col := range t.cols {
		if _, lazy := col.(*LazyColumn); lazy {
			continue
		}
		runs := make([]ChunkPayload, n)
		for k := range runs {
			lo := k * ck.Size
			if residentRun(&runs[k], col, lo, min(lo+ck.Size, t.rows)) != nil {
				runs = nil // a column type with no runs: reading one fails
				break
			}
		}
		t.runs[ci] = runs
	}
	return t
}

// computeZone builds the zone map of col rows [lo, hi).
func computeZone(col Column, lo, hi int) ZoneMap {
	var zm ZoneMap
	switch c := col.(type) {
	case *Int64Column:
		vals := c.Values()
		var prev int64
		first := true
		for i := lo; i < hi; i++ {
			if c.IsNull(i) {
				zm.NullCount++
				continue
			}
			v := vals[i]
			if first || v != prev {
				zm.Distinct++
			}
			prev = v
			f := float64(v)
			if first {
				zm.Min, zm.Max, first = f, f, false
			} else if f < zm.Min {
				zm.Min = f
			} else if f > zm.Max {
				zm.Max = f
			}
		}
		zm.HasMinMax = !first
	case *Float64Column:
		vals := c.Values()
		var prev float64
		first, sawNaN, haveMM := true, false, false
		for i := lo; i < hi; i++ {
			if c.IsNull(i) {
				zm.NullCount++
				continue
			}
			v := vals[i]
			if first || v != prev {
				zm.Distinct++
			}
			prev = v
			first = false
			if math.IsNaN(v) {
				// NaN satisfies no range predicate, but it is unordered:
				// the chunk's min/max would not bound every cell. Disable
				// value pruning for the chunk; the scan decides each row.
				sawNaN = true
				continue
			}
			if !haveMM {
				zm.Min, zm.Max, haveMM = v, v, true
			} else if v < zm.Min {
				zm.Min = v
			} else if v > zm.Max {
				zm.Max = v
			}
		}
		zm.HasMinMax = haveMM && !sawNaN
	case *StringColumn:
		codes := c.Codes()
		card := c.Cardinality()
		var set []uint64
		if card > 0 && card <= MaxZoneCodes {
			set = make([]uint64, (card+63)/64)
		}
		seen := make([]bool, card)
		for i := lo; i < hi; i++ {
			if c.IsNull(i) {
				zm.NullCount++
				continue
			}
			code := codes[i]
			if !seen[code] {
				seen[code] = true
				zm.Distinct++
				if set != nil {
					set[code/64] |= uint64(1) << uint(code%64)
				}
			}
		}
		zm.CodeSet = set
	case *BoolColumn:
		vals := c.Values()
		var sawT, sawF bool
		for i := lo; i < hi; i++ {
			if c.IsNull(i) {
				zm.NullCount++
				continue
			}
			if vals[i] {
				sawT = true
			} else {
				sawF = true
			}
		}
		if sawT {
			zm.Distinct++
		}
		if sawF {
			zm.Distinct++
		}
	default:
		// Unknown column types get an empty zone map: never pruned.
		for i := lo; i < hi; i++ {
			if col.IsNull(i) {
				zm.NullCount++
			}
		}
	}
	return zm
}

// NullWords exposes the packed words of a column's null bitmap for the
// store serializer, or nil when the column has no nulls. The returned
// slice must not be modified.
func NullWords(c Column) []uint64 {
	v := nullsOf(c)
	if v == nil {
		return nil
	}
	_, words := v.Window() // null bitmaps hold every word
	return words
}

// nullsOf returns a resident column's null bitmap, nil when it has no
// nulls.
func nullsOf(c Column) *bitvec.Vector {
	switch col := c.(type) {
	case *Int64Column:
		return col.nulls
	case *Float64Column:
		return col.nulls
	case *StringColumn:
		return col.nulls
	case *BoolColumn:
		return col.nulls
	}
	return nil
}
