// Package colstore implements the on-disk columnar segment store behind
// Atlas: a persistent, versioned binary format (".atl") that a table is
// ingested into once and reopened from in milliseconds, instead of
// re-parsing CSV on every process start.
//
// # Format (version 3)
//
// All integers are little-endian; "uv" is an unsigned varint
// (encoding/binary Uvarint).
//
//	magic   "ATLS" (4 bytes)
//	version u8 (= 3)
//	uv nameLen | table name (UTF-8)
//	uv rows
//	uv chunkSize          // rows per chunk; positive multiple of 64
//	uv cols
//	per column: uv nameLen | field name | u8 type (storage.DataType)
//	per column segment:
//	  (String columns) dictionary: uv entries; per entry uv len | bytes
//	  per chunk (ceil(rows/chunkSize) chunks):
//	    u8 flags            // 1 = has null words, 2 = has min/max,
//	                        // 4 = has code set
//	    (flag 2) f64 min | f64 max     // IEEE-754 bits
//	    uv nullCount
//	    uv distinct         // distinct non-null values in the chunk
//	    (flag 4) code set: uv words | words × u64  // bit i = dictionary
//	                        // code i occurs in the chunk (String columns
//	                        // with at most storage.MaxZoneCodes codes)
//	    (flag 1) null bitmap: ceil(chunkRows/64) × u64 packed words
//	    values:
//	      Int64/Float64  chunkRows × u64 (two's-complement / IEEE bits)
//	      Bool           ceil(chunkRows/64) × u64 packed bits
//	      String         chunkRows × u32 dictionary codes
//	directory:            // duplicates every segment's metadata so an
//	                      // open reads it in one seek — see below
//	  per column:
//	    (String columns) uv dictOff | uv dictLen   // dictionary byte range
//	    per chunk:
//	      uv off | uv len // chunk byte range (flags..values)
//	      u32 chunkCRC    // CRC-32 (IEEE) of those bytes
//	      zone map        // same encoding as the chunk header
//	                      // (flags..code set, no null bitmap or values)
//	dirOff  u64           // absolute offset of the directory
//	dirCRC  u32           // CRC-32 (IEEE) of the directory bytes, so a
//	                      // lazy open verifies the metadata it prunes
//	                      // by without reading the whole file
//	trailer u32 CRC-32 (IEEE) of every preceding byte
//
// Only version 3 is read. Files written by earlier releases (versions 1
// and 2, without the directory) fail to open with ErrVersion; re-ingest
// their source with `atlas ingest`.
//
// The per-chunk min/max, null count, distinct estimate and categorical
// code set form the zone maps: Open hands them to
// storage.NewChunkedTable, and the engine's scan path prunes chunks
// whose zone maps prove they cannot match a predicate — numeric ranges
// via min/max, equality/IN predicates via the code sets — and shards
// one scan chunk-by-chunk across workers.
//
// # Memory tiers
//
// Open chooses between two residency modes (see Options). Both parse
// the header, the directory and the dictionaries with the same code and
// decode chunks with the same decoder; they differ in when:
//
//   - eager: the whole file is read, verified against the trailer CRC
//     and every chunk decoded into plain in-memory columns — the right
//     call for tables that comfortably fit in RAM.
//   - lazy: the file is mmapped (or pread on demand), only the header,
//     the directory and the dictionaries are read, and chunks decode on
//     first touch into a bounded, shared decoded-chunk cache (lazy.go,
//     cache.go). Zone maps then work as an I/O filter: a pruned chunk is
//     never read or decoded at all, which is what lets tables larger
//     than RAM serve from the same file format. Per-chunk CRCs keep
//     integrity checking without a whole-file read.
//
// Above the store the two modes are one: every pass over column values
// reads storage.Runs, whose runs are zero-copy views of an eager
// column's slices and the fetched chunks of a lazy one, so the engine,
// screening, partials and summaries each have a single kernel.
//
// Chunk sizes are multiples of 64 so chunk boundaries align with
// selection-bitmap words: null words and packed bool words of a chunk
// are verbatim slices of the whole-column bitmaps, making both ingest
// and reload copy-only.
package colstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"os"
	"path/filepath"

	"repro/internal/bitvec"
	"repro/internal/storage"
)

const (
	magic = "ATLS"
	// Version is the format version byte this package writes and the only
	// one it reads. Version 2 added per-chunk categorical code sets;
	// version 3 added the trailer directory with per-chunk offsets and
	// CRCs.
	Version = 3
	// DefaultChunkSize is the default rows-per-chunk at ingest.
	DefaultChunkSize = storage.ChunkRows
	// maxDictEntries bounds a string column's dictionary, enforced
	// symmetrically at Write and Read: a file the writer produces is
	// always reopenable, and a crafted file cannot demand implausible
	// allocations.
	maxDictEntries = 1 << 24
	// footerLen is the fixed tail of a file: u64 dirOff | u32 dirCRC |
	// u32 trailer CRC.
	footerLen = 16
)

// ErrVersion reports a file or chunk encoded at a format version other
// than Version. Stores ingested before version 3 are not converted in
// place: re-ingest their source with `atlas ingest`.
var ErrVersion = errors.New("unsupported format version")

// Store is an opened .atl file: the table plus file-level metadata. The
// table carries the store's chunk metadata, so scans over it prune via
// zone maps automatically. Eager stores hold fully decoded columns;
// lazy stores hold storage.LazyColumn views whose chunks decode on
// first touch (see Options).
type Store struct {
	// Path is the file the store was opened from ("" for Read).
	Path string
	// ChunkSize is the ingest chunk size in rows.
	ChunkSize int
	table     *storage.Table
	// lazy is non-nil for memory-tiered stores.
	lazy *lazyFile
}

// Table returns the store's table (chunk-aware).
func (s *Store) Table() *storage.Table { return s.table }

// Lazy reports whether the store serves chunks on demand rather than
// holding fully decoded columns.
func (s *Store) Lazy() bool { return s.lazy != nil }

// Close releases the store's file mapping and descriptor. Eager stores
// are plain in-memory tables and Close is a no-op. Chunks already
// decoded stay valid (payloads are copies), but further first touches
// fail.
func (s *Store) Close() error {
	if s.lazy == nil {
		return nil
	}
	return s.lazy.close()
}

// IOStats returns the store's cumulative lazy-I/O counters (zero for
// eager stores).
func (s *Store) IOStats() IOStats {
	if s.lazy == nil {
		return IOStats{}
	}
	return s.lazy.ioStats()
}

// Source exposes the store's chunk source, or nil for eager stores —
// the hook a shard set uses to route a combined table's chunk fetches
// to its member files.
func (s *Store) Source() storage.ChunkSource {
	if s.lazy == nil {
		return nil
	}
	return s.lazy
}

// WriteFile ingests a table into path. chunkSize 0 uses
// DefaultChunkSize; otherwise it must be a positive multiple of 64.
// The file is written to a temporary sibling and renamed into place, so
// a failed or interrupted ingest never destroys an existing store.
func WriteFile(path string, t *storage.Table, chunkSize int) error {
	_, err := WriteFileStats(path, t, chunkSize)
	return err
}

// WriteFileStats is WriteFile returning the chunk metadata computed at
// ingest — the zone maps callers (sharded ingest) reduce into
// file-level statistics without rescanning the table.
func WriteFileStats(path string, t *storage.Table, chunkSize int) (*storage.Chunking, error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, err
	}
	tmp := f.Name()
	ck, err := write(f, t, chunkSize)
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return nil, err
	}
	return ck, nil
}

// Write serializes a table in .atl format. Zone maps are computed here,
// at ingest, so Open never rescans values.
func Write(w io.Writer, t *storage.Table, chunkSize int) error {
	_, err := write(w, t, chunkSize)
	return err
}

// chunkRef locates one encoded chunk inside the file: the byte range
// holding its header and values, and the CRC of those bytes.
type chunkRef struct {
	off, length int64
	crc         uint32
}

// byteRange is a (offset, length) pair into the file.
type byteRange struct{ off, length int64 }

// write serializes t and returns the chunk metadata it computed.
func write(w io.Writer, t *storage.Table, chunkSize int) (*storage.Chunking, error) {
	if chunkSize == 0 {
		chunkSize = DefaultChunkSize
	}
	// Re-ingesting an opened lazy store: materialize before computing
	// zone maps, which need typed column access.
	t, err := t.Materialize()
	if err != nil {
		return nil, err
	}
	ck, err := storage.ComputeChunking(t, chunkSize)
	if err != nil {
		return nil, err
	}
	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<20)
	e := &encoder{w: bw}

	e.raw([]byte(magic))
	e.u8(Version)
	e.bytes([]byte(t.Name()))
	e.uv(uint64(t.NumRows()))
	e.uv(uint64(chunkSize))
	e.uv(uint64(t.NumCols()))
	for i := 0; i < t.NumCols(); i++ {
		f := t.Schema().Field(i)
		e.bytes([]byte(f.Name))
		e.u8(byte(f.Type))
	}
	numChunks := ck.NumChunks(t.NumRows())
	dir := make([][]chunkRef, t.NumCols())
	dictRanges := make([]byteRange, t.NumCols())
	var chunkBuf bytes.Buffer
	for c := 0; c < t.NumCols(); c++ {
		col := t.Column(c)
		if sc, ok := col.(*storage.StringColumn); ok {
			dict := sc.Dict()
			if len(dict) > maxDictEntries {
				return nil, fmt.Errorf("colstore: column %q has %d distinct values, format limit is %d",
					t.Schema().Field(c).Name, len(dict), maxDictEntries)
			}
			dictStart := e.n
			e.uv(uint64(len(dict)))
			for _, s := range dict {
				e.bytes([]byte(s))
			}
			dictRanges[c] = byteRange{off: dictStart, length: e.n - dictStart}
		}
		nullWords := storage.NullWords(col)
		dir[c] = make([]chunkRef, numChunks)
		for k := 0; k < numChunks; k++ {
			lo := k * chunkSize
			hi := min(lo+chunkSize, t.NumRows())
			// Encode the chunk through a scratch buffer so its byte range
			// can be CRCed for the directory.
			chunkBuf.Reset()
			ce := &encoder{w: &chunkBuf}
			ce.chunk(col, ck.Zones[c][k], nullWords, lo, hi)
			if ce.err != nil {
				return nil, ce.err
			}
			b := chunkBuf.Bytes()
			dir[c][k] = chunkRef{off: e.n, length: int64(len(b)), crc: crc32.ChecksumIEEE(b)}
			e.raw(b)
		}
	}
	dirOff := e.n
	// The directory is encoded through the scratch buffer so its own CRC
	// lands in the footer: a lazy open can then verify the exact bytes
	// its pruning decisions come from.
	chunkBuf.Reset()
	de := &encoder{w: &chunkBuf}
	for c := 0; c < t.NumCols(); c++ {
		if t.Schema().Field(c).Type == storage.String {
			de.uv(uint64(dictRanges[c].off))
			de.uv(uint64(dictRanges[c].length))
		}
		for k := 0; k < numChunks; k++ {
			ref := dir[c][k]
			de.uv(uint64(ref.off))
			de.uv(uint64(ref.length))
			de.u32(ref.crc)
			de.zone(ck.Zones[c][k])
		}
	}
	if de.err != nil {
		return nil, de.err
	}
	dirBytes := chunkBuf.Bytes()
	e.raw(dirBytes)
	e.u64(uint64(dirOff))
	e.u32(crc32.ChecksumIEEE(dirBytes))
	if e.err != nil {
		return nil, e.err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	if _, err = w.Write(tail[:]); err != nil {
		return nil, err
	}
	return ck, nil
}

// byteWriter is the sink an encoder writes to: bufio.Writer for the
// file stream, bytes.Buffer for per-chunk scratch encoding.
type byteWriter interface {
	io.Writer
	io.ByteWriter
}

// encoder wraps a writer with little-endian primitives, sticky errors
// and a running byte count (file offsets for the directory).
type encoder struct {
	w   byteWriter
	err error
	n   int64
	buf [binary.MaxVarintLen64]byte
	rec []byte // zone-record scratch
}

func (e *encoder) raw(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
		e.n += int64(len(b))
	}
}

func (e *encoder) u8(v byte) {
	if e.err == nil {
		e.err = e.w.WriteByte(v)
		e.n++
	}
}

func (e *encoder) uv(v uint64) {
	n := binary.PutUvarint(e.buf[:], v)
	e.raw(e.buf[:n])
}

func (e *encoder) u32(v uint32) {
	binary.LittleEndian.PutUint32(e.buf[:4], v)
	e.raw(e.buf[:4])
}

func (e *encoder) u64(v uint64) {
	binary.LittleEndian.PutUint64(e.buf[:8], v)
	e.raw(e.buf[:8])
}

func (e *encoder) bytes(b []byte) {
	e.uv(uint64(len(b)))
	e.raw(b)
}

// zone writes zm's zone-map record (see AppendZone): the prefix of every
// chunk, and the per-chunk metadata record of the directory.
func (e *encoder) zone(zm storage.ZoneMap) {
	e.rec = AppendZone(e.rec[:0], zm)
	e.raw(e.rec)
}

// chunk writes one column chunk: zone map, null words, values.
func (e *encoder) chunk(col storage.Column, zm storage.ZoneMap, nullWords []uint64, lo, hi int) {
	w0, w1 := lo/64, (hi+63)/64
	e.zone(zm)
	if zm.NullCount > 0 {
		// Chunk boundaries are word-aligned, so the chunk's null words
		// are a verbatim slice of the column bitmap.
		for wi := w0; wi < w1; wi++ {
			e.u64(nullWords[wi])
		}
	}
	switch c := col.(type) {
	case *storage.Int64Column:
		vals := c.Values()
		for i := lo; i < hi; i++ {
			e.u64(uint64(vals[i]))
		}
	case *storage.Float64Column:
		vals := c.Values()
		for i := lo; i < hi; i++ {
			e.u64(math.Float64bits(vals[i]))
		}
	case *storage.BoolColumn:
		vals := c.Values()
		var w uint64
		for i := lo; i < hi; i++ {
			if vals[i] {
				w |= 1 << uint((i-lo)%64)
			}
			if (i-lo)%64 == 63 {
				e.u64(w)
				w = 0
			}
		}
		if (hi-lo)%64 != 0 {
			e.u64(w)
		}
	case *storage.StringColumn:
		codes := c.Codes()
		for i := lo; i < hi; i++ {
			e.u32(codes[i])
		}
	default:
		if e.err == nil {
			e.err = fmt.Errorf("colstore: unsupported column type %T", col)
		}
	}
}

// Open opens an .atl file. The residency mode is chosen automatically:
// files below AutoLazyThreshold decode eagerly, larger files open
// lazily (override with OpenWith — see Options).
func Open(path string) (*Store, error) {
	return OpenWith(path, Options{})
}

// header is the decoded fixed part of an .atl file.
type header struct {
	name      string
	rows      int
	chunkSize int
	fields    []storage.Field
	// end is the byte offset just past the header.
	end int
}

// numChunks returns the chunk count of every column.
func (h *header) numChunks() int {
	return (h.rows + h.chunkSize - 1) / h.chunkSize
}

// parseHeader decodes and validates the file header from d (positioned
// at the version byte, after the magic).
func parseHeader(d *decoder) (*header, error) {
	h := &header{}
	if v := d.u8(); d.err == nil && v != Version {
		return nil, fmt.Errorf("%w %d: this reader handles version %d only; re-ingest the table with `atlas ingest`", ErrVersion, v, Version)
	}
	h.name = string(d.bytes())
	rowsU := d.uv()
	h.chunkSize = int(d.uv())
	numCols := int(d.uv())
	if d.err != nil {
		return nil, d.err
	}
	if rowsU > 1<<40 {
		return nil, fmt.Errorf("implausible row count %d", rowsU)
	}
	h.rows = int(rowsU)
	// The upper bound keeps chunk arithmetic (rows+chunkSize-1) far from
	// int overflow on crafted headers.
	if h.chunkSize <= 0 || h.chunkSize%64 != 0 || h.chunkSize > 1<<30 {
		return nil, fmt.Errorf("invalid chunk size %d", h.chunkSize)
	}
	if numCols < 0 || numCols > 1<<20 {
		return nil, fmt.Errorf("implausible column count %d", numCols)
	}
	h.fields = make([]storage.Field, numCols)
	for i := range h.fields {
		h.fields[i].Name = string(d.bytes())
		typ := storage.DataType(d.u8())
		switch typ {
		case storage.Int64, storage.Float64, storage.String, storage.Bool:
		default:
			return nil, fmt.Errorf("column %q: unknown type %d", h.fields[i].Name, typ)
		}
		h.fields[i].Type = typ
	}
	if d.err != nil {
		return nil, d.err
	}
	if numCols == 0 && h.rows != 0 {
		return nil, fmt.Errorf("%d rows but no columns", h.rows)
	}
	h.end = d.off
	return h, nil
}

// minBitsPerRow returns the minimum value-payload bits one row costs —
// the plausibility bound applied to claimed row counts before any
// row-sized allocation.
func (h *header) minBitsPerRow() int {
	bits := 0
	for _, f := range h.fields {
		switch f.Type {
		case storage.Int64, storage.Float64:
			bits += 64
		case storage.String:
			bits += 32
		case storage.Bool:
			bits++
		}
	}
	return bits
}

// Read decodes an .atl image eagerly. The CRC trailer is verified
// before any decoding, so a truncated or corrupted file fails fast; the
// header, directory and dictionaries then parse exactly as a lazy open
// parses them, and every chunk decodes straight into its column.
func Read(data []byte) (*Store, error) {
	if len(data) < len(magic)+1+4 {
		return nil, fmt.Errorf("file too short (%d bytes)", len(data))
	}
	if string(data[:4]) != magic {
		return nil, fmt.Errorf("bad magic %q", data[:4])
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("checksum mismatch (file %08x, computed %08x)", want, got)
	}
	lf := &lazyFile{data: data, size: int64(len(data))}
	h, err := lf.load()
	if err != nil {
		return nil, err
	}
	tbl, err := lf.buildTable(h.name, true)
	if err != nil {
		return nil, err
	}
	return &Store{ChunkSize: h.chunkSize, table: tbl}, nil
}

// decodeColumn decodes every chunk of column c into column-sized
// arrays: chunks are 64-row aligned, so each chunk's values and null
// words are sub-slices of the column's, filled in place by the one
// chunk decoder.
func (lf *lazyFile) decodeColumn(c int) (storage.Column, error) {
	f, rows := lf.fields[c], lf.rows
	var col storage.ChunkPayload
	switch f.Type {
	case storage.Int64:
		col.Ints = make([]int64, rows)
	case storage.Float64:
		col.Floats = make([]float64, rows)
	case storage.Bool:
		col.Bools = make([]bool, rows)
	case storage.String:
		col.Codes = make([]uint32, rows)
	}
	nulls := bitvec.New(rows)
	_, nullWords := nulls.Window()
	hasNulls := false
	for k, ref := range lf.dir[c] {
		raw, err := lf.readRange(ref.off, ref.length)
		if err != nil {
			return nil, err
		}
		lo := k * lf.chunkSize
		hi := lo + lf.chunkRows(k)
		chunk := storage.ChunkPayload{Nulls: nullWords[lo/64 : (hi+63)/64]}
		switch f.Type {
		case storage.Int64:
			chunk.Ints = col.Ints[lo:hi]
		case storage.Float64:
			chunk.Floats = col.Floats[lo:hi]
		case storage.Bool:
			chunk.Bools = col.Bools[lo:hi]
		case storage.String:
			chunk.Codes = col.Codes[lo:hi]
		}
		if err := lf.decodeChunk(c, k, raw, &chunk); err != nil {
			return nil, err
		}
		hasNulls = hasNulls || chunk.Nulls != nil
	}
	if !hasNulls {
		nulls = nil
	}
	switch f.Type {
	case storage.Int64:
		return storage.NewInt64Column(col.Ints, nulls), nil
	case storage.Float64:
		return storage.NewFloat64Column(col.Floats, nulls), nil
	case storage.Bool:
		return storage.NewBoolColumn(col.Bools, nulls), nil
	default:
		return storage.NewStringColumnFromDict(lf.dicts[c], col.Codes, nulls), nil
	}
}

// directory parses the trailer directory from d's current position,
// returning per-column dictionary ranges, chunk references, and the
// zone maps recorded in it.
func (d *decoder) directory(h *header, numChunks int) (dictRanges []byteRange, dir [][]chunkRef, zones [][]storage.ZoneMap, err error) {
	// Every entry takes at least 9 bytes (two varints, the CRC, flags and
	// two count varints): a crafted header cannot make the reader
	// allocate entries the directory's bytes could never hold.
	if entries := int64(numChunks) * int64(len(h.fields)); entries > int64(len(d.data)-d.off)/9 {
		return nil, nil, nil, fmt.Errorf("%d bytes cannot hold %d chunk entries", len(d.data)-d.off, entries)
	}
	dictRanges = make([]byteRange, len(h.fields))
	dir = make([][]chunkRef, len(h.fields))
	zones = make([][]storage.ZoneMap, len(h.fields))
	for c, f := range h.fields {
		if f.Type == storage.String {
			dictRanges[c] = byteRange{off: int64(d.uv()), length: int64(d.uv())}
		}
		dir[c] = make([]chunkRef, numChunks)
		zones[c] = make([]storage.ZoneMap, numChunks)
		for k := 0; k < numChunks; k++ {
			ref := chunkRef{off: int64(d.uv()), length: int64(d.uv()), crc: d.u32()}
			chunkRows := min(h.chunkSize, h.rows-k*h.chunkSize)
			// Code-set sizing is validated against the real dictionary once
			// it is loaded (validateDir); the directory pass applies the
			// structural bound only (dictLen -1).
			zm, zerr := d.zoneHeader(f, -1, chunkRows, k)
			if zerr != nil {
				return nil, nil, nil, zerr
			}
			dir[c][k] = ref
			zones[c][k] = zm
		}
	}
	return dictRanges, dir, zones, d.err
}

// decoder walks a byte image with sticky errors and bounds checks.
type decoder struct {
	data []byte
	off  int
	err  error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	// n > remaining (not off+n > len) so a crafted length near MaxInt
	// cannot overflow past the check.
	if n < 0 || n > len(d.data)-d.off {
		d.fail("truncated: need %d bytes at offset %d, have %d", n, d.off, len(d.data)-d.off)
		return false
	}
	return true
}

func (d *decoder) u8() byte {
	if !d.need(1) {
		return 0
	}
	v := d.data[d.off]
	d.off++
	return v
}

func (d *decoder) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.data[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.data[d.off:])
	d.off += 8
	return v
}

func (d *decoder) uv() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) bytes() []byte {
	n := int(d.uv())
	if n < 0 || !d.need(n) {
		d.fail("bad byte-string length %d at offset %d", n, d.off)
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

// zoneHeader decodes the zone-map record at d's position (see
// ParseZone), naming chunk k in its error.
func (d *decoder) zoneHeader(f storage.Field, dictLen, chunkRows, k int) (storage.ZoneMap, error) {
	if d.err != nil {
		return storage.ZoneMap{}, d.err
	}
	zm, n, err := ParseZone(d.data[d.off:], f.Type, dictLen, chunkRows)
	if err != nil {
		return storage.ZoneMap{}, fmt.Errorf("chunk %d: %w", k, err)
	}
	d.off += n
	return zm, nil
}

// decodeChunk is the one chunk decoder: it decodes an encoded chunk
// (zone-map header, null words, values) into p and returns the header's
// zone map. The value slice of p matching f's type is filled in place
// when non-nil (an eager read hands in sub-slices of its column arrays)
// and allocated otherwise; p.Nulls likewise receives the null words in
// place, and is reset to nil when the chunk has no NULLs. dictLen is the
// column's dictionary size (0 for non-string columns), chunkRows the
// chunk's row count and k its index (error context).
func decodeChunk(raw []byte, f storage.Field, dictLen, chunkRows, k int, p *storage.ChunkPayload) (storage.ZoneMap, error) {
	d := &decoder{data: raw}
	zm, err := d.zoneHeader(f, dictLen, chunkRows, k)
	if err != nil {
		return zm, err
	}
	chunkWords := (chunkRows + 63) / 64
	nullDst := p.Nulls
	p.Nulls = nil
	if zm.NullCount > 0 {
		if !d.need(8 * chunkWords) {
			return zm, d.err
		}
		if nullDst == nil {
			nullDst = make([]uint64, chunkWords)
		}
		count := 0
		for wi := range nullDst {
			w := binary.LittleEndian.Uint64(d.data[d.off+wi*8:])
			nullDst[wi] = w
			count += bits.OnesCount64(w)
		}
		d.off += 8 * chunkWords
		if tail := uint(chunkRows % 64); tail != 0 && nullDst[chunkWords-1]>>tail != 0 {
			return zm, fmt.Errorf("null bitmap marks rows past the chunk's %d", chunkRows)
		}
		if count != zm.NullCount {
			return zm, fmt.Errorf("null bitmap holds %d NULLs, header claims %d", count, zm.NullCount)
		}
		p.Nulls = nullDst
	}
	// Values decode with one bounds check per chunk, not per element;
	// 8-byte runs are one copy on little-endian hosts (see words.go).
	switch f.Type {
	case storage.Int64:
		if !d.need(8 * chunkRows) {
			return zm, d.err
		}
		if p.Ints == nil {
			p.Ints = make([]int64, chunkRows)
		}
		decodeInt64s(p.Ints, d.data[d.off:])
		d.off += 8 * chunkRows
	case storage.Float64:
		if !d.need(8 * chunkRows) {
			return zm, d.err
		}
		if p.Floats == nil {
			p.Floats = make([]float64, chunkRows)
		}
		decodeFloat64s(p.Floats, d.data[d.off:])
		d.off += 8 * chunkRows
	case storage.Bool:
		if !d.need(8 * chunkWords) {
			return zm, d.err
		}
		if p.Bools == nil {
			p.Bools = make([]bool, chunkRows)
		}
		vals, buf := p.Bools, d.data[d.off:]
		for wi := 0; wi < chunkWords; wi++ {
			w := binary.LittleEndian.Uint64(buf[wi*8:])
			for b := 0; b < 64 && wi*64+b < chunkRows; b++ {
				vals[wi*64+b] = w&(1<<uint(b)) != 0
			}
		}
		d.off += 8 * chunkWords
	case storage.String:
		if !d.need(4 * chunkRows) {
			return zm, d.err
		}
		if p.Codes == nil {
			p.Codes = make([]uint32, chunkRows)
		}
		codes, buf := p.Codes, d.data[d.off:]
		for i := range codes {
			code := binary.LittleEndian.Uint32(buf[i*4:])
			if int(code) >= dictLen {
				if !p.IsNull(i) {
					return zm, fmt.Errorf("row %d: code %d out of dictionary range %d", i, code, dictLen)
				}
				// NULL rows never have their code read, but clamp them
				// in-range so downstream kernels can index the dictionary
				// before checking the null bitmap.
				code = 0
			}
			codes[i] = code
		}
		d.off += 4 * chunkRows
	}
	if d.off != len(d.data) {
		return zm, fmt.Errorf("%d trailing bytes in chunk", len(d.data)-d.off)
	}
	return zm, nil
}
