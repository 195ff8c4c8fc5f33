package colstore

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/obsv"
	"repro/internal/storage"
)

// Mode selects how OpenWith materializes a store.
type Mode int

const (
	// ModeAuto decodes eagerly below AutoLazyThreshold and lazily above
	// it.
	ModeAuto Mode = iota
	// ModeEager reads, CRC-verifies and decodes the whole file at open.
	ModeEager
	// ModeLazy maps the file and decodes chunks on first touch.
	ModeLazy
)

// AutoLazyThreshold is the file size above which ModeAuto opens lazily:
// 64 MiB keeps small stores on the simple eager path while anything
// RAM-relevant pays only a metadata read at open.
const AutoLazyThreshold = 64 << 20

// Options tunes OpenWith — the memory-tier knobs.
type Options struct {
	// Mode selects eager or lazy residency (default ModeAuto).
	Mode Mode
	// CacheBytes bounds the decoded-chunk cache of a lazy store: > 0 is
	// a byte budget, <= 0 means unbounded. Ignored when Cache is set or
	// the store opens eagerly.
	CacheBytes int64
	// Cache, when non-nil, is used instead of a store-private cache so
	// several stores (a shard set) share one byte budget.
	Cache *ChunkCache
	// DisableMmap forces pread-on-demand instead of mmap.
	DisableMmap bool
	// VerifyCRC forces the whole-file trailer CRC check even for lazy
	// opens (one full sequential read). Lazy opens otherwise verify the
	// directory at open and each chunk's CRC when it is first read.
	VerifyCRC bool
}

// IOStats is a snapshot of a lazy store's cumulative I/O counters.
type IOStats struct {
	// BytesRead counts encoded bytes fetched from the file for chunk
	// decodes (metadata reads at open excluded).
	BytesRead int64
	// ChunksDecoded counts chunk payload decodes (cache misses).
	ChunksDecoded int64
	// CacheHits counts chunk fetches served from the decoded cache.
	CacheHits int64
	// CacheEvictions counts payloads dropped to honor the byte budget.
	CacheEvictions int64
	// CacheBytes is the decoded bytes currently cached.
	CacheBytes int64
}

// OpenWith opens an .atl file with explicit memory-tier options.
func OpenWith(path string, o Options) (*Store, error) {
	mode := o.Mode
	if mode == ModeAuto {
		mode = ModeEager
		if fi, err := os.Stat(path); err == nil && fi.Size() >= AutoLazyThreshold {
			mode = ModeLazy
		}
	}
	if mode == ModeLazy {
		s, err := openLazy(path, o)
		if err != nil {
			return nil, fmt.Errorf("colstore: %s: %w", path, err)
		}
		return s, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Read(data)
	if err != nil {
		return nil, fmt.Errorf("colstore: %s: %w", path, err)
	}
	s.Path = path
	return s, nil
}

// lazyFile is an .atl image behind its parsed header, directory and
// dictionaries — the metadata every open reads. A lazy store holds one
// over the mmap (or fd) with a chunk cache, and implements
// storage.ChunkSource through it; Read builds a transient one over the
// in-memory image and decodes every chunk up front.
type lazyFile struct {
	path string
	f    *os.File // nil for an in-memory image
	data []byte   // mmap or in-memory image; nil = pread via f
	size int64

	rows      int
	chunkSize int
	fields    []storage.Field
	dicts     [][]string // per column; nil for non-string
	dir       [][]chunkRef
	zones     [][]storage.ZoneMap

	cache *ChunkCache

	bytesRead     atomic.Int64
	chunksDecoded atomic.Int64
	prefetching   atomic.Int64
	// closeMu serializes close against in-flight chunk reads: fetch
	// loaders hold the read side across the mmap access, so munmap can
	// never pull the mapping out from under a reader.
	closeMu sync.RWMutex
	closed  atomic.Bool
}

// openLazy opens path in lazy mode.
func openLazy(path string, o Options) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err == nil && fi.Size() < int64(len(magic))+1+4 {
		err = fmt.Errorf("file too short (%d bytes)", fi.Size())
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	lf := &lazyFile{path: path, f: f, size: fi.Size(), cache: o.Cache}
	if lf.cache == nil {
		lf.cache = NewChunkCache(o.CacheBytes)
	}
	if !o.DisableMmap {
		lf.data = mmapFile(f, lf.size)
	}
	fail := func(err error) (*Store, error) {
		lf.close() // a failed open must not leak its mapping
		return nil, err
	}
	if o.VerifyCRC {
		if err := lf.verifyFileCRC(); err != nil {
			return fail(err)
		}
	}
	h, err := lf.load()
	if err != nil {
		return fail(err)
	}
	tbl, err := lf.buildTable(h.name, false)
	if err != nil {
		return fail(err)
	}
	return &Store{Path: path, ChunkSize: h.chunkSize, table: tbl, lazy: lf}, nil
}

// load parses the header, the directory and the dictionaries, and
// validates the directory against the file — everything an open reads
// before it touches a chunk.
func (lf *lazyFile) load() (*header, error) {
	h, err := lf.parseFileHeader()
	if err != nil {
		return nil, err
	}
	// Every row costs at least minBitsPerRow of value payload, so a
	// corrupted or crafted row count fails here instead of sizing
	// row-sized allocations.
	if mb := h.minBitsPerRow(); mb > 0 && uint64(h.rows) > uint64(lf.size)*8/uint64(mb) {
		return nil, fmt.Errorf("implausible row count %d for a file of %d bytes", h.rows, lf.size)
	}
	lf.rows, lf.chunkSize, lf.fields = h.rows, h.chunkSize, h.fields
	dictRanges, err := lf.loadDirectory(h)
	if err != nil {
		return nil, err
	}
	if err := lf.loadDicts(dictRanges); err != nil {
		return nil, err
	}
	if err := lf.validateDir(h); err != nil {
		return nil, err
	}
	return h, nil
}

// readRange fetches bytes [off, off+n) of the file: an mmap slice
// (zero-copy) or a pread into a fresh buffer.
func (lf *lazyFile) readRange(off, n int64) ([]byte, error) {
	if off < 0 || n < 0 || off+n > lf.size {
		return nil, fmt.Errorf("range [%d,+%d) outside file of %d bytes", off, n, lf.size)
	}
	if lf.data != nil {
		return lf.data[off : off+n], nil
	}
	buf := make([]byte, n)
	if _, err := lf.f.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}

// parseFileHeader decodes the header, growing the fetched prefix as
// needed in pread mode.
func (lf *lazyFile) parseFileHeader() (*header, error) {
	if lf.data != nil {
		if string(lf.data[:4]) != magic {
			return nil, fmt.Errorf("bad magic %q", lf.data[:4])
		}
		d := &decoder{data: lf.data[:lf.size-4], off: 4}
		return parseHeader(d)
	}
	for n := int64(64 << 10); ; n *= 2 {
		if n > lf.size {
			n = lf.size
		}
		prefix, err := lf.readRange(0, n)
		if err != nil {
			return nil, err
		}
		if string(prefix[:4]) != magic {
			return nil, fmt.Errorf("bad magic %q", prefix[:4])
		}
		// The trailer CRC is never header bytes, however short the file.
		d := &decoder{data: prefix[:min(n, lf.size-4)], off: 4}
		h, herr := parseHeader(d)
		if herr == nil {
			return h, nil
		}
		if n == lf.size {
			return nil, herr
		}
		// A truncation error may just mean the prefix was too short; any
		// other failure is final.
		if d.err == nil {
			return nil, herr
		}
	}
}

// verifyFileCRC streams the whole file through the trailer CRC check in
// bounded memory (mmap checksums in place; pread walks a fixed buffer).
func (lf *lazyFile) verifyFileCRC() error {
	var got uint32
	if lf.data != nil {
		got = crc32.ChecksumIEEE(lf.data[:lf.size-4])
	} else {
		h := crc32.NewIEEE()
		buf := make([]byte, 4<<20)
		for off := int64(0); off < lf.size-4; {
			n := int64(len(buf))
			if off+n > lf.size-4 {
				n = lf.size - 4 - off
			}
			if _, err := lf.f.ReadAt(buf[:n], off); err != nil {
				return err
			}
			h.Write(buf[:n])
			off += n
		}
		got = h.Sum32()
	}
	tail, err := lf.readRange(lf.size-4, 4)
	if err != nil {
		return err
	}
	if want := binary.LittleEndian.Uint32(tail); got != want {
		return fmt.Errorf("checksum mismatch (file %08x, computed %08x)", want, got)
	}
	return nil
}

// loadDirectory reads the trailer directory: dictionary ranges, chunk
// references and zone maps, in one footer seek plus one directory read.
func (lf *lazyFile) loadDirectory(h *header) ([]byteRange, error) {
	if lf.size < int64(h.end)+footerLen {
		return nil, fmt.Errorf("file too short for directory footer")
	}
	footer, err := lf.readRange(lf.size-footerLen, footerLen)
	if err != nil {
		return nil, err
	}
	dirOff := int64(binary.LittleEndian.Uint64(footer[:8]))
	dirCRC := binary.LittleEndian.Uint32(footer[8:12])
	if dirOff < int64(h.end) || dirOff > lf.size-footerLen {
		return nil, fmt.Errorf("directory offset %d outside file body [%d,%d)", dirOff, h.end, lf.size-footerLen)
	}
	dirBytes, err := lf.readRange(dirOff, lf.size-footerLen-dirOff)
	if err != nil {
		return nil, err
	}
	// The directory carries the zone maps every pruning decision rests
	// on; verify its CRC before trusting any of it.
	if got := crc32.ChecksumIEEE(dirBytes); got != dirCRC {
		return nil, fmt.Errorf("directory checksum mismatch (footer %08x, computed %08x)", dirCRC, got)
	}
	d := &decoder{data: dirBytes}
	dictRanges, dir, zones, err := d.directory(h, h.numChunks())
	if err != nil {
		return nil, fmt.Errorf("directory: %w", err)
	}
	if d.off != len(d.data) {
		return nil, fmt.Errorf("directory: %d trailing bytes", len(d.data)-d.off)
	}
	lf.dir = dir
	lf.zones = zones
	return dictRanges, nil
}

// loadDicts decodes the dictionaries of string columns from their byte
// ranges.
func (lf *lazyFile) loadDicts(dictRanges []byteRange) error {
	lf.dicts = make([][]string, len(lf.fields))
	for c, f := range lf.fields {
		if f.Type != storage.String {
			continue
		}
		r := dictRanges[c]
		if r.length <= 0 {
			return fmt.Errorf("column %q: missing dictionary range", f.Name)
		}
		buf, err := lf.readRange(r.off, r.length)
		if err != nil {
			return fmt.Errorf("column %q dictionary: %w", f.Name, err)
		}
		d := &decoder{data: buf}
		// Every entry takes at least its one-byte length.
		n := int(d.uv())
		if n < 0 || n > maxDictEntries || n > len(buf) {
			return fmt.Errorf("column %q: implausible dictionary size %d", f.Name, n)
		}
		dict := make([]string, n)
		for i := range dict {
			dict[i] = string(d.bytes())
		}
		if d.err != nil {
			return fmt.Errorf("column %q dictionary: %w", f.Name, d.err)
		}
		if d.off != len(d.data) {
			return fmt.Errorf("column %q dictionary: %d trailing bytes", f.Name, len(d.data)-d.off)
		}
		lf.dicts[c] = dict
	}
	return nil
}

// validateDir cross-checks every chunk reference against the file
// bounds, and code-set zone maps against the loaded dictionaries, so a
// crafted directory fails at open rather than at first touch.
func (lf *lazyFile) validateDir(h *header) error {
	for c, f := range lf.fields {
		for k, ref := range lf.dir[c] {
			if ref.off < int64(h.end) || ref.length <= 0 || ref.off+ref.length > lf.size-footerLen {
				return fmt.Errorf("column %q chunk %d: byte range [%d,+%d) outside the file body", f.Name, k, ref.off, ref.length)
			}
			chunkRows := min(h.chunkSize, h.rows-k*h.chunkSize)
			if err := lf.zones[c][k].Check(f.Type, len(lf.dicts[c]), chunkRows); err != nil {
				return fmt.Errorf("column %q chunk %d: %w", f.Name, k, err)
			}
		}
	}
	return nil
}

// buildTable assembles the chunk-aware table over this file: columns
// decoded up front when decode is set (Read), lazy columns serving
// chunks through the file otherwise.
func (lf *lazyFile) buildTable(name string, decode bool) (*storage.Table, error) {
	schema, err := storage.NewSchema(lf.fields...)
	if err != nil {
		return nil, err
	}
	cols := make([]storage.Column, len(lf.fields))
	for c, f := range lf.fields {
		if decode {
			cols[c], err = lf.decodeColumn(c)
		} else {
			nullCount := 0
			for _, zm := range lf.zones[c] {
				nullCount += zm.NullCount
			}
			cols[c], err = storage.NewLazyColumn(storage.LazyColumnConfig{
				Source: lf, Col: c, Type: f.Type,
				Rows: lf.rows, ChunkSize: lf.chunkSize,
				NullCount: nullCount, Dict: lf.dicts[c],
			})
		}
		if err != nil {
			return nil, fmt.Errorf("column %q: %w", f.Name, err)
		}
	}
	ck := &storage.Chunking{Size: lf.chunkSize, Zones: lf.zones}
	return storage.NewChunkedTable(name, schema, cols, ck)
}

// chunkRows returns the row count of chunk k.
func (lf *lazyFile) chunkRows(k int) int {
	return min(lf.chunkSize, lf.rows-k*lf.chunkSize)
}

// decodeChunk decodes chunk (ci, k) from its encoded bytes into p (see
// decodeChunk) and checks the chunk's own NULL count against the
// directory's — the count a lazy column reports — so every open of one
// file sees the same cells.
func (lf *lazyFile) decodeChunk(ci, k int, raw []byte, p *storage.ChunkPayload) error {
	zm, err := decodeChunk(raw, lf.fields[ci], len(lf.dicts[ci]), lf.chunkRows(k), k, p)
	if err == nil && zm.NullCount != lf.zones[ci][k].NullCount {
		err = fmt.Errorf("chunk %d: header counts %d NULLs, directory %d", k, zm.NullCount, lf.zones[ci][k].NullCount)
	}
	return err
}

// FetchChunk implements storage.ChunkSource: cache lookup, then read +
// CRC + decode on a miss. The miss's read and decode are billed to the
// context's resource ledger at the same sites the store's own lifetime
// counters move, so a query's ledger delta equals its IOStats delta.
func (lf *lazyFile) FetchChunk(ctx context.Context, ci, k int) (*storage.ChunkPayload, bool, error) {
	if ci < 0 || ci >= len(lf.dir) || k < 0 || k >= len(lf.dir[ci]) {
		return nil, false, fmt.Errorf("colstore: chunk (%d,%d) out of range", ci, k)
	}
	return lf.cache.Get(ctx, lf, ci, k, func() (*storage.ChunkPayload, error) {
		return lf.loadChunk(ctx, ci, k)
	})
}

// loadChunk reads, CRC-checks and decodes chunk (ci, k) — the cache-miss
// path of a fetch or a prefetch.
func (lf *lazyFile) loadChunk(ctx context.Context, ci, k int) (*storage.ChunkPayload, error) {
	if err := obsv.CheckCtx(ctx, "colstore.load"); err != nil {
		return nil, err
	}
	lf.closeMu.RLock()
	defer lf.closeMu.RUnlock()
	if lf.closed.Load() {
		return nil, fmt.Errorf("colstore: %s: store closed", lf.path)
	}
	ref := lf.dir[ci][k]
	raw, err := lf.readRange(ref.off, ref.length)
	if err != nil {
		return nil, fmt.Errorf("colstore: %s: reading chunk (%d,%d): %w", lf.path, ci, k, err)
	}
	led := obsv.LedgerFrom(ctx)
	lf.bytesRead.Add(ref.length)
	led.ReadBytes(ref.length)
	if got := crc32.ChecksumIEEE(raw); got != ref.crc {
		return nil, fmt.Errorf("colstore: %s: chunk (%d,%d) checksum mismatch (directory %08x, computed %08x)",
			lf.path, ci, k, ref.crc, got)
	}
	p := &storage.ChunkPayload{}
	if err := lf.decodeChunk(ci, k, raw, p); err != nil {
		return nil, fmt.Errorf("colstore: %s: chunk (%d,%d): %w", lf.path, ci, k, err)
	}
	lf.chunksDecoded.Add(1)
	led.StoreChunkDecoded()
	return p, nil
}

// maxPrefetchInFlight bounds a file's concurrent speculative chunk
// loads; the scan itself is never throttled by this.
const maxPrefetchInFlight = 4

// PrefetchChunks implements storage.ChunkSource: when the scan's next
// chunk ks[0] is about to miss, an asynchronous, single-flight,
// eviction-aware fetch of the chunk after it, so that chunk's read
// overlaps the scan's decode of this one; a local read gains nothing
// from batching more. It is a no-op when ks[0] is resident (or loading),
// when the chunk after it is, when caching that chunk would evict
// something, or when too many prefetches are in flight — a prefetch must
// only ever hide latency, never change what the scan decodes or keeps.
// The load keeps the request's values (its read and decode bill the
// originating query's ledger) but detaches from its cancellation — the
// query may finish before the flight does.
func (lf *lazyFile) PrefetchChunks(ctx context.Context, ci int, ks []int) {
	if len(ks) < 2 || lf.closed.Load() || ci < 0 || ci >= len(lf.dir) || ks[0] < 0 || ks[1] >= len(lf.dir[ci]) {
		return
	}
	if lf.cache.Contains(lf, ci, ks[0]) {
		return
	}
	k := ks[1]
	// Estimate the decoded footprint from the chunk's row count (8 bytes
	// per row bounds every column type this store encodes).
	if !lf.cache.HasRoom(int64(lf.chunkRows(k)) * 8) {
		return
	}
	if lf.prefetching.Add(1) > maxPrefetchInFlight {
		lf.prefetching.Add(-1)
		return
	}
	// The slot is claimed before the load starts, so the scan's fetch of
	// k always joins this flight instead of racing it.
	cl := lf.cache.Claim(lf, ci, []int{k}, 1)
	if len(cl.Ks) == 0 {
		lf.prefetching.Add(-1)
		return
	}
	ctx = context.WithoutCancel(ctx)
	go func() {
		defer lf.prefetching.Add(-1)
		// A failed load is not cached: the scan's own fetch retries and
		// reports it.
		p, err := lf.loadChunk(ctx, ci, k)
		if err == nil {
			cl.Fill(0, p)
		}
		cl.Finish(err)
	}()
}

// ioStats snapshots the file's cumulative counters.
func (lf *lazyFile) ioStats() IOStats {
	cs := lf.cache.Stats()
	return IOStats{
		BytesRead:      lf.bytesRead.Load(),
		ChunksDecoded:  lf.chunksDecoded.Load(),
		CacheHits:      cs.Hits,
		CacheEvictions: cs.Evictions,
		CacheBytes:     cs.Bytes,
	}
}

// close releases the mapping and descriptor and drops this file's cache
// entries. It waits for in-flight chunk reads (closeMu write lock), so
// concurrent scans fail cleanly with "store closed" instead of touching
// an unmapped region.
func (lf *lazyFile) close() error {
	if lf.closed.Swap(true) {
		return nil
	}
	lf.closeMu.Lock()
	err := munmapFile(lf.data)
	lf.data = nil
	if cerr := lf.f.Close(); err == nil {
		err = cerr
	}
	lf.closeMu.Unlock()
	lf.cache.Drop(lf)
	return err
}
