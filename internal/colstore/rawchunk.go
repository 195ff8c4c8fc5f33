package colstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/storage"
)

// This file is the chunk-plane export surface of the store: access to a
// chunk's *encoded* bytes plus their CRC, and the matching standalone
// decoder. A remote shard server (internal/remote) ships these bytes
// verbatim — for lazy stores straight out of the file, reusing the
// directory's per-chunk CRCs — and the coordinator decodes them with
// DecodeChunk, so the wire format IS the file format and integrity
// checking costs one CRC pass per transferred chunk on each side.

// WireVersion returns the format version RawChunk encodes chunks in —
// always Version, the only one a store opens.
func (s *Store) WireVersion() byte { return Version }

// RawChunk returns the encoded bytes of chunk k of column ci (the
// flags..values range the directory names) and their CRC-32 (IEEE), in
// a caller-owned slice (see AppendRawChunk).
func (s *Store) RawChunk(ci, k int) ([]byte, uint32, error) {
	return s.AppendRawChunk(nil, ci, k)
}

// AppendRawChunk appends the encoded bytes of chunk k of column ci to
// dst and returns the extended slice with the chunk's CRC-32 (IEEE).
// Lazy stores copy the stored byte range straight out of the file and
// return the directory's per-chunk CRC without decoding; eager stores
// re-encode the chunk. A server framing many chunks into one reused
// buffer pays no per-chunk allocation.
func (s *Store) AppendRawChunk(dst []byte, ci, k int) ([]byte, uint32, error) {
	if s.lazy != nil {
		return s.lazy.appendRawChunk(dst, ci, k)
	}
	t := s.table
	if ci < 0 || ci >= t.NumCols() {
		return dst, 0, fmt.Errorf("colstore: column %d out of range", ci)
	}
	ck := t.Chunking()
	numChunks := ck.NumChunks(t.NumRows())
	if k < 0 || k >= numChunks {
		return dst, 0, fmt.Errorf("colstore: chunk (%d,%d) out of range", ci, k)
	}
	lo := k * ck.Size
	hi := min(lo+ck.Size, t.NumRows())
	buf := bytes.NewBuffer(dst)
	e := &encoder{w: buf}
	e.chunk(t.Column(ci), ck.Zones[ci][k], storage.NullWords(t.Column(ci)), lo, hi)
	if e.err != nil {
		return dst, 0, e.err
	}
	out := buf.Bytes()
	return out, crc32.ChecksumIEEE(out[len(dst):]), nil
}

// appendRawChunk appends the stored byte range of chunk (ci, k) to dst,
// copying it out of the mapping so the caller's slice survives Close.
func (lf *lazyFile) appendRawChunk(dst []byte, ci, k int) ([]byte, uint32, error) {
	if ci < 0 || ci >= len(lf.dir) || k < 0 || k >= len(lf.dir[ci]) {
		return dst, 0, fmt.Errorf("colstore: chunk (%d,%d) out of range", ci, k)
	}
	lf.closeMu.RLock()
	defer lf.closeMu.RUnlock()
	if lf.closed.Load() {
		return dst, 0, fmt.Errorf("colstore: %s: store closed", lf.path)
	}
	ref := lf.dir[ci][k]
	raw, err := lf.readRange(ref.off, ref.length)
	if err != nil {
		return dst, 0, fmt.Errorf("colstore: %s: reading chunk (%d,%d): %w", lf.path, ci, k, err)
	}
	return append(dst, raw...), ref.crc, nil
}

// MaxChunkBytes bounds the encoded size of a chunk of chunkRows rows in
// any column: the largest zone-map header (flags, min/max, two varints
// and a full code set), the null words, and 8 bytes per row — the
// widest value encoding. A reader checks wire lengths against it before
// allocating for them.
func MaxChunkBytes(chunkRows int) int {
	const maxHeader = 1 + 16 + 3*binary.MaxVarintLen64 + 8*((storage.MaxZoneCodes+63)/64)
	return maxHeader + 8*((chunkRows+63)/64) + 8*chunkRows
}

// NumChunks returns the store's chunk count per column.
func (s *Store) NumChunks() int {
	rows := s.table.NumRows()
	if rows == 0 {
		return 0
	}
	return (rows + s.ChunkSize - 1) / s.ChunkSize
}

// DecodeChunk decodes one encoded chunk — bytes produced by RawChunk or
// named by a directory — into a chunk-local payload, with the same
// decoder Read and lazy fetches use. f is the column's field, dictLen
// its dictionary size (0 for non-string columns), chunkRows the chunk's
// row count, k its index (error context), and version the encoding
// version (see WireVersion), which must be Version.
func DecodeChunk(raw []byte, f storage.Field, dictLen, chunkRows, k int, version byte) (*storage.ChunkPayload, error) {
	if version != Version {
		return nil, fmt.Errorf("chunk encoding: %w %d (want %d)", ErrVersion, version, Version)
	}
	p := &storage.ChunkPayload{}
	if _, err := decodeChunk(raw, f, dictLen, chunkRows, k, p); err != nil {
		return nil, err
	}
	return p, nil
}
