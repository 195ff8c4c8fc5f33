package colstore

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/storage"
)

// The zone-map record is the one encoding of a zone map: the header of
// every chunk, the per-chunk metadata of the .atl directory, and —
// base64, one string per column (EncodeZones) — the zone maps a shard
// manifest and a shard server's meta answer carry. One reader
// (ParseZone) checks every record, wherever it comes from.

const (
	flagNulls   = 1
	flagMinMax  = 2
	flagCodeSet = 4
)

// AppendZone appends zm's record to dst: u8 flags, (flag 2) f64 min and
// f64 max as IEEE-754 bits, uv null count, uv distinct, (flag 4) uv
// words and the code-set words as u64.
func AppendZone(dst []byte, zm storage.ZoneMap) []byte {
	var flags byte
	if zm.NullCount > 0 {
		flags |= flagNulls
	}
	if zm.HasMinMax {
		flags |= flagMinMax
	}
	if zm.CodeSet != nil {
		flags |= flagCodeSet
	}
	dst = append(dst, flags)
	if zm.HasMinMax {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(zm.Min))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(zm.Max))
	}
	dst = binary.AppendUvarint(dst, uint64(zm.NullCount))
	dst = binary.AppendUvarint(dst, uint64(zm.Distinct))
	if zm.CodeSet != nil {
		dst = binary.AppendUvarint(dst, uint64(len(zm.CodeSet)))
		for _, w := range zm.CodeSet {
			dst = binary.LittleEndian.AppendUint64(dst, w)
		}
	}
	return dst
}

// ParseZone decodes the record at the front of src and returns it with
// the record's length. It refuses a record that is truncated, has
// unknown flags, sets the NULL flag against its count, or fails
// zm.Check(t, dictLen, chunkRows) — a zone map that would mis-prune
// scans. dictLen -1 (the dictionary is not at hand) checks a code set's
// structural bound only.
func ParseZone(src []byte, t storage.DataType, dictLen, chunkRows int) (storage.ZoneMap, int, error) {
	d := &decoder{data: src}
	flags := d.u8()
	if d.err == nil && flags&^(flagNulls|flagMinMax|flagCodeSet) != 0 {
		return storage.ZoneMap{}, 0, fmt.Errorf("unknown flags %#x", flags)
	}
	zm := storage.ZoneMap{}
	if flags&flagMinMax != 0 {
		zm.Min = math.Float64frombits(d.u64())
		zm.Max = math.Float64frombits(d.u64())
		zm.HasMinMax = true
	}
	zm.NullCount = int(d.uv())
	zm.Distinct = int(d.uv())
	if flags&flagCodeSet != 0 {
		// Bound the words before allocating them; zm.Check below refuses
		// a set the column or its dictionary cannot hold.
		nw := int(d.uv())
		if d.err == nil && (nw <= 0 || nw > (storage.MaxZoneCodes+63)/64) {
			return storage.ZoneMap{}, 0, fmt.Errorf("implausible code set of %d words", nw)
		}
		zm.CodeSet = make([]uint64, nw)
		for wi := range zm.CodeSet {
			zm.CodeSet[wi] = d.u64()
		}
	}
	if d.err != nil {
		return storage.ZoneMap{}, 0, d.err
	}
	if (flags&flagNulls != 0) != (zm.NullCount > 0) {
		return storage.ZoneMap{}, 0, fmt.Errorf("null flag disagrees with null count %d", zm.NullCount)
	}
	if err := zm.Check(t, dictLen, chunkRows); err != nil {
		return storage.ZoneMap{}, 0, err
	}
	return zm, d.off, nil
}

// EncodeZones encodes one column's zone maps, one record per chunk, as
// base64 text — the form a manifest and a shard's meta answer carry.
func EncodeZones(zones []storage.ZoneMap) string {
	var buf []byte
	for _, zm := range zones {
		buf = AppendZone(buf, zm)
	}
	return base64.StdEncoding.EncodeToString(buf)
}

// DecodeZones parses the zone maps EncodeZones wrote for a column of
// type t, dictLen dictionary entries (0 for other types) and rows rows
// on a chunkSize grid: exactly one record per chunk, each checked by
// ParseZone against its chunk's rows. The error names the failing chunk.
func DecodeZones(s string, t storage.DataType, dictLen, rows, chunkSize int) ([]storage.ZoneMap, error) {
	b, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("zone maps are not base64: %w", err)
	}
	if rows < 0 || chunkSize <= 0 {
		return nil, fmt.Errorf("implausible shape rows=%d chunkSize=%d", rows, chunkSize)
	}
	// Counted without rows+chunkSize, which overflows for rows near
	// MaxInt: outside input sets rows.
	numChunks := rows / chunkSize
	if rows%chunkSize != 0 {
		numChunks++
	}
	// Every record takes at least 3 bytes (flags and two counts).
	if numChunks > len(b)/3 {
		return nil, fmt.Errorf("%d bytes cannot hold %d zone maps", len(b), numChunks)
	}
	zones := make([]storage.ZoneMap, numChunks)
	off := 0
	for k := range zones {
		if off == len(b) {
			return nil, fmt.Errorf("%d zone maps for %d chunks", k, numChunks)
		}
		zm, n, err := ParseZone(b[off:], t, dictLen, min(chunkSize, rows-k*chunkSize))
		if err != nil {
			return nil, fmt.Errorf("chunk %d: %w", k, err)
		}
		zones[k] = zm
		off += n
	}
	if off != len(b) {
		return nil, fmt.Errorf("%d bytes after %d zone maps, one per chunk", len(b)-off, numChunks)
	}
	return zones, nil
}
