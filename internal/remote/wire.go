package remote

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"repro/internal/colstore"
	"repro/internal/shard"
	"repro/internal/storage"
)

// This file defines the fabric's wire representations. Two rules keep
// the protocol honest:
//
//   - Floats travel as IEEE-754 bit patterns (little-endian u64 in
//     binary bodies and in zone-map records), never as decimal text: the
//     coordinator must reconstruct *exactly* the value the shard holds
//     (byte-identical explorations depend on it), and JSON numbers
//     cannot carry NaN or ±Inf at all.
//   - Bulk payloads (chunk bytes, cut requests and answers) are binary;
//     everything metadata-shaped is JSON, zone maps in it as the .atl
//     zone-map records (colstore.EncodeZones).

// Header names of the fabric.
const (
	// headerTrace propagates the coordinator's trace context to a shard
	// server ("<traceID>/<parentSpanID>"), so the server's spans nest
	// under the RPC attempt that asked.
	headerTrace = "X-Atlas-Trace"
	// headerSpans carries the server's span subtree back in the response
	// (base64-encoded JSON, see obsv.EncodeSpanTree).
	headerSpans = "X-Atlas-Spans"
	// headerRequestID propagates the query request id, joining client
	// errors with server log lines.
	headerRequestID = "X-Atlas-Request-Id"
	// headerDeadline carries the caller's remaining deadline budget in
	// integer milliseconds; the server bounds the request's context by
	// it, aborting statcompute/chunk work whose caller has already given
	// up. Absent or malformed values mean "no deadline".
	headerDeadline = "X-Atlas-Deadline"
)

// metaDTO is GET /shard/v1/meta: the shard's open snapshot — identity,
// schema, and every column's zone maps and dictionary — in one body, so
// opening a remote shard is one round trip.
type metaDTO struct {
	Table     string `json:"table"`
	Rows      int    `json:"rows"`
	ChunkSize int    `json:"chunkSize"`
	// Version is the chunk-plane encoding version (see
	// colstore.Store.WireVersion); clients accept colstore.Version only.
	Version int      `json:"version"`
	Columns []colDTO `json:"columns"`
}

type colDTO struct {
	Name string `json:"name"`
	Type string `json:"type"`
	// Dict is a string column's dictionary; absent on other columns.
	Dict []string `json:"dict,omitempty"`
	// Zones holds the column's zone maps, one record per chunk
	// (colstore.EncodeZones).
	Zones string `json:"zones"`
}

// snapshot checks the answer and builds the shard's open snapshot from
// it. Its zone maps pass the reader a shard file's and a manifest's pass
// (colstore.DecodeZones), because each fault would mis-prune scans
// silently: a NULL count outside the chunk's rows, a code set on a
// non-string column or one not sized to the dictionary, a zone map per
// chunk missing or in excess. A dictionary on a non-string column, an
// implausible shape and a foreign chunk encoding are refused too.
func (m *metaDTO) snapshot() (shard.BackendMeta, error) {
	if m.Rows < 0 || m.ChunkSize <= 0 || m.ChunkSize%64 != 0 {
		return shard.BackendMeta{}, fmt.Errorf("implausible shape rows=%d chunkSize=%d", m.Rows, m.ChunkSize)
	}
	if m.Version != colstore.Version {
		return shard.BackendMeta{}, fmt.Errorf("chunk encoding: %w %d (this client reads version %d only)", colstore.ErrVersion, m.Version, colstore.Version)
	}
	fields := make([]storage.Field, len(m.Columns))
	for ci, col := range m.Columns {
		typ, err := parseTypeName(col.Type)
		if err != nil {
			return shard.BackendMeta{}, err
		}
		fields[ci] = storage.Field{Name: col.Name, Type: typ}
	}
	schema, err := storage.NewSchema(fields...)
	if err != nil {
		return shard.BackendMeta{}, err
	}
	out := shard.BackendMeta{Table: m.Table, Rows: m.Rows, ChunkSize: m.ChunkSize, Schema: schema,
		Zones: make([][]storage.ZoneMap, len(fields)), Dicts: make([][]string, len(fields))}
	for ci, col := range m.Columns {
		f := fields[ci]
		if col.Dict != nil && f.Type != storage.String {
			return shard.BackendMeta{}, fmt.Errorf("column %q: dictionary on a %v column", f.Name, f.Type)
		}
		zones, err := colstore.DecodeZones(col.Zones, f.Type, len(col.Dict), m.Rows, m.ChunkSize)
		if err != nil {
			return shard.BackendMeta{}, fmt.Errorf("column %q: %w", f.Name, err)
		}
		out.Zones[ci], out.Dicts[ci] = zones, col.Dict
	}
	return out, nil
}

func typeName(t storage.DataType) string {
	switch t {
	case storage.Int64:
		return "int64"
	case storage.Float64:
		return "float64"
	case storage.String:
		return "string"
	default:
		return "bool"
	}
}

func parseTypeName(s string) (storage.DataType, error) {
	switch s {
	case "int64":
		return storage.Int64, nil
	case "float64":
		return storage.Float64, nil
	case "string":
		return storage.String, nil
	case "bool":
		return storage.Bool, nil
	default:
		return 0, fmt.Errorf("remote: unknown column type %q", s)
	}
}

// chunkReqDTO is POST /shard/v1/chunk: one column and the chunks wanted
// from it — distinct, ascending, at most storage.PrefetchWindow, which
// bounds the server's answer buffer. The answer is one frame per chunk, in
// the same order: k (u32), len (u32), crc (u32), all little-endian, then
// len bytes of the chunk's .atl encoding — for a lazy shard store the
// stored byte range and its directory CRC.
type chunkReqDTO struct {
	Col    int   `json:"col"`
	Chunks []int `json:"chunks"`
}

// frameHeaderLen is the size of a chunk frame's (k, len, crc) header.
const frameHeaderLen = 12

// parseFrames splits a chunk-plane answer into the encoded chunks of ks
// (ascending), in order, trusting nothing the request did not ask for:
// each frame must name the next requested chunk, declare no more bytes
// than limit(k) — what a chunk of its rows can encode to — and match its
// CRC, and nothing may follow the last frame. The returned slices alias
// body.
func parseFrames(body []byte, ks []int, limit func(k int) int) ([][]byte, error) {
	raws := make([][]byte, len(ks))
	off := 0
	for i, want := range ks {
		if rest := len(body) - off; rest < frameHeaderLen {
			if rest == 0 {
				return nil, fmt.Errorf("truncated body: frames missing after %d of %d", i, len(ks))
			}
			return nil, fmt.Errorf("truncated frame header for chunk %d", want)
		}
		k := int(binary.LittleEndian.Uint32(body[off:]))
		n := int(binary.LittleEndian.Uint32(body[off+4:]))
		crc := binary.LittleEndian.Uint32(body[off+8:])
		if k != want {
			return nil, frameOrderError(ks, i, k)
		}
		if most := limit(k); n > most {
			return nil, fmt.Errorf("frame for chunk %d declares %d bytes, more than its rows can encode to (%d)", k, n, most)
		}
		off += frameHeaderLen
		if n > len(body)-off {
			return nil, fmt.Errorf("truncated frame for chunk %d: %d of %d bytes", k, len(body)-off, n)
		}
		raw := body[off : off+n]
		if got := crc32.ChecksumIEEE(raw); got != crc {
			return nil, fmt.Errorf("chunk %d: checksum mismatch (frame %08x, computed %08x)", k, crc, got)
		}
		raws[i] = raw
		off += n
	}
	if off != len(body) {
		return nil, fmt.Errorf("%d trailing bytes after %d frames", len(body)-off, len(ks))
	}
	return raws, nil
}

// frameOrderError names what is wrong with a frame for chunk k arriving
// where ks[i] was due.
func frameOrderError(ks []int, i, k int) error {
	switch j := sort.SearchInts(ks, k); {
	case j == len(ks) || ks[j] != k:
		return fmt.Errorf("frame for chunk %d, which was not asked for", k)
	case j < i:
		return fmt.Errorf("duplicate frame for chunk %d", k)
	default:
		return fmt.Errorf("frame for chunk %d out of order: chunk %d missing before it", k, ks[i])
	}
}

// bufPool recycles wire buffers — a response body on the client, a
// framed chunk answer on the server — so the chunk plane allocates no
// buffer per request in steady state. Unlike a sync.Pool it survives
// garbage collections, which a workload allocating little else would
// otherwise trigger often enough to empty it.
type bufPool struct {
	// free holds idle buffers: one per request a busy client or server
	// typically has in flight.
	free chan []byte
}

const (
	// poolBufs bounds the idle buffers a pool keeps.
	poolBufs = 4
	// poolBufMax bounds the size of a buffer a pool keeps; larger ones
	// (a full-column statistics answer) go to the garbage collector.
	poolBufMax = 8 << 20
)

func newBufPool() *bufPool { return &bufPool{free: make(chan []byte, poolBufs)} }

// get returns a buffer of length n, recycled when an idle one is large
// enough.
func (p *bufPool) get(n int) []byte {
	select {
	case b := <-p.free:
		if cap(b) >= n {
			return b[:n]
		}
	default:
	}
	return make([]byte, n)
}

// put hands b back for reuse. The caller must hold no reference into it.
func (p *bufPool) put(b []byte) {
	if cap(b) > poolBufMax {
		return
	}
	select {
	case p.free <- b:
	default:
	}
}

// healthDTO is GET /shard/v1/health.
type healthDTO struct {
	OK    bool   `json:"ok"`
	Table string `json:"table"`
	Rows  int    `json:"rows"`
}

// shardStatsDTO is GET /shard/v1/stats: the shard server's own
// counters, one RPC per scrape. Plain integers (no float bit patterns:
// counters are exact by construction) plus the server's release
// version, so a fleet rollup can spot skew.
type shardStatsDTO struct {
	Table         string `json:"table"`
	Rows          int    `json:"rows"`
	Requests      int64  `json:"requests"`
	BytesOut      int64  `json:"bytesOut"`
	StatComputes  int64  `json:"statComputes"`
	ChunkServes   int64  `json:"chunkServes"`
	Draining      bool   `json:"draining,omitempty"`
	BytesRead     int64  `json:"bytesRead,omitempty"`
	ChunksDecoded int64  `json:"chunksDecoded,omitempty"`
	CacheHits     int64  `json:"cacheHits,omitempty"`
	CacheBytes    int64  `json:"cacheBytes,omitempty"`
	Version       string `json:"version,omitempty"`
}
