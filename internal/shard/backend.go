package shard

import (
	"context"
	"strings"
	"time"

	"repro/internal/colstore"
	"repro/internal/storage"
)

// This file is the backend seam of the shard layer: everything a Set
// needs from one member shard — its open snapshot (identity, schema,
// zone maps, dictionaries) and a chunk source — behind an interface, so
// a shard can live in a local .atl file (fileBackend, below) or behind
// another process's RPC endpoints (internal/remote's client). The Set's
// assembly, pruning and fan-out logic is identical either way; only
// where bytes come from differs. A Set knows which kind a shard is from
// its manifest location (IsRemoteLocation) and holds it under the
// matching static type, so nothing here is discovered by type assertion.

// BackendMeta is a shard's open snapshot: its identity, schema, zone
// maps and dictionaries. The manifest carries the same for every shard,
// and a set refuses a shard whose snapshot differs from its manifest
// entry in any of them.
type BackendMeta struct {
	// Table is the shard's stored table name.
	Table string
	// Rows is the shard's row count.
	Rows int
	// ChunkSize is rows per chunk.
	ChunkSize int
	// Schema is the shard's column schema.
	Schema *storage.Schema
	// Zones holds the shard's per-column, per-chunk zone maps.
	Zones [][]storage.ZoneMap
	// Dicts holds each string column's dictionary (nil for other
	// columns). Every shard of a set holds the set's: the table's
	// dictionary, which the shard's codes index.
	Dicts [][]string
}

// Backend serves one shard's data to a Set — what a local file and a
// remote client both have. Implementations must be safe for concurrent
// use; every method after a successful open answers from the same
// immutable snapshot.
type Backend interface {
	// Meta returns the shard's open snapshot.
	Meta() BackendMeta
	// Source serves the shard's decoded chunk payloads.
	Source() storage.ChunkSource
	// IOStats reports the backend's cumulative I/O: bytes read (over the
	// wire, for a remote shard) and chunks decoded.
	IOStats() colstore.IOStats
	// Close releases the backend's resources.
	Close() error
}

// RemoteBackend is a shard served by another process: a Backend plus
// the statistics plane — cut reads computed where the shard's data
// lives, so a sharded exploration or a set's column table fans out as
// small requests instead of pulling chunks — and the fabric's
// diagnostics. Statistics answers count in the set's one dictionary and
// must be exactly what ComputeCut over the shard's table produces
// (values in row order, exact counts, identical bitmaps), which is what
// keeps remote explorations byte-identical. Every call that may touch
// the wire takes the request context first, so a traced exploration
// attributes each fan-out RPC to the pipeline phase that issued it.
type RemoteBackend interface {
	Backend
	// Cut answers one CUT read of the shard into a (see CutRequest),
	// reusing a's slices.
	Cut(ctx context.Context, req CutRequest, a *CutAnswer) error
	// Health round-trips a liveness check, returning its latency.
	Health(ctx context.Context) (time.Duration, error)
	// Replicas reports per-replica circuit-breaker state.
	Replicas() []ReplicaHealth
	// ServerStats fetches the shard server's own counters in one RPC, so
	// a coordinator scrape can aggregate the whole fleet.
	ServerStats(ctx context.Context) (ServerStats, error)
}

// ReplicaHealth is one replica's view from a backend's circuit
// breaker: which URL, whether its breaker is closed (healthy), tripped
// (cooling down) or half-open (due a probe), and the evidence.
type ReplicaHealth struct {
	// URL is the replica's location.
	URL string
	// State is "healthy", "tripped" or "probing".
	State string
	// Fails is the current consecutive-failure count.
	Fails int
	// Err is the last failure seen, nil when healthy.
	Err error
	// Latency is the last round-trip time observed against this
	// replica, successful or not — failed attempts (including the time
	// burned before a failover) are charged to the replica that failed.
	Latency time.Duration
	// Attempts is the cumulative number of requests dialed against this
	// replica since open.
	Attempts int64
	// Failures is the cumulative number of those that failed.
	Failures int64
}

// ServerStats is one remote shard server's own counter snapshot — what
// GET /shard/v1/stats answers: the server's request and byte tallies,
// its memoized-statistics and chunk-plane activity, its drain state,
// and its store-side I/O (from which the coordinator derives the
// shard's decoded-chunk cache hit rate).
type ServerStats struct {
	// Requests counts fabric requests served (including errors).
	Requests int64
	// BytesOut counts response body bytes of successful answers.
	BytesOut int64
	// StatComputes counts the cut answers the server computed.
	StatComputes int64
	// ChunkServes counts chunk-plane payloads served.
	ChunkServes int64
	// Draining reports the server's drain switch.
	Draining bool
	// BytesRead / ChunksDecoded / CacheHits / CacheBytes are the
	// server's own store I/O counters (colstore.IOStats fields).
	BytesRead     int64
	ChunksDecoded int64
	CacheHits     int64
	CacheBytes    int64
}

// CacheHitRate derives the shard's decoded-chunk cache hit fraction;
// zero before any chunk demand.
func (s ServerStats) CacheHitRate() float64 {
	total := s.CacheHits + s.ChunksDecoded
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// RemoteOpener opens backends for http(s):// shard locations. The
// locations are one shard's dial order — primary first, then replicas
// serving the same immutable shard — and the backend fails over among
// them. The store options carry the set's shared decoded-chunk cache,
// so remote payloads honor the same byte budget as local ones. The
// open's one round trip (its snapshot) runs under ctx: when a
// query forces a deferred shard open they land in its trace and
// resource ledger. Implemented by internal/remote.Opener; shard itself
// stays transport-free.
type RemoteOpener interface {
	OpenShard(ctx context.Context, locations []string, store colstore.Options) (RemoteBackend, error)
}

// IsRemoteLocation reports whether a manifest shard location names a
// remote shard server rather than a file next to the manifest.
func IsRemoteLocation(loc string) bool {
	return strings.HasPrefix(loc, "http://") || strings.HasPrefix(loc, "https://")
}

// fileBackend adapts a local .atl store to the Backend interface.
type fileBackend struct {
	st   *colstore.Store
	src  storage.ChunkSource
	meta BackendMeta
}

var _ Backend = (*fileBackend)(nil)

// openFileBackend opens a shard file with the set's store options.
func openFileBackend(path string, o colstore.Options) (*fileBackend, error) {
	st, err := colstore.OpenWith(path, o)
	if err != nil {
		return nil, err
	}
	meta, err := tableMeta(st.Table(), st.ChunkSize)
	if err != nil {
		st.Close()
		return nil, err
	}
	src := st.Source()
	if src == nil {
		// Eagerly decoded file: serve chunk payloads as zero-copy slices
		// of its columns.
		src = storage.TableChunkSource(st.Table())
	}
	return &fileBackend{st: st, src: src, meta: meta}, nil
}

// tableMeta is the open snapshot of a shard file's table; a file's
// dictionaries are read at open.
func tableMeta(t *storage.Table, chunkSize int) (BackendMeta, error) {
	meta := BackendMeta{Table: t.Name(), Rows: t.NumRows(), ChunkSize: chunkSize, Schema: t.Schema(),
		Zones: t.Chunking().Zones, Dicts: make([][]string, t.NumCols())}
	for ci := range meta.Dicts {
		if t.Schema().Field(ci).Type != storage.String {
			continue
		}
		d, err := storage.Dictionary(t.Column(ci))
		if err != nil {
			return BackendMeta{}, err
		}
		meta.Dicts[ci] = d
	}
	return meta, nil
}

// Meta implements Backend.
func (fb *fileBackend) Meta() BackendMeta { return fb.meta }

// Source implements Backend.
func (fb *fileBackend) Source() storage.ChunkSource { return fb.src }

// Table returns the file's whole chunk-aware table: a single-shard set
// serves it directly, with no routing layer.
func (fb *fileBackend) Table() *storage.Table { return fb.st.Table() }

// IOStats implements Backend.
func (fb *fileBackend) IOStats() colstore.IOStats { return fb.st.IOStats() }

// Close implements Backend.
func (fb *fileBackend) Close() error { return fb.st.Close() }
