package shard

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/colstore"
	"repro/internal/query"
	"repro/internal/storage"
)

// This file is the backend seam of the shard layer: everything a Set
// needs from one member shard — metadata, zone maps, dictionaries and a
// chunk source — behind an interface, so a shard can live in a local
// .atl file (fileBackend, below) or behind another process's RPC
// endpoints (internal/remote's client). The Set's assembly, pruning and
// fan-out logic is identical either way; only where bytes come from
// differs. A Set knows which kind a shard is from its manifest location
// (IsRemoteLocation) and holds it under the matching static type, so
// nothing here is discovered by type assertion.

// BackendMeta is a shard's identity: what the manifest's per-shard
// entries are validated against at open.
type BackendMeta struct {
	// Table is the shard's stored table name.
	Table string
	// Rows is the shard's row count.
	Rows int
	// ChunkSize is rows per chunk.
	ChunkSize int
	// Schema is the shard's column schema.
	Schema *storage.Schema
}

// Backend serves one shard's data to a Set — what a local file and a
// remote client both have. Implementations must be safe for concurrent
// use; every method after a successful open answers from the same
// immutable snapshot.
type Backend interface {
	// Meta returns the shard's identity.
	Meta() BackendMeta
	// Zones returns the shard's per-column, per-chunk zone maps in the
	// shard's own (local-dictionary) code space.
	Zones() [][]storage.ZoneMap
	// Dicts returns the dictionary of string column ci (nil for
	// non-string columns). A first-use fetch runs under ctx, so a
	// dictionary pulled mid-query is traced and billed to that query.
	Dicts(ctx context.Context, ci int) ([]string, error)
	// Source serves the shard's decoded chunk payloads (local code
	// space; the Set remaps into union space where needed).
	Source() storage.ChunkSource
	// IOStats reports the backend's cumulative I/O: bytes read (over the
	// wire, for a remote shard) and chunks decoded.
	IOStats() colstore.IOStats
	// Close releases the backend's resources.
	Close() error
}

// PartialSpec names one column's partial-statistics request: the
// set-wide histogram range agreed by the coordinator before the
// fan-out.
type PartialSpec struct {
	// Col is the column index.
	Col int
	// Lo and Hi fix the histogram edges; UseHist is false when the set
	// has no finite range (no histogram is built then).
	Lo, Hi  float64
	UseHist bool
}

// RemoteBackend is a shard served by another process: a Backend plus
// the statistics plane — per-shard statistics computed where the
// shard's data lives, so a sharded exploration fans out as small
// requests instead of pulling chunks — and the fabric's diagnostics.
// Statistics answers are in the shard's local dictionary space — the
// Set remaps them into union space during the reduce — and must be
// exactly what the equivalent local scan would produce (values in row
// order, exact counts), which is what keeps remote explorations
// byte-identical. Every call that may touch the wire takes the request
// context first, so a traced exploration attributes each fan-out RPC to
// the pipeline phase that issued it.
type RemoteBackend interface {
	Backend
	// NumericValues returns attr's non-NULL values in row order under
	// the full selection.
	NumericValues(ctx context.Context, attr string) ([]float64, error)
	// CategoryCounts returns attr's local dictionary and per-code
	// counts under the full selection.
	CategoryCounts(ctx context.Context, attr string) (dict []string, counts []int, err error)
	// BoolCounts returns attr's (false, true) tallies.
	BoolCounts(ctx context.Context, attr string) (falses, trues int, err error)
	// ColumnPartials computes one mergeable partial per spec, in one
	// round trip.
	ColumnPartials(ctx context.Context, specs []PartialSpec) ([]*ColumnPartial, error)
	// PredicateBits returns how many shard rows satisfy p and their exact
	// selection bitmap, so session base assembly skips the chunk plane
	// even for non-empty predicates. words is nil when the server (an old
	// one, say) answered count-only.
	PredicateBits(ctx context.Context, p query.Predicate) (count int, words []uint64, err error)
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
	// StatComputes counts per-attribute statistics actually computed
	// (cache misses).
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
// open's own round trips (metadata, zone maps) run under ctx: when a
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
	st  *colstore.Store
	src storage.ChunkSource
}

var _ Backend = (*fileBackend)(nil)

// openFileBackend opens a shard file with the set's store options.
func openFileBackend(path string, o colstore.Options) (*fileBackend, error) {
	st, err := colstore.OpenWith(path, o)
	if err != nil {
		return nil, err
	}
	src := st.Source()
	if src == nil {
		// Eagerly decoded file: serve chunk payloads as zero-copy slices
		// of its columns.
		tsrc, err := storage.TableChunkSource(st.Table())
		if err != nil {
			st.Close()
			return nil, err
		}
		src = tsrc
	}
	return &fileBackend{st: st, src: src}, nil
}

// Meta implements Backend.
func (fb *fileBackend) Meta() BackendMeta {
	t := fb.st.Table()
	return BackendMeta{Table: t.Name(), Rows: t.NumRows(), ChunkSize: fb.st.ChunkSize, Schema: t.Schema()}
}

// Zones implements Backend.
func (fb *fileBackend) Zones() [][]storage.ZoneMap {
	return fb.st.Table().Chunking().Zones
}

// Dicts implements Backend; a file's dictionaries are read at open.
func (fb *fileBackend) Dicts(_ context.Context, ci int) ([]string, error) {
	t := fb.st.Table()
	if t.Schema().Field(ci).Type != storage.String {
		return nil, nil
	}
	switch c := t.Column(ci).(type) {
	case *storage.StringColumn:
		return c.Dict(), nil
	case *storage.LazyColumn:
		return c.DictValues()
	default:
		return nil, fmt.Errorf("shard: column %d is %T, want a string column", ci, t.Column(ci))
	}
}

// Source implements Backend.
func (fb *fileBackend) Source() storage.ChunkSource { return fb.src }

// Table returns the file's whole chunk-aware table: a single-shard set
// serves it directly, with no routing layer.
func (fb *fileBackend) Table() *storage.Table { return fb.st.Table() }

// IOStats implements Backend.
func (fb *fileBackend) IOStats() colstore.IOStats { return fb.st.IOStats() }

// Close implements Backend.
func (fb *fileBackend) Close() error { return fb.st.Close() }
