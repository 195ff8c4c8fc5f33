package shard

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/colstore"
	"repro/internal/engine"
	"repro/internal/par"
	"repro/internal/stats"
	"repro/internal/storage"
)

// Set is an opened sharded table: the manifest, the combined chunk-aware
// table, and one chunk-aware view per shard sharing its storage.
//
// The combined table is what the pipeline explores. Its chunk metadata
// is the manifest's: every shard's zone maps, concatenated (every shard
// but the last holds whole chunks, so the shards' chunk grids line up),
// which is what lets the engine's chunk drivers run a base scan as one
// pass across shard boundaries. The per-shard views carry the same zone
// maps restricted to their row range; they are what per-shard work runs
// against: every CUT read (Provider), the column table (Partials) and
// EXPLAIN's per-shard verdicts.
//
// A set assembles WITHOUT materializing: the combined table's columns
// are storage.LazyColumn views routing each chunk fetch to its shard
// through one shared decoded-chunk cache, so open touches no values and
// holds no concatenated copy. The zone maps and dictionaries come from
// the manifest whether the shards open now or on first touch
// (Options.Defer), so a set plans every query the same way either way:
// a chunk its zone maps prune is never fetched, and a shard none of
// whose chunks a query reads is never opened.
//
// Every shard of a set holds the table's dictionary for each string
// column, so the shards count and code in one space. Opening a shard
// checks its open snapshot against the manifest — rows, chunk size,
// schema, dictionaries and zone maps — and refuses a shard that
// disagrees, naming it and, where it applies, the column and the chunk.
type Set struct {
	manifest *Manifest
	combined *storage.Table
	views    []*storage.Table
	offsets  []int

	storeOpts colstore.Options
	remote    RemoteOpener
	cache     *colstore.ChunkCache
	shards    []*lazyShard
	chunkOffs []int // shard i's first combined chunk
}

// Options tunes OpenWith — how a shard set materializes.
type Options struct {
	// Store carries the per-file colstore open options (residency mode,
	// cache budget, mmap, CRC). When Store.Cache is nil, OpenWith
	// creates one cache shared by every shard file, so Store.CacheBytes
	// bounds the whole set's decoded bytes, not each file's.
	Store colstore.Options
	// Defer postpones opening each shard file (or remote connection)
	// until a chunk or statistic of that shard is first needed. It
	// decides only when shards open: the set plans with the manifest's
	// zone maps and dictionaries either way, so a query reads, and
	// opens, exactly the same shards and chunks deferred or not.
	Defer bool
	// Remote opens backends for manifests whose shard locations are
	// http(s):// URLs (see internal/remote). Opening such a manifest
	// without a remote opener fails with an error naming the shard.
	Remote RemoteOpener
}

// OpenWith opens a manifest with explicit memory-tier options. Every
// opened shard is checked against the manifest (see checkShard), with
// errors naming the bad shard; in deferred mode that check runs when the
// shard first opens.
func OpenWith(manifestPath string, o Options) (*Set, error) {
	ctx := context.TODO() // opening a set has no request behind it
	m, err := ReadManifest(manifestPath)
	if err != nil {
		return nil, err
	}
	dir, n := filepath.Dir(manifestPath), len(m.Shards)
	s := &Set{manifest: m, storeOpts: o.Store, remote: o.Remote}
	if s.storeOpts.Cache == nil {
		s.storeOpts.Cache = colstore.NewChunkCache(s.storeOpts.CacheBytes)
	}
	s.cache = s.storeOpts.Cache
	s.offsets = make([]int, n)
	s.chunkOffs = make([]int, n)
	s.shards = make([]*lazyShard, n)
	off, chunkOff := 0, 0
	for i, sf := range m.Shards {
		s.offsets[i] = off
		s.chunkOffs[i] = chunkOff
		off += sf.Rows
		chunkOff += (sf.Rows + m.ChunkSize - 1) / m.ChunkSize
		locs := []string{filepath.Join(dir, sf.File)}
		if IsRemoteLocation(sf.File) {
			if o.Remote == nil {
				return nil, fmt.Errorf("shard: manifest names remote shards but no remote opener is configured")
			}
			locs = sf.Locations()
		}
		s.shards[i] = &lazyShard{s: s, idx: i, locs: locs}
	}

	if !o.Defer {
		// Open every shard now (cheap for lazy files and remote backends:
		// metadata only), concurrently.
		err = par.For(runtime.GOMAXPROCS(0), n, func(i int) error {
			_, err := s.shards[i].backend(ctx)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	if err := s.build(); err != nil {
		return nil, err
	}
	return s, nil
}

// checkShard refuses shard i when its open snapshot disagrees with the
// manifest — in rows, chunk size, schema, a dictionary or a zone map —
// naming the shard and, where it applies, the column and the chunk. The
// set plans with the manifest's zone maps and codes in its
// dictionaries, so a shard that disagrees would answer wrongly.
func checkShard(m *Manifest, i int, meta BackendMeta) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("shard: shard %d (%s) disagrees with the manifest: %s", i, m.Shards[i].File, fmt.Sprintf(format, args...))
	}
	if meta.Rows != m.Shards[i].Rows {
		return fail("it holds %d rows, manifest says %d", meta.Rows, m.Shards[i].Rows)
	}
	if meta.ChunkSize != m.ChunkSize {
		return fail("chunk size %d, manifest says %d", meta.ChunkSize, m.ChunkSize)
	}
	if meta.Schema.NumFields() != len(m.Columns) {
		return fail("%d columns, manifest declares %d", meta.Schema.NumFields(), len(m.Columns))
	}
	// Schema and dictionaries first: a shard that disagrees there
	// disagrees in its zone maps too, and the first says why.
	for ci, c := range m.Columns {
		if f := meta.Schema.Field(ci); f.Name != c.Name || columnTypeName(f.Type) != c.Type {
			return fail("column %d is %q %s, manifest says %q %s", ci, f.Name, columnTypeName(f.Type), c.Name, c.Type)
		}
		if !slices.Equal(meta.Dicts[ci], c.Dict) {
			return fail("dictionary mismatch on column %q; every shard must hold the table's dictionary", c.Name)
		}
	}
	for ci, c := range m.Columns {
		zones := m.zones[i][ci]
		if len(meta.Zones[ci]) != len(zones) {
			return fail("column %q has %d zone maps, manifest %d", c.Name, len(meta.Zones[ci]), len(zones))
		}
		for k, zm := range zones {
			if !sameZone(zm, meta.Zones[ci][k]) {
				return fail("zone map mismatch on column %q chunk %d", c.Name, k)
			}
		}
	}
	return nil
}

// sameZone reports whether two zone maps are the same record, bounds
// compared bit for bit.
func sameZone(a, b storage.ZoneMap) bool {
	if a.HasMinMax != b.HasMinMax || a.NullCount != b.NullCount || a.Distinct != b.Distinct || !slices.Equal(a.CodeSet, b.CodeSet) {
		return false
	}
	return !a.HasMinMax || math.Float64bits(a.Min) == math.Float64bits(b.Min) && math.Float64bits(a.Max) == math.Float64bits(b.Max)
}

// lazyShard is one member of a set — a local .atl file or a remote
// shard server — opened on demand (immediately for non-deferred sets).
type lazyShard struct {
	s    *Set
	idx  int
	locs []string // one file path, or http(s):// locations (primary first)

	mu sync.Mutex
	// be is the opened backend; exactly one of file and remote is set with
	// it, under the static type its location implies.
	be     Backend
	file   *fileBackend
	remote RemoteBackend
	err    error
}

// isRemote reports whether the shard is served over the fabric.
func (ls *lazyShard) isRemote() bool { return IsRemoteLocation(ls.locs[0]) }

// backend opens the shard's backend if needed, validating it against
// the manifest, and returns it. The open runs under ctx, so a deferred
// remote open's own RPCs are billed to the query that forced it.
func (ls *lazyShard) backend(ctx context.Context) (Backend, error) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.be != nil || ls.err != nil {
		return ls.be, ls.err
	}
	remote := ls.isRemote()
	// Remote failures are NOT cached: servers heal (restarts, network
	// blips), so the next touch redials instead of serving a poisoned
	// error until the whole set reopens. Local file errors stay sticky —
	// files do not fix themselves.
	fail := func(err error) (Backend, error) {
		if !remote {
			ls.err = err
		}
		return nil, err
	}
	var (
		be   Backend
		file *fileBackend
		rb   RemoteBackend
		err  error
	)
	if remote {
		if ls.s.remote == nil {
			return fail(fmt.Errorf("shard: shard %d is remote (%s) but no remote opener is configured", ls.idx, ls.locs[0]))
		}
		rb, err = ls.s.remote.OpenShard(ctx, ls.locs, ls.s.storeOpts)
		be = rb
	} else if file, err = openFileBackend(ls.locs[0], ls.s.storeOpts); err == nil {
		be = file
	}
	if err != nil {
		return fail(fmt.Errorf("shard: opening shard %d: %w", ls.idx, err))
	}
	if err := checkShard(ls.s.manifest, ls.idx, be.Meta()); err != nil {
		be.Close()
		return fail(err)
	}
	ls.be, ls.file, ls.remote = be, file, rb
	return ls.be, nil
}

// opened returns the shard's backend only if it is already open (nil
// otherwise) — the side-effect-free lookup of prefetch hints, counters
// and Close.
func (ls *lazyShard) opened() Backend {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.be
}

// setSource routes chunk fetches of the combined table — or, offset by
// a shard's first chunk, of that shard's view — to the owning shard. It
// implements storage.ChunkSource.
type setSource struct {
	s *Set
	// off is the combined index of this source's chunk 0.
	off int
}

// shardOfChunk maps a combined chunk index to its shard.
func (s *Set) shardOfChunk(gk int) int {
	i := sort.SearchInts(s.chunkOffs, gk+1) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// FetchChunk implements storage.ChunkSource: ctx rides into the owning
// shard's fetch (and a deferred open it forces), so remote chunk RPCs
// land in the right trace and ledger.
func (ss *setSource) FetchChunk(ctx context.Context, ci, k int) (*storage.ChunkPayload, bool, error) {
	s, gk := ss.s, ss.off+k
	i := s.shardOfChunk(gk)
	be, err := s.shards[i].backend(ctx)
	if err != nil {
		return nil, false, err
	}
	return be.Source().FetchChunk(ctx, ci, gk-s.chunkOffs[i])
}

// PrefetchChunks implements storage.ChunkSource: the window is split by
// shard and each part routed to its shard's source, in local chunk
// indexes — with the caller's ctx, so the load bills the query that
// hinted it. A part is dropped when its shard is not open yet (a hint
// never opens a deferred file; the scan's own fetch will).
func (ss *setSource) PrefetchChunks(ctx context.Context, ci int, ks []int) {
	s := ss.s
	var buf [storage.PrefetchWindow]int
	for len(ks) > 0 {
		i := s.shardOfChunk(ss.off + ks[0])
		n := len(ks)
		if i+1 < len(s.chunkOffs) {
			n = sort.SearchInts(ks, s.chunkOffs[i+1]-ss.off)
		}
		part := ks[:n]
		ks = ks[n:]
		be := s.shards[i].opened()
		if be == nil {
			continue
		}
		local := buf[:0]
		for _, k := range part {
			local = append(local, ss.off+k-s.chunkOffs[i])
		}
		be.Source().PrefetchChunks(ctx, ci, local)
	}
}

// build assembles the combined lazy table and per-shard views from the
// manifest's zone maps and dictionaries.
func (s *Set) build() error {
	m := s.manifest
	n := len(s.shards)
	if fb := s.shards[0].file; n == 1 && fb != nil {
		// Single opened local shard: the combined table IS the shard
		// file's table (its zone maps are the manifest's, checked at
		// open); no indirection needed. (A single remote or deferred
		// shard takes the routed assembly below.)
		tbl := fb.Table().Rename(m.Table)
		s.combined = tbl
		s.views = []*storage.Table{tbl}
		return nil
	}
	schema, err := m.Schema()
	if err != nil {
		return err
	}
	nf := schema.NumFields()
	// lazyTable builds one routed chunk-aware table: the combined table
	// or a shard's view.
	lazyTable := func(src *setSource, rows int, zones [][]storage.ZoneMap, nulls []int) (*storage.Table, error) {
		cols := make([]storage.Column, nf)
		for ci := range cols {
			col, err := storage.NewLazyColumn(storage.LazyColumnConfig{
				Source: src, Col: ci, Type: schema.Field(ci).Type, Rows: rows,
				ChunkSize: m.ChunkSize, NullCount: nulls[ci], Dict: m.Columns[ci].Dict,
			})
			if err != nil {
				return nil, err
			}
			cols[ci] = col
		}
		return storage.NewChunkedTable(m.Table, schema, cols, &storage.Chunking{Size: m.ChunkSize, Zones: zones})
	}
	// The combined table's zone maps are the shards' concatenated
	// (alignment makes the chunk grids line up) and its NULL counts their
	// sums, so both accumulate while the views are built.
	zones := make([][]storage.ZoneMap, nf)
	nulls := make([]int, nf)
	s.views = make([]*storage.Table, n)
	for i := range s.shards {
		viewZones := m.zones[i]
		vnulls := make([]int, nf)
		for ci := range vnulls {
			for _, zm := range viewZones[ci] {
				vnulls[ci] += zm.NullCount
			}
			nulls[ci] += vnulls[ci]
			zones[ci] = append(zones[ci], viewZones[ci]...)
		}
		view, err := lazyTable(&setSource{s: s, off: s.chunkOffs[i]}, m.Shards[i].Rows, viewZones, vnulls)
		if err != nil {
			return err
		}
		s.views[i] = view
	}
	combined, err := lazyTable(&setSource{s: s}, m.Rows, zones, nulls)
	if err != nil {
		return err
	}
	s.combined = combined
	return nil
}

// Close closes every opened shard backend. It is idempotent.
func (s *Set) Close() error {
	var first error
	for _, ls := range s.shards {
		if be := ls.opened(); be != nil {
			if err := be.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// OpenedShards counts shard files opened so far — the observable
// measure of shard-file pruning under deferred opens.
func (s *Set) OpenedShards() int {
	n := 0
	for _, ls := range s.shards {
		if ls.opened() != nil {
			n++
		}
	}
	return n
}

// IOStats sums the lazy-I/O counters of every opened shard backend
// (remote backends report bytes over the wire and chunk fetches).
func (s *Set) IOStats() colstore.IOStats {
	var out colstore.IOStats
	for _, ls := range s.shards {
		if be := ls.opened(); be != nil {
			st := be.IOStats()
			out.BytesRead += st.BytesRead
			out.ChunksDecoded += st.ChunksDecoded
		}
	}
	cs := s.cache.Stats()
	out.CacheHits = cs.Hits
	out.CacheEvictions = cs.Evictions
	out.CacheBytes = cs.Bytes
	return out
}

// remoteBackend returns shard i's backend when it is served over the
// fabric, opening it (under ctx) if needed. Local shards return (nil,
// nil): their cuts run with ComputeCut in process (see cut), sharing the
// chunk cache and the query's ledger.
func (s *Set) remoteBackend(ctx context.Context, i int) (RemoteBackend, error) {
	if !s.shards[i].isRemote() {
		return nil, nil
	}
	if _, err := s.shards[i].backend(ctx); err != nil {
		return nil, err
	}
	return s.shards[i].remote, nil
}

// AddCounts adds src into dst element-wise — the reduction for category
// counts and any other count vector keyed by a shared dictionary.
func AddCounts(dst, src []int) error {
	if len(dst) != len(src) {
		return fmt.Errorf("shard: count vectors of length %d vs %d", len(dst), len(src))
	}
	for i, v := range src {
		dst[i] += v
	}
	return nil
}

// ShardHealthInfo is one shard's liveness snapshot (see ShardHealth).
type ShardHealthInfo struct {
	// Location is the manifest's shard location (file or URL).
	Location string
	// Remote reports whether the shard is served over the fabric.
	Remote bool
	// Opened reports whether the shard's backend has been opened.
	Opened bool
	// Healthy is the probe outcome; always true for reachable local
	// shards.
	Healthy bool
	// Latency is the probe round-trip time (remote shards only).
	Latency time.Duration
	// Err carries the probe failure, if any.
	Err error
	// Replicas is the per-replica breaker state of a replicated remote
	// shard (nil for local shards and unopened backends).
	Replicas []ReplicaHealth
}

// ShardHealth probes shard i: remote shards round-trip their health
// endpoint (opening the backend if needed — this is a diagnostic, not a
// data path), local shards report opened state. The open and the probe
// run under ctx, so a caller that gives up stops waiting on a hung
// replica. It is what GET /api/shards surfaces per shard.
func (s *Set) ShardHealth(ctx context.Context, i int) ShardHealthInfo {
	info := ShardHealthInfo{Location: s.manifest.Shards[i].File}
	ls := s.shards[i]
	info.Remote = ls.isRemote()
	info.Opened = ls.opened() != nil
	if !info.Remote {
		info.Healthy = true
		return info
	}
	rb, err := s.remoteBackend(ctx, i)
	if err != nil {
		info.Err = err
		return info
	}
	info.Opened = true
	info.Replicas = rb.Replicas()
	lat, err := rb.Health(ctx)
	if err != nil {
		info.Err = err
		return info
	}
	info.Healthy, info.Latency = true, lat
	return info
}

// ShardServerStats polls shard i's server-side counters over the
// fabric (GET /shard/v1/stats), opening the backend if needed — like
// ShardHealth, a rollup scrape is a diagnostic, not a data path.
// polled is false when the shard is local; err carries open or RPC
// failures.
func (s *Set) ShardServerStats(ctx context.Context, i int) (stats ServerStats, polled bool, err error) {
	rb, err := s.remoteBackend(ctx, i)
	if err != nil {
		return ServerStats{}, true, err
	}
	if rb == nil {
		return ServerStats{}, false, nil
	}
	stats, err = rb.ServerStats(ctx)
	return stats, true, err
}

// Table returns the combined, chunk-aware table the pipeline explores.
func (s *Set) Table() *storage.Table { return s.combined }

// Manifest returns the manifest the set was opened from.
func (s *Set) Manifest() *Manifest { return s.manifest }

// NumShards returns the number of shards.
func (s *Set) NumShards() int { return len(s.views) }

// ShardTable returns shard i's view: a chunk-aware table over the
// shard's rows, sharing the combined table's storage.
func (s *Set) ShardTable(i int) *storage.Table { return s.views[i] }

// ShardOffset returns the combined-table row offset of shard i.
func (s *Set) ShardOffset(i int) int { return s.offsets[i] }

// ColumnPartial is one column's statistics over a whole set, merged
// from its shards' summaries.
type ColumnPartial struct {
	// Rows and Nulls count the set's rows and this column's NULLs.
	Rows, Nulls int
	// Count is the column's non-NULL rows. Sum adds a numeric column's
	// values, NaN included; Min and Max are the extremes of those other
	// than NaN, valid when HasMinMax. NegInf and PosInf count its −Inf
	// and +Inf values.
	Count          int
	Sum            float64
	Min, Max       float64
	HasMinMax      bool
	NegInf, PosInf int
	// Hist counts a numeric column's finite values into SummaryHist over
	// their extremes; nil when it has none.
	Hist *stats.Histogram
	// CatCounts are a string column's per-code counts in the set's
	// dictionary.
	CatCounts []int
	// Falses and Trues tally a bool column.
	Falses, Trues int
}

// Partials computes every column's ColumnPartial in two CutSummary
// rounds over all rows of every shard: the first agrees each numeric
// column's histogram range, the extremes of its finite values, and the
// second counts those values into its bins.
// Each shard computes its summaries where it lives, and they fold in
// shard order, so every field, the sum included, is the same whatever
// holds the shards. No shard's raw values are centralized.
func (s *Set) Partials(parallelism int) ([]*ColumnPartial, error) {
	ctx := context.TODO() // the context-free signature is pinned by bench/
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	schema := s.combined.Schema()
	all := CutRequest{Kind: CutSummary, Cols: make([]int, schema.NumFields())}
	for ci := range all.Cols {
		all.Cols[ci] = ci
	}
	sums, err := s.summaries(ctx, parallelism, all)
	if err != nil {
		return nil, err
	}
	out := make([]*ColumnPartial, len(all.Cols))
	ranged := CutRequest{Kind: CutSummary}
	for ci := range out {
		p := &ColumnPartial{Rows: s.combined.NumRows()}
		ext, fin := engine.SummarizeNumeric(nil), engine.SummarizeNumeric(nil)
		if schema.Field(ci).Type == storage.String {
			dict, err := storage.Dictionary(s.combined.Column(ci))
			if err != nil {
				return nil, err
			}
			p.CatCounts = make([]int, len(dict))
		}
		for _, shardSums := range sums {
			sum := &shardSums[ci]
			p.Count += sum.Count
			p.Sum += sum.Sum
			ext.Merge(sum.Stats)
			fin.Merge(sum.Finite)
			p.NegInf += sum.NegInf
			p.PosInf += sum.PosInf
			p.Falses += sum.Falses
			p.Trues += sum.Trues
			if p.CatCounts != nil {
				if err := AddCounts(p.CatCounts, sum.Counts); err != nil {
					return nil, err
				}
			}
		}
		p.Nulls = p.Rows - p.Count
		if schema.Field(ci).Type.IsNumeric() && p.Count > ext.NaN {
			p.Min, p.Max, p.HasMinMax = ext.Min, ext.Max, true
			if fin.Min <= fin.Max {
				ranged.Cols = append(ranged.Cols, ci)
				ranged.Ranges = append(ranged.Ranges, [2]float64{fin.Min, fin.Max})
			}
		}
		out[ci] = p
	}
	if len(ranged.Cols) == 0 {
		return out, nil
	}
	if sums, err = s.summaries(ctx, parallelism, ranged); err != nil {
		return nil, err
	}
	for c, ci := range ranged.Cols {
		h, err := SummaryHist(ranged.Ranges[c][0], ranged.Ranges[c][1])
		if err != nil {
			return nil, err
		}
		for _, shardSums := range sums {
			if err := AddCounts(h.Counts, shardSums[c].Bins); err != nil {
				return nil, err
			}
		}
		out[ci].Hist = h
	}
	return out, nil
}

// summaries answers req, a CutSummary of every row, on each shard: a
// remote shard over the fabric, a local one with ComputeCut over its
// view.
func (s *Set) summaries(ctx context.Context, parallelism int, req CutRequest) ([][]Summary, error) {
	out := make([][]Summary, s.NumShards())
	err := par.For(parallelism, len(out), func(i int) error {
		var a CutAnswer
		err := s.cut(ctx, i, req, &a)
		out[i] = a.Summaries
		return err
	})
	return out, err
}

// cut answers req for shard i into a: over the fabric when the shard is
// remote, otherwise with ComputeCut over its view. It is the one
// dispatch behind every cut of a set.
func (s *Set) cut(ctx context.Context, i int, req CutRequest, a *CutAnswer) error {
	rb, err := s.remoteBackend(ctx, i)
	if err != nil {
		return err
	}
	if rb != nil {
		return rb.Cut(ctx, req, a)
	}
	return ComputeCut(ctx, s.views[i], req, a)
}
