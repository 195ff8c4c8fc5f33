package shard

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitvec"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/par"
	"repro/internal/query"
	"repro/internal/sketch"
	"repro/internal/storage"
)

// Set is an opened sharded table: the manifest, the combined chunk-aware
// table, and one chunk-aware view per shard sharing its storage.
//
// The combined table is what the pipeline explores. Its chunk metadata
// is stitched from the shards' zone maps (range partitioning aligns
// every shard boundary to a chunk boundary, so the shard files' zone
// maps concatenate verbatim), which is what lets the engine's existing
// chunk drivers — predicate scans, partition bitmaps, contingency
// counts — fan one pass out across shard boundaries on the shared
// worker pool. The per-shard views carry the same zone maps restricted
// to their row range; they are what per-shard work (partial statistics,
// the session's per-shard predicate bitmaps) runs against.
//
// Chunk-aligned sets (range partitioning always; hash when every
// non-final shard is a chunk multiple) assemble WITHOUT materializing:
// the combined table's columns are storage.LazyColumn views routing
// each chunk fetch to its shard file through one shared decoded-chunk
// cache, so open touches no values and holds no concatenated copy (the
// old transient 2× peak is gone). With Options.Defer the shard files
// themselves open on first touch, and the manifest's v2 statistics
// stand in for zone maps until then — a selective exploration skips
// whole shard files without ever opening them.
type Set struct {
	manifest *Manifest
	combined *storage.Table
	views    []*storage.Table
	offsets  []int

	// Aligned (lazy-view) sets only; nil after an eager reassembly.
	dir       string
	storeOpts colstore.Options
	remote    RemoteOpener
	cache     *colstore.ChunkCache
	shards    []*lazyShard
	chunkOffs []int // shard i's first combined chunk
	// src is the combined table's routing source — also the cache-entry
	// owner of remapped string payloads, dropped at Close.
	src *setSource

	// dictsOnce loads every shard's dictionaries, builds the union
	// dictionaries and the per-(shard, column) code remap tables. In
	// deferred mode it runs on first dictionary demand. dictsDone flips
	// after a successful build — the side-effect-free check prefetch
	// hints rely on.
	dictsOnce sync.Once
	dictsDone atomic.Bool
	dictsErr  error
	unionDict [][]string   // per column; nil for non-string
	remaps    [][][]uint32 // [shard][col] local→union code map; nil = identity
}

// Options tunes OpenWith — how a shard set materializes.
type Options struct {
	// Store carries the per-file colstore open options (residency mode,
	// cache budget, mmap, CRC). When Store.Cache is nil, OpenWith
	// creates one cache shared by every shard file, so Store.CacheBytes
	// bounds the whole set's decoded bytes, not each file's.
	Store colstore.Options
	// Defer postpones opening shard files until a chunk, dictionary or
	// statistic of that shard is first touched. Requires a v2 manifest
	// with complete per-shard stats; others open non-deferred. The
	// engine then prunes on manifest-level statistics (file min/max
	// spread to every chunk) until a shard actually opens. Note that
	// the union dictionary of a string column spans every shard, so the
	// first categorical predicate compile or category statistic opens
	// all files (cheaply: metadata only) — whole-file skipping is at
	// its best on numeric workloads.
	Defer bool
	// Remote opens backends for manifests whose shard locations are
	// http(s):// URLs (see internal/remote). Opening such a manifest
	// without a remote opener fails with an error naming the shard.
	Remote RemoteOpener
}

// Open opens a manifest and its shard files with default options:
// chunk-aligned sets assemble as lazy views (no materialization), each
// shard file opening per colstore.ModeAuto.
func Open(manifestPath string) (*Set, error) {
	return OpenWith(manifestPath, Options{})
}

// OpenWith opens a manifest with explicit memory-tier options. Every
// opened shard is validated against the manifest (row count, chunk
// size) and the set's schema, with errors naming the bad shard; in
// deferred mode that validation runs when the shard first opens.
func OpenWith(manifestPath string, o Options) (*Set, error) {
	ctx := context.TODO() // opening a set has no request behind it
	m, err := ReadManifest(manifestPath)
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(manifestPath)
	n := len(m.Shards)

	// Chunk alignment decides the assembly: aligned sets stitch lazy
	// views; unaligned ones (hash partitions with odd sizes) must
	// re-encode rows and fall back to eager reassembly.
	aligned := true
	for i := 0; i < n-1; i++ {
		if m.Shards[i].Rows%m.ChunkSize != 0 {
			aligned = false
			break
		}
	}
	anyRemote := false
	for _, sf := range m.Shards {
		if IsRemoteLocation(sf.File) {
			anyRemote = true
			break
		}
	}
	if !aligned {
		if anyRemote {
			// Eager reassembly re-encodes whole columns; pulling every
			// remote chunk just to concatenate defeats the fabric.
			return nil, fmt.Errorf("shard: remote shards require chunk-aligned manifests (every non-final shard a multiple of %d rows)", m.ChunkSize)
		}
		return openEager(m, dir)
	}
	if anyRemote && o.Remote == nil {
		return nil, fmt.Errorf("shard: manifest names remote shards but no remote opener is configured")
	}

	s := &Set{manifest: m, dir: dir, storeOpts: o.Store, remote: o.Remote}
	if s.storeOpts.Cache == nil {
		s.storeOpts.Cache = colstore.NewChunkCache(colstore.ResolveCacheBudget(s.storeOpts.CacheBytes))
	}
	s.cache = s.storeOpts.Cache
	s.offsets = make([]int, n)
	s.chunkOffs = make([]int, n)
	off, chunkOff := 0, 0
	for i, sf := range m.Shards {
		s.offsets[i] = off
		s.chunkOffs[i] = chunkOff
		off += sf.Rows
		chunkOff += (sf.Rows + m.ChunkSize - 1) / m.ChunkSize
	}
	s.shards = make([]*lazyShard, n)
	for i := range s.shards {
		var locs []string
		if IsRemoteLocation(m.Shards[i].File) {
			locs = m.Shards[i].Locations()
		} else {
			locs = []string{filepath.Join(dir, m.Shards[i].File)}
		}
		s.shards[i] = &lazyShard{s: s, idx: i, locs: locs}
	}

	// Deferring needs the full v2 statistics: without a shard's stats
	// there is no NULL count to seed the lazy columns with (IsNull would
	// silently report false) and nothing to prune on — open such sets
	// non-deferred instead.
	deferred := o.Defer && len(m.Columns) > 0
	for _, sf := range m.Shards {
		if len(sf.Stats) != len(m.Columns) {
			deferred = false
			break
		}
	}
	var schema *storage.Schema
	var viewZones [][][]storage.ZoneMap // [shard][col][chunk]
	if deferred {
		schema, err = m.Schema()
		if err != nil {
			return nil, err
		}
		viewZones = manifestZones(m)
	} else {
		// Open every shard now (cheap for lazy files and remote backends:
		// metadata only), concurrently, and use their exact zone maps.
		err = par.For(runtime.GOMAXPROCS(0), n, func(i int) error {
			_, err := s.shards[i].backend(ctx)
			return err
		})
		if err != nil {
			return nil, err
		}
		schema = s.shards[0].be.Meta().Schema
		for i := 1; i < n; i++ {
			if !schema.Equal(s.shards[i].be.Meta().Schema) {
				return nil, fmt.Errorf("shard: schema mismatch: shard 0 (%s) and shard %d (%s) disagree",
					m.Shards[0].File, i, m.Shards[i].File)
			}
		}
		if err := s.loadDicts(ctx, schema); err != nil {
			return nil, err
		}
		viewZones = make([][][]storage.ZoneMap, n)
		for i := range s.shards {
			viewZones[i] = s.remapShardZones(i, s.shards[i].be.Zones())
		}
	}
	if err := s.build(schema, viewZones, deferred); err != nil {
		return nil, err
	}
	return s, nil
}

// openEager is the materializing path for unaligned sets: every shard
// decodes eagerly and the combined table is a row-wise concatenation
// (the pre-memory-tier behavior).
func openEager(m *Manifest, dir string) (*Set, error) {
	n := len(m.Shards)
	parts := make([]*storage.Table, n)
	err := par.For(runtime.GOMAXPROCS(0), n, func(i int) error {
		st, err := colstore.OpenWith(filepath.Join(dir, m.Shards[i].File), colstore.Options{Mode: colstore.ModeEager})
		if err != nil {
			return fmt.Errorf("shard: opening shard %d: %w", i, err)
		}
		if err := validateShard(m, i, st); err != nil {
			return err
		}
		parts[i] = st.Table()
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := 1; i < n; i++ {
		if !parts[0].Schema().Equal(parts[i].Schema()) {
			return nil, fmt.Errorf("shard: schema mismatch: shard 0 (%s) and shard %d (%s) disagree",
				m.Shards[0].File, i, m.Shards[i].File)
		}
	}
	return assemble(m, parts)
}

// validateShard cross-checks an opened shard file against the manifest.
func validateShard(m *Manifest, i int, st *colstore.Store) error {
	return validateShardMeta(m, i, BackendMeta{Rows: st.Table().NumRows(), ChunkSize: st.ChunkSize})
}

// validateShardMeta cross-checks a backend's identity against the
// manifest.
func validateShardMeta(m *Manifest, i int, meta BackendMeta) error {
	if meta.Rows != m.Shards[i].Rows {
		return fmt.Errorf("shard: shard %d (%s) holds %d rows, manifest says %d",
			i, m.Shards[i].File, meta.Rows, m.Shards[i].Rows)
	}
	if meta.ChunkSize != m.ChunkSize {
		return fmt.Errorf("shard: shard %d (%s) has chunk size %d, manifest says %d",
			i, m.Shards[i].File, meta.ChunkSize, m.ChunkSize)
	}
	return nil
}

// lazyShard is one member of an aligned set — a local .atl file or a
// remote shard server — opened on demand (immediately for non-deferred
// sets).
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
	meta := be.Meta()
	if err := validateShardMeta(ls.s.manifest, ls.idx, meta); err != nil {
		be.Close()
		return fail(err)
	}
	// Deferred sets validate the schema against the manifest's on first
	// open (non-deferred sets cross-check shard 0 at set open).
	if ls.s.combined != nil && !meta.Schema.Equal(ls.s.combined.Schema()) {
		be.Close()
		return fail(fmt.Errorf("shard: shard %d (%s) schema disagrees with the manifest",
			ls.idx, ls.s.manifest.Shards[ls.idx].File))
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
// a shard's first chunk, of that shard's view — to the owning shard,
// remapping string codes into the union dictionary when shard
// dictionaries differ. It implements storage.ChunkSource.
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
	remap, err := s.remapFor(ctx, i, ci)
	if err != nil {
		return nil, false, err
	}
	if remap == nil {
		return s.shardChunk(ctx, i, ci, gk)
	}
	// Distinct shard dictionaries: the remapped payload is its own cache
	// entry (keyed by the combined table's source) so the copy happens
	// once per residency, not per touch.
	return s.cache.Get(ctx, s.src, ci, gk, func() (*storage.ChunkPayload, error) {
		p, _, err := s.shardChunk(ctx, i, ci, gk)
		if err != nil {
			return nil, err
		}
		codes := make([]uint32, len(p.Codes))
		for o, c := range p.Codes {
			codes[o] = remap[c]
		}
		return &storage.ChunkPayload{Codes: codes, Nulls: p.Nulls}, nil
	})
}

// shardChunk fetches combined chunk gk of column ci from shard i's own
// source (local code space), opening the shard if needed.
func (s *Set) shardChunk(ctx context.Context, i, ci, gk int) (*storage.ChunkPayload, bool, error) {
	be, err := s.shards[i].backend(ctx)
	if err != nil {
		return nil, false, err
	}
	return be.Source().FetchChunk(ctx, ci, gk-s.chunkOffs[i])
}

// PrefetchChunk implements storage.ChunkSource: hints are routed to the
// owning shard's source — with the caller's ctx, so the speculative
// load bills the query that hinted it — only when that shard is already
// open (a speculative load must never open a deferred file) and only
// for identity-dictionary columns (remapped payloads are cache entries
// of the set itself; speculating those buys little and complicates
// ownership).
func (ss *setSource) PrefetchChunk(ctx context.Context, ci, k int) {
	s, gk := ss.s, ss.off+k
	i := s.shardOfChunk(gk)
	be := s.shards[i].opened()
	if be == nil {
		return
	}
	if s.combined != nil && s.combined.Schema().Field(ci).Type == storage.String {
		if !s.dictsDone.Load() || s.remaps[i][ci] != nil {
			return
		}
	}
	be.Source().PrefetchChunk(ctx, ci, gk-s.chunkOffs[i])
}

// remapFor returns the local→union code remap of (shard, col), nil for
// identity or non-string columns. Loads dictionaries on first use.
func (s *Set) remapFor(ctx context.Context, shard, ci int) ([]uint32, error) {
	if s.combined.Schema().Field(ci).Type != storage.String {
		return nil, nil
	}
	if err := s.loadDicts(ctx, s.combined.Schema()); err != nil {
		return nil, err
	}
	return s.remaps[shard][ci], nil
}

// loadDicts runs the one-time union-dictionary build (all shards open)
// under the first caller's ctx: on a deferred set the shard opens and
// dictionary fetches are billed to the query that forced them. schema
// is the set's — passed in because the non-deferred open builds the
// dictionaries before the combined table exists.
func (s *Set) loadDicts(ctx context.Context, schema *storage.Schema) error {
	s.dictsOnce.Do(func() {
		s.dictsErr = s.buildDicts(ctx, schema)
		if s.dictsErr == nil {
			s.dictsDone.Store(true)
		}
	})
	return s.dictsErr
}

// buildDicts opens every shard, reads the string dictionaries, unions
// them in (shard, dictionary) order — exactly the order the eager
// concatenation builds — and derives per-shard remap tables (nil when a
// shard's dictionary already equals the union prefix).
func (s *Set) buildDicts(ctx context.Context, schema *storage.Schema) error {
	n := len(s.shards)
	shardDicts := make([][][]string, n) // [shard][col]
	err := par.For(runtime.GOMAXPROCS(0), n, func(i int) error {
		be, err := s.shards[i].backend(ctx)
		if err != nil {
			return err
		}
		dicts := make([][]string, schema.NumFields())
		for ci := 0; ci < schema.NumFields(); ci++ {
			if schema.Field(ci).Type != storage.String {
				continue
			}
			d, err := be.Dicts(ctx, ci)
			if err != nil {
				return fmt.Errorf("shard: shard %d column %d dictionary: %w", i, ci, err)
			}
			dicts[ci] = d
		}
		shardDicts[i] = dicts
		return nil
	})
	if err != nil {
		return err
	}
	s.unionDict = make([][]string, schema.NumFields())
	s.remaps = make([][][]uint32, n)
	for i := range s.remaps {
		s.remaps[i] = make([][]uint32, schema.NumFields())
	}
	for ci := 0; ci < schema.NumFields(); ci++ {
		if schema.Field(ci).Type != storage.String {
			continue
		}
		var union []string
		index := map[string]uint32{}
		for i := 0; i < n; i++ {
			pd := shardDicts[i][ci]
			remap := make([]uint32, len(pd))
			identity := true
			for code, v := range pd {
				uc, ok := index[v]
				if !ok {
					uc = uint32(len(union))
					index[v] = uc
					union = append(union, v)
				}
				remap[code] = uc
				if int(uc) != code {
					identity = false
				}
			}
			if !identity {
				s.remaps[i][ci] = remap
			}
		}
		s.unionDict[ci] = union
	}
	return nil
}

// manifestZones synthesizes per-shard zone maps from the manifest's v2
// statistics for a deferred open: every chunk of a shard inherits the
// file-level min/max, and the null count degrades to the sound
// three-state {none, some, all} the pruning rules need. Coarser than
// the real zone maps — but no shard file is touched, and a predicate
// disjoint with a whole file prunes all its chunks, so the file is
// never opened.
func manifestZones(m *Manifest) [][][]storage.ZoneMap {
	out := make([][][]storage.ZoneMap, len(m.Shards))
	for i, sf := range m.Shards {
		numChunks := (sf.Rows + m.ChunkSize - 1) / m.ChunkSize
		cols := make([][]storage.ZoneMap, len(m.Columns))
		for ci := range m.Columns {
			zones := make([]storage.ZoneMap, numChunks)
			var st *ColumnStats
			if ci < len(sf.Stats) {
				st = &sf.Stats[ci]
			}
			for k := range zones {
				if st == nil {
					continue
				}
				chunkRows := m.ChunkSize
				if hi := (k + 1) * m.ChunkSize; hi > sf.Rows {
					chunkRows = sf.Rows - k*m.ChunkSize
				}
				zm := storage.ZoneMap{Min: st.Min, Max: st.Max, HasMinMax: st.HasMinMax}
				switch {
				case sf.Rows > 0 && st.Nulls == sf.Rows:
					zm.NullCount = chunkRows
				case st.Nulls > 0:
					// "Some nulls, unknown where": 1 blocks the all-match
					// shortcut without enabling the all-NULL prune.
					zm.NullCount = 1
				}
				zones[k] = zm
			}
			cols[ci] = zones
		}
		out[i] = cols
	}
	return out
}

// remapShardZones copies an opened shard's zone maps, translating
// categorical code sets into union-dictionary space.
func (s *Set) remapShardZones(i int, shardZones [][]storage.ZoneMap) [][]storage.ZoneMap {
	schema := s.shards[i].be.Meta().Schema
	out := make([][]storage.ZoneMap, len(shardZones))
	for ci := range out {
		zones := append([]storage.ZoneMap(nil), shardZones[ci]...)
		if schema.Field(ci).Type == storage.String {
			unionCard := len(s.unionDict[ci])
			remap := s.remaps[i][ci]
			for k := range zones {
				if remap == nil {
					// Identical dictionaries; the code set is only valid if
					// the union did not outgrow the zone-code bound.
					if unionCard > storage.MaxZoneCodes {
						zones[k].CodeSet = nil
					}
					continue
				}
				zones[k].CodeSet = remapCodeSet(zones[k].CodeSet, remap, unionCard)
			}
		}
		out[ci] = zones
	}
	return out
}

// build assembles the combined lazy table and per-shard views from the
// per-shard zone maps.
func (s *Set) build(schema *storage.Schema, viewZones [][][]storage.ZoneMap, deferred bool) error {
	m := s.manifest
	n := len(s.shards)
	if fb := s.shards[0].file; n == 1 && !deferred && fb != nil {
		// Single opened local shard: the combined table IS the shard
		// file's table (chunk metadata included); no indirection needed.
		// (A single remote shard takes the routed assembly below.)
		tbl := fb.Table().Rename(m.Table)
		s.combined = tbl
		s.views = []*storage.Table{tbl}
		return nil
	}
	nf := schema.NumFields()
	// lazyTable builds one routed chunk-aware table: the combined table
	// or a shard's view.
	lazyTable := func(src *setSource, rows int, zones [][]storage.ZoneMap, nulls []int) (*storage.Table, error) {
		cols := make([]storage.Column, nf)
		for ci := range cols {
			cfg := storage.LazyColumnConfig{
				Source: src, Col: ci, Type: schema.Field(ci).Type,
				Rows: rows, ChunkSize: m.ChunkSize, NullCount: nulls[ci],
			}
			if cfg.Type == storage.String {
				cfg.DictFn = func() ([]string, error) {
					// A column's dictionary resolves once for the set's
					// lifetime, on an accessor with no context: run detached,
					// so the first toucher's cancellation cannot fail the
					// column for good.
					if err := s.loadDicts(context.Background(), schema); err != nil {
						return nil, err
					}
					return s.unionDict[ci], nil
				}
			}
			col, err := storage.NewLazyColumn(cfg)
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
		vnulls := make([]int, nf)
		for ci := range vnulls {
			if deferred {
				// Manifest-derived zone maps only say none/some/all; the
				// shard's statistics carry the count.
				vnulls[ci] = m.Shards[i].Stats[ci].Nulls
			} else {
				for _, zm := range viewZones[i][ci] {
					vnulls[ci] += zm.NullCount
				}
			}
			nulls[ci] += vnulls[ci]
			zones[ci] = append(zones[ci], viewZones[i][ci]...)
		}
		view, err := lazyTable(&setSource{s: s, off: s.chunkOffs[i]}, m.Shards[i].Rows, viewZones[i], vnulls)
		if err != nil {
			return err
		}
		s.views[i] = view
	}
	s.src = &setSource{s: s}
	combined, err := lazyTable(s.src, m.Rows, zones, nulls)
	if err != nil {
		return err
	}
	s.combined = combined
	return nil
}

// Close closes every opened shard backend. Safe on eagerly reassembled
// sets (no-op) and idempotent.
func (s *Set) Close() error {
	var first error
	for _, ls := range s.shards {
		if be := ls.opened(); be != nil {
			if err := be.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	// Remapped string payloads are cached under the set's own source
	// key; drop them so a caller-shared cache does not pin a closed set.
	if s.cache != nil && s.src != nil {
		s.cache.Drop(s.src)
	}
	return first
}

// LazyViews reports whether the set assembled as lazy views over its
// shard files (chunk-aligned sets) rather than a materialized
// concatenation.
func (s *Set) LazyViews() bool { return s.shards != nil }

// OpenedShards counts shard files opened so far — the observable
// measure of shard-file pruning under deferred opens.
func (s *Set) OpenedShards() int {
	if s.shards == nil {
		return len(s.views)
	}
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
	if s.cache != nil {
		cs := s.cache.Stats()
		out.CacheHits = cs.Hits
		out.CacheEvictions = cs.Evictions
		out.CacheBytes = cs.Bytes
	}
	return out
}

// ShardMayMatch reports whether predicate p could select rows of shard
// i, judged from the manifest statistics alone (see
// Manifest.ShardMayMatch). Sessions use it to skip per-shard predicate
// scans — and in deferred mode the file open (or remote connection)
// itself — for provably disjoint shards.
func (s *Set) ShardMayMatch(i int, p query.Predicate) bool {
	return s.manifest.ShardMayMatch(i, p)
}

// remoteBackend returns shard i's backend when it is served over the
// fabric, opening it (under ctx) if needed. Local shards return
// (nil, nil): their statistics run against the shard views, sharing the
// chunk cache and the scan-verdict counters.
func (s *Set) remoteBackend(ctx context.Context, i int) (RemoteBackend, error) {
	if s.shards == nil || !s.shards[i].isRemote() {
		return nil, nil
	}
	if _, err := s.shards[i].backend(ctx); err != nil {
		return nil, err
	}
	return s.shards[i].remote, nil
}

// colIndex resolves an attribute name against the combined schema.
func (s *Set) colIndex(attr string) (int, error) {
	schema := s.combined.Schema()
	for ci := 0; ci < schema.NumFields(); ci++ {
		if schema.Field(ci).Name == attr {
			return ci, nil
		}
	}
	return -1, fmt.Errorf("shard: no column %q", attr)
}

// countsToUnion remaps shard i's local-dictionary count vector for
// column ci into union-code space — the reduce-side translation of
// statistics computed where a remote shard lives.
func (s *Set) countsToUnion(ctx context.Context, i, ci int, counts []int) ([]int, error) {
	if err := s.loadDicts(ctx, s.combined.Schema()); err != nil {
		return nil, err
	}
	out := make([]int, len(s.unionDict[ci]))
	remap := s.remaps[i][ci]
	if remap == nil {
		// Identity remap: the shard's dictionary is a prefix of the union.
		if len(counts) > len(out) {
			return nil, fmt.Errorf("shard: shard %d column %d returned %d category counts for %d union codes", i, ci, len(counts), len(out))
		}
		copy(out, counts)
		return out, nil
	}
	if len(counts) > len(remap) {
		return nil, fmt.Errorf("shard: shard %d column %d returned %d category counts for %d dictionary codes", i, ci, len(counts), len(remap))
	}
	for c, n := range counts {
		out[remap[c]] += n
	}
	return out, nil
}

// RemotePredicateBits asks shard i's statistics plane for the exact
// selection bitmap of p, so a non-empty predicate is assembled without
// any chunk leaving the shard. Local shards, and old servers answering a
// non-zero count without words, return ok=false; callers scan the view
// instead. The bitmap is validated against the server's own count
// before it is trusted — on mismatch the caller falls back to scanning.
func (s *Set) RemotePredicateBits(ctx context.Context, i int, p query.Predicate) (bm *bitvec.Vector, ok bool, err error) {
	rb, err := s.remoteBackend(ctx, i)
	if err != nil || rb == nil {
		return nil, false, err
	}
	rows := s.views[i].NumRows()
	count, words, err := rb.PredicateBits(ctx, p)
	if err != nil {
		return nil, false, err
	}
	if words == nil {
		if count == 0 {
			return bitvec.New(rows), true, nil
		}
		return nil, false, nil
	}
	v := bitvec.New(rows)
	w := v.Words()
	if len(words) != len(w) {
		return nil, false, fmt.Errorf("shard: shard %d predicate bitmap has %d words for %d rows", i, len(words), rows)
	}
	copy(w, words)
	if got := v.Count(); got != count {
		return nil, false, fmt.Errorf("shard: shard %d predicate bitmap counts %d bits, server said %d", i, got, count)
	}
	return v, true, nil
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
	if s.shards == nil {
		// Eagerly reassembled set: everything was opened and validated.
		info.Opened, info.Healthy = true, true
		return info
	}
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

// assemble builds the combined table and per-shard views from opened,
// validated shard tables.
func assemble(m *Manifest, parts []*storage.Table) (*Set, error) {
	combined, err := storage.ConcatTables(m.Table, parts)
	if err != nil {
		return nil, err
	}
	s := &Set{manifest: m, offsets: make([]int, len(parts))}
	off := 0
	for i, p := range parts {
		s.offsets[i] = off
		off += p.NumRows()
	}
	if len(parts) == 1 {
		// Single shard: the combined table IS the shard file's table
		// (chunk metadata included); no re-encoding happened.
		s.combined = combined
		s.views = []*storage.Table{combined}
		return s, nil
	}

	// Multi-shard: string columns were re-encoded against a union
	// dictionary, so the shards' categorical zone maps are remapped into
	// union-code space before they are reused. The union index of each
	// string column is built once and shared across parts.
	unionIndex := make([]map[string]uint32, combined.NumCols())
	for ci := 0; ci < combined.NumCols(); ci++ {
		if cc, ok := combined.Column(ci).(*storage.StringColumn); ok {
			idx := make(map[string]uint32, cc.Cardinality())
			for code, v := range cc.Dict() {
				idx[v] = uint32(code)
			}
			unionIndex[ci] = idx
		}
	}
	viewZones := make([][][]storage.ZoneMap, len(parts)) // [part][col][chunk]
	for i, p := range parts {
		viewZones[i] = remapZones(p, combined, unionIndex)
	}

	// Stitch the combined chunking when every shard boundary falls on a
	// chunk boundary (range partitioning guarantees it); otherwise one
	// pass recomputes it.
	aligned := true
	for i := 0; i < len(parts)-1; i++ {
		if parts[i].NumRows()%m.ChunkSize != 0 {
			aligned = false
			break
		}
	}
	var ck *storage.Chunking
	if aligned {
		ck = &storage.Chunking{Size: m.ChunkSize, Zones: make([][]storage.ZoneMap, combined.NumCols())}
		for ci := 0; ci < combined.NumCols(); ci++ {
			var zones []storage.ZoneMap
			for i := range parts {
				zones = append(zones, viewZones[i][ci]...)
			}
			ck.Zones[ci] = zones
		}
	} else {
		ck, err = storage.ComputeChunking(combined, m.ChunkSize)
		if err != nil {
			return nil, err
		}
	}
	s.combined, err = combined.WithChunking(ck)
	if err != nil {
		return nil, err
	}

	s.views = make([]*storage.Table, len(parts))
	for i, p := range parts {
		view, err := s.combined.SliceRows(m.Table, s.offsets[i], s.offsets[i]+p.NumRows())
		if err != nil {
			return nil, err
		}
		vck := &storage.Chunking{Size: m.ChunkSize, Zones: viewZones[i]}
		s.views[i], err = view.WithChunking(vck)
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// exactMinMax scans a numeric column for its finite (non-NaN, non-NULL)
// value range — the fallback when zone maps dropped a chunk's bounds.
func exactMinMax(ctx context.Context, col storage.Column) (lo, hi float64, ok bool) {
	observe := func(v float64) {
		if v != v { // NaN
			return
		}
		if !ok {
			lo, hi, ok = v, v, true
		} else if v < lo {
			lo = v
		} else if v > hi {
			hi = v
		}
	}
	switch c := col.(type) {
	case *storage.Int64Column:
		for i, v := range c.Values() {
			if !c.IsNull(i) {
				observe(float64(v))
			}
		}
	case *storage.Float64Column:
		for i, v := range c.Values() {
			if !c.IsNull(i) {
				observe(v)
			}
		}
	case *storage.LazyColumn:
		_ = c.ForEachChunk(ctx, func(k, start int, p *storage.ChunkPayload) (bool, error) {
			for i := 0; i < p.Rows(); i++ {
				if !p.IsNull(i) {
					observe(p.Numeric(i))
				}
			}
			return true, nil
		})
	}
	return lo, hi, ok
}

// remapZones copies part's zone maps, translating categorical code sets
// from the part's dictionary into the combined table's union dictionary
// via the precomputed per-column union indexes.
func remapZones(part, combined *storage.Table, unionIndex []map[string]uint32) [][]storage.ZoneMap {
	ck := part.Chunking()
	out := make([][]storage.ZoneMap, part.NumCols())
	for ci := range out {
		zones := append([]storage.ZoneMap(nil), ck.Zones[ci]...)
		pc, ok := part.Column(ci).(*storage.StringColumn)
		if ok {
			cc := combined.Column(ci).(*storage.StringColumn)
			partDict := pc.Dict()
			remap := make([]uint32, len(partDict))
			for code, v := range partDict {
				remap[code] = unionIndex[ci][v]
			}
			for k := range zones {
				zones[k].CodeSet = remapCodeSet(zones[k].CodeSet, remap, cc.Cardinality())
			}
		}
		out[ci] = zones
	}
	return out
}

// remapCodeSet translates a code bitset through remap into a bitset over
// unionCard codes, or nil when the union dictionary outgrew zone-map
// code tracking.
func remapCodeSet(set []uint64, remap []uint32, unionCard int) []uint64 {
	if set == nil || unionCard > storage.MaxZoneCodes {
		return nil
	}
	out := make([]uint64, (unionCard+63)/64)
	for oldCode, newCode := range remap {
		if oldCode/64 < len(set) && set[oldCode/64]&(1<<uint(oldCode%64)) != 0 {
			out[newCode/64] |= 1 << uint(newCode%64)
		}
	}
	return out
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

// Provider returns the set's core.StatProvider: full-selection column
// statistics computed as per-shard partials on up to parallelism
// workers (0 means GOMAXPROCS) and reduced by the exact merges of
// partial.go. Sorted values are per-shard sorted runs merge-sorted into
// the global order; category and boolean counts are summed vectors; cut
// sketches replay the shard value streams in shard order, so every
// answer matches the unsharded computation.
func (s *Set) Provider(parallelism int) *Provider {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return &Provider{s: s, workers: parallelism}
}

// Provider implements core.StatProvider over a Set. See Set.Provider.
type Provider struct {
	s       *Set
	workers int
}

// NumericStats implements core.StatProvider. Remote shards answer over
// the statistics plane — one small request returning the shard's values
// in row order, computed where the data lives — and local shards scan
// their views; either way the merged result is exactly the unsharded
// computation.
func (p *Provider) NumericStats(ctx context.Context, attr string, opts core.CutOptions) ([]float64, *sketch.GK, error) {
	runs := make([][]float64, p.s.NumShards())
	err := par.For(p.workers, len(runs), func(i int) error {
		if sb, err := p.s.remoteBackend(ctx, i); err != nil {
			return err
		} else if sb != nil {
			vals, err := sb.NumericValues(ctx, attr)
			if err != nil {
				return err
			}
			runs[i] = vals
			return nil
		}
		view := p.s.views[i]
		vals, err := engine.NumericValuesUnderCtx(ctx, view, attr, bitvec.NewFull(view.NumRows()))
		if err != nil {
			return err
		}
		runs[i] = vals
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	var gk *sketch.GK
	if opts.Numeric == core.CutSketch {
		// The sketch must equal the one a single pass over the combined
		// table would build, so the shard streams are replayed in shard
		// (= combined row) order rather than merged.
		eps := opts.SketchEpsilon
		if eps <= 0 || eps >= 1 {
			eps = 0.005
		}
		gk = sketch.MustGK(eps)
		for _, r := range runs {
			gk.AddAll(r)
		}
		gk.Finalize()
	}
	err = par.For(p.workers, len(runs), func(i int) error {
		sort.Float64s(runs[i])
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return MergeSortedRuns(runs), gk, nil
}

// CategoryStats implements core.StatProvider. Remote shards return
// counts in their local dictionary space; the reduce remaps them into
// the set's union dictionary, so the summed vector equals the local
// fan-out exactly.
func (p *Provider) CategoryStats(ctx context.Context, attr string) ([]string, []int, error) {
	n := p.s.NumShards()
	partCounts := make([][]int, n)
	var dict []string
	err := par.For(p.workers, n, func(i int) error {
		if sb, err := p.s.remoteBackend(ctx, i); err != nil {
			return err
		} else if sb != nil {
			ci, err := p.s.colIndex(attr)
			if err != nil {
				return err
			}
			_, counts, err := sb.CategoryCounts(ctx, attr)
			if err != nil {
				return err
			}
			u, err := p.s.countsToUnion(ctx, i, ci, counts)
			if err != nil {
				return err
			}
			partCounts[i] = u
			return nil
		}
		view := p.s.views[i]
		d, counts, err := engine.CategoryCountsUnderCtx(ctx, view, attr, bitvec.NewFull(view.NumRows()))
		if err != nil {
			return err
		}
		if i == 0 {
			dict = d
		}
		partCounts[i] = counts
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if dict == nil {
		// Shard 0 answered over the stats plane: the output dictionary is
		// the union dictionary (already loaded by the count remap).
		ci, err := p.s.colIndex(attr)
		if err != nil {
			return nil, nil, err
		}
		if err := p.s.loadDicts(ctx, p.s.combined.Schema()); err != nil {
			return nil, nil, err
		}
		dict = p.s.unionDict[ci]
	}
	counts := partCounts[0]
	for _, pc := range partCounts[1:] {
		if err := AddCounts(counts, pc); err != nil {
			return nil, nil, err
		}
	}
	return dict, counts, nil
}

// BoolStats implements core.StatProvider.
func (p *Provider) BoolStats(ctx context.Context, attr string) (int, int, error) {
	n := p.s.NumShards()
	falses := make([]int, n)
	trues := make([]int, n)
	err := par.For(p.workers, n, func(i int) error {
		if sb, err := p.s.remoteBackend(ctx, i); err != nil {
			return err
		} else if sb != nil {
			f, t, err := sb.BoolCounts(ctx, attr)
			if err != nil {
				return err
			}
			falses[i], trues[i] = f, t
			return nil
		}
		view := p.s.views[i]
		f, t, err := engine.BoolCountsUnderCtx(ctx, view, attr, bitvec.NewFull(view.NumRows()))
		if err != nil {
			return err
		}
		falses[i], trues[i] = f, t
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	f, t := 0, 0
	for i := range falses {
		f += falses[i]
		t += trues[i]
	}
	return f, t, nil
}

// Partials computes one merged ColumnPartial per column: each shard
// builds its bundle independently (counts, fixed-edge histogram, GK
// sketch, category counts) and the bundles reduce in shard order. It is
// the aggregate-statistics path front-ends use — no shard's raw values
// are ever centralized — and the consistency check behind "do the
// shards still sum to the table the manifest promises".
func (s *Set) Partials(parallelism int) ([]*ColumnPartial, error) {
	ctx := context.TODO() // the context-free signature is pinned by bench/
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	nCols := s.combined.NumCols()
	rows := s.combined.NumRows()
	// Histogram edges must be agreed before the fan-out: the combined
	// table's zone maps give the global value range without a scan —
	// except for chunks that dropped their min/max (NaN-containing), in
	// which case one exact pass over the column recovers the finite
	// range so no value silently falls outside the edges.
	los := make([]float64, nCols)
	his := make([]float64, nCols)
	useHist := make([]bool, nCols)
	ck := s.combined.Chunking()
	for ci := 0; ci < nCols; ci++ {
		if !s.combined.Schema().Field(ci).Type.IsNumeric() {
			continue
		}
		unbounded := false
		for k, zm := range ck.Zones[ci] {
			if zm.HasMinMax {
				if !useHist[ci] {
					los[ci], his[ci], useHist[ci] = zm.Min, zm.Max, true
				} else {
					if zm.Min < los[ci] {
						los[ci] = zm.Min
					}
					if zm.Max > his[ci] {
						his[ci] = zm.Max
					}
				}
				continue
			}
			chunkRows := ck.Size
			if hi := (k + 1) * ck.Size; hi > rows {
				chunkRows = rows - k*ck.Size
			}
			if zm.NullCount < chunkRows {
				unbounded = true
			}
		}
		if unbounded {
			los[ci], his[ci], useHist[ci] = exactMinMax(ctx, s.combined.Column(ci))
		}
	}
	perShard := make([][]*ColumnPartial, s.NumShards())
	err := par.For(parallelism, s.NumShards(), func(i int) error {
		if sb, err := s.remoteBackend(ctx, i); err != nil {
			return err
		} else if sb != nil {
			// Statistics plane: all columns in one round trip, computed
			// where the shard lives; only the local→union category remap
			// happens here.
			specs := make([]PartialSpec, nCols)
			for ci := range specs {
				specs[ci] = PartialSpec{Col: ci, Lo: los[ci], Hi: his[ci], UseHist: useHist[ci]}
			}
			parts, err := sb.ColumnPartials(ctx, specs)
			if err != nil {
				return err
			}
			if len(parts) != nCols {
				return fmt.Errorf("shard: shard %d returned %d partials for %d columns", i, len(parts), nCols)
			}
			for ci, p := range parts {
				if p != nil && p.CatCounts != nil {
					u, err := s.countsToUnion(ctx, i, ci, p.CatCounts)
					if err != nil {
						return err
					}
					p.CatCounts = u
				}
			}
			perShard[i] = parts
			return nil
		}
		out := make([]*ColumnPartial, nCols)
		for ci := 0; ci < nCols; ci++ {
			p, err := columnPartial(ctx, s.views[i], ci, los[ci], his[ci], useHist[ci])
			if err != nil {
				return err
			}
			out[ci] = p
		}
		perShard[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	merged := perShard[0]
	for _, sp := range perShard[1:] {
		for ci := range merged {
			if err := merged[ci].Merge(sp[ci]); err != nil {
				return nil, err
			}
		}
	}
	return merged, nil
}
