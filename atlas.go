// Package atlas is the public API of this repository: a Go implementation
// of Atlas, the database-exploration front-end of Sellam & Kersten, "Fast
// Cartography for Data Explorers" (PVLDB 6(12), 2013).
//
// Atlas answers queries with queries: instead of returning tuples, an
// exploration returns a ranked list of data maps — small sets of simple
// conjunctive queries, each describing a coherent region of the data. The
// user picks a region and drills down, or asks for the next map.
//
// Quick start:
//
//	table := atlas.CensusDataset(50_000, 1)
//	ex, err := atlas.New(table, atlas.DefaultOptions())
//	if err != nil { ... }
//	res, err := ex.Explore("EXPLORE census WHERE age BETWEEN 17 AND 90")
//	if err != nil { ... }
//	for _, m := range res.Maps {
//	    fmt.Print(m)
//	}
//
// The pipeline implements the paper's Section 3 framework: the CUT
// primitive over every usable attribute, dependency clustering of the
// resulting candidate maps (variation of information + SLINK), per-cluster
// merging (product or composition) and entropy ranking — plus the
// Section 5 extensions: sketch-accelerated cuts, sampling with an anytime
// loop, anticipative session caching, FK-join exploration and
// high-cardinality column screening.
//
// # Performance
//
// The pipeline's embarrassingly parallel stages — candidate cuts per
// attribute, pairwise map distances and per-cluster merges — fan out
// over a bounded worker pool sized by Options.Parallelism (0, the
// default, uses runtime.GOMAXPROCS(0); 1 forces a serial run). Results
// are collected by index, so the ranked answer is byte-for-byte
// identical at any parallelism.
//
// Each Explorer also keeps a per-table column-stat cache: sorted numeric
// values, quantile sketches and category counts under the full
// selection, computed once and shared read-only across goroutines,
// repeated Explore calls, sessions and anytime rounds. Explorers (and
// the underlying Cartographer) are safe for concurrent use.
//
// Tables too big (or too hot) for one file can be sharded: SaveSharded
// splits a table across several store files plus a manifest, and
// NewSharded(OpenSharded(path), opts) explores the set with per-shard
// fan-out — results byte-identical to the unsharded table at any shard
// count and parallelism.
package atlas

import (
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/obsv"
	"repro/internal/query"
	"repro/internal/remote"
	"repro/internal/sample"
	"repro/internal/session"
	"repro/internal/shard"
	"repro/internal/storage"
)

// Re-exported core types. The facade keeps downstream imports to a single
// package; the aliased types are documented in their home packages.
type (
	// Table is an immutable columnar table.
	Table = storage.Table
	// Schema describes a table's fields.
	Schema = storage.Schema
	// Field is one named, typed column of a schema.
	Field = storage.Field
	// Query is a conjunction of predicates over one table.
	Query = query.Query
	// Predicate restricts a single attribute.
	Predicate = query.Predicate
	// Map is a data map: disjoint region queries plus their covers.
	Map = core.Map
	// Region is one query of a map with its measured extent.
	Region = core.Region
	// Result is the ranked answer to one exploration.
	Result = core.Result
	// Options configures the map-generation pipeline.
	Options = core.Options
	// AnytimeOptions tunes progressive (sampled) exploration.
	AnytimeOptions = core.AnytimeOptions
	// AnytimeResult is the outcome of a progressive exploration.
	AnytimeResult = core.AnytimeResult
	// Session is a stateful drill-down exploration.
	Session = session.Session
	// Node is one step of a session.
	Node = session.Node
	// SpanProfile is one node of a profiled exploration's span tree:
	// name, offset and duration in nanoseconds from the trace start,
	// attributes (chunk-scan deltas, replica URLs, cache verdicts),
	// children, and a Remote flag on subtrees a shard server reported.
	SpanProfile = obsv.SpanJSON
	// QueryExplain is the dry-run plan of one query: per-predicate and
	// per-chunk zone-map verdicts plus a cold-cache I/O estimate,
	// computed without fetching any chunk.
	QueryExplain = engine.QueryExplain
	// PredExplain is one predicate's compile and zone-map summary.
	PredExplain = engine.PredExplain
	// LedgerSnapshot is a query's resource bill: chunk verdicts, bytes
	// read, RPCs, per-phase times.
	LedgerSnapshot = obsv.LedgerSnapshot
	// AttrProfile compares an attribute's distribution inside a region
	// with the whole table (the "why is this region interesting" view).
	AttrProfile = core.AttrProfile
	// ValueLift is one over/under-represented categorical value.
	ValueLift = core.ValueLift
	// ExampleRow is one sampled tuple from a region.
	ExampleRow = core.ExampleRow
)

// Re-exported configuration constants.
const (
	// CutEquiWidth splits numeric ranges into equal-width intervals.
	CutEquiWidth = core.CutEquiWidth
	// CutMedian splits numeric ranges at quantiles (the paper default).
	CutMedian = core.CutMedian
	// CutVariance minimizes within-interval variance (optimal 1-D
	// k-means).
	CutVariance = core.CutVariance
	// CutSketch approximates median cuts with a one-pass GK sketch.
	CutSketch = core.CutSketch
	// MergeProduct merges cluster maps with the ×-product grid.
	MergeProduct = core.MergeProduct
	// MergeCompose merges by locally re-cutting regions (default).
	MergeCompose = core.MergeCompose
	// DistVI is the raw variation-of-information distance.
	DistVI = core.DistVI
	// DistNVI is VI normalized by joint entropy (default).
	DistNVI = core.DistNVI
	// DistNMI is 1 − normalized mutual information.
	DistNMI = core.DistNMI
)

// DefaultOptions returns the paper's pipeline configuration (8 regions,
// 3 cut attributes, 8 maps, binary median cuts, normalized VI at 0.95,
// composition merging, screening on).
func DefaultOptions() Options { return core.DefaultOptions() }

// DefaultAnytimeOptions returns the progressive-exploration defaults.
func DefaultAnytimeOptions() AnytimeOptions { return core.DefaultAnytimeOptions() }

// Explorer is the top-level handle: one table plus a pipeline
// configuration.
type Explorer struct {
	table *Table
	opts  Options
	cart  *core.Cartographer
	// set is non-nil for sharded explorers (NewSharded): column stats
	// reduce from per-shard partials and sessions scan per shard.
	set *shard.Set
}

// New builds an Explorer over a table.
func New(table *Table, opts Options) (*Explorer, error) {
	cart, err := core.NewCartographer(table, opts)
	if err != nil {
		return nil, err
	}
	return &Explorer{table: table, opts: opts, cart: cart}, nil
}

// NewSharded builds an Explorer over an opened sharded table. The
// pipeline runs on the reassembled combined table — scans, partition
// bitmaps and contingency counts fan out chunk-by-chunk across shard
// boundaries — while column statistics (sorted values, sketches,
// category counts) are computed as per-shard partials on the worker
// pool and merged, and sessions keep per-shard predicate bitmaps.
// Results are byte-identical to exploring the equivalent unsharded
// table, at any shard count and parallelism.
func NewSharded(st *ShardedTable, opts Options) (*Explorer, error) {
	cart, err := core.NewCartographerWith(st.set.Table(), opts, st.set.Provider(opts.Parallelism))
	if err != nil {
		return nil, err
	}
	return &Explorer{table: st.set.Table(), opts: opts, cart: cart, set: st.set}, nil
}

// Table returns the explored table.
func (e *Explorer) Table() *Table { return e.table }

// Explore parses a CQL statement ("EXPLORE t WHERE … [WITH …]"),
// validates it against the table, and returns the ranked data maps. WITH
// options override the explorer's defaults for this call only; WITH
// SAMPLE f runs the pipeline on a uniform f-fraction sample. Calls
// without overrides run on the explorer's shared Cartographer, so
// repeated explorations reuse its column-stat cache instead of
// re-sorting the same columns.
func (e *Explorer) Explore(cqlText string) (res *Result, err error) {
	return e.exploreCtx(context.Background(), cqlText)
}

// ExploreProfiled is Explore with tracing: it additionally returns the
// exploration's span tree — per-phase timings (screen, cut, cluster,
// merge, rank), chunk-scan deltas, and on sharded-remote stores the
// shard servers' own spans grafted under the RPCs that triggered them.
func (e *Explorer) ExploreProfiled(cqlText string) (*Result, *SpanProfile, error) {
	tr, root := obsv.NewTrace("explore")
	res, err := e.exploreCtx(obsv.WithSpan(context.Background(), root), cqlText)
	root.End()
	if err != nil {
		return nil, nil, err
	}
	return res, tr.Tree(), nil
}

func (e *Explorer) exploreCtx(ctx context.Context, cqlText string) (res *Result, err error) {
	// Sampling gathers rows through lazy columns before a Cartographer
	// exists; surface chunk-fetch failures there as errors too.
	defer func() {
		if r := recover(); r != nil {
			ce := storage.AsChunkPanic(r)
			if ce == nil {
				panic(r)
			}
			if err == nil {
				res, err = nil, ce
			}
		}
	}()
	q, o, err := cql.ParseAndBind(cqlText, e.table)
	if err != nil {
		return nil, err
	}
	effective, err := cql.ApplyOptions(e.opts, o)
	if err != nil {
		return nil, err
	}
	sampled := o.Sample > 0 && o.Sample < 1
	if !sampled && effective == e.opts {
		return e.cart.ExploreCtx(ctx, q)
	}
	tbl := e.table
	if sampled {
		k := int(o.Sample * float64(tbl.NumRows()))
		if k < 1 {
			k = 1
		}
		tbl = sample.Table(tbl, k, 1)
	}
	var cart *core.Cartographer
	if !sampled && e.set != nil {
		// WITH overrides on a sharded explorer keep the per-shard stat
		// fan-out; sampling materializes a new table, which does not.
		cart, err = core.NewCartographerWith(tbl, effective, e.set.Provider(effective.Parallelism))
	} else {
		cart, err = core.NewCartographer(tbl, effective)
	}
	if err != nil {
		return nil, err
	}
	return cart.ExploreCtx(ctx, q)
}

// ExploreQuery runs the pipeline on an already-built query.
func (e *Explorer) ExploreQuery(q Query) (*Result, error) {
	return e.cart.Explore(q)
}

// ScanStats snapshots the explorer's cumulative chunk-level scan
// decisions: chunks pruned / matched in full / scanned, and — on
// memory-tiered stores — chunks decoded and decoded-cache hits. It is
// the observable measure of how well zone maps are filtering I/O.
func (e *Explorer) ScanStats() ScanSnapshot { return e.cart.ScanStats() }

// ExploreAnytime runs the progressive Section 5.1 loop: results refine
// over growing samples until they stabilize, the data is exhausted, or
// ctx is done.
func (e *Explorer) ExploreAnytime(ctx context.Context, cqlText string, opts AnytimeOptions) (*AnytimeResult, error) {
	q, _, err := cql.ParseAndBind(cqlText, e.table)
	if err != nil {
		return nil, err
	}
	return e.cart.ExploreAnytime(ctx, q, opts)
}

// NewSession starts a stateful drill-down session with result caching
// and anticipative prefetching. On sharded explorers the session's
// predicate-bitmap LRU is keyed per shard and selections assemble
// shard by shard.
func (e *Explorer) NewSession() *Session {
	if e.set != nil {
		return session.NewSharded(e.cart, e.set)
	}
	return session.New(e.cart)
}

// Explain dry-runs a CQL statement: predicates are compiled exactly as
// Explore compiles them, then judged chunk by chunk against zone maps
// alone — per-predicate and combined prune/full/scan verdicts plus a
// cold-cache I/O estimate, without decoding a single chunk.
func (e *Explorer) Explain(cqlText string) (*QueryExplain, error) {
	q, _, err := cql.ParseAndBind(cqlText, e.table)
	if err != nil {
		return nil, err
	}
	return engine.ExplainQuery(e.table, q)
}

// ParseQuery parses and binds a CQL statement without executing it.
func (e *Explorer) ParseQuery(cqlText string) (Query, error) {
	q, _, err := cql.ParseAndBind(cqlText, e.table)
	return q, err
}

// Count evaluates a query and returns how many rows it selects.
func (e *Explorer) Count(q Query) (int, error) { return engine.Count(e.table, q) }

// DescribeRegion explains why a region is interesting by profiling every
// non-pinned attribute inside the region against the whole table
// (Section 5.2's explanation feature). Profiles come back sorted by
// decreasing deviation.
func (e *Explorer) DescribeRegion(q Query) ([]AttrProfile, error) {
	return core.DescribeRegion(e.table, q)
}

// RegionExamples returns up to k random example tuples from a region —
// the Section 5.2 presentation aid. Deterministic in seed.
func (e *Explorer) RegionExamples(q Query, k int, seed int64) ([]ExampleRow, error) {
	return core.RegionExamples(e.table, q, k, seed)
}

// RepresentativeExamples returns up to k tuples chosen near the region's
// numeric medians — "representative" rather than random examples.
func (e *Explorer) RepresentativeExamples(q Query, k int) ([]ExampleRow, error) {
	return core.RepresentativeExamples(e.table, q, k)
}

// LoadCSV reads a table from CSV with type inference (first row must be
// a header).
func LoadCSV(name string, r io.Reader) (*Table, error) {
	return storage.ReadCSV(name, r, nil)
}

// LoadCSVFile reads a table from a CSV file; the table is named after
// the file unless name is non-empty.
func LoadCSVFile(name, path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if name == "" {
		name = path
	}
	return storage.ReadCSV(name, f, nil)
}

// WriteCSV writes a table as CSV.
func WriteCSV(t *Table, w io.Writer) error { return storage.WriteCSV(t, w) }

// SaveStore ingests a table into an on-disk columnar store file (the
// ".atl" format: per-column chunked segments with dictionary-encoded
// strings, null bitmaps, per-chunk zone maps and a lazy-open directory
// — see internal/colstore). A store reopens orders of magnitude faster
// than re-parsing CSV and enables zone-map pruned, chunk-parallel
// scans.
func SaveStore(t *Table, path string) error {
	return colstore.WriteFile(path, t, 0)
}

// OpenStore opens a table previously saved with SaveStore. The returned
// table carries the store's chunk metadata: explorations over it prune
// chunks via zone maps and shard scans across Options.Parallelism
// workers, with results byte-identical to a CSV-loaded table.
//
// The residency mode is automatic: small files decode eagerly, files
// past the colstore auto-threshold (64 MiB) open lazily — mmapped, with
// chunks decoding on first touch — so tables larger than RAM serve from
// the same format. Use OpenStoreWith for explicit control (and a Close
// handle).
func OpenStore(path string) (*Table, error) {
	s, err := colstore.Open(path)
	if err != nil {
		return nil, err
	}
	return s.Table(), nil
}

// StoreOpenOptions are the facade's memory-tier knobs for opening
// stores (single-file or sharded).
type StoreOpenOptions struct {
	// Lazy forces on-demand chunk decoding; Eager forces a full decode
	// at open. Neither set = automatic by file size (and the
	// ATLAS_STORE_MODE environment variable).
	Lazy, Eager bool
	// CacheBytes bounds the decoded-chunk cache of lazy opens: > 0 is a
	// byte budget (shared across the files of a sharded set), < 0
	// forces unbounded, 0 consults ATLAS_CHUNK_CACHE_BUDGET then
	// defaults to unbounded.
	CacheBytes int64
	// Defer (sharded opens only) postpones opening shard files until a
	// chunk or statistic of that shard is first touched; the manifest's
	// per-shard statistics stand in for zone maps until then, so
	// selective explorations skip whole shard files.
	Defer bool
	// VerifyCRC forces the whole-file trailer checksum even on lazy
	// opens (v3 lazy opens otherwise rely on per-chunk CRCs).
	VerifyCRC bool
}

func (o StoreOpenOptions) colstoreOptions() colstore.Options {
	co := colstore.Options{CacheBytes: o.CacheBytes, VerifyCRC: o.VerifyCRC}
	switch {
	case o.Lazy:
		co.Mode = colstore.ModeLazy
	case o.Eager:
		co.Mode = colstore.ModeEager
	}
	return co
}

// StoreIOStats is a snapshot of a lazy store's I/O counters.
type StoreIOStats = colstore.IOStats

// ScanSnapshot is a snapshot of an Explorer's cumulative chunk-level
// scan decisions (pruned / full / scanned, decodes, cache hits).
type ScanSnapshot = engine.Snapshot

// StoreHandle is an opened on-disk store — a single ".atl" file or a
// shard manifest, sniffed by content — with lifecycle control the plain
// OpenStore path does not give: Close releases file mappings, IOStats
// reports lazy I/O counters, NewExplorer builds the right Explorer
// kind.
type StoreHandle struct {
	store *colstore.Store
	set   *ShardedTable
}

// OpenStoreWith opens path (an ".atl" store or an ".atlm" manifest)
// with explicit memory-tier options.
func OpenStoreWith(path string, o StoreOpenOptions) (*StoreHandle, error) {
	if shard.IsManifest(path) {
		st, err := OpenShardedWith(path, o)
		if err != nil {
			return nil, err
		}
		return &StoreHandle{set: st}, nil
	}
	s, err := colstore.OpenWith(path, o.colstoreOptions())
	if err != nil {
		return nil, err
	}
	return &StoreHandle{store: s}, nil
}

// Table returns the opened table (combined across shards for sharded
// stores).
func (h *StoreHandle) Table() *Table {
	if h.set != nil {
		return h.set.Table()
	}
	return h.store.Table()
}

// Sharded returns the sharded view of the handle, or nil for a
// single-file store.
func (h *StoreHandle) Sharded() *ShardedTable { return h.set }

// Lazy reports whether the store serves chunks on demand.
func (h *StoreHandle) Lazy() bool {
	if h.set != nil {
		return h.set.Lazy()
	}
	return h.store.Lazy()
}

// Close releases every file mapping and descriptor the handle holds.
func (h *StoreHandle) Close() error {
	if h.set != nil {
		return h.set.Close()
	}
	return h.store.Close()
}

// IOStats snapshots the handle's cumulative lazy-I/O counters (zeros
// for eager stores).
func (h *StoreHandle) IOStats() StoreIOStats {
	if h.set != nil {
		return h.set.IOStats()
	}
	return h.store.IOStats()
}

// NewExplorer builds an Explorer over the handle — sharded fan-out when
// the handle is a shard set, plain otherwise.
func (h *StoreHandle) NewExplorer(opts Options) (*Explorer, error) {
	if h.set != nil {
		return NewSharded(h.set, opts)
	}
	return New(h.store.Table(), opts)
}

// ShardedTable is an opened sharded table: N ".atl" shard files plus
// their manifest (see internal/shard for the manifest format),
// reassembled into one combined chunk-aware table with per-shard views.
type ShardedTable struct {
	set *shard.Set
	// opener dials the set's remote shards; Close releases its pooled
	// connections after the set's.
	opener *remote.Opener
}

// Table returns the combined table (all shards, in manifest order).
func (s *ShardedTable) Table() *Table { return s.set.Table() }

// NumShards returns the number of shards.
func (s *ShardedTable) NumShards() int { return s.set.NumShards() }

// ShardTable returns shard i's view over the combined table.
func (s *ShardedTable) ShardTable(i int) *Table { return s.set.ShardTable(i) }

// ShardIngestOptions configures SaveSharded.
type ShardIngestOptions struct {
	// Shards is the requested shard count (>= 1).
	Shards int
	// HashKey selects hash partitioning by the named column; empty uses
	// range partitioning in row order (the default — shards concatenate
	// back into the original table bit for bit).
	HashKey string
	// ChunkSize is rows per chunk in every shard file (0 = 65536; must
	// be a positive multiple of 64).
	ChunkSize int
}

// SaveSharded splits a table into shard store files next to
// manifestPath (conventionally "name.atlm") and writes the manifest
// describing them. Open the result with OpenSharded, atlas -store, or
// atlasd -store.
func SaveSharded(t *Table, manifestPath string, o ShardIngestOptions) error {
	_, err := shard.WriteSharded(manifestPath, t, shard.IngestOptions{
		Shards:    o.Shards,
		HashKey:   o.HashKey,
		ChunkSize: o.ChunkSize,
	})
	return err
}

// Lazy reports whether the set assembled as lazy views over its shard
// files rather than a materialized concatenation.
func (s *ShardedTable) Lazy() bool { return s.set.LazyViews() }

// Close closes every opened shard file and the idle connections to
// remote shard servers.
func (s *ShardedTable) Close() error {
	err := s.set.Close()
	s.opener.Close()
	return err
}

// IOStats sums the lazy-I/O counters across the set's shard files.
func (s *ShardedTable) IOStats() StoreIOStats { return s.set.IOStats() }

// OpenedShards counts shard files opened so far — under deferred opens,
// the observable measure of shard-file pruning.
func (s *ShardedTable) OpenedShards() int { return s.set.OpenedShards() }

// OpenSharded opens a shard manifest and every shard file it references,
// validating shard schemas, row counts and chunk sizes against each
// other. Explore the result with NewSharded. Chunk-aligned sets
// assemble as lazy views sharing one decoded-chunk cache — open holds
// no concatenated copy of the columns.
func OpenSharded(manifestPath string) (*ShardedTable, error) {
	return OpenShardedWith(manifestPath, StoreOpenOptions{})
}

// OpenShardedWith is OpenSharded with explicit memory-tier options;
// with Defer set, shard files open only when first touched and the
// manifest's per-shard statistics prune whole files beforehand.
//
// Manifests whose shard locations are http(s):// URLs open through the
// remote shard fabric (see internal/remote): each such shard is served
// by its own atlasd -serve-shard process, statistics fan out as
// per-shard RPCs, and chunk payloads stream on demand into the shared
// decoded-chunk cache. Explorations stay byte-identical to the local
// sharded (and unsharded) table.
func OpenShardedWith(manifestPath string, o StoreOpenOptions) (*ShardedTable, error) {
	opener := remote.NewOpener(remote.Options{})
	set, err := shard.OpenWith(manifestPath, shard.Options{
		Store:  o.colstoreOptions(),
		Defer:  o.Defer,
		Remote: opener,
	})
	if err != nil {
		opener.Close()
		return nil, err
	}
	return &ShardedTable{set: set, opener: opener}, nil
}

// IsShardManifest reports whether path holds a shard manifest (JSON)
// rather than a single ".atl" store, so store-accepting entry points can
// take either.
func IsShardManifest(path string) bool { return shard.IsManifest(path) }

// ColumnSummary holds the descriptive statistics of one column.
type ColumnSummary = storage.ColumnSummary

// Summarize computes descriptive statistics for every column of a table.
func Summarize(t *Table) []ColumnSummary { return storage.Summarize(t) }

// JoinFK materializes the inner FK join of a fact table with a dimension
// table (Section 5.2 multi-table exploration).
func JoinFK(fact *Table, factKey string, dim *Table, dimKey, resultName string) (*Table, error) {
	return engine.JoinFK(fact, factKey, dim, dimKey, resultName)
}

// ---- bundled synthetic datasets (stand-ins for the paper's data; see
// DESIGN.md "Substitutions") ----

// CensusDataset generates the paper's Figure 2 survey data: age, sex,
// education, salary, eye_color with planted dependencies.
func CensusDataset(n int, seed int64) *Table { return datagen.Census(n, seed) }

// BodyMetricsDataset generates the Figures 4–5 data: a dependent
// {age, income, education_years} trio and a clustered {size, weight}
// pair. The second return value is the planted cluster label per row.
func BodyMetricsDataset(n int, seed int64) (*Table, []int) { return datagen.BodyMetrics(n, seed) }

// SkySurveyDataset generates SDSS-like photometry with three object
// classes occupying distinct color loci.
func SkySurveyDataset(n int, seed int64) *Table { return datagen.SkySurvey(n, seed) }

// Figure5Dataset generates the paper's Figure 5 scenario: four planted
// (size, weight) clusters whose weight boundary depends on the size
// region, so only composition-style local cuts recover them. The second
// return value is the planted cluster label (0–3) per row.
func Figure5Dataset(n int, seed int64) (*Table, []int) { return datagen.Figure5(n, seed) }

// OrdersDataset generates a TPC-like fact/dimension pair with a planted
// cross-table dependency (customer segment ↔ order amount).
func OrdersDataset(nOrders, nCustomers int, seed int64) (orders, customers *Table) {
	return datagen.Orders(nOrders, nCustomers, seed)
}

// NewRange returns the closed interval predicate attr ∈ [lo, hi].
func NewRange(attr string, lo, hi float64) Predicate { return query.NewRange(attr, lo, hi) }

// NewIn returns the set predicate attr ∈ values.
func NewIn(attr string, values ...string) Predicate { return query.NewIn(attr, values...) }

// NewBoolEq returns the predicate attr = v.
func NewBoolEq(attr string, v bool) Predicate { return query.NewBoolEq(attr, v) }

// NewQuery builds a conjunctive query over the named table.
func NewQuery(table string, preds ...Predicate) Query { return query.New(table, preds...) }

// FormatResult renders a result for terminals: the input, base counts,
// flagged columns and every ranked map.
func FormatResult(r *Result) string {
	out := fmt.Sprintf("%s\n%d of %d rows selected, %d map(s) in %v\n",
		r.Input.String(), r.BaseCount, r.TotalRows, len(r.Maps), r.Elapsed.Round(1000))
	for _, f := range r.Flagged {
		out += fmt.Sprintf("  [screened out %s: %s]\n", f.Attr, f.Reason)
	}
	for i, m := range r.Maps {
		out += fmt.Sprintf("#%d %s", i+1, m.String())
	}
	return out
}
