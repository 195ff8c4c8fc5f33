package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/bitvec"
	"repro/internal/engine"
	"repro/internal/obsv"
	"repro/internal/query"
	"repro/internal/storage"
)

// Options configures the full map-generation pipeline. The zero value is
// not usable; start from DefaultOptions.
type Options struct {
	// MaxRegions bounds regions per map (the paper: "a map with more
	// than 8 regions is hard to read").
	MaxRegions int
	// MaxPredicates bounds the cut attributes per map (the paper:
	// "queries should be simple, with very few predicates; we target
	// less than 3").
	MaxPredicates int
	// MaxMaps bounds the ranked maps returned per exploration step.
	MaxMaps int
	// Cut parameterizes the CUT primitive.
	Cut CutOptions
	// Distance selects the dependency measure between candidate maps.
	Distance Distance
	// DependencyThreshold is the dendrogram cut height: candidate maps
	// merge only while their distance stays below it. Units follow
	// Distance (the default NVI is scale-free in [0,1]).
	DependencyThreshold float64
	// Merge selects Product or Composition for each cluster.
	Merge MergeKind
	// Screen enables Section 5.2 column screening.
	Screen bool
	// ScreenOpts tunes screening when enabled.
	ScreenOpts ScreenOptions
	// AttrsFromQuery restricts candidate attributes to those the user
	// query constrains; by default every usable column is a candidate.
	AttrsFromQuery bool
	// KeepSingletons: when false, clusters of a single candidate map are
	// dropped from the result unless nothing else survives. The paper
	// returns some single-attribute maps, so the default keeps them.
	KeepSingletons bool
	// Parallelism bounds the worker goroutines used for the pipeline's
	// embarrassingly parallel stages (per-attribute cuts, pairwise
	// distances, per-cluster merges). 0 (the default) uses
	// runtime.GOMAXPROCS(0); 1 forces a serial run. Results are
	// byte-for-byte identical at any setting.
	Parallelism int
}

// DefaultOptions returns the paper's configuration: 8 regions, 3 cut
// attributes, 8 maps, binary median cuts, normalized VI with a 0.95
// merge threshold, composition merging, screening on.
func DefaultOptions() Options {
	return Options{
		MaxRegions:          8,
		MaxPredicates:       3,
		MaxMaps:             8,
		Cut:                 DefaultCutOptions(),
		Distance:            DistNVI,
		DependencyThreshold: 0.95,
		Merge:               MergeCompose,
		Screen:              true,
		ScreenOpts:          DefaultScreenOptions(),
		KeepSingletons:      true,
	}
}

// Validate reports the first option the pipeline cannot run under.
func (o Options) Validate() error {
	if o.MaxRegions < 2 {
		return fmt.Errorf("core: MaxRegions must be >= 2, got %d", o.MaxRegions)
	}
	if o.MaxPredicates < 1 {
		return fmt.Errorf("core: MaxPredicates must be >= 1, got %d", o.MaxPredicates)
	}
	if o.MaxMaps < 1 {
		return fmt.Errorf("core: MaxMaps must be >= 1, got %d", o.MaxMaps)
	}
	if o.DependencyThreshold < 0 {
		return fmt.Errorf("core: DependencyThreshold must be >= 0, got %g", o.DependencyThreshold)
	}
	if err := o.Cut.validate(); err != nil {
		return err
	}
	if err := o.Distance.validate(); err != nil {
		return err
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("core: Parallelism must be >= 0, got %d", o.Parallelism)
	}
	return o.Merge.validate()
}

// Cartographer generates ranked data maps over one table — the mapping
// engine of the paper's architecture (Section 4, layer 2). A
// Cartographer is safe for concurrent use: the table and options are
// immutable and the full-selection cut memo is internally synchronized, so one
// instance can serve many sessions or HTTP requests at once. With gives
// a view of it under other options that shares its memo.
type Cartographer struct {
	table *storage.Table
	opts  Options
	// sp reads every column statistic CUT needs.
	sp StatProvider
	// stats memoizes each attribute's CUT answer under the full
	// selection, computed once and shared read-only across goroutines,
	// Explore calls and views.
	stats *statCache
}

// NewCartographer validates the options and builds a Cartographer.
func NewCartographer(t *storage.Table, opts Options) (*Cartographer, error) {
	return NewCartographerWith(t, opts, nil)
}

// NewCartographerWith is NewCartographer with an external stat provider:
// every column statistic CUT reads is served by sp (e.g. a sharded
// store asking each shard about its slice of the selection) instead of
// passes over t. A nil sp means NewTableProvider over t.
func NewCartographerWith(t *storage.Table, opts Options, sp StatProvider) (*Cartographer, error) {
	if t == nil {
		return nil, errors.New("core: nil table")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if sp == nil {
		sp = NewTableProvider(t, resolveParallelism(opts.Parallelism))
	}
	return &Cartographer{table: t, opts: opts, sp: sp, stats: newStatCache(opts.Cut)}, nil
}

// With returns a Cartographer over the same table that runs under opts:
// a view sharing c's stat provider and full-selection cut memo, so a
// call under other options (a WITH clause) reads no column that a call
// under the same cut options has cut before. The provider was sized by
// c's Parallelism, which opts must keep. opts equal to c's return c.
func (c *Cartographer) With(opts Options) (*Cartographer, error) {
	if opts == c.opts {
		return c, nil
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Parallelism != c.opts.Parallelism {
		return nil, fmt.Errorf("core: a view keeps its Cartographer's Parallelism %d, got %d", c.opts.Parallelism, opts.Parallelism)
	}
	v := *c
	v.opts = opts
	return &v, nil
}

// Table returns the table being explored.
func (c *Cartographer) Table() *storage.Table { return c.table }

// Options returns the pipeline configuration.
func (c *Cartographer) Options() Options { return c.opts }

// recoverChunkPanic converts a lazy-column chunk-fetch panic into the
// named *storage.ChunkError, so a corrupt or truncated chunk touched
// anywhere in the pipeline fails the exploration with an error.
func recoverChunkPanic(err *error) {
	if r := recover(); r != nil {
		ce := storage.AsChunkPanic(r)
		if ce == nil {
			panic(r)
		}
		if *err == nil {
			*err = ce
		}
	}
}

// Result is the answer to one exploration step: the ranked data maps for
// a user query, plus diagnostics.
type Result struct {
	// Input is the user query that was mapped.
	Input query.Query
	// TotalRows is the number of rows the result describes: the table's,
	// or a sample's (Cartographer.ExploreSample).
	TotalRows int
	// BaseCount is the number of rows the input query selects.
	BaseCount int
	// Maps is the ranked result set (Section 3.4), best first.
	Maps []*Map
	// Candidates is the single-attribute candidate set (Section 3.1),
	// one map per usable attribute, in schema order.
	Candidates []*Map
	// AttrClusters records which attributes were grouped by the
	// dependency clustering (Section 3.2), in result order.
	AttrClusters [][]string
	// Flagged lists columns excluded by screening (Section 5.2).
	Flagged []ScreenFinding
	// Elapsed is the wall-clock time of the pipeline.
	Elapsed time.Duration

	// rendered memoizes Rendered. The pipeline allocates it; a pointer,
	// so that copying a Result copies no lock.
	rendered *renderMemo
}

// renderMemo holds one result's rendering. owner is the result it was
// allocated for: a copy of that result, which may differ in any field,
// shares the pointer but not the memo.
type renderMemo struct {
	owner *Result
	once  sync.Once
	b     []byte
}

// Rendered returns render(r), computed once per result the pipeline
// produced and kept for the result's lifetime: a result shared through
// a cache is rendered by its first reader only. Every caller must pass
// the same render, and the result must be final, as a returned Result
// is. A Result built outside the pipeline, or copied, renders on every
// call. The bytes are shared: callers must not modify them.
func (r *Result) Rendered(render func(*Result) []byte) []byte {
	m := r.rendered
	if m == nil || m.owner != r {
		return render(r)
	}
	m.once.Do(func() { m.b = render(r) })
	return m.b
}

// Explore runs the four-step framework of Section 3 on a user query:
// candidate generation (CUT per attribute), dependency clustering of the
// candidates, per-cluster merging, and entropy ranking. The three
// embarrassingly parallel stages — per-attribute cuts, pairwise
// distances and per-cluster merges — fan out over Options.Parallelism
// workers; all results are collected by index, so the answer is
// identical at any parallelism. The base scan itself is sharded
// chunk-by-chunk over the same worker pool and prunes chunks via zone
// maps.
func (c *Cartographer) Explore(q query.Query) (*Result, error) {
	return c.ExploreCtx(context.Background(), q)
}

// ExploreCtx is Explore with a request context. When ctx carries a
// trace span (obsv.StartSpan), the pipeline records one child span per
// phase — base scan, screening, per-attribute cuts, clustering,
// per-cluster merges, ranking — and, when ctx also carries a resource
// ledger, this request's chunk-level scan deltas as span attributes; RPC
// spans of remote statistic and chunk fetches nest
// under the phase that issued them. Untraced contexts cost one nil
// check per phase.
//
// The base starts as the rows of the chunks the zone maps do not prune
// (engine.EvalBase), so it never costs the table's length.
func (c *Cartographer) ExploreCtx(ctx context.Context, q query.Query) (*Result, error) {
	return c.explore(ctx, q, nil)
}

// ExploreSample is ExploreCtx over a sample of the table's rows, the
// selection s (see internal/sample): the base is q's rows among s, and
// the result describes s as a table of s's rows alone would — TotalRows
// is |s| and each region's Cover its Count over |s|. s must have the
// table's length; the Cartographer takes ownership of it.
func (c *Cartographer) ExploreSample(ctx context.Context, q query.Query, s *bitvec.Vector) (*Result, error) {
	return c.explore(ctx, q, s)
}

// explore maps q's rows among the sample s, or among every row when s
// is nil.
func (c *Cartographer) explore(ctx context.Context, q query.Query, s *bitvec.Vector) (res *Result, err error) {
	defer recoverChunkPanic(&err)
	start := time.Now()
	total := c.table.NumRows()
	if s != nil {
		total = s.Count()
	}
	base, err := c.scanBase(ctx, q, s)
	if err != nil {
		return nil, err
	}
	return c.exploreBase(ctx, q, base, total, start)
}

// scanBase checks that q targets the table and returns q's rows among
// sel, narrowed in place, or among every row when sel is nil, under the
// base-scan span.
func (c *Cartographer) scanBase(ctx context.Context, q query.Query, sel *bitvec.Vector) (*bitvec.Vector, error) {
	if err := c.checkTable(q); err != nil {
		return nil, err
	}
	bctx, endBase := scanSpan(ctx, BaseSpan)
	defer endBase()
	opts := engine.ScanOptions{Workers: resolveParallelism(c.opts.Parallelism), Ctx: bctx}
	if sel == nil {
		return engine.EvalBase(c.table, q, opts)
	}
	return sel, engine.EvalAndIntoOpts(c.table, q, sel, opts)
}

// ExploreSel runs the pipeline on a precomputed base selection — the
// entry point for callers that already hold Eval(table, q) (for
// example, a session drilling into a region: the parent map's
// assignment holds the region's rows). base must have exactly the
// table's length and must select the rows the result describes; its
// TotalRows and covers are over the whole table. The Cartographer takes
// ownership of base.
func (c *Cartographer) ExploreSel(q query.Query, base *bitvec.Vector) (*Result, error) {
	return c.ExploreSelCtx(context.Background(), q, base)
}

// ExploreSelCtx is ExploreSel with a request context (see ExploreCtx).
func (c *Cartographer) ExploreSelCtx(ctx context.Context, q query.Query, base *bitvec.Vector) (res *Result, err error) {
	defer recoverChunkPanic(&err)
	start := time.Now()
	if err := c.checkTable(q); err != nil {
		return nil, err
	}
	if base.Len() != c.table.NumRows() {
		return nil, fmt.Errorf("core: base selection length %d != table rows %d", base.Len(), c.table.NumRows())
	}
	return c.exploreBase(ctx, q, base, c.table.NumRows(), start)
}

// BaseSpan names the base-scan span of an exploration. Every other span
// an exploration opens under its caller's span is one pipeline phase
// (screen, cut, cluster, merge, rank), so a query's phase timings are
// the children of its root span but this one (see obsv.PhasesOf).
const BaseSpan = "base"

// scanSpan opens the span of the base scan or of one pipeline phase.
// Its attributes, at end time, carry the delta of the scan plane of the
// context's ledger over the span: the chunks this request scanned,
// pruned, decoded and found cached, never those of another exploration
// sharing the Cartographer. Without a ledger the span carries no chunk
// attributes.
func scanSpan(ctx context.Context, name string) (context.Context, func()) {
	pctx, sp := obsv.StartSpan(ctx, name)
	led := obsv.LedgerFrom(ctx)
	if sp == nil || led == nil {
		return pctx, sp.End
	}
	before := led.Scan().Snapshot()
	return pctx, func() {
		after := led.Scan().Snapshot()
		for _, a := range []struct {
			key   string
			delta int64
		}{
			{"chunksScanned", after.ChunksScanned - before.ChunksScanned},
			{"chunksPruned", after.ChunksPruned - before.ChunksPruned},
			{"chunksDecoded", after.ChunksDecoded - before.ChunksDecoded},
			{"chunkCacheHits", after.ChunkCacheHits - before.ChunkCacheHits},
		} {
			if a.delta > 0 {
				sp.SetAttr(a.key, a.delta)
			}
		}
		sp.End()
	}
}

func (c *Cartographer) checkTable(q query.Query) error {
	if q.Table != "" && q.Table != c.table.Name() {
		return fmt.Errorf("core: query targets table %q, cartographer holds %q", q.Table, c.table.Name())
	}
	return nil
}

// exploreBase is the shared pipeline body behind every entry point: it
// maps the rows of base, a subset of the total rows the result
// describes. Every entry point hands base over, so it is first trimmed
// to the span of its rows, before anything shares it: every bitmap cut
// from it holds that window, and every kernel over them costs it.
func (c *Cartographer) exploreBase(ctx context.Context, q query.Query, base *bitvec.Vector, total int, start time.Time) (*Result, error) {
	base.Trim()
	workers := resolveParallelism(c.opts.Parallelism)
	res := &Result{
		Input:     q,
		TotalRows: total,
		BaseCount: base.Count(),
	}
	res.rendered = &renderMemo{owner: res}
	if res.BaseCount == 0 {
		res.Elapsed = time.Since(start)
		return res, nil
	}

	// Step 0 (Section 5.2): screen out keys, codes, comments, constants.
	sctx, endScreen := scanSpan(ctx, "screen")
	attrs := c.candidateAttrs(sctx, q, base, res, workers)
	endScreen()

	// Step 1 (Section 3.1): one candidate map per attribute, fanned out
	// per attribute. Explore's base selection is exactly Eval(q), so the
	// per-candidate re-evaluation of the parent query is skipped: the cut
	// runs directly on base, and the partition kernel materializes every
	// region's selection in a single column pass. Under a sub-selection
	// the numeric candidates' values are read a worker's share per call
	// and stay in hand until the exploration ends, for composition to cut
	// regions from. Only the table's every row is the full selection: a
	// sample is never full, so its cuts never read or fill the memo.
	baseFull := res.BaseCount == c.table.NumRows()
	type candOut struct {
		m       *Map
		flagged bool
	}
	outs := make([]candOut, len(attrs))
	cutCtx, endCut := scanSpan(ctx, "cut")
	exts, err := c.extractCandidates(cutCtx, base, baseFull, attrs, workers)
	defer func() {
		for _, ext := range exts {
			if ext != nil {
				extractPool.Put(ext)
			}
		}
	}()
	if err != nil {
		endCut()
		return nil, err
	}
	err = parallelFor(workers, len(attrs), func(i int) error {
		// Work-item-granular cancellation: a dead caller abandons the
		// remaining attributes instead of cutting them all.
		if err := obsv.CheckCtx(cutCtx, "core.cut"); err != nil {
			return err
		}
		actx, asp := obsv.StartSpan(cutCtx, "cut "+attrs[i])
		defer asp.End()
		x := cutter{t: c.table, sp: c.sp, cache: c.stats, ctx: actx}
		preds, bits, err := x.cutPartition(base, baseFull, attrs[i], c.opts.Cut, exts[i])
		var deg *ErrDegenerate
		if errors.As(err, &deg) {
			outs[i].flagged = true
			return nil
		}
		if err != nil {
			return err
		}
		regions := make([]query.Query, len(preds))
		for ri, p := range preds {
			regions[ri] = applyPredicate(q, p)
		}
		m, err := buildMapFromBits(total, base, []string{attrs[i]}, regions, bits)
		if err != nil {
			return err
		}
		outs[i].m = m
		return nil
	})
	endCut()
	if err != nil {
		return nil, err
	}
	candidates := make([]*Map, 0, len(attrs))
	held := map[string]heldCut{}
	for i, out := range outs {
		held[attrs[i]] = heldCut{m: out.m, ext: exts[i]}
		if out.flagged {
			res.Flagged = append(res.Flagged, ScreenFinding{Attr: attrs[i], Reason: ScreenConstant})
			continue
		}
		candidates = append(candidates, out.m)
	}
	res.Candidates = candidates
	if len(candidates) == 0 {
		res.Elapsed = time.Since(start)
		return res, nil
	}

	// Step 2 (Section 3.2): cluster candidates by statistical dependency.
	clctx, endCluster := scanSpan(ctx, "cluster")
	clusters, err := c.clusterCandidates(clctx, candidates, workers)
	endCluster()
	if err != nil {
		return nil, err
	}

	// Step 3 (Section 3.3): merge each cluster into one map, one worker
	// per cluster; a nil slot marks a skipped or degenerate cluster.
	merged := make([]*Map, len(clusters))
	mergeCtx, endMerge := scanSpan(ctx, "merge")
	err = parallelFor(workers, len(clusters), func(i int) error {
		if err := obsv.CheckCtx(mergeCtx, "core.merge"); err != nil {
			return err
		}
		idxs := clusters[i]
		group := make([]*Map, len(idxs))
		for gi, ci := range idxs {
			group[gi] = candidates[ci]
		}
		if len(group) == 1 && !c.opts.KeepSingletons && len(clusters) > 1 {
			return nil
		}
		mctx, msp := obsv.StartSpan(mergeCtx, fmt.Sprintf("merge cluster %d", i))
		defer msp.End()
		// base IS the parent query's selection, so composition starts from
		// it directly instead of re-evaluating q against the table, and
		// its first level is the cluster's first candidate map
		x := cutter{t: c.table, total: total, sp: c.sp, cache: c.stats, ctx: mctx, held: held, workers: workers}
		m, err := x.mergeCluster(base, base, true, q, group, c.opts.Merge, c.opts.Cut, c.opts.MaxRegions)
		var deg *ErrDegenerate
		if errors.As(err, &deg) {
			return nil
		}
		if err != nil {
			return err
		}
		merged[i] = m
		return nil
	})
	endMerge()
	if err != nil {
		return nil, err
	}
	var maps []*Map
	for _, m := range merged {
		if m == nil {
			continue
		}
		maps = append(maps, m)
		res.AttrClusters = append(res.AttrClusters, m.Attrs)
	}

	// Step 4 (Section 3.4): rank by decreasing entropy, cap the answer.
	_, endRank := scanSpan(ctx, "rank")
	defer endRank()
	RankMaps(maps)
	if len(maps) > c.opts.MaxMaps {
		maps = maps[:c.opts.MaxMaps]
	}
	res.Maps = maps
	res.Elapsed = time.Since(start)
	return res, nil
}

// extractCandidates reads the values under base of every numeric
// attribute among attrs, in one provider call per worker, each call
// carrying its share of the attributes: a sharded table answers a
// call with one request per shard, and the workers' calls overlap.
// out[i] holds attrs[i]'s extraction, nil for the others; the caller
// recycles them, also on error. The full selection reads nothing here:
// the memo answers its cuts, and its first touches each read their own
// column.
func (c *Cartographer) extractCandidates(ctx context.Context, base *bitvec.Vector, full bool, attrs []string, workers int) ([]*engine.NumericExtract, error) {
	out := make([]*engine.NumericExtract, len(attrs))
	if full {
		return out, nil
	}
	var numeric []int
	for i, attr := range attrs {
		col, err := c.table.ColumnByName(attr)
		if err != nil {
			return out, err
		}
		if col.Type().IsNumeric() {
			out[i] = extractPool.Get().(*engine.NumericExtract)
			numeric = append(numeric, i)
		}
	}
	calls := min(workers, len(numeric))
	return out, parallelFor(calls, calls, func(w int) error {
		var (
			xs    []*engine.NumericExtract
			names []string
		)
		for j := w; j < len(numeric); j += calls {
			xs = append(xs, out[numeric[j]])
			names = append(names, attrs[numeric[j]])
		}
		return c.sp.Extract(ctx, xs, names, base)
	})
}

// candidateAttrs selects the attributes to cut, applying screening and
// the AttrsFromQuery restriction.
func (c *Cartographer) candidateAttrs(ctx context.Context, q query.Query, base *bitvec.Vector, res *Result, workers int) []string {
	var pool []string
	if c.opts.AttrsFromQuery {
		pool = q.Attrs()
	} else {
		for i := 0; i < c.table.NumCols(); i++ {
			pool = append(pool, c.table.Schema().Field(i).Name)
		}
	}
	if !c.opts.Screen {
		return pool
	}
	keep, flagged := screenColumnsN(ctx, c.table, base, c.opts.ScreenOpts, workers)
	res.Flagged = append(res.Flagged, flagged...)
	keepSet := make(map[string]bool, len(keep))
	for _, k := range keep {
		keepSet[k] = true
	}
	var out []string
	for _, a := range pool {
		if keepSet[a] {
			out = append(out, a)
		}
	}
	return out
}

// clusterCandidates runs SLINK over the candidate distance matrix and
// cuts the dendrogram at the dependency threshold, holding cluster sizes
// to the predicate budget. The pairwise distances are computed in
// parallel; SLINK itself is serial but O(n²) over tiny n.
func (c *Cartographer) clusterCandidates(ctx context.Context, candidates []*Map, workers int) ([][]int, error) {
	n := len(candidates)
	if n == 1 {
		return [][]int{{0}}, nil
	}
	dm, err := DistanceMatrixCtx(ctx, candidates, c.opts.Distance, workers)
	if err != nil {
		return nil, err
	}
	dend := SLINK(n, dm.At)
	return dend.CutWithBudget(c.opts.DependencyThreshold, c.opts.MaxPredicates), nil
}
