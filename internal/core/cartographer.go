package core

import (
	"context"
	"errors"
	"fmt"
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

func (o Options) validate() error {
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
// immutable and the column-stat cache is internally synchronized, so one
// instance can serve many sessions or HTTP requests at once.
type Cartographer struct {
	table *storage.Table
	opts  Options
	// stats caches per-column statistics under the full selection
	// (sorted values, sketches, category counts), computed once and
	// shared read-only across goroutines and Explore calls.
	stats *statCache
	// scan accumulates chunk-level scan decisions (pruned / full /
	// scanned, and lazy decodes / cache hits) across every exploration
	// this Cartographer runs — the pruning-efficacy counters front-ends
	// surface.
	scan engine.ScanStats
}

// NewCartographer validates the options and builds a Cartographer.
func NewCartographer(t *storage.Table, opts Options) (*Cartographer, error) {
	return NewCartographerWith(t, opts, nil)
}

// NewCartographerWith is NewCartographer with an external stat provider:
// full-selection column statistics are served by sp (e.g. a sharded
// store's mergeable per-shard partials) instead of whole-column passes
// over t. sp may be nil.
func NewCartographerWith(t *storage.Table, opts Options, sp StatProvider) (*Cartographer, error) {
	if t == nil {
		return nil, errors.New("core: nil table")
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	stats := newStatCache()
	stats.provider = sp
	return &Cartographer{table: t, opts: opts, stats: stats}, nil
}

// Table returns the table being explored.
func (c *Cartographer) Table() *storage.Table { return c.table }

// Options returns the pipeline configuration.
func (c *Cartographer) Options() Options { return c.opts }

// Workers returns the resolved worker count Options.Parallelism maps to
// — the single source of truth for callers (sessions) that run scans on
// the Cartographer's behalf.
func (c *Cartographer) Workers() int { return resolveParallelism(c.opts.Parallelism) }

// ScanOpts returns the scan options the Cartographer runs its own scans
// with — workers, its cumulative stats accumulator and the request
// context — so callers (sessions) scanning on its behalf feed the same
// counters and their lazy chunk fetches ride the caller's trace.
func (c *Cartographer) ScanOpts(ctx context.Context) engine.ScanOptions {
	return engine.ScanOptions{Workers: c.Workers(), Stats: &c.scan, Ctx: ctx}
}

// ScanStats snapshots the cumulative chunk-level scan counters of every
// exploration this Cartographer has run.
func (c *Cartographer) ScanStats() engine.Snapshot { return c.scan.Snapshot() }

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
	// TotalRows is the table size.
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
}

// Explore runs the four-step framework of Section 3 on a user query:
// candidate generation (CUT per attribute), dependency clustering of the
// candidates, per-cluster merging, and entropy ranking. The three
// embarrassingly parallel stages — per-attribute cuts, pairwise
// distances and per-cluster merges — fan out over Options.Parallelism
// workers; all results are collected by index, so the answer is
// identical at any parallelism. On chunk-aware tables (column-store
// backed) the base scan itself is sharded chunk-by-chunk over the same
// worker pool and prunes chunks via zone maps.
func (c *Cartographer) Explore(q query.Query) (*Result, error) {
	return c.ExploreCtx(context.Background(), q)
}

// ExploreCtx is Explore with a request context. When ctx carries a
// trace span (obsv.StartSpan), the pipeline records one child span per
// phase — base scan, screening, per-attribute cuts, clustering,
// per-cluster merges, ranking — with chunk-level scan deltas as span
// attributes; RPC spans of remote statistic and chunk fetches nest
// under the phase that issued them. Untraced contexts cost one nil
// check per phase.
func (c *Cartographer) ExploreCtx(ctx context.Context, q query.Query) (res *Result, err error) {
	defer recoverChunkPanic(&err)
	start := time.Now()
	if err := c.checkTable(q); err != nil {
		return nil, err
	}
	bctx, sp := obsv.StartSpan(ctx, "base")
	base := bitvec.NewFull(c.table.NumRows())
	if err := engine.EvalAndIntoOpts(c.table, q, base, c.ScanOpts(bctx)); err != nil {
		sp.End()
		return nil, err
	}
	sp.End()
	return c.exploreBase(ctx, q, base, start)
}

// ExploreSel runs the pipeline on a precomputed base selection — the
// entry point for callers that already hold Eval(table, q) (for
// example, a session assembling the selection from cached per-predicate
// bitmaps). base must have exactly the table's length and must select
// exactly the rows matching q; the Cartographer takes ownership of it.
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
	return c.exploreBase(ctx, q, base, start)
}

// phaseSpan opens one pipeline-phase span and arranges for the
// cumulative scan-counter delta of the phase to land in its attributes
// at end time. When the context carries a resource ledger, the phase's
// wall and CPU time are additionally billed to it — with or without a
// trace. The returned end function is nil-safe to call.
func (c *Cartographer) phaseSpan(ctx context.Context, name string) (context.Context, func()) {
	endPhase := obsv.LedgerFrom(ctx).StartPhase(name)
	pctx, sp := obsv.StartSpan(ctx, name)
	if sp == nil {
		return pctx, endPhase
	}
	before := c.scan.Snapshot()
	return pctx, func() {
		after := c.scan.Snapshot()
		if d := after.ChunksScanned - before.ChunksScanned; d > 0 {
			sp.SetAttr("chunksScanned", d)
		}
		if d := after.ChunksPruned - before.ChunksPruned; d > 0 {
			sp.SetAttr("chunksPruned", d)
		}
		if d := after.ChunksDecoded - before.ChunksDecoded; d > 0 {
			sp.SetAttr("chunksDecoded", d)
		}
		if d := after.ChunkCacheHits - before.ChunkCacheHits; d > 0 {
			sp.SetAttr("chunkCacheHits", d)
		}
		sp.End()
		endPhase()
	}
}

func (c *Cartographer) checkTable(q query.Query) error {
	if q.Table != "" && q.Table != c.table.Name() {
		return fmt.Errorf("core: query targets table %q, cartographer holds %q", q.Table, c.table.Name())
	}
	return nil
}

// exploreBase is the shared pipeline body behind Explore and ExploreSel.
func (c *Cartographer) exploreBase(ctx context.Context, q query.Query, base *bitvec.Vector, start time.Time) (*Result, error) {
	workers := resolveParallelism(c.opts.Parallelism)
	res := &Result{
		Input:     q,
		TotalRows: c.table.NumRows(),
		BaseCount: base.Count(),
	}
	if res.BaseCount == 0 {
		res.Elapsed = time.Since(start)
		return res, nil
	}

	// Step 0 (Section 5.2): screen out keys, codes, comments, constants.
	sctx, endScreen := c.phaseSpan(ctx, "screen")
	attrs := c.candidateAttrs(sctx, q, base, res, workers)
	endScreen()

	// Step 1 (Section 3.1): one candidate map per attribute, fanned out
	// per attribute. Explore's base selection is exactly Eval(q), so the
	// per-candidate re-evaluation of the parent query is skipped: the cut
	// runs directly on base, and the partition kernel materializes every
	// region's selection in a single column pass.
	baseFull := res.BaseCount == res.TotalRows
	type candOut struct {
		m       *Map
		flagged bool
	}
	outs := make([]candOut, len(attrs))
	cutCtx, endCut := c.phaseSpan(ctx, "cut")
	err := parallelFor(workers, len(attrs), func(i int) error {
		// Work-item-granular cancellation: a dead caller abandons the
		// remaining attributes instead of cutting them all.
		if err := obsv.CheckCtx(cutCtx, "core.cut"); err != nil {
			return err
		}
		actx, asp := obsv.StartSpan(cutCtx, "cut "+attrs[i])
		defer asp.End()
		x := cutter{t: c.table, cache: c.stats, ctx: actx,
			scan: engine.ScanOptions{Workers: workers, Stats: &c.scan, Ctx: actx}}
		preds, err := x.cutPredicates(base, baseFull, attrs[i], c.opts.Cut)
		var deg *ErrDegenerate
		if errors.As(err, &deg) {
			outs[i].flagged = true
			return nil
		}
		if err != nil {
			return err
		}
		bits, err := engine.PartitionBitsOpts(c.table, attrs[i], preds, base, engine.ScanOptions{Workers: workers, Stats: &c.scan, Ctx: actx})
		if err != nil {
			return err
		}
		regions := make([]query.Query, len(preds))
		for ri, p := range preds {
			regions[ri] = applyPredicate(q, p)
		}
		m, err := buildMapFromBits(c.table, base, []string{attrs[i]}, regions, bits)
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
	for i, out := range outs {
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
	clctx, endCluster := c.phaseSpan(ctx, "cluster")
	clusters, err := c.clusterCandidates(clctx, candidates, workers)
	endCluster()
	if err != nil {
		return nil, err
	}

	// Step 3 (Section 3.3): merge each cluster into one map, one worker
	// per cluster; a nil slot marks a skipped or degenerate cluster.
	merged := make([]*Map, len(clusters))
	mergeCtx, endMerge := c.phaseSpan(ctx, "merge")
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
		// it directly instead of re-evaluating q against the table
		x := cutter{t: c.table, cache: c.stats, ctx: mctx,
			scan: engine.ScanOptions{Workers: workers, Stats: &c.scan, Ctx: mctx}}
		m, err := x.mergeCluster(base, base, q, group, c.opts.Merge, c.opts.Cut, c.opts.MaxRegions)
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
	_, endRank := c.phaseSpan(ctx, "rank")
	defer endRank()
	RankMaps(maps)
	if len(maps) > c.opts.MaxMaps {
		maps = maps[:c.opts.MaxMaps]
	}
	res.Maps = maps
	res.Elapsed = time.Since(start)
	return res, nil
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
