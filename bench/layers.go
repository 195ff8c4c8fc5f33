package main

// layers.go is the only file of the benchmark that imports
// repro/internal/... packages. Everything the benchmark pins below the
// root façade (package atlas) and the HTTP API is called from here, so
// this file is the list of internal functions a refactor must keep
// compiling (see README.md, "Pinned surface").

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	atlas "repro"
	"repro/internal/bitvec"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/remote"
	"repro/internal/server"
	"repro/internal/session"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/workload"
)

// ---- server / workload ----

// newAPIHandler is the exploration HTTP API over an in-memory table with
// the pipeline defaults and atlasd's default admission (no concurrency
// cap, so nothing is shed).
func newAPIHandler(t *atlas.Table) http.Handler {
	return server.New(t, core.DefaultOptions()).Handler()
}

// canonicalBody strips the volatile fields (elapsed time, ledger,
// profile) from an API response so two runs compare byte for byte.
func canonicalBody(raw []byte) (string, error) { return workload.CanonicalBody(raw) }

// ---- colstore / shard ingest ----

// saveStore writes a single-file .atl store with the benchmark's chunk
// size (the façade's SaveStore pins the default chunk size).
func saveStore(path string, t *atlas.Table, chunkRows int) error {
	return colstore.WriteFile(path, t, chunkRows)
}

// ---- remote fabric ----

// shardFleet is the shard files of one manifest, each served by its own
// in-process fabric server on a loopback listener.
type shardFleet struct {
	urls    []string
	servers []*httptest.Server
	stores  []*colstore.Store
	mw      *serverMiddleware
}

// serverMiddleware measures the shard servers from outside their
// handlers: busy time and RPC counts by plane.
type serverMiddleware struct {
	busyNs    atomic.Int64
	statRPCs  atomic.Int64
	chunkRPCs atomic.Int64
}

func (m *serverMiddleware) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		m.busyNs.Add(int64(time.Since(start)))
		switch path := r.URL.Path; {
		case strings.HasSuffix(path, "/chunk"):
			m.chunkRPCs.Add(1)
		case strings.HasSuffix(path, "/values"), strings.HasSuffix(path, "/catcounts"),
			strings.HasSuffix(path, "/boolcounts"), strings.HasSuffix(path, "/batchstats"),
			strings.HasSuffix(path, "/partials"), strings.HasSuffix(path, "/predcount"):
			m.statRPCs.Add(1)
		}
	})
}

// startShardFleet serves every shard file of a local manifest and writes
// the coordinator's remote manifest to outPath.
func startShardFleet(manifestPath, outPath string) (*shardFleet, error) {
	m, err := shard.ReadManifest(manifestPath)
	if err != nil {
		return nil, err
	}
	f := &shardFleet{mw: &serverMiddleware{}}
	dir := filepath.Dir(manifestPath)
	for _, sf := range m.Shards {
		st, err := colstore.OpenWith(filepath.Join(dir, sf.File), colstore.Options{Mode: colstore.ModeLazy})
		if err != nil {
			f.stop()
			return nil, err
		}
		ts := httptest.NewServer(f.mw.wrap(remote.NewServer(st).Handler()))
		f.stores = append(f.stores, st)
		f.servers = append(f.servers, ts)
		f.urls = append(f.urls, ts.URL)
	}
	rm, err := shard.RemoteManifest(m, f.urls)
	if err == nil {
		err = shard.WriteManifestFile(outPath, rm)
	}
	if err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

func (f *shardFleet) stop() {
	for _, ts := range f.servers {
		ts.Close()
	}
	for _, st := range f.stores {
		st.Close()
	}
}

// rpcTimer is the client side of the fabric seen from outside: a
// RoundTripper that times each RPC until its body is consumed and counts
// the bytes that crossed the wire. With a recorder it also files each
// RPC as a span under whatever the probe has open.
type rpcTimer struct {
	base http.RoundTripper
	rec  *recorder

	mu    sync.Mutex
	durUs []float64
	bytes int64
}

func newRPCTimer(rec *recorder) *rpcTimer {
	return &rpcTimer{rec: rec, base: &http.Transport{MaxIdleConns: 128, MaxIdleConnsPerHost: 32, IdleConnTimeout: 90 * time.Second}}
}

func (t *rpcTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	parent, op := -1, -1
	var startNs int64
	if t.rec != nil {
		parent, op = t.rec.current()
		startNs = t.rec.now()
	}
	done := func(n int64) {
		t.mu.Lock()
		t.durUs = append(t.durUs, float64(time.Since(start))/float64(time.Microsecond))
		t.bytes += n
		t.mu.Unlock()
		if t.rec != nil && op >= 0 {
			t.rec.async("remote.rpc", startNs, t.rec.now(), parent, op)
		}
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		done(0)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: done}
	return resp, nil
}

func (t *rpcTimer) closeIdle() { t.base.(*http.Transport).CloseIdleConnections() }

// snapshot returns the RPC count, summed and sorted latencies (µs) and
// wire bytes so far.
func (t *rpcTimer) snapshot() (durUs []float64, bytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.durUs...), t.bytes
}

type timedBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(int64)
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.once.Do(func() { b.done(b.n) })
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(func() { b.done(b.n) })
	return b.ReadCloser.Close()
}

// fabric is a coordinator's view of a remote manifest: the shard set
// opened through a remote opener, and the explorer over it. The façade's
// OpenShardedWith hides both the opener (its traffic counters) and the
// transport, so the benchmark opens the set itself.
type fabric struct {
	set    *shard.Set
	opener *remote.Opener
	cart   *core.Cartographer
}

// openFabric opens a remote manifest lazily with deferred shard opens
// and a decoded-chunk cache of cacheBytes; its RPCs go through timer.
func openFabric(remoteManifest string, cacheBytes int64, timer *rpcTimer) (*fabric, error) {
	opener := remote.NewOpener(remote.Options{Transport: timer})
	set, err := shard.OpenWith(remoteManifest, shard.Options{
		Store:  colstore.Options{Mode: colstore.ModeLazy, CacheBytes: cacheBytes},
		Defer:  true,
		Remote: opener,
	})
	if err != nil {
		return nil, err
	}
	o := core.DefaultOptions()
	cart, err := core.NewCartographerWith(set.Table(), o, set.Provider(o.Parallelism))
	if err != nil {
		set.Close()
		return nil, err
	}
	return &fabric{set: set, opener: opener, cart: cart}, nil
}

func (f *fabric) explore(cqlText string) (*atlas.Result, error) {
	q, _, err := cql.ParseAndBind(cqlText, f.set.Table())
	if err != nil {
		return nil, err
	}
	return f.cart.Explore(q)
}

func (f *fabric) close() error { return f.set.Close() }

// ---- the decomposed pipeline ----

// pipeline replays one exploration through the exported entry points of
// cql, engine and core, one call per span, serially (Workers = 1), so a
// layer's time can be read off from outside the program.
type pipeline struct {
	t    *storage.Table
	opts core.Options
	// newCart builds a fresh Cartographer at the given parallelism over
	// the same table the workload explores (with the shard set's stat
	// provider where there is one).
	newCart func(parallelism int) (*core.Cartographer, error)
	// par is the parallelism the workload itself runs at.
	par  int
	scan engine.ScanStats
}

func newPipeline(t *atlas.Table, par int, provider core.StatProvider) *pipeline {
	p := &pipeline{t: t, opts: core.DefaultOptions(), par: par}
	p.opts.Parallelism = 1
	p.newCart = func(parallelism int) (*core.Cartographer, error) {
		o := core.DefaultOptions()
		o.Parallelism = parallelism
		return core.NewCartographerWith(t, o, provider)
	}
	return p
}

func (f *fabric) pipeline(par int) *pipeline {
	return newPipeline(f.set.Table(), par, f.set.Provider(par))
}

// decomposed is what one pass through the decomposed pipeline leaves
// behind for the replays and the cross-check that follow it.
type decomposed struct {
	q        query.Query
	base     *bitvec.Vector
	cutAttrs []string    // attributes that could be cut
	cands    []*core.Map // one candidate map per cut attribute
	merged   []*core.Map // one map per cluster, in cluster order
}

// decompose runs one op call by call, each call a child span of root.
func (p *pipeline) decompose(rec *recorder, op, root int, cqlText string) (d decomposed, err error) {
	t := p.t
	scanOpts := engine.ScanOptions{Workers: 1, Stats: &p.scan}
	step := func(name string, fn func() error) error {
		if err := rec.in(op, root, name, fn); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	if err = step("cql.parse", func() (err error) {
		d.q, _, err = cql.ParseAndBind(cqlText, t)
		return err
	}); err != nil {
		return d, err
	}
	if err = step("engine.base_scan", func() error {
		d.base = bitvec.NewFull(t.NumRows())
		return engine.EvalAndIntoOpts(t, d.q, d.base, scanOpts)
	}); err != nil {
		return d, err
	}
	var attrs []string
	_ = step("core.screen", func() error {
		attrs, _ = core.ScreenColumns(t, d.base, p.opts.ScreenOpts)
		return nil
	})
	if d.base.Count() == 0 {
		return d, nil // the program answers an empty selection without cutting
	}
	for _, attr := range attrs {
		var preds []query.Predicate
		err = step("core.cut", func() (err error) {
			preds, err = core.CutPredicates(t, d.base, attr, p.opts.Cut)
			return err
		})
		var deg *core.ErrDegenerate
		if errors.As(err, &deg) {
			continue
		}
		if err != nil {
			return d, err
		}
		d.cutAttrs = append(d.cutAttrs, attr)
		if err = step("engine.partition", func() error {
			_, err := engine.PartitionBitsOpts(t, attr, preds, d.base, scanOpts)
			return err
		}); err != nil {
			return d, err
		}
		if err = step("probe.build_map", func() error {
			regions := make([]query.Query, len(preds))
			for i, pr := range preds {
				if at := d.q.PredOn(pr.Attr); at >= 0 {
					regions[i] = d.q.ReplacePred(at, pr)
				} else {
					regions[i] = d.q.And(pr)
				}
			}
			m, err := core.BuildMap(t, d.base, []string{attr}, regions)
			d.cands = append(d.cands, m)
			return err
		}); err != nil {
			return d, err
		}
	}
	if len(d.cands) == 0 {
		return d, nil
	}
	clusters := [][]int{{0}}
	var dm *core.DistMatrix
	if err = step("core.distance", func() (err error) {
		if len(d.cands) > 1 {
			dm, err = core.DistanceMatrix(d.cands, p.opts.Distance, 1)
		}
		return err
	}); err != nil {
		return d, err
	}
	_ = step("core.cluster", func() error {
		if len(d.cands) > 1 {
			clusters = core.SLINK(len(d.cands), dm.At).CutWithBudget(p.opts.DependencyThreshold, p.opts.MaxPredicates)
		}
		return nil
	})
	for _, idxs := range clusters {
		group := make([]*core.Map, len(idxs))
		for i, ci := range idxs {
			group[i] = d.cands[ci]
		}
		if err = step("core.merge", func() error {
			m, err := core.MergeCluster(t, d.base, d.q, group, p.opts.Merge, p.opts.Cut, p.opts.MaxRegions)
			var deg *core.ErrDegenerate
			if errors.As(err, &deg) {
				return nil
			}
			if err == nil {
				d.merged = append(d.merged, m)
			}
			return err
		}); err != nil {
			return d, err
		}
	}
	_ = step("core.rank", func() error {
		core.RankMaps(append([]*core.Map(nil), d.merged...))
		return nil
	})
	return d, nil
}

// probeOp runs one op through the decomposed pipeline under a root span,
// then replays the engine's extraction and the program's own ExploreSel
// (serial, and at the workload's parallelism) beside it as aux spans. It
// fails when the decomposition disagrees with the program on the
// candidate count or the attribute clusters.
func (p *pipeline) probeOp(rec *recorder, op int, cqlText string) error {
	root := rec.begin(op, -1, "op", false)
	d, err := p.decompose(rec, op, root, cqlText)
	rec.end(root)
	if err != nil {
		return err
	}
	q, base, cutAttrs, cands, merged := d.q, d.base, d.cutAttrs, d.cands, d.merged

	// Beside the op: the engine's column extraction that CutPredicates
	// performs internally, replayed per attribute on its own.
	for _, attr := range cutAttrs {
		id := rec.begin(op, -1, "engine.extract", true)
		err := p.extract(attr, base)
		rec.end(id)
		if err != nil {
			return fmt.Errorf("extract %s: %w", attr, err)
		}
	}
	// Beside the op: the program's own pipeline on the same selection,
	// from a fresh Cartographer (cold stat cache, like the decomposed
	// calls above), serial and at the workload's parallelism.
	var res *core.Result
	for _, run := range []struct {
		name string
		par  int
	}{{"core.explore", 1}, {"core.explore_par", p.par}} {
		cart, err := p.newCart(run.par)
		if err != nil {
			return err
		}
		sel := base.Clone()
		id := rec.begin(op, -1, run.name, true)
		res, err = cart.ExploreSel(q, sel)
		rec.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", run.name, err)
		}
	}
	var mergedAttrs [][]string
	for _, m := range merged {
		mergedAttrs = append(mergedAttrs, m.Attrs)
	}
	if len(res.Candidates) != len(cands) || !reflect.DeepEqual(res.AttrClusters, mergedAttrs) {
		return fmt.Errorf("probe disagrees with Explore on %q: %d candidates, clusters %v; program has %d, %v",
			cqlText, len(cands), mergedAttrs, len(res.Candidates), res.AttrClusters)
	}
	return nil
}

func (p *pipeline) extract(attr string, sel *bitvec.Vector) error {
	col, err := p.t.ColumnByName(attr)
	if err != nil {
		return err
	}
	switch col.Type() {
	case storage.String:
		_, _, err = engine.CategoryCountsUnder(p.t, attr, sel)
	case storage.Bool:
		_, _, err = engine.BoolCountsUnder(p.t, attr, sel)
	default:
		_, err = engine.NumericValuesUnder(p.t, attr, sel)
	}
	return err
}

// statCacheSpeedup is first ÷ repeat time of the no-predicate exploration
// on a fresh Cartographer: what the per-Cartographer stat cache buys.
func (p *pipeline) statCacheSpeedup() (float64, error) {
	cart, err := p.newCart(p.par)
	if err != nil {
		return 0, err
	}
	q := query.New(p.t.Name())
	var took [2]time.Duration
	for i := range took {
		start := time.Now()
		if _, err := cart.Explore(q); err != nil {
			return 0, err
		}
		took[i] = time.Since(start)
	}
	return float64(took[0]) / float64(took[1]), nil
}

// scanCounts returns the chunk verdicts the probe's scans accumulated.
func (p *pipeline) scanCounts() (scanned, pruned, full int64) {
	s := p.scan.Snapshot()
	return s.ChunksScanned, s.ChunksPruned, s.ChunksFull
}

// ---- session ----

// sessionReplay drives a library Session (no HTTP) with one HTTP
// session's op stream and returns per-op times by kind plus the
// predicate-cache tallies.
type sessionReplay struct {
	cart *core.Cartographer
	t    *storage.Table
}

func newSessionReplay(t *atlas.Table) (*sessionReplay, error) {
	cart, err := core.NewCartographer(t, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return &sessionReplay{cart: cart, t: t}, nil
}

// run replays ops and returns each op's time; hits and misses are the
// session's predicate-bitmap cache tallies at the end.
func (r *sessionReplay) run(ops []sessionOp) (took []time.Duration, hits, misses int, err error) {
	s := session.New(r.cart)
	for _, o := range ops {
		start := time.Now()
		if o.Drill {
			_, err = s.DrillDown(0, o.Region)
		} else {
			var q query.Query
			q, _, err = cql.ParseAndBind(o.CQL, r.t)
			if err == nil {
				_, err = s.Explore(q)
			}
		}
		took = append(took, time.Since(start))
		if err != nil {
			return nil, 0, 0, fmt.Errorf("session op %+v: %w", o, err)
		}
		// The HTTP handlers start anticipative prefetches after every
		// answer; do the same so both sides run the same session.
		s.Prefetch(4)
	}
	s.Wait()
	hits, misses = s.PredCacheStats()
	return took, hits, misses, nil
}

// ---- storage / colstore / shard micro-measurements ----

// storeLayerMetrics times the storage tiers' own entry points on the
// workload's table: CSV parse, store write, opens, chunk decode, sharded
// write, deferred open, partials and the k-way stat merge. Each timing is
// the median of reps runs. Files go under dir.
func storeLayerMetrics(dir string, csv []byte, chunkRows, shards, reps, par int) (map[string]float64, error) {
	out := map[string]float64{}
	var t *storage.Table
	var err error
	parse := timeReps(reps, func() error {
		t, err = storage.ReadCSV("sky", bytes.NewReader(csv), nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	out["storage.csv_parse_mb_per_s"] = float64(len(csv)) / 1e6 / parse.Seconds()

	atl := filepath.Join(dir, "layer.atl")
	write := timeReps(reps, func() error { err = colstore.WriteFile(atl, t, chunkRows); return err })
	if err != nil {
		return nil, err
	}
	st, err := os.Stat(atl)
	if err != nil {
		return nil, err
	}
	out["colstore.write_mb_per_s"] = float64(st.Size()) / 1e6 / write.Seconds()

	eager := timeReps(reps, func() error {
		var s *colstore.Store
		if s, err = colstore.OpenWith(atl, colstore.Options{Mode: colstore.ModeEager}); err == nil {
			err = s.Close()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	out["colstore.open_eager_ms"] = ms(eager)

	lazy := timeReps(reps, func() error {
		var s *colstore.Store
		if s, err = colstore.OpenWith(atl, colstore.Options{Mode: colstore.ModeLazy}); err == nil {
			err = s.Close()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	out["colstore.open_lazy_us"] = ms(lazy) * 1000

	before := heapInUseKB()
	s, err := colstore.OpenWith(atl, colstore.Options{Mode: colstore.ModeLazy})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	out["colstore.retained_kb_after_open"] = max(heapInUseKB()-before, 0)

	// Every chunk of every column: fetch the stored bytes and decode.
	lt := s.Table()
	chunks := 0
	decode := timeReps(reps, func() error {
		chunks = 0
		for ci := 0; ci < lt.NumCols(); ci++ {
			dictLen := 0
			if d, ok := lt.Column(ci).(interface{ Cardinality() int }); ok && lt.Schema().Field(ci).Type == storage.String {
				dictLen = d.Cardinality()
			}
			for k := 0; k < s.NumChunks(); k++ {
				var raw []byte
				if raw, _, err = s.RawChunk(ci, k); err != nil {
					return err
				}
				rows := min(s.ChunkSize, lt.NumRows()-k*s.ChunkSize)
				if _, err = colstore.DecodeChunk(raw, lt.Schema().Field(ci), dictLen, rows, k, s.WireVersion()); err != nil {
					return err
				}
				chunks++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["colstore.decode_us_per_chunk"] = ms(decode) * 1000 / float64(chunks)

	manifest := filepath.Join(dir, "layer.atlm")
	sharded := timeReps(reps, func() error {
		_, err = shard.WriteSharded(manifest, t, shard.IngestOptions{Shards: shards, ChunkSize: chunkRows})
		return err
	})
	if err != nil {
		return nil, err
	}
	out["shard.write_rows_per_s"] = float64(t.NumRows()) / sharded.Seconds()

	lazyDeferred := shard.Options{Store: colstore.Options{Mode: colstore.ModeLazy, CacheBytes: -1}, Defer: true}
	deferred := timeReps(reps, func() error {
		var set *shard.Set
		if set, err = shard.OpenWith(manifest, lazyDeferred); err == nil {
			err = set.Close()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	out["shard.open_deferred_us"] = ms(deferred) * 1000

	set, err := shard.OpenWith(manifest, lazyDeferred)
	if err != nil {
		return nil, err
	}
	defer set.Close()
	partials := timeReps(reps, func() error { _, err = set.Partials(par); return err })
	if err != nil {
		return nil, err
	}
	out["shard.partials_ms"] = ms(partials)
	merge := timeReps(reps, func() error {
		_, _, err = set.Provider(par).NumericStats(context.Background(), "mag_g", core.DefaultCutOptions())
		return err
	})
	if err != nil {
		return nil, err
	}
	out["shard.stat_merge_ms"] = ms(merge)
	return out, nil
}

// timeReps runs fn reps times (stopping at its first error) and returns
// the median duration.
func timeReps(reps int, fn func() error) time.Duration {
	took := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if fn() != nil {
			break
		}
		took = append(took, float64(time.Since(start)))
	}
	return time.Duration(median(took))
}
