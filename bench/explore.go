package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	atlas "repro"
)

// exploreSpec is one of the three workloads that stream stateless
// explorations at one handle; they differ in how the table is held.
type exploreSpec struct {
	name      string
	stream    func(seed int64) *stream
	coldClass string // class of the first answer a cold cycle waits for
	build     func(cfg config, dir string) (*exploreEnv, error)
}

// exploreEnv is one built set-up: the data, ingested and served as the
// workload holds it, ready to be opened any number of times.
type exploreEnv struct {
	// sky is the in-memory table: lib_explore's own, and the reference
	// the other two holding modes must answer byte-identically to.
	sky  *atlas.Table
	open func(rec *recorder) (*exploreHandle, error)
	stop func()

	// store_lazy only: the CSV it ingested, what one ingest cycle took
	// and what it left on disk.
	csv       []byte
	ingest    time.Duration
	fileBytes int64
}

// exploreHandle is one opened way of holding the table.
type exploreHandle struct {
	explore  func(cql string) (*atlas.Result, error)
	pipeline func(par int) *pipeline
	close    func()
	// nil where the holding mode has no such layer
	ioStats      func() atlas.StoreIOStats
	openedShards func() (opened, total int)
	fabric       *fabric
	timer        *rpcTimer
	fleet        *shardFleet
}

var exploreSpecs = map[string]exploreSpec{
	"lib_explore":   {name: "lib_explore", stream: skyMixStream, coldClass: "full", build: buildLib},
	"store_lazy":    {name: "store_lazy", stream: skySlideStream, coldClass: "narrow", build: buildStoreLazy},
	"fabric_remote": {name: "fabric_remote", stream: skyMixStream, coldClass: "wide", build: buildFabric},
}

// buildLib holds the table in memory: cql, engine and core do all the
// work, the storage tiers none.
func buildLib(cfg config, _ string) (*exploreEnv, error) {
	sky := skyTable(cfg.sc.rows, cfg.seed)
	return &exploreEnv{sky: sky, stop: func() {}, open: func(*recorder) (*exploreHandle, error) {
		ex, err := atlas.New(sky, atlas.DefaultOptions())
		if err != nil {
			return nil, err
		}
		return &exploreHandle{
			explore:  ex.Explore,
			pipeline: func(par int) *pipeline { return newPipeline(sky, par, nil) },
			close:    func() {},
		}, nil
	}}, nil
}

// buildStoreLazy ingests the table CSV → .atl → 4-shard range manifest
// (the timed ingest cycle) and holds it as a lazy, deferred sharded store
// whose chunk cache is smaller than the table.
func buildStoreLazy(cfg config, dir string) (*exploreEnv, error) {
	sky := skyTable(cfg.sc.rows, cfg.seed)
	var csv bytes.Buffer
	if err := atlas.WriteCSV(sky, &csv); err != nil {
		return nil, err
	}
	env := &exploreEnv{sky: sky, csv: csv.Bytes(), stop: func() {}}
	atl, manifest := filepath.Join(dir, "sky.atl"), filepath.Join(dir, "sky.atlm")
	start := time.Now()
	loaded, err := atlas.LoadCSV("sky", bytes.NewReader(env.csv))
	if err == nil {
		err = saveStore(atl, loaded, cfg.sc.chunkRows)
	}
	if err == nil {
		err = atlas.SaveSharded(loaded, manifest, atlas.ShardIngestOptions{Shards: cfg.sc.shards, ChunkSize: cfg.sc.chunkRows})
	}
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	env.ingest = time.Since(start)
	files, err := filepath.Glob(filepath.Join(dir, "sky*"))
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		st, err := os.Stat(f)
		if err != nil {
			return nil, err
		}
		env.fileBytes += st.Size()
	}
	env.open = func(*recorder) (*exploreHandle, error) {
		st, err := atlas.OpenShardedWith(manifest, atlas.StoreOpenOptions{Lazy: true, Defer: true, CacheBytes: cfg.sc.chunkCacheBytes()})
		if err != nil {
			return nil, err
		}
		ex, err := atlas.NewSharded(st, atlas.DefaultOptions())
		if err != nil {
			st.Close()
			return nil, err
		}
		return &exploreHandle{
			explore:      ex.Explore,
			pipeline:     func(par int) *pipeline { return newPipeline(st.Table(), par, nil) },
			close:        func() { st.Close() },
			ioStats:      st.IOStats,
			openedShards: func() (int, int) { return st.OpenedShards(), st.NumShards() },
		}, nil
	}
	return env, nil
}

// buildFabric writes the same 4 shard files and serves each from its own
// in-process fabric server on loopback; the coordinator opens the remote
// manifest with the same undersized chunk cache as store_lazy, so chunk
// and statistics RPCs stay on the path after warm-up.
func buildFabric(cfg config, dir string) (*exploreEnv, error) {
	sky := skyTable(cfg.sc.rows, cfg.seed)
	manifest, remoteManifest := filepath.Join(dir, "sky.atlm"), filepath.Join(dir, "sky.remote.atlm")
	if err := atlas.SaveSharded(sky, manifest, atlas.ShardIngestOptions{Shards: cfg.sc.shards, ChunkSize: cfg.sc.chunkRows}); err != nil {
		return nil, err
	}
	fleet, err := startShardFleet(manifest, remoteManifest)
	if err != nil {
		return nil, err
	}
	env := &exploreEnv{sky: sky, stop: fleet.stop}
	env.open = func(rec *recorder) (*exploreHandle, error) {
		// The timing transport is on in both modes so that both run the
		// same client; only the traced run files its RPCs as spans.
		timer := newRPCTimer(rec)
		fb, err := openFabric(remoteManifest, cfg.sc.chunkCacheBytes(), timer)
		if err != nil {
			return nil, err
		}
		return &exploreHandle{
			explore:      fb.explore,
			pipeline:     fb.pipeline,
			close:        func() { fb.close(); timer.closeIdle() },
			ioStats:      fb.set.IOStats,
			openedShards: func() (int, int) { return fb.set.OpenedShards(), fb.set.NumShards() },
			fabric:       fb,
			timer:        timer,
			fleet:        fleet,
		}, nil
	}
	return env, nil
}

// coldOps are the first questions of the cold cycles: one per cycle, all
// of the workload's cold class, each a different band.
func coldOps(seed int64, class string, n int) []string {
	rnd := rand.New(rand.NewSource(seed ^ 0xc01d))
	out := make([]string, n)
	for i := range out {
		out[i] = "EXPLORE sky"
		if class != "full" {
			out[i] = skyBand("ra", classFraction[class], rnd.Float64())
		}
	}
	return out
}

// setUp builds the workload's data, opens it and warms it up.
func (spec exploreSpec) setUp(cfg config, rep int, rec *recorder) (*exploreEnv, *exploreHandle, error) {
	dir := filepath.Join(cfg.tmp, fmt.Sprintf("setup%d", rep))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	env, err := spec.build(cfg, dir)
	if err != nil {
		return nil, nil, err
	}
	h, err := env.open(rec)
	if err != nil {
		env.stop()
		return nil, nil, err
	}
	for _, op := range warmupOps(cfg.seed, cfg.sc.warmup) {
		if _, err := h.explore(op.CQL); err != nil {
			h.close()
			env.stop()
			return nil, nil, fmt.Errorf("warm-up %q: %w", op.CQL, err)
		}
	}
	return env, h, nil
}

// run is the measured (untraced) run: set-up several times, cold
// cycles, then one client in a closed loop for cfg.seconds, then the
// correctness check.
func (spec exploreSpec) run(cfg config) (*result, error) {
	res := newResult(spec.name)
	var (
		env *exploreEnv
		h   *exploreHandle
	)
	tearDown := func() { h.close(); env.stop() }
	setupS, err := repeatSetUp(cfg.sc.setupReps, func(rep int) (err error) {
		env, h, err = spec.setUp(cfg, rep, nil)
		return err
	}, tearDown)
	if err != nil {
		return nil, err
	}
	defer tearDown()
	res.setN("setup_s", setupS, cfg.sc.setupReps)

	firstOps := coldOps(cfg.seed, spec.coldClass, maxColdCycles)
	cold, err := coldCycles(cfg.sc, func(i int) (func(), error) {
		hc, err := env.open(nil)
		if err != nil {
			return nil, err
		}
		_, err = hc.explore(firstOps[i])
		return hc.close, err
	})
	if err != nil {
		return nil, err
	}
	res.setN("cold_first_ms", median(cold), len(cold))

	st := spec.stream(cfg.seed)
	p := measure(func() []sample {
		return closedLoop(cfg.duration(), func(i int) (string, error) {
			r, err := h.explore(st.at(i).CQL)
			if err != nil {
				return "", err
			}
			return digestResult(r), nil
		})
	})
	res.endToEnd(p)
	if err := verifyExplore(cfg, res, env.sky, st, p.samples); err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", peakRSSMB())
	return res, nil
}

// serialExplorer is the reference path: the in-memory table explored
// with Parallelism = 1.
func serialExplorer(t *atlas.Table) (*atlas.Explorer, error) {
	opts := atlas.DefaultOptions()
	opts.Parallelism = 1
	return atlas.New(t, opts)
}

// verifyExplore checks the measured answers: every op of -seed 1 against
// the committed digests, and with any seed a spread-out subsample against
// a serial pass over the in-memory table. A mismatch is a failed op.
func verifyExplore(cfg config, res *result, sky *atlas.Table, st *stream, samples []sample) error {
	res.Attempted = len(samples)
	bad := map[int]string{}
	for _, s := range samples {
		if s.digest == "" {
			bad[s.idx] = "returned an error"
		}
	}
	g, err := loadGolden(cfg)
	if err != nil {
		return err
	}
	if g != nil {
		want := g.Streams[st.name]
		for _, s := range samples {
			if s.idx < len(want) && s.digest != want[s.idx] && bad[s.idx] == "" {
				bad[s.idx] = fmt.Sprintf("digest %s, committed %s", s.digest, want[s.idx])
			}
		}
	}
	ref, err := serialExplorer(sky)
	if err != nil {
		return err
	}
	for _, k := range spaced(len(samples), cfg.sc.verifyOps) {
		s := samples[k]
		r, err := ref.Explore(st.at(s.idx).CQL)
		if err != nil {
			return fmt.Errorf("reference %q: %w", st.at(s.idx).CQL, err)
		}
		if d := digestResult(r); d != s.digest && bad[s.idx] == "" {
			bad[s.idx] = fmt.Sprintf("digest %s, in-memory reference %s", s.digest, d)
		}
	}
	res.failAll(bad, func(i int) string { return fmt.Sprintf("op %d %q", i, st.at(i).CQL) })
	res.Correct = res.Failed == 0
	return nil
}

// pickProbeOps chooses n stream positions among the first horizon ops,
// stratified: each class gets its share of n, spread over the horizon.
func pickProbeOps(st *stream, n, horizon int) []int {
	byClass := map[string][]int{}
	for i := 0; i < horizon; i++ {
		c := st.at(i).Class
		byClass[c] = append(byClass[c], i)
	}
	var picks []int
	for _, members := range byClass {
		quota := (n*len(members) + horizon/2) / horizon
		for _, k := range spaced(len(members), max(quota, 1)) {
			picks = append(picks, members[k])
		}
	}
	sort.Ints(picks)
	return picks
}

// trace is the probe run: the same stream's stratified subsample, first
// through the workload's own handle untimed by anything but a clock
// (which gives the per-op I/O and RPC counts), then through the
// decomposed pipeline with spans.
func (spec exploreSpec) trace(cfg config) (*result, error) {
	res := newResult(spec.name)
	rec := newRecorder()
	env, h, err := spec.setUp(cfg, 0, rec)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() { h.close(); env.stop() }()
	st := spec.stream(cfg.seed)
	picks := pickProbeOps(st, cfg.sc.probeOps, 5*cfg.sc.probeOps)
	nOps := float64(len(picks))

	// Untraced pass: the workload's own handle, counters read around it.
	var io0 atlas.StoreIOStats
	if h.ioStats != nil {
		io0 = h.ioStats()
	}
	var rpc0 []float64
	var wire0, busy0, stat0, chunk0 int64
	if h.timer != nil {
		rpc0, wire0 = h.timer.snapshot()
		busy0, stat0, chunk0 = h.fleet.mw.busyNs.Load(), h.fleet.mw.statRPCs.Load(), h.fleet.mw.chunkRPCs.Load()
	}
	for _, i := range picks {
		_, err := h.explore(st.at(i).CQL)
		res.Attempted++
		if err != nil {
			res.fail("op %d %q: %v", i, st.at(i).CQL, err)
		}
	}
	if h.ioStats != nil {
		io1 := h.ioStats()
		res.set("colstore.bytes_read_per_op", float64(io1.BytesRead-io0.BytesRead)/nOps)
		res.set("colstore.chunks_decoded_per_op", float64(io1.ChunksDecoded-io0.ChunksDecoded)/nOps)
		res.set("colstore.cache_evictions_per_op", float64(io1.CacheEvictions-io0.CacheEvictions)/nOps)
		if looked := (io1.CacheHits - io0.CacheHits) + (io1.ChunksDecoded - io0.ChunksDecoded); looked > 0 {
			res.set("colstore.cache_hit_ratio", float64(io1.CacheHits-io0.CacheHits)/float64(looked))
		}
	}
	if h.timer != nil {
		rpc1, wire1 := h.timer.snapshot()
		durs := sortedCopy(rpc1[len(rpc0):])
		res.setN("remote.rpcs_per_op", float64(len(durs))/nOps, len(durs))
		res.set("remote.bytes_wire_per_op", float64(wire1-wire0)/nOps)
		res.setN("remote.rpc_p50_us", percentile(durs, 50), len(durs))
		res.setN("remote.rpc_p95_us", percentile(durs, 95), len(durs))
		res.set("remote.rpc_ms_per_op", sum(durs)/1000/nOps)
		mw := h.fleet.mw
		res.set("remote.server_busy_ms_per_op", float64(mw.busyNs.Load()-busy0)/1e6/nOps)
		res.set("remote.stat_rpcs_per_op", float64(mw.statRPCs.Load()-stat0)/nOps)
		res.set("remote.chunk_rpcs_per_op", float64(mw.chunkRPCs.Load()-chunk0)/nOps)
		fs := h.fabric.opener.Stats()
		res.set("remote.retries", float64(fs.Retries))
		res.set("remote.failovers", float64(fs.Failovers))
	}
	if h.openedShards != nil {
		// A fresh deferred handle and one narrow op: how many shard files
		// did it have to open?
		hc, err := env.open(nil)
		if err != nil {
			return nil, err
		}
		_, err = hc.explore(coldOps(cfg.seed, "narrow", 1)[0])
		opened, total := hc.openedShards()
		hc.close()
		if err != nil {
			return nil, err
		}
		res.set("shard.opened_shards_ratio", float64(opened)/float64(total))
	}

	// Probe pass: the decomposed pipeline over what the handle explores.
	pl := h.pipeline(cfg.par)
	tf := traceFile{Workload: spec.name, Seed: cfg.seed}
	for k, i := range picks {
		op := st.at(i)
		tf.Ops = append(tf.Ops, probeOpInfo{Op: k, Class: op.Class, CQL: op.CQL})
		if err := pl.probeOp(rec, k, op.CQL); err != nil {
			res.fail("probe op %d: %v", i, err)
		}
	}
	res.layerMetrics(rec, pl)
	if v, err := pl.statCacheSpeedup(); err != nil {
		return nil, err
	} else {
		res.set("core.statcache_speedup", v)
	}

	if env.csv != nil {
		reps := max(cfg.sc.setupReps, 1)
		layers, err := storeLayerMetrics(cfg.tmp, env.csv, cfg.sc.chunkRows, cfg.sc.shards, reps, cfg.par)
		if err != nil {
			return nil, fmt.Errorf("store layers: %w", err)
		}
		for name, v := range layers {
			res.set(name, v)
		}
		res.set("ingest_rows_per_s", float64(cfg.sc.rows)/env.ingest.Seconds())
		res.set("file_bytes_per_row", float64(env.fileBytes)/float64(cfg.sc.rows))
		if tot := res.Info["probe_op_ms"]; tot > 0 {
			res.Info["share.colstore_est"] = res.Metrics["colstore.chunks_decoded_per_op"].Value * res.Metrics["colstore.decode_us_per_chunk"].Value / 1000 / tot
		}
	}
	res.finishTrace(cfg, rec, tf)
	return res, nil
}

// finishTrace closes a traced run: fail ratio, zero-filled layers, trace
// file.
func (r *result) finishTrace(cfg config, rec *recorder, tf traceFile) {
	r.set("fail_ratio", float64(r.Failed)/float64(max(r.Attempted, 1)))
	r.zeroFill()
	r.Correct = r.Failed == 0
	if cfg.traceOut != "" {
		tf.Spans = rec.snapshot()
		if err := writeTrace(cfg.traceOut, tf); err != nil {
			r.Notes = append(r.Notes, "trace file: "+err.Error())
		}
	}
}

// layerMetrics reduces the probe's spans to one number per layer call:
// the median over ops of the summed self time of that call's spans.
func (r *result) layerMetrics(rec *recorder, pl *pipeline) {
	spans := rec.snapshot()
	self := selfTimes(spans)
	perOp := func(name string) map[int]float64 { return spanMsPerOp(spans, self, name) }
	med := func(m map[int]float64) (float64, int) {
		v := make([]float64, 0, len(m))
		for _, x := range m {
			v = append(v, x)
		}
		return median(v), len(v)
	}
	byName := map[string]map[int]float64{}
	for metricName, spanName := range map[string]string{
		"engine.base_scan_ms": "engine.base_scan", "engine.extract_ms": "engine.extract", "engine.partition_ms": "engine.partition",
		"core.screen_ms": "core.screen", "core.cut_ms": "core.cut", "core.distance_ms": "core.distance",
		"core.cluster_ms": "core.cluster", "core.merge_ms": "core.merge", "core.rank_ms": "core.rank",
		"core.explore_ms": "core.explore",
	} {
		byName[spanName] = perOp(spanName)
		v, n := med(byName[spanName])
		r.setN(metricName, v, n)
	}
	parse, n := med(perOp("cql.parse"))
	r.setN("cql.parse_us", parse*1000, n)

	// What ExploreSel spends that none of the exported parts accounts for
	// (buildMapFromBits, fan-out bookkeeping), op by op. Both sides count
	// whole spans, RPC waits included.
	unattributed := map[int]float64{}
	for op, whole := range byName["core.explore"] {
		unattributed[op] = whole
	}
	for _, s := range spans {
		switch s.Name {
		case "core.screen", "core.cut", "engine.partition", "core.distance", "core.cluster", "core.merge", "core.rank":
			unattributed[s.Op] -= float64(s.End-s.Start) / 1e6
		}
	}
	v, n := med(unattributed)
	r.setN("core.unattributed_ms", v, n)

	var serial, parallel, probe float64
	for _, x := range byName["core.explore"] {
		serial += x
	}
	for _, x := range perOp("core.explore_par") {
		parallel += x
	}
	roots := 0
	for _, s := range spans {
		if s.Name == "op" {
			probe += float64(s.End-s.Start) / 1e6
			roots++
		}
	}
	if parallel > 0 {
		r.set("core.parallel_speedup", serial/parallel)
	}
	// The probe's whole-op time against the program's own serial pipeline
	// on the same ops, which ran untraced beside it: what decomposing the
	// pipeline and recording spans costs.
	untraced := serial
	for _, name := range []string{"cql.parse", "engine.base_scan"} {
		for _, x := range perOp(name) {
			untraced += x
		}
	}
	if untraced > 0 {
		r.set("trace_overhead_pct", (probe-untraced)/untraced*100)
	}
	scanned, pruned, full := pl.scanCounts()
	r.set("engine.chunks_scanned", float64(scanned))
	r.set("engine.chunks_pruned", float64(pruned))
	r.set("engine.chunks_full", float64(full))
	if verdicts := scanned + pruned + full; verdicts > 0 {
		r.set("engine.prune_ratio", float64(pruned+full)/float64(verdicts))
	}

	// Layer shares of the probe's whole-op time, for the reader.
	if probe > 0 {
		r.Info["probe_op_ms"] = probe / float64(roots)
		byLayer := map[string]float64{}
		for i, s := range spans {
			if s.Aux || (s.Parent >= 0 && spans[s.Parent].Aux) {
				continue
			}
			layer, _, _ := strings.Cut(s.Name, ".")
			byLayer[layer] += float64(self[i]) / 1e6
		}
		for layer, t := range byLayer {
			r.Info["share."+layer] = t / probe
		}
	}
}
