// Command atlasbench regenerates the paper's figures and claims as
// printed experiments (see DESIGN.md for the experiment index and
// EXPERIMENTS.md for recorded results), and can emit machine-readable
// micro-benchmark results for tracking the performance trajectory
// across PRs.
//
// Usage:
//
//	atlasbench -list
//	atlasbench -exp E1,E4
//	atlasbench -all [-quick]
//	atlasbench -benchjson BENCH_1.json [-quick]
//	atlasbench -overloadjson BENCH_9.json [-quick]
//	atlasbench -workloadjson BENCH_10.json [-quick]
//	atlasbench -replay workload.jsonl -target http://localhost:8080 [-pacing open] [-slo-strict]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/obsv"
	"repro/internal/query"
	"repro/internal/remote"
	"repro/internal/remote/chaos"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/storage"
)

func main() {
	var (
		list         = flag.Bool("list", false, "list available experiments")
		ids          = flag.String("exp", "", "comma-separated experiment ids to run (e.g. E1,E4)")
		all          = flag.Bool("all", false, "run every experiment")
		quick        = flag.Bool("quick", false, "reduced input sizes")
		benchJSON    = flag.String("benchjson", "", "write pipeline micro-benchmark results to this JSON file (name → ns/op, allocs/op)")
		overloadJSON = flag.String("overloadjson", "", "run the admission-control overload scenario and write its results to this JSON file")

		// Workload replay (see README "Workload capture & replay").
		workloadJSON = flag.String("workloadjson", "", "run the synthetic 32-session zipf workload scenario and write its results to this JSON file")
		replayF      = flag.String("replay", "", "replay a recorded workload file (atlasd -record-workload / GET /api/workload), verify byte-identity against a sequential reference pass, and score it")
		target       = flag.String("target", "", "base URL of the running atlasd -replay drives (default: an in-process census server)")
		pacing       = flag.String("pacing", "closed", "-replay pacing: closed (back-to-back per session) or open (recorded arrival schedule)")
		speed        = flag.Float64("speed", 1, "-replay open-loop speedup over the recorded schedule")
		sloStrict    = flag.Bool("slo-strict", false, "-replay: exit non-zero on SLO violations instead of warning")
	)
	flag.Parse()

	if *replayF != "" {
		cfg := replayConfig{Target: *target, Pacing: *pacing, Speed: *speed, SLOStrict: *sloStrict, SLO: defaultSLO()}
		if err := runReplay(*replayF, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "atlasbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *workloadJSON != "" {
		if err := writeWorkloadJSON(*workloadJSON, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "atlasbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		fmt.Printf("%-5s %-55s %s\n", "id", "title", "paper artifact")
		for _, e := range exp.All() {
			fmt.Printf("%-5s %-55s %s\n", e.ID, e.Title, e.Artifact)
		}
		return
	}

	if *benchJSON != "" {
		if err := writeBenchJSON(*benchJSON, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "atlasbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *overloadJSON != "" {
		if err := writeOverloadJSON(*overloadJSON, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "atlasbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var todo []exp.Experiment
	switch {
	case *all:
		todo = exp.All()
	case *ids != "":
		for _, id := range strings.Split(*ids, ",") {
			id = strings.TrimSpace(id)
			e, ok := exp.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "atlasbench: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			todo = append(todo, e)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	failed := 0
	for _, e := range todo {
		fmt.Printf("\n######## %s — %s (%s) ########\n", e.ID, e.Title, e.Artifact)
		start := time.Now()
		if err := e.Run(os.Stdout, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "atlasbench: %s failed: %v\n", e.ID, err)
			failed++
			continue
		}
		fmt.Printf("(%s completed in %v)\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// startShardServers serves every shard file of a local manifest from
// its own in-process fabric server and writes the rewritten coordinator
// manifest to outPath — the remote-deployment shape with the network
// taken out of the measurement.
func startShardServers(manifestPath, outPath string) (string, func(), error) {
	m, err := shard.ReadManifest(manifestPath)
	if err != nil {
		return "", nil, err
	}
	dir := filepath.Dir(manifestPath)
	var closers []func()
	stop := func() {
		for _, c := range closers {
			c()
		}
	}
	urls := make([]string, len(m.Shards))
	for i, sf := range m.Shards {
		st, err := colstore.OpenWith(filepath.Join(dir, sf.File), colstore.Options{Mode: colstore.ModeLazy})
		if err != nil {
			stop()
			return "", nil, err
		}
		ts := httptest.NewServer(remote.NewServer(st).Handler())
		closers = append(closers, func() { ts.Close(); st.Close() })
		urls[i] = ts.URL
	}
	rm, err := shard.RemoteManifest(m, urls)
	if err != nil {
		stop()
		return "", nil, err
	}
	if err := shard.WriteManifestFile(outPath, rm); err != nil {
		stop()
		return "", nil, err
	}
	return outPath, stop, nil
}

// startReplicatedShardServers is startShardServers with `replicas`
// chaos-wrapped servers per shard — the failover scenario's fabric.
// The injectors come back as [shard][replica] so a scenario can script
// faults mid-run.
func startReplicatedShardServers(manifestPath, outPath string, replicas int) (string, [][]*chaos.Injector, func(), error) {
	m, err := shard.ReadManifest(manifestPath)
	if err != nil {
		return "", nil, nil, err
	}
	dir := filepath.Dir(manifestPath)
	var closers []func()
	stop := func() {
		for _, c := range closers {
			c()
		}
	}
	entries := make([]string, len(m.Shards))
	var injectors [][]*chaos.Injector
	for i, sf := range m.Shards {
		var urls []string
		var injs []*chaos.Injector
		for r := 0; r < replicas; r++ {
			st, err := colstore.OpenWith(filepath.Join(dir, sf.File), colstore.Options{Mode: colstore.ModeLazy})
			if err != nil {
				stop()
				return "", nil, nil, err
			}
			in := chaos.Wrap(remote.NewServer(st).Handler())
			ts := httptest.NewServer(in)
			closers = append(closers, func() { ts.Close(); st.Close() })
			urls = append(urls, ts.URL)
			injs = append(injs, in)
		}
		entries[i] = strings.Join(urls, "|")
		injectors = append(injectors, injs)
	}
	rm, err := shard.RemoteManifest(m, entries)
	if err != nil {
		stop()
		return "", nil, nil, err
	}
	if err := shard.WriteManifestFile(outPath, rm); err != nil {
		stop()
		return "", nil, nil, err
	}
	return outPath, injectors, stop, nil
}

// renderForCompare flattens a Result into a deterministic string
// (everything except timing) — the failover scenario's byte-identity
// yardstick.
func renderForCompare(r *core.Result) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s | base=%d/%d\n", r.Input.String(), r.BaseCount, r.TotalRows)
	for _, f := range r.Flagged {
		fmt.Fprintf(&b, "flag %s %s\n", f.Attr, f.Reason)
	}
	for _, m := range r.Maps {
		b.WriteString(m.String())
	}
	return b.String()
}

// benchRecord is one benchmark's machine-readable result. Metrics
// carries scenario-specific counters (bytes read, chunks decoded,
// retained heap) alongside the timing.
type benchRecord struct {
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Iterations  int                `json:"iterations"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// retainedHeap runs fn, then reports the live-heap growth it retained
// (post-GC), plus whatever fn returns to keep alive.
func retainedHeap(fn func() any) (any, float64) {
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	v := fn()
	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	d := float64(m1.HeapAlloc) - float64(m0.HeapAlloc)
	if d < 0 {
		d = 0
	}
	return v, d
}

// writeBenchJSON runs the pipeline micro-benchmarks via testing.Benchmark
// and writes {name: {ns_per_op, allocs_per_op, bytes_per_op}} to path, so
// the perf trajectory can be tracked mechanically across PRs.
func writeBenchJSON(path string, quick bool) error {
	n := 1_000_000
	if quick {
		n = 100_000
	}
	tbl := datagen.Census(n, 1)
	q := query.New("census")

	exploreBench := func(parallelism int) func(b *testing.B) {
		return func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Parallelism = parallelism
			cart, err := core.NewCartographer(tbl, opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cart.Explore(q); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	results := map[string]benchRecord{}
	run := func(name string, fn func(b *testing.B)) {
		fmt.Printf("benchmarking %s ...\n", name)
		r := testing.Benchmark(fn)
		results[name] = benchRecord{
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
		}
	}
	addMetrics := func(name string, metrics map[string]float64) {
		rec := results[name]
		if rec.Metrics == nil {
			rec.Metrics = map[string]float64{}
		}
		for k, v := range metrics {
			rec.Metrics[k] = v
		}
		results[name] = rec
	}
	run(fmt.Sprintf("Explore/census_n=%d/parallel", n), exploreBench(0))
	run(fmt.Sprintf("Explore/census_n=%d/serial", n), exploreBench(1))

	// Cold start: opening the columnar store vs re-parsing CSV, on the
	// same scenarios as the repo-root micro-benchmarks.
	tmp, err := os.MkdirTemp("", "atlasbench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	storePath, csvData, err := exp.ColdStartInputs(n, 1, tmp)
	if err != nil {
		return err
	}
	run(fmt.Sprintf("StoreOpen/census_n=%d", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := colstore.Open(storePath)
			if err != nil {
				b.Fatal(err)
			}
			if s.Table().NumRows() != n {
				b.Fatal("short read")
			}
		}
	})
	run(fmt.Sprintf("CSVParse/census_n=%d", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t, err := storage.ReadCSV("census", bytes.NewReader(csvData), nil)
			if err != nil {
				b.Fatal(err)
			}
			if t.NumRows() != n {
				b.Fatal("short read")
			}
		}
	})

	// Lazy cold open: header + directory only, no chunk decodes. The
	// retained-heap metrics make the memory-tier contrast visible next
	// to the eager open.
	run(fmt.Sprintf("ColdOpenLazy/census_n=%d", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := colstore.OpenWith(storePath, colstore.Options{Mode: colstore.ModeLazy})
			if err != nil {
				b.Fatal(err)
			}
			if s.Table().NumRows() != n {
				b.Fatal("short open")
			}
			s.Close()
		}
	})
	{
		sAny, lazyRetained := retainedHeap(func() any {
			s, err := colstore.OpenWith(storePath, colstore.Options{Mode: colstore.ModeLazy})
			if err != nil {
				return err
			}
			return s
		})
		lazyIO := map[string]float64{"retained_bytes": lazyRetained}
		if s, ok := sAny.(*colstore.Store); ok {
			io := s.IOStats()
			lazyIO["chunks_decoded_at_open"] = float64(io.ChunksDecoded)
			lazyIO["bytes_read_at_open"] = float64(io.BytesRead)
			s.Close()
		}
		addMetrics(fmt.Sprintf("ColdOpenLazy/census_n=%d", n), lazyIO)
		eAny, eagerRetained := retainedHeap(func() any {
			s, err := colstore.OpenWith(storePath, colstore.Options{Mode: colstore.ModeEager})
			if err != nil {
				return err
			}
			return s
		})
		_ = eAny
		addMetrics(fmt.Sprintf("StoreOpen/census_n=%d", n), map[string]float64{"retained_bytes": eagerRetained})
	}

	// Sharded Explore: the same census table as a sharded store at
	// several shard counts. Cold explorations (fresh cut memo per
	// iteration) exercise the per-shard statistics fan-out;
	// shards=1 runs the identical code path on a single file, so the
	// single-file baseline and the sharded scenario are directly
	// comparable. Scaling with shard count needs multiple cores.
	shardCounts := []int{1, 2, 4}
	if quick {
		shardCounts = []int{1, 2}
	}
	for _, shards := range shardCounts {
		manifest, err := exp.ShardedInputs(tbl, shards, tmp)
		if err != nil {
			return err
		}
		set, err := shard.Open(manifest)
		if err != nil {
			return err
		}
		run(fmt.Sprintf("ShardedOpen/census_n=%d/shards=%d", n, shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := shard.Open(manifest)
				if err != nil {
					b.Fatal(err)
				}
				if s.Table().NumRows() != n {
					b.Fatal("short open")
				}
			}
		})
		run(fmt.Sprintf("ShardedExploreCold/census_n=%d/shards=%d", n, shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cart, err := core.NewCartographerWith(set.Table(), core.DefaultOptions(), set.Provider(0))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := cart.Explore(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// Sharded open memory contrast: the lazy-view assembly holds no
	// concatenated copy (the old 2× transient is gone); with lazy shard
	// files even the column decode is deferred.
	{
		shards := shardCounts[len(shardCounts)-1]
		manifest, err := exp.ShardedInputs(tbl, shards, tmp)
		if err != nil {
			return err
		}
		for _, mode := range []struct {
			name string
			o    shard.Options
		}{
			{"eagerfiles", shard.Options{Store: colstore.Options{Mode: colstore.ModeEager}}},
			{"lazyfiles", shard.Options{Store: colstore.Options{Mode: colstore.ModeLazy}}},
		} {
			sAny, retained := retainedHeap(func() any {
				s, err := shard.OpenWith(manifest, mode.o)
				if err != nil {
					return err
				}
				return s
			})
			name := fmt.Sprintf("ShardedOpen/census_n=%d/shards=%d/%s", n, shards, mode.name)
			run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s, err := shard.OpenWith(manifest, mode.o)
					if err != nil {
						b.Fatal(err)
					}
					if s.Table().NumRows() != n {
						b.Fatal("short open")
					}
					s.Close()
				}
			})
			addMetrics(name, map[string]float64{"retained_bytes": retained})
			if s, ok := sAny.(*shard.Set); ok {
				s.Close()
			}
		}
	}

	// Selective exploration over a deferred sharded store: manifest
	// statistics skip whole shard files, zone maps skip chunks inside
	// the touched one, and the chunk counters record how much of the
	// data was ever decoded.
	{
		manifest, sq, totalChunks, err := exp.LazySelectiveInputs(n, 4, tmp)
		if err != nil {
			return err
		}
		set, err := shard.OpenWith(manifest, shard.Options{
			Store: colstore.Options{Mode: colstore.ModeLazy},
			Defer: true,
		})
		if err != nil {
			return err
		}
		name := fmt.Sprintf("LazyExploreSelective/events_n=%d/shards=4/deferred", n)
		run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cart, err := core.NewCartographer(set.Table(), core.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := cart.Explore(sq); err != nil {
					b.Fatal(err)
				}
			}
		})
		io := set.IOStats()
		addMetrics(name, map[string]float64{
			"chunks_decoded": float64(io.ChunksDecoded),
			"total_chunks":   float64(totalChunks),
			"bytes_read":     float64(io.BytesRead),
			"opened_shards":  float64(set.OpenedShards()),
			"shards":         4,
		})
		set.Close()
	}

	// Remote shard fabric: the same sharded census store with every
	// shard served by its own in-process fabric server (httptest), so
	// the scenario measures the RPC fan-out and wire transfer without
	// network noise. RemoteExploreCold is the full exploration (stats
	// plane fan-out + chunk plane for partitioning); the metrics record
	// one cold exploration's RPC count and bytes over the wire.
	{
		shards := shardCounts[len(shardCounts)-1]
		manifest, err := exp.ShardedInputs(tbl, shards, tmp)
		if err != nil {
			return err
		}
		remoteManifest, stop, err := startShardServers(manifest, filepath.Join(tmp, "remote_census.atlm"))
		if err != nil {
			return err
		}
		opener := remote.NewOpener(remote.Options{})
		set, err := shard.OpenWith(remoteManifest, shard.Options{Remote: opener})
		if err != nil {
			stop()
			return err
		}
		name := fmt.Sprintf("RemoteExploreCold/census_n=%d/shards=%d", n, shards)
		run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cart, err := core.NewCartographerWith(set.Table(), core.DefaultOptions(), set.Provider(0))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := cart.Explore(q); err != nil {
					b.Fatal(err)
				}
			}
		})
		set.Close()
		// One fresh cold exploration on its own opener, so the counters
		// mean "RPCs and bytes of one exploration", not b.N of them.
		coldOpener := remote.NewOpener(remote.Options{})
		coldSet, err := shard.OpenWith(remoteManifest, shard.Options{Remote: coldOpener})
		if err != nil {
			stop()
			return err
		}
		cart, err := core.NewCartographerWith(coldSet.Table(), core.DefaultOptions(), coldSet.Provider(0))
		if err != nil {
			stop()
			return err
		}
		if _, err := cart.Explore(q); err != nil {
			stop()
			return err
		}
		st := coldOpener.Stats()
		addMetrics(name, map[string]float64{
			"rpc_count":      float64(st.RPCs),
			"bytes_wire":     float64(st.BytesIn),
			"chunks_fetched": float64(st.ChunkFetches),
			"retries":        float64(st.Retries),
			"shards":         float64(shards),
		})
		coldSet.Close()
		stop()
	}

	// Tracing overhead and phase breakdown: the same remote cold
	// exploration untraced vs under a full span trace, interleaved
	// min-of-N one-shot runs so scheduler drift cancels out. The traced
	// run pays for span allocation, wire headers, and the shard servers'
	// response buffering; the budget is 3% over the untraced run — the
	// observability layer must not tax the query path it measures. One
	// traced run's tree also yields the per-phase wall-clock (base /
	// screen / cut / cluster / merge / rank, plus total RPC time)
	// recorded in the metrics.
	{
		shards := shardCounts[len(shardCounts)-1]
		manifest, err := exp.ShardedInputs(tbl, shards, tmp)
		if err != nil {
			return err
		}
		remoteManifest, stop, err := startShardServers(manifest, filepath.Join(tmp, "traced_census.atlm"))
		if err != nil {
			return err
		}
		// Every run opens its own fabric client, so the stats plane and
		// the chunk plane actually cross the wire each time — a warm set
		// would serve both from client caches and measure nothing.
		coldExplore := func(ctx context.Context) error {
			set, err := shard.OpenWith(remoteManifest, shard.Options{Remote: remote.NewOpener(remote.Options{})})
			if err != nil {
				return err
			}
			defer set.Close()
			cart, err := core.NewCartographerWith(set.Table(), core.DefaultOptions(), set.Provider(0))
			if err != nil {
				return err
			}
			_, err = cart.ExploreCtx(ctx, q)
			return err
		}
		// One untimed warmup pair settles page cache and connection pools.
		if err := coldExplore(context.Background()); err != nil {
			stop()
			return err
		}
		{
			tr, root := obsv.NewTrace("explore")
			err := coldExplore(obsv.WithSpan(context.Background(), root))
			root.End()
			_ = tr
			if err != nil {
				stop()
				return err
			}
		}
		const rounds = 7
		minUntraced, minTraced := time.Duration(0), time.Duration(0)
		for i := 0; i < rounds; i++ {
			start := time.Now()
			if err := coldExplore(context.Background()); err != nil {
				stop()
				return err
			}
			if d := time.Since(start); minUntraced == 0 || d < minUntraced {
				minUntraced = d
			}
			tr, root := obsv.NewTrace("explore")
			start = time.Now()
			err := coldExplore(obsv.WithSpan(context.Background(), root))
			root.End()
			_ = tr
			if err != nil {
				stop()
				return err
			}
			if d := time.Since(start); minTraced == 0 || d < minTraced {
				minTraced = d
			}
		}
		overheadPct := (float64(minTraced)/float64(minUntraced) - 1) * 100
		if overheadPct < 0 {
			overheadPct = 0
		}

		// One more traced run for the breakdown tree.
		tr, root := obsv.NewTrace("explore")
		if err := coldExplore(obsv.WithSpan(context.Background(), root)); err != nil {
			stop()
			return err
		}
		root.End()
		tree := tr.Tree()
		phaseNs := map[string]float64{}
		spans := 0
		var walk func(sp *obsv.SpanJSON)
		walk = func(sp *obsv.SpanJSON) {
			spans++
			switch {
			case sp.Name == "base", sp.Name == "screen", sp.Name == "cut",
				sp.Name == "cluster", sp.Name == "merge", sp.Name == "rank":
				phaseNs[sp.Name] += float64(sp.DurNs)
			case strings.HasPrefix(sp.Name, "rpc "):
				phaseNs["rpc"] += float64(sp.DurNs)
			}
			for _, c := range sp.Children {
				walk(c)
			}
		}
		walk(tree)
		if phaseNs["rpc"] == 0 {
			stop()
			return fmt.Errorf("traced remote exploration recorded no rpc spans")
		}
		metrics := map[string]float64{
			"untraced_ms":  float64(minUntraced.Nanoseconds()) / 1e6,
			"traced_ms":    float64(minTraced.Nanoseconds()) / 1e6,
			"overhead_pct": overheadPct,
			"trace_spans":  float64(spans),
			"shards":       float64(shards),
		}
		for name, ns := range phaseNs {
			metrics[name+"_ms"] = ns / 1e6
		}
		name := fmt.Sprintf("RemoteExploreCold/census_n=%d/shards=%d/traced", n, shards)
		results[name] = benchRecord{
			NsPerOp:    float64(minTraced.Nanoseconds()),
			Iterations: rounds,
			Metrics:    metrics,
		}
		fmt.Printf("benchmarking %s ... untraced=%v traced=%v overhead=%.2f%% spans=%d\n",
			name, minUntraced.Round(time.Millisecond), minTraced.Round(time.Millisecond), overheadPct, spans)
		stop()
		// The 3%% budget is asserted at full scale only: quick runs are a
		// ~20ms exploration where scheduler noise alone is percent-sized.
		if overheadPct > 3.0 {
			if quick {
				fmt.Printf("warning: tracing overhead %.2f%% above the 3%% budget at quick scale (noise-prone)\n", overheadPct)
			} else {
				return fmt.Errorf("tracing overhead %.2f%% on RemoteExploreCold exceeds the 3%% budget (untraced %v, traced %v)",
					overheadPct, minUntraced, minTraced)
			}
		}
	}

	// Failover: the census store over a 4-shard × 2-replica fabric. One
	// cold exploration runs healthy; a second one has one of the four
	// primaries killed two requests into its stream and must complete
	// against the surviving replica — byte-identically, and without
	// blowing up the wall-clock. One-shot timed runs rather than
	// testing.Benchmark iterations, because the kill is a one-time event.
	{
		shards := shardCounts[len(shardCounts)-1]
		manifest, err := exp.ShardedInputs(tbl, shards, tmp)
		if err != nil {
			return err
		}
		remoteManifest, injectors, stop, err := startReplicatedShardServers(manifest, filepath.Join(tmp, "failover_census.atlm"), 2)
		if err != nil {
			return err
		}
		timed := func(kill bool) (time.Duration, string, remote.Stats, error) {
			for _, shardInjs := range injectors {
				for _, in := range shardInjs {
					in.Heal()
				}
			}
			opener := remote.NewOpener(remote.Options{RetryWait: time.Millisecond})
			set, err := shard.OpenWith(remoteManifest, shard.Options{Remote: opener})
			if err != nil {
				return 0, "", remote.Stats{}, err
			}
			defer set.Close()
			cart, err := core.NewCartographerWith(set.Table(), core.DefaultOptions(), set.Provider(0))
			if err != nil {
				return 0, "", remote.Stats{}, err
			}
			if kill {
				// Arm after the open: the metadata is served, the process
				// dies two requests into the exploration itself.
				injectors[0][0].KillAfter(2)
			}
			start := time.Now()
			res, err := cart.Explore(q)
			if err != nil {
				return 0, "", remote.Stats{}, err
			}
			return time.Since(start), renderForCompare(res), opener.Stats(), nil
		}
		healthyDur, healthyRes, healthySt, err := timed(false)
		if err != nil {
			stop()
			return err
		}
		failDur, failRes, failSt, err := timed(true)
		if err != nil {
			stop()
			return fmt.Errorf("failover exploration: %w", err)
		}
		stop()
		if failRes != healthyRes {
			return fmt.Errorf("failover exploration result differs from the healthy run")
		}
		name := fmt.Sprintf("RemoteExploreFailover/census_n=%d/shards=%d/replicas=2", n, shards)
		results[name] = benchRecord{
			NsPerOp:    float64(failDur.Nanoseconds()),
			Iterations: 1,
			Metrics: map[string]float64{
				"healthy_ms":        float64(healthyDur.Nanoseconds()) / 1e6,
				"failover_ms":       float64(failDur.Nanoseconds()) / 1e6,
				"slowdown":          float64(failDur.Nanoseconds()) / float64(healthyDur.Nanoseconds()),
				"rpc_count":         float64(failSt.RPCs),
				"rpc_count_healthy": float64(healthySt.RPCs),
				"retries":           float64(failSt.Retries),
				"failovers":         float64(failSt.Failovers),
				"byte_identical":    1,
				"shards":            float64(shards),
				"replicas":          2,
			},
		}
		fmt.Printf("benchmarking %s ... healthy=%v failover=%v failovers=%d\n", name, healthyDur.Round(time.Millisecond), failDur.Round(time.Millisecond), failSt.Failovers)
	}

	// Selective remote exploration: the deferred events workload over
	// the fabric. Manifest stats skip whole shard servers, zone maps
	// skip chunks inside the touched one — the counters assert that only
	// the non-pruned chunks ever crossed the wire.
	{
		manifest, sq, totalChunks, err := exp.LazySelectiveInputs(n, 4, tmp)
		if err != nil {
			return err
		}
		remoteManifest, stop, err := startShardServers(manifest, filepath.Join(tmp, "remote_events.atlm"))
		if err != nil {
			return err
		}
		opener := remote.NewOpener(remote.Options{})
		set, err := shard.OpenWith(remoteManifest, shard.Options{Remote: opener, Defer: true})
		if err != nil {
			stop()
			return err
		}
		name := fmt.Sprintf("RemoteExploreSelective/events_n=%d/shards=4/deferred", n)
		run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cart, err := core.NewCartographer(set.Table(), core.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := cart.Explore(sq); err != nil {
					b.Fatal(err)
				}
			}
		})
		st := opener.Stats()
		addMetrics(name, map[string]float64{
			"rpc_count":      float64(st.RPCs),
			"bytes_wire":     float64(st.BytesIn),
			"chunks_fetched": float64(st.ChunkFetches),
			"total_chunks":   float64(totalChunks),
			"opened_shards":  float64(set.OpenedShards()),
			"shards":         4,
		})

		set.Close()

		// The same cold exploration once more, under a resource ledger and
		// through a fresh opener: the per-query bill must equal the
		// opener's counter deltas over the same window — the ledger is the
		// same accounting, scoped to one query. A fresh opener/set pays the
		// full cold bill, so the recorded numbers are the query's true
		// wire cost, not a cache echo.
		opener2 := remote.NewOpener(remote.Options{})
		set2, err := shard.OpenWith(remoteManifest, shard.Options{Remote: opener2, Defer: true})
		if err != nil {
			stop()
			return err
		}
		settle := func() remote.Stats {
			prev := opener2.Stats()
			for {
				time.Sleep(25 * time.Millisecond)
				cur := opener2.Stats()
				if cur == prev {
					return cur
				}
				prev = cur
			}
		}
		before := settle()
		led := obsv.NewLedger()
		cart, err := core.NewCartographer(set2.Table(), core.DefaultOptions())
		if err != nil {
			stop()
			return err
		}
		if _, err := cart.ExploreCtx(obsv.WithLedger(context.Background(), led), sq); err != nil {
			stop()
			return err
		}
		led.Finish()
		after := settle()
		bill := led.Snapshot()
		if bill.RPCs != after.RPCs-before.RPCs || bill.BytesWire != after.BytesIn-before.BytesIn {
			stop()
			return fmt.Errorf("ledger disagrees with opener counters: ledger rpcs=%d wire=%d, deltas rpcs=%d wire=%d",
				bill.RPCs, bill.BytesWire, after.RPCs-before.RPCs, after.BytesIn-before.BytesIn)
		}
		addMetrics(name, map[string]float64{
			"ledger_rpcs":           float64(bill.RPCs),
			"ledger_bytes_wire":     float64(bill.BytesWire),
			"ledger_chunks_decoded": float64(bill.StoreChunksDecoded),
			"ledger_bytes_read":     float64(bill.BytesRead),
		})
		fmt.Printf("benchmarking %s ... ledger rpcs=%d wire=%dB decoded=%d (matches opener deltas)\n",
			name, bill.RPCs, bill.BytesWire, bill.StoreChunksDecoded)
		set2.Close()
		stop()
	}

	// Unsharded cold baseline: the same census data opened from a single
	// .atl store — identical storage and chunking, no shard layer.
	single, err := colstore.Open(storePath)
	if err != nil {
		return err
	}
	run(fmt.Sprintf("ExploreCold/census_n=%d/singlefile", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cart, err := core.NewCartographer(single.Table(), core.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := cart.Explore(q); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Zone-map pruned selective scan vs the same scan without chunk
	// metadata.
	chunkedEvents, plainEvents, pq, err := exp.PrunedScanScenario(n)
	if err != nil {
		return err
	}
	scanBench := func(t *storage.Table) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			sel := bitvec.NewFull(n)
			for i := 0; i < b.N; i++ {
				sel.Fill()
				if err := engine.EvalAndIntoOpts(t, pq, sel, engine.ScanOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	run(fmt.Sprintf("EvalRange/events_n=%d/pruned", n), scanBench(chunkedEvents))
	run(fmt.Sprintf("EvalRange/events_n=%d/full", n), scanBench(plainEvents))

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d benchmark records to %s\n", len(results), path)
	return nil
}

// writeOverloadJSON runs the overload scenario: a coordinator with a
// bounded admission gate sized to the machine is hit with 4× its
// capacity of simultaneous explorations. The admitted queries must
// complete within 3× the uncontended p99 and return byte-identical
// results; the excess must be shed promptly with 429 + Retry-After,
// not absorbed into an unbounded queue.
func writeOverloadJSON(path string, quick bool) error {
	n := 300_000
	if quick {
		n = 60_000
	}
	// Size the gate the way an operator would: enough slots that the
	// admitted set saturates the cores without queries fighting each
	// other for them. Per-query parallelism × slots ≈ core count, so an
	// admitted query's latency stays close to the uncontended one — the
	// property the 3× budget below asserts.
	maxConcurrent := runtime.NumCPU() / 2
	if maxConcurrent < 1 {
		maxConcurrent = 1
	}
	queueDepth := maxConcurrent
	clients := 4 * (maxConcurrent + queueDepth)
	tbl := datagen.Census(n, 1)
	opts := core.DefaultOptions()
	opts.Parallelism = 2
	srv := server.New(tbl, opts)
	srv.SetAdmission(server.AdmissionConfig{
		MaxConcurrent: maxConcurrent,
		QueueDepth:    queueDepth,
		QueueTimeout:  30 * time.Second,
		QueryTimeout:  2 * time.Minute,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// An ungated twin answers each query once, uncontended: the
	// reference the overloaded server's answers must match.
	refTS := httptest.NewServer(server.New(tbl, opts).Handler())
	defer refTS.Close()

	// Every request is a query of its own — the same rows and the same
	// work (ages are integers, so the fractional bound selects nothing
	// new), a different text — because the server's result cache would
	// answer a repeated query without running it, and an overload of
	// cache hits measures nothing.
	nextQuery := 0
	newBody := func() []byte {
		nextQuery++
		return []byte(fmt.Sprintf(`{"cql": "EXPLORE census WHERE age BETWEEN 20 AND 70.%04d"}`, nextQuery))
	}
	post := func(base string, reqBody []byte) (int, time.Duration, []byte, string, error) {
		start := time.Now()
		resp, err := http.Post(base+"/api/explore", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			return 0, 0, nil, "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return 0, 0, nil, "", err
		}
		return resp.StatusCode, time.Since(start), body, resp.Header.Get("Retry-After"), nil
	}
	// canonical strips the per-run fields (wall-clock, resource bill)
	// so bodies compare on the exploration result alone.
	canonical := func(body []byte) (string, error) {
		var dto server.ResultDTO
		if err := json.Unmarshal(body, &dto); err != nil {
			return "", err
		}
		dto.ElapsedMs = 0
		dto.Ledger = nil
		dto.Profile = nil
		dto.ProfilePerfetto = nil
		b, err := json.Marshal(dto)
		return string(b), err
	}
	p99 := func(durs []time.Duration) time.Duration {
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		return durs[len(durs)*99/100]
	}

	// reference answers reqBody on the ungated twin.
	reference := func(reqBody []byte) (string, error) {
		status, _, body, _, err := post(refTS.URL, reqBody)
		if err != nil {
			return "", err
		}
		if status != http.StatusOK {
			return "", fmt.Errorf("reference exploration answered %d: %s", status, body)
		}
		return canonical(body)
	}

	// Uncontended baseline: sequential explorations after a warmup.
	const baselineRounds = 15
	var uncontended []time.Duration
	for i := 0; i < baselineRounds+2; i++ {
		reqBody := newBody()
		status, dur, body, _, err := post(ts.URL, reqBody)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("uncontended exploration answered %d: %s", status, body)
		}
		if i < 2 {
			continue // warmup: cold caches, first-touch allocations
		}
		canon, err := canonical(body)
		if err != nil {
			return err
		}
		if want, err := reference(reqBody); err != nil {
			return err
		} else if canon != want {
			return fmt.Errorf("uncontended exploration differs from the reference server's")
		}
		uncontended = append(uncontended, dur)
	}
	uncontendedP99 := p99(uncontended)

	// Overload: every client fires at once. Slots + queue bound the
	// admitted set; the rest must be shed with 429 on arrival.
	type outcome struct {
		status     int
		dur        time.Duration
		canon      string
		retryAfter string
		err        error
	}
	outcomes := make([]outcome, clients)
	bodies := make([][]byte, clients)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := 0; i < clients; i++ {
		bodies[i] = newBody()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			status, dur, body, retryAfter, err := post(ts.URL, bodies[i])
			o := outcome{status: status, dur: dur, retryAfter: retryAfter, err: err}
			if err == nil && status == http.StatusOK {
				o.canon, o.err = canonical(body)
			}
			outcomes[i] = o
		}(i)
	}
	start.Done()
	wg.Wait()

	var admitted []time.Duration
	shed, retryAfterSeen := 0, 0
	for i, o := range outcomes {
		if o.err != nil {
			return o.err
		}
		switch o.status {
		case http.StatusOK:
			if want, err := reference(bodies[i]); err != nil {
				return err
			} else if o.canon != want {
				return fmt.Errorf("admitted overload exploration differs from the uncontended result")
			}
			admitted = append(admitted, o.dur)
		case http.StatusTooManyRequests:
			shed++
			if o.retryAfter != "" {
				retryAfterSeen++
			}
		default:
			return fmt.Errorf("overload exploration answered %d, want 200 or 429", o.status)
		}
	}
	if len(admitted) == 0 {
		return fmt.Errorf("overload run admitted no explorations")
	}
	if shed == 0 {
		return fmt.Errorf("overload run shed no explorations at %d× capacity", clients/(maxConcurrent+queueDepth))
	}
	if retryAfterSeen != shed {
		return fmt.Errorf("%d of %d shed responses carried a Retry-After header", retryAfterSeen, shed)
	}
	admittedP99 := p99(admitted)
	slowdown := float64(admittedP99) / float64(uncontendedP99)
	fmt.Printf("overload: %d clients → %d admitted, %d shed (429); uncontended p99 %v, admitted p99 %v (%.2fx)\n",
		clients, len(admitted), shed, uncontendedP99.Round(time.Millisecond), admittedP99.Round(time.Millisecond), slowdown)
	// The 3× latency budget is asserted at full scale only: a quick run
	// is a ~10ms exploration where scheduler noise alone is x-sized.
	if slowdown > 3.0 {
		if quick {
			fmt.Printf("warning: admitted p99 %.2fx the uncontended p99, above the 3x budget at quick scale (noise-prone)\n", slowdown)
		} else {
			return fmt.Errorf("admitted p99 %v is %.2fx the uncontended p99 %v, above the 3x budget",
				admittedP99, slowdown, uncontendedP99)
		}
	}

	name := fmt.Sprintf("OverloadAdmission/census_n=%d/max=%d/queue=%d/clients=%d", n, maxConcurrent, queueDepth, clients)
	results := map[string]benchRecord{
		name: {
			NsPerOp:    float64(admittedP99.Nanoseconds()),
			Iterations: clients,
			Metrics: map[string]float64{
				"uncontended_p99_ms": float64(uncontendedP99.Nanoseconds()) / 1e6,
				"admitted_p99_ms":    float64(admittedP99.Nanoseconds()) / 1e6,
				"slowdown":           slowdown,
				"clients":            float64(clients),
				"max_concurrent":     float64(maxConcurrent),
				"queue_depth":        float64(queueDepth),
				"admitted":           float64(len(admitted)),
				"shed_429":           float64(shed),
				"byte_identical":     1,
			},
		},
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote overload results to %s\n", path)
	return nil
}
