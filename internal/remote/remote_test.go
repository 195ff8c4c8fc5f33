package remote

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/query"
	"repro/internal/session"
	"repro/internal/shard"
	"repro/internal/storage"
)

// fabric is an in-process remote deployment: one httptest shard server
// per shard file of a local manifest, plus the rewritten coordinator
// manifest pointing at them.
type fabric struct {
	manifest string // remote manifest path
	servers  []*httptest.Server
	stores   []*colstore.Store
	shardSrv []*Server
}

// lazyThrash is the store configuration of the fabric's shard servers,
// and the one every identity test runs its coordinator with next to the
// auto-mode open: lazy, behind a 64 KiB decoded-chunk cache, so eviction
// races and budget edge cases cannot hide behind the default eager mode.
var lazyThrash = colstore.Options{Mode: colstore.ModeLazy, CacheBytes: 65536}

// startFabric spins one shard server per shard of localManifest. wrap,
// when non-nil, decorates shard i's handler (failure injection).
func startFabric(t *testing.T, localManifest string, wrap func(i int, h http.Handler) http.Handler) *fabric {
	t.Helper()
	m, err := shard.ReadManifest(localManifest)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Dir(localManifest)
	f := &fabric{}
	urls := make([]string, len(m.Shards))
	for i, sf := range m.Shards {
		st, err := colstore.OpenWith(filepath.Join(dir, sf.File), lazyThrash)
		if err != nil {
			t.Fatal(err)
		}
		rs := NewServer(st)
		var h http.Handler = rs.Handler()
		if wrap != nil {
			h = wrap(i, h)
		}
		ts := httptest.NewServer(h)
		f.stores = append(f.stores, st)
		f.servers = append(f.servers, ts)
		f.shardSrv = append(f.shardSrv, rs)
		urls[i] = ts.URL
	}
	rm, err := shard.RemoteManifest(m, urls)
	if err != nil {
		t.Fatal(err)
	}
	f.manifest = filepath.Join(t.TempDir(), "remote.atlm")
	if err := shard.WriteManifestFile(f.manifest, rm); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, ts := range f.servers {
			ts.Close()
		}
		for _, st := range f.stores {
			st.Close()
		}
	})
	return f
}

// writeShardedInputs ingests tbl as a sharded store under a temp dir.
func writeShardedInputs(t *testing.T, tbl *storage.Table, shards, chunkSize int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.atlm")
	if _, err := shard.WriteSharded(path, tbl, shard.IngestOptions{Shards: shards, ChunkSize: chunkSize}); err != nil {
		t.Fatal(err)
	}
	return path
}

func testOpener() *Opener {
	return NewOpener(Options{Timeout: 10 * time.Second})
}

// renderResult flattens a Result into a deterministic string (everything
// except timing) — the byte-identity yardstick shared with the shard
// package's tests.
func renderResult(r *core.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s | base=%d/%d\n", r.Input.String(), r.BaseCount, r.TotalRows)
	for _, f := range r.Flagged {
		fmt.Fprintf(&b, "flag %s %s\n", f.Attr, f.Reason)
	}
	for _, m := range r.Maps {
		b.WriteString(m.String())
	}
	return b.String()
}

// TestRemoteExploreByteIdentical is the tentpole acceptance test: a
// sharded Explore whose shards are served over the fabric must be
// byte-identical to the local sharded run — and to the unsharded
// table — at every (shard count, parallelism) pair. The no-predicate sky
// query runs six float columns through the statistics plane's numeric
// values.
func TestRemoteExploreByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		tbl     *storage.Table
		queries []query.Query
	}{
		{datagen.Census(12_000, 3), []query.Query{
			query.New("census"),
			query.New("census", query.NewRange("age", 20, 70)),
			query.New("census", query.NewRange("age", 25, 60), query.NewIn("sex", "F")),
		}},
		{datagen.SkySurvey(12_000, 3), []query.Query{query.New("sky")}},
	} {
		testRemoteExploreByteIdentical(t, tc.tbl, tc.queries)
	}
}

func testRemoteExploreByteIdentical(t *testing.T, tbl *storage.Table, queries []query.Query) {
	t.Helper()
	refs := make([]string, len(queries))
	refOpts := core.DefaultOptions()
	refOpts.Parallelism = 1
	refCart, err := core.NewCartographer(tbl, refOpts)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		ref, err := refCart.Explore(q)
		if err != nil {
			t.Fatal(err)
		}
		refs[qi] = renderResult(ref)
	}
	for _, shards := range []int{1, 2, 4} {
		local := writeShardedInputs(t, tbl, shards, 256)
		f := startFabric(t, local, nil)
		for _, store := range []colstore.Options{{}, lazyThrash} {
			set, err := shard.OpenWith(f.manifest, shard.Options{Store: store, Remote: testOpener()})
			if err != nil {
				t.Fatal(err)
			}
			defer set.Close()
			for _, workers := range []int{1, 2, 8} {
				opts := core.DefaultOptions()
				opts.Parallelism = workers
				cart, err := core.NewCartographerWith(set.Table(), opts, set.Provider(workers))
				if err != nil {
					t.Fatal(err)
				}
				for qi, q := range queries {
					res, err := cart.Explore(q)
					if err != nil {
						t.Fatalf("%s shards=%d workers=%d query %d: %v", tbl.Name(), shards, workers, qi, err)
					}
					if got := renderResult(res); got != refs[qi] {
						t.Errorf("store=%+v shards=%d workers=%d query %s: remote result differs from unsharded\nwant:\n%s\ngot:\n%s",
							store, shards, workers, q, refs[qi], got)
					}
				}
			}
		}
	}
}

// TestRemoteSelectiveTransfersOnlyTouchedChunks asserts the chunk-plane
// economics: a selective exploration over a deferred remote set must
// fetch payloads only for chunks zone maps could not rule out — most of
// the table never crosses the wire, and untouched shards are never even
// dialed.
func TestRemoteSelectiveTransfersOnlyTouchedChunks(t *testing.T) {
	const n = 8192
	schema := storage.MustSchema(
		storage.Field{Name: "ts", Type: storage.Int64},
		storage.Field{Name: "load", Type: storage.Float64},
	)
	ts := make([]int64, n)
	load := make([]float64, n)
	for i := range ts {
		ts[i] = int64(i)
		load[i] = float64((i*37)%1000) / 10
	}
	tbl := storage.MustTable("events", schema, []storage.Column{
		storage.NewInt64Column(ts, nil),
		storage.NewFloat64Column(load, nil),
	})
	local := writeShardedInputs(t, tbl, 4, 256)
	f := startFabric(t, local, nil)
	opener := testOpener()
	set, err := shard.OpenWith(f.manifest, shard.Options{Remote: opener, Defer: true})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	totalChunks := set.Table().Chunking().NumChunks(n) * tbl.NumCols()

	// A ~2% ts band living inside one shard.
	lo := float64(n / 2)
	q := query.New("events", query.NewRange("ts", lo, lo+float64(n/50)))
	opts := core.DefaultOptions()
	opts.Parallelism = 1
	cart, err := core.NewCartographer(set.Table(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cart.Explore(q); err != nil {
		t.Fatal(err)
	}
	st := opener.Stats()
	if st.ChunkFetches == 0 {
		t.Fatal("no chunks crossed the wire; expected a few")
	}
	if st.ChunkFetches >= int64(totalChunks)/2 {
		t.Errorf("fetched %d of %d chunks over the wire; want under half", st.ChunkFetches, totalChunks)
	}
	if opened := set.OpenedShards(); opened > 2 {
		t.Errorf("opened %d of 4 remote shards; deferred open should skip disjoint ones", opened)
	}
}

// TestRemoteSessionMatchesLocal drives a drill-down session over the
// fabric and checks every node against the local sharded session.
func TestRemoteSessionMatchesLocal(t *testing.T) {
	tbl := datagen.Census(8_000, 7)
	local := writeShardedInputs(t, tbl, 2, 256)
	f := startFabric(t, local, nil)
	for _, store := range []colstore.Options{{}, lazyThrash} {
		testRemoteSessionMatchesLocal(t, local, f.manifest, store)
	}
}

// testRemoteSessionMatchesLocal runs one explore-and-drill session over
// the local and the remote manifest, both opened with store.
func testRemoteSessionMatchesLocal(t *testing.T, local, remote string, store colstore.Options) {
	t.Helper()
	localSet, err := shard.OpenWith(local, shard.Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer localSet.Close()
	remoteSet, err := shard.OpenWith(remote, shard.Options{Store: store, Remote: testOpener()})
	if err != nil {
		t.Fatal(err)
	}
	defer remoteSet.Close()

	opts := core.DefaultOptions()
	opts.Parallelism = 2
	run := func(set *shard.Set) []string {
		cart, err := core.NewCartographerWith(set.Table(), opts, set.Provider(opts.Parallelism))
		if err != nil {
			t.Fatal(err)
		}
		sess := session.New(cart)
		node, err := sess.Explore(query.New("census", query.NewRange("age", 18, 80)))
		if err != nil {
			t.Fatal(err)
		}
		out := []string{renderResult(node.Result)}
		node, err = sess.DrillDown(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, renderResult(node.Result))
		return out
	}
	localRes := run(localSet)
	remoteRes := run(remoteSet)
	for i := range localRes {
		if localRes[i] != remoteRes[i] {
			t.Errorf("store=%+v: session step %d differs between local and remote:\nlocal:\n%s\nremote:\n%s", store, i, localRes[i], remoteRes[i])
		}
	}
}

// TestRemotePartialsMatchLocal checks the statistics plane's mergeable
// bundles: the merged per-column partials of a remote set must agree
// with the local set's on every exact field and on the approximate
// summaries (same histograms).
func TestRemotePartialsMatchLocal(t *testing.T) {
	tbl := datagen.Census(6_000, 11)
	local := writeShardedInputs(t, tbl, 3, 256)
	f := startFabric(t, local, nil)
	for _, store := range []colstore.Options{{}, lazyThrash} {
		testRemotePartialsMatchLocal(t, local, f.manifest, store)
	}
}

// testRemotePartialsMatchLocal compares the merged partials of the local
// and the remote manifest, both opened with store.
func testRemotePartialsMatchLocal(t *testing.T, local, remote string, store colstore.Options) {
	t.Helper()
	localSet, err := shard.OpenWith(local, shard.Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer localSet.Close()
	remoteSet, err := shard.OpenWith(remote, shard.Options{Store: store, Remote: testOpener()})
	if err != nil {
		t.Fatal(err)
	}
	defer remoteSet.Close()

	want, err := localSet.Partials(2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := remoteSet.Partials(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("partials: %d local vs %d remote columns", len(want), len(got))
	}
	for ci := range want {
		w, g := want[ci], got[ci]
		if w.Rows != g.Rows || w.Nulls != g.Nulls || w.Count != g.Count ||
			w.Sum != g.Sum || w.HasMinMax != g.HasMinMax || w.Min != g.Min || w.Max != g.Max ||
			w.Falses != g.Falses || w.Trues != g.Trues {
			t.Errorf("column %d: exact fields differ: local %+v remote %+v", ci, w, g)
		}
		if (w.CatCounts == nil) != (g.CatCounts == nil) {
			t.Errorf("column %d: CatCounts presence differs", ci)
		} else {
			for c := range w.CatCounts {
				if w.CatCounts[c] != g.CatCounts[c] {
					t.Errorf("column %d code %d: count %d vs %d", ci, c, w.CatCounts[c], g.CatCounts[c])
				}
			}
		}
		if (w.Hist == nil) != (g.Hist == nil) {
			t.Errorf("column %d: histogram presence differs", ci)
		} else if w.Hist != nil {
			for b := range w.Hist.Counts {
				if w.Hist.Counts[b] != g.Hist.Counts[b] {
					t.Errorf("column %d bin %d: %d vs %d", ci, b, w.Hist.Counts[b], g.Hist.Counts[b])
				}
			}
			for e := range w.Hist.Edges {
				if w.Hist.Edges[e] != g.Hist.Edges[e] {
					t.Errorf("column %d edge %d: %g vs %g", ci, e, w.Hist.Edges[e], g.Hist.Edges[e])
				}
			}
		}
	}
}

// TestRemoteHealth exercises the liveness probe and the eager
// re-encode path of the chunk plane (a shard server over an eagerly
// decoded store must serve identical payloads).
func TestRemoteHealth(t *testing.T) {
	tbl := datagen.Census(3_000, 9)
	local := writeShardedInputs(t, tbl, 2, 256)
	f := startFabric(t, local, nil)
	set, err := shard.OpenWith(f.manifest, shard.Options{Remote: testOpener()})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	for i := 0; i < set.NumShards(); i++ {
		h := set.ShardHealth(context.Background(), i)
		if !h.Remote {
			t.Errorf("shard %d: expected remote", i)
		}
		if !h.Healthy || h.Err != nil {
			t.Errorf("shard %d: unhealthy: %v", i, h.Err)
		}
		if h.Latency <= 0 {
			t.Errorf("shard %d: no latency measured", i)
		}
	}
	if f.shardSrv[0].Stats().Requests == 0 {
		t.Error("shard server counted no requests")
	}
}

// TestEagerStoreChunkPlane checks that a shard served from an eagerly
// decoded store (the re-encode path of RawChunk) round-trips payloads
// identical to the lazy store's raw ranges.
func TestEagerStoreChunkPlane(t *testing.T) {
	tbl := datagen.Census(2_000, 13)
	dir := t.TempDir()
	path := filepath.Join(dir, "t.atl")
	if err := colstore.WriteFile(path, tbl, 256); err != nil {
		t.Fatal(err)
	}
	eager, err := colstore.OpenWith(path, colstore.Options{Mode: colstore.ModeEager})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(eager).Handler())
	defer ts.Close()

	opener := testOpener()
	be, err := opener.OpenShard(context.Background(), []string{ts.URL}, colstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	lazy, err := colstore.OpenWith(path, colstore.Options{Mode: colstore.ModeLazy})
	if err != nil {
		t.Fatal(err)
	}
	defer lazy.Close()
	src := be.Source()
	want := lazy.Source()
	for ci := 0; ci < tbl.NumCols(); ci++ {
		for k := 0; k < eager.NumChunks(); k++ {
			gp, _, err := src.FetchChunk(context.Background(), ci, k)
			if err != nil {
				t.Fatalf("remote chunk (%d,%d): %v", ci, k, err)
			}
			wp, _, err := want.FetchChunk(context.Background(), ci, k)
			if err != nil {
				t.Fatal(err)
			}
			if gp.Rows() != wp.Rows() {
				t.Fatalf("chunk (%d,%d): %d rows vs %d", ci, k, gp.Rows(), wp.Rows())
			}
			for i := 0; i < gp.Rows(); i++ {
				if gp.IsNull(i) != wp.IsNull(i) {
					t.Fatalf("chunk (%d,%d) row %d: null mismatch", ci, k, i)
				}
			}
		}
	}
}
