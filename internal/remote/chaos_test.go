package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/obsv"
	"repro/internal/query"
	"repro/internal/remote/chaos"
	"repro/internal/session"
	"repro/internal/shard"
	"repro/internal/storage"
)

// chaos-driven failover coverage: every replica of an in-process
// fabric sits behind a chaos.Injector, tests script the faults (a
// replica killed mid-Explore, 500 storms, corrupt payloads) and the
// exploration must complete byte-identically against the survivors.

// repFabric is a replicated in-process deployment: each shard is served
// by several replica servers, every one behind its own fault injector.
type repFabric struct {
	manifest  string
	urls      [][]string          // [shard][replica]
	injectors [][]*chaos.Injector // [shard][replica]
	shardSrv  [][]*Server         // [shard][replica]
}

// startReplicatedFabric spins `replicas` chaos-wrapped servers per shard
// of localManifest and writes the v3 coordinator manifest naming them.
func startReplicatedFabric(t *testing.T, localManifest string, replicas int) *repFabric {
	t.Helper()
	m, err := shard.ReadManifest(localManifest)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Dir(localManifest)
	rf := &repFabric{}
	entries := make([]string, len(m.Shards))
	for _, sf := range m.Shards {
		var urls []string
		var injs []*chaos.Injector
		var srvs []*Server
		for r := 0; r < replicas; r++ {
			st, err := colstore.OpenWith(filepath.Join(dir, sf.File), colstore.Options{Mode: colstore.ModeLazy})
			if err != nil {
				t.Fatal(err)
			}
			rs := NewServer(st)
			in := chaos.Wrap(rs.Handler())
			ts := httptest.NewServer(in)
			t.Cleanup(ts.Close)
			t.Cleanup(func() { st.Close() })
			urls = append(urls, ts.URL)
			injs = append(injs, in)
			srvs = append(srvs, rs)
		}
		entries[len(rf.urls)] = strings.Join(urls, "|")
		rf.urls = append(rf.urls, urls)
		rf.injectors = append(rf.injectors, injs)
		rf.shardSrv = append(rf.shardSrv, srvs)
	}
	rm, err := shard.RemoteManifest(m, entries)
	if err != nil {
		t.Fatal(err)
	}
	rf.manifest = filepath.Join(t.TempDir(), "replicated.atlm")
	if err := shard.WriteManifestFile(rf.manifest, rm); err != nil {
		t.Fatal(err)
	}
	return rf
}

// unshardedRef renders the reference result of q over the plain table.
func unshardedRef(t *testing.T, tbl *storage.Table, q query.Query) string {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Parallelism = 1
	cart, err := core.NewCartographer(tbl, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cart.Explore(q)
	if err != nil {
		t.Fatal(err)
	}
	return renderResult(res)
}

// TestFailoverMidExploreByteIdentical is the tentpole acceptance test:
// a 4-shard × 2-replica fabric loses one replica in the middle of an
// exploration's request stream, and the run must still complete — with
// a result byte-identical to the unsharded table's.
func TestFailoverMidExploreByteIdentical(t *testing.T) {
	tbl := datagen.Census(12_000, 7)
	local := writeShardedInputs(t, tbl, 4, 256)
	rf := startReplicatedFabric(t, local, 2)
	q := query.New("census", query.NewRange("age", 20, 70))
	want := unshardedRef(t, tbl, q)

	opener := NewOpener(Options{Timeout: 5 * time.Second, RetryWait: time.Millisecond, BreakerCooldown: time.Minute})
	set, err := shard.OpenWith(rf.manifest, shard.Options{Remote: opener})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	// Arm the death AFTER the open, so shard 1's primary serves the
	// metadata, then dies two requests into the exploration itself.
	rf.injectors[1][0].KillAfter(2)

	opts := core.DefaultOptions()
	opts.Parallelism = 4
	cart, err := core.NewCartographerWith(set.Table(), opts, set.Provider(opts.Parallelism))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cart.Explore(q)
	if err != nil {
		t.Fatalf("exploration failed despite a live replica: %v", err)
	}
	if got := renderResult(res); got != want {
		t.Errorf("failover result differs from unsharded:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if opener.Stats().Failovers == 0 {
		t.Error("no failover recorded while a replica was dying")
	}
	if rf.injectors[1][1].Requests() == 0 {
		t.Error("shard 1's surviving replica was never dialed")
	}
	h := set.ShardHealth(context.Background(), 1)
	if len(h.Replicas) != 2 {
		t.Fatalf("ShardHealth reports %d replicas, want 2", len(h.Replicas))
	}
	if !h.Healthy {
		t.Errorf("shard unhealthy despite a live replica: %v", h.Err)
	}
}

// probe issues one statistics-plane RPC — a cut, one column's summary —
// the round trip the breaker, failover and cancellation tests drive
// replicas with.
func probe(ctx context.Context, c *Client) error {
	return c.Cut(ctx, shard.CutRequest{Kind: shard.CutSummary, Cols: []int{0}}, new(shard.CutAnswer))
}

// TestReplicaBreakerAndRecovery walks the breaker state machine:
// trip on failure, out of rotation while open, half-open probe after
// the cooldown, closed again on success — all without reopening the
// shard.
func TestReplicaBreakerAndRecovery(t *testing.T) {
	tbl := datagen.Census(3_000, 11)
	local := writeShardedInputs(t, tbl, 1, 256)
	rf := startReplicatedFabric(t, local, 2)
	opener := NewOpener(Options{
		Timeout: 2 * time.Second, Retries: -1, RetryWait: time.Millisecond,
		BreakerThreshold: 1, BreakerCooldown: 50 * time.Millisecond,
	})
	be, err := opener.OpenShard(context.Background(), rf.urls[0], colstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	c := be.(*Client)
	if err := probe(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	primary, secondary := rf.injectors[0][0], rf.injectors[0][1]

	// The primary starts 500ing: the first strike trips its breaker
	// (threshold 1) and the call still succeeds via the replica.
	primary.SetFault(chaos.Error5xx)
	if err := probe(context.Background(), c); err != nil {
		t.Fatalf("call failed despite a healthy replica: %v", err)
	}
	reps := c.Replicas()
	if len(reps) != 2 {
		t.Fatalf("Replicas() reports %d entries, want 2", len(reps))
	}
	if reps[0].State != "tripped" {
		t.Errorf("primary state %q after a trip, want tripped", reps[0].State)
	}
	if reps[0].Err == nil {
		t.Error("tripped primary carries no error")
	}
	if reps[1].State != "healthy" {
		t.Errorf("replica state %q, want healthy", reps[1].State)
	}
	if opener.Stats().Failovers == 0 {
		t.Error("failover not counted")
	}

	// Tripped means out of rotation: further traffic leaves it alone
	// instead of hammering a dead peer.
	before := primary.Requests()
	for i := 0; i < 5; i++ {
		if err := probe(context.Background(), c); err != nil {
			t.Fatal(err)
		}
	}
	if got := primary.Requests(); got != before {
		t.Errorf("tripped primary served %d more requests", got-before)
	}

	// Recovery: the primary heals, the replica dies. Past the cooldown
	// the next touch probes the primary half-open; its success closes
	// the breaker again.
	primary.Heal()
	secondary.SetFault(chaos.Kill)
	time.Sleep(80 * time.Millisecond)
	if err := probe(context.Background(), c); err != nil {
		t.Fatalf("probe of the healed primary failed: %v", err)
	}
	reps = c.Replicas()
	if reps[0].State != "healthy" {
		t.Errorf("primary state %q after recovery, want healthy", reps[0].State)
	}
}

// TestBreakerSingleReplicaSelfHeals: with only one location, a tripped
// breaker never blackholes the shard — the sole replica is re-dialed
// on the next touch even inside the cooldown.
func TestBreakerSingleReplicaSelfHeals(t *testing.T) {
	tbl := datagen.Census(2_000, 13)
	local := writeShardedInputs(t, tbl, 1, 256)
	rf := startReplicatedFabric(t, local, 1)
	opener := NewOpener(Options{
		Timeout: 2 * time.Second, Retries: -1, RetryWait: time.Millisecond,
		BreakerThreshold: 1, BreakerCooldown: time.Minute,
	})
	be, err := opener.OpenShard(context.Background(), rf.urls[0], colstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	c := be.(*Client)
	inj := rf.injectors[0][0]
	inj.SetFault(chaos.Error5xx)
	if err := probe(context.Background(), c); err == nil {
		t.Fatal("succeeded against a 500ing sole replica")
	}
	if state := c.Replicas()[0].State; state != "tripped" {
		t.Errorf("sole replica state %q, want tripped", state)
	}
	inj.Heal()
	if err := probe(context.Background(), c); err != nil {
		t.Fatalf("tripped sole replica was never re-dialed: %v", err)
	}
	if state := c.Replicas()[0].State; state != "healthy" {
		t.Errorf("sole replica state %q after recovery, want healthy", state)
	}
}

// TestChaosCorruptionFailsOver: one shard's primary corrupts one chunk
// inside every multi-chunk window it answers, another's truncates its
// chunk bodies. The per-frame CRC and length checks must catch both, and
// the whole window fails over to the clean replica, byte-identically.
func TestChaosCorruptionFailsOver(t *testing.T) {
	tbl := datagen.Census(8_000, 5)
	local := writeShardedInputs(t, tbl, 2, 256)
	rf := startReplicatedFabric(t, local, 2)
	q := query.New("census", query.NewRange("age", 18, 80))
	want := unshardedRef(t, tbl, q)

	chunkOnly := func(r *http.Request) bool { return strings.HasSuffix(r.URL.Path, "/chunk") }
	// A window of several chunks: the flipped byte lands inside one of
	// its frames, and the rest of the window is sound.
	windowOnly := func(r *http.Request) bool {
		if !chunkOnly(r) {
			return false
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return false
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		var req chunkReqDTO
		return json.Unmarshal(body, &req) == nil && len(req.Chunks) > 1
	}
	rf.injectors[0][0].Match(windowOnly)
	rf.injectors[0][0].SetFault(chaos.Corrupt)
	rf.injectors[1][0].Match(chunkOnly)
	rf.injectors[1][0].SetFault(chaos.Truncate)

	opener := NewOpener(Options{Timeout: 5 * time.Second, RetryWait: time.Millisecond})
	set, err := shard.OpenWith(rf.manifest, shard.Options{Remote: opener})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	opts := core.DefaultOptions()
	opts.Parallelism = 2
	cart, err := core.NewCartographerWith(set.Table(), opts, set.Provider(opts.Parallelism))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cart.Explore(q)
	if err != nil {
		t.Fatalf("exploration failed despite clean replicas: %v", err)
	}
	if got := renderResult(res); got != want {
		t.Errorf("tampered-fabric result differs from unsharded:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if rf.injectors[0][0].Injected() == 0 || rf.injectors[1][0].Injected() == 0 {
		t.Error("chaos faults were never exercised — test lost its teeth")
	}
	if served := rf.shardSrv[0][1].Stats().ChunkServes; served == 0 {
		t.Error("no window failed over to shard 0's clean replica")
	}
	if opener.Stats().Failovers == 0 {
		t.Error("no failover recorded despite tampered payloads")
	}
}

// TestAllReplicasDeadNamesShard: when every replica of a shard is
// dead, the exploration fails with an error naming the shard's primary
// location — never a partial result.
func TestAllReplicasDeadNamesShard(t *testing.T) {
	tbl := datagen.Census(4_000, 19)
	local := writeShardedInputs(t, tbl, 2, 256)
	rf := startReplicatedFabric(t, local, 2)
	opener := NewOpener(Options{Timeout: 500 * time.Millisecond, Retries: -1, RetryWait: time.Millisecond})
	set, err := shard.OpenWith(rf.manifest, shard.Options{Remote: opener})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	rf.injectors[1][0].SetFault(chaos.Kill)
	rf.injectors[1][1].SetFault(chaos.Kill)
	opts := core.DefaultOptions()
	opts.Parallelism = 2
	cart, err := core.NewCartographerWith(set.Table(), opts, set.Provider(opts.Parallelism))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cart.Explore(query.New("census", query.NewRange("age", 18, 80)))
	if res != nil {
		t.Error("got a result from a shard with no live replica; partial answers must not be served")
	}
	assertNamedShardError(t, err, rf.urls[1][0])
}

// TestColdCutPhaseRPCs: a cold full-selection explore over the fabric
// cuts every candidate with cut RPCs alone — one per shard carrying
// every numeric attribute's values, two (counts, then partition) for
// any other attribute — pulls no chunk for it, and answers
// byte-identically to the unsharded table.
func TestColdCutPhaseRPCs(t *testing.T) {
	tbl := datagen.Census(10_000, 23)
	local := writeShardedInputs(t, tbl, 4, 256)
	q := query.New("census")
	want := unshardedRef(t, tbl, q)

	f := startFabric(t, local, nil)
	set, err := shard.OpenWith(f.manifest, shard.Options{Remote: testOpener()})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	opts := core.DefaultOptions()
	opts.Parallelism = 2
	cart, err := core.NewCartographerWith(set.Table(), opts, set.Provider(opts.Parallelism))
	if err != nil {
		t.Fatal(err)
	}
	tr, sp := obsv.NewTrace("explore")
	res, err := cart.ExploreCtx(obsv.WithSpan(context.Background(), sp), q)
	sp.End()
	if err != nil {
		t.Fatal(err)
	}
	if got := renderResult(res); got != want {
		t.Errorf("fabric result differs from unsharded:\nwant:\n%s\ngot:\n%s", want, got)
	}
	wantCuts, numeric := 0, false
	for _, m := range res.Candidates {
		if col, _ := set.Table().ColumnByName(m.Attrs[0]); col.Type().IsNumeric() {
			numeric = true
		} else {
			wantCuts += 2 * set.NumShards()
		}
	}
	if numeric {
		wantCuts += set.NumShards()
	}
	rpcs := map[string]int{}
	walkSpans(tr.Tree(), func(s *obsv.SpanJSON) {
		if s.Name == "cut" {
			walkSpans(s, func(c *obsv.SpanJSON) {
				if strings.HasPrefix(c.Name, "rpc ") {
					rpcs[c.Name]++
				}
			})
		}
	})
	if rpcs["rpc cut"] != wantCuts || len(rpcs) != 1 {
		t.Errorf("cold cut phase made RPCs %v, want exactly %d cut RPCs for %d candidates over %d shards",
			rpcs, wantCuts, len(res.Candidates), set.NumShards())
	}
}

// TestSessionBaseBitsSkipChunkPlane: a session drill over the fabric
// takes its base selection from the parent region's bitmap, so the base
// costs nothing on the wire — no span of a base phase issues an RPC, no
// chunk gets a scan verdict — and the drill answers exactly as the
// unsharded table answers the region's query.
func TestSessionBaseBitsSkipChunkPlane(t *testing.T) {
	tbl := datagen.Census(8_000, 41)
	local := writeShardedInputs(t, tbl, 4, 256)
	f := startFabric(t, local, nil)
	set, err := shard.OpenWith(f.manifest, shard.Options{Remote: testOpener()})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	opts := core.DefaultOptions()
	opts.Parallelism = 2
	cart, err := core.NewCartographerWith(set.Table(), opts, set.Provider(opts.Parallelism))
	if err != nil {
		t.Fatal(err)
	}
	sess := session.New(cart)
	root, err := sess.Explore(query.New("census", query.NewRange("age", 25, 60), query.NewIn("sex", "Female")))
	if err != nil {
		t.Fatal(err)
	}
	ri := -1 // the last non-empty region, so region 0's bitmap would not do
	for i, r := range root.Result.Maps[0].Regions {
		if r.Count > 0 {
			ri = i
		}
	}
	if ri < 1 {
		t.Fatal("no non-empty region to drill into")
	}

	led := new(obsv.Ledger)
	tr, sp := obsv.NewTrace("drill")
	node, err := sess.DrillDownCtx(obsv.WithLedger(obsv.WithSpan(context.Background(), sp), led), 0, ri)
	sp.End()
	if err != nil {
		t.Fatal(err)
	}
	if node.Cached {
		t.Fatal("drill was served from the result cache; it must run the pipeline")
	}
	if sn := led.Snapshot(); sn.ChunksScanned+sn.ChunksPruned+sn.ChunksFull != 0 {
		t.Errorf("drill judged chunks for its base selection: %+v, want none", sn.ScanSnapshot)
	}
	var baseRPCs int
	walkSpans(tr.Tree(), func(s *obsv.SpanJSON) {
		if s.Name == "base" {
			walkSpans(s, func(c *obsv.SpanJSON) {
				if strings.HasPrefix(c.Name, "rpc ") {
					baseRPCs++
				}
			})
		}
	})
	if baseRPCs != 0 {
		t.Errorf("drill's base selection issued %d RPCs, want 0", baseRPCs)
	}
	if want, got := unshardedRef(t, tbl, node.Query), renderResult(node.Result); got != want {
		t.Errorf("remote drill differs from the unsharded region query:\nwant:\n%s\ngot:\n%s", want, got)
	}
}
