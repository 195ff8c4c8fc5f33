package remote

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/obsv"
	"repro/internal/query"
	"repro/internal/shard"
)

// end-to-end trace coverage: a profiled exploration over the remote
// fabric must come back as ONE well-formed span tree — coordinator
// phases, RPC attempts, and the shard servers' own spans grafted under
// the RPCs that triggered them — even while chaos kills a replica
// mid-Explore.

// walkSpans visits every node of a span tree, parents first.
func walkSpans(sp *obsv.SpanJSON, fn func(*obsv.SpanJSON)) {
	fn(sp)
	for _, c := range sp.Children {
		walkSpans(c, fn)
	}
}

// checkSpanTree asserts the satellite-3 invariants on a profile:
// positive durations, children contained in their parents.
func checkSpanTree(t *testing.T, sp *obsv.SpanJSON) {
	t.Helper()
	if sp.DurNs <= 0 {
		t.Fatalf("span %q has non-positive duration %d", sp.Name, sp.DurNs)
	}
	if sp.StartNs < 0 {
		t.Fatalf("span %q starts before the trace anchor", sp.Name)
	}
	for _, c := range sp.Children {
		if c.StartNs < sp.StartNs || c.StartNs+c.DurNs > sp.StartNs+sp.DurNs {
			t.Fatalf("child %q [%d,%d] escapes parent %q [%d,%d]",
				c.Name, c.StartNs, c.StartNs+c.DurNs, sp.Name, sp.StartNs, sp.StartNs+sp.DurNs)
		}
		checkSpanTree(t, c)
	}
}

// TestProfiledRemoteExploreSpanTree is the tracing acceptance test: a
// 2-shard × 2-replica fabric loses a replica two requests into a
// profiled exploration, and the trace must still land as one
// well-formed tree with the shard servers' spans nested under the
// coordinator's RPCs — including the failed attempt.
func TestProfiledRemoteExploreSpanTree(t *testing.T) {
	tbl := datagen.Census(8_000, 13)
	local := writeShardedInputs(t, tbl, 2, 256)
	rf := startReplicatedFabric(t, local, 2)

	opener := NewOpener(Options{Timeout: 5 * time.Second, RetryWait: time.Millisecond, BreakerCooldown: time.Minute})
	set, err := shard.OpenWith(rf.manifest, shard.Options{Remote: opener})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	// Arm the death AFTER the open: shard 0's primary serves the
	// metadata, then dies two requests into the exploration.
	rf.injectors[0][0].KillAfter(2)

	opts := core.DefaultOptions()
	opts.Parallelism = 2
	cart, err := core.NewCartographerWith(set.Table(), opts, set.Provider(opts.Parallelism))
	if err != nil {
		t.Fatal(err)
	}

	tr, root := obsv.NewTrace("explore")
	ctx := obsv.WithSpan(context.Background(), root)
	res, err := cart.ExploreCtx(ctx, query.New("census", query.NewRange("age", 20, 70)))
	root.End()
	if err != nil {
		t.Fatalf("profiled exploration failed despite a live replica: %v", err)
	}
	if len(res.Maps) == 0 {
		t.Fatal("exploration returned no maps")
	}

	tree := tr.Tree()
	checkSpanTree(t, tree)
	if tree.Name != "explore" {
		t.Fatalf("root span is %q, want explore", tree.Name)
	}

	var rpcs, attempts, grafted, failedAttempts int
	walkSpans(tree, func(sp *obsv.SpanJSON) {
		switch {
		case strings.HasPrefix(sp.Name, "rpc "):
			rpcs++
		case sp.Name == "attempt":
			attempts++
			if _, ok := sp.Attrs["error"]; ok {
				failedAttempts++
			}
		}
		if sp.Remote {
			grafted++
			if !strings.HasPrefix(sp.Name, "shard ") {
				t.Errorf("remote span %q does not look like a shard-server root", sp.Name)
			}
		}
	})
	if rpcs == 0 {
		t.Error("no rpc spans in the profile")
	}
	if attempts < rpcs {
		t.Errorf("fewer attempt spans (%d) than rpcs (%d)", attempts, rpcs)
	}
	if grafted == 0 {
		t.Error("no shard-server subtree grafted into the coordinator trace")
	}
	if failedAttempts == 0 {
		t.Error("the killed replica's failed attempt left no span")
	}
	if opener.Stats().Failovers == 0 {
		t.Error("no failover recorded while a replica was dying")
	}

	// Perfetto acceptance: the same traced 2-shard × 2-replica run must
	// export as valid Chrome trace-event JSON, with the shard servers'
	// grafted subtrees appearing as their own processes.
	b, err := obsv.PerfettoTrace(tree)
	if err != nil {
		t.Fatalf("perfetto export: %v", err)
	}
	var f struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Pid int    `json:"pid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatalf("perfetto export is not valid trace-event JSON: %v", err)
	}
	if f.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", f.DisplayTimeUnit)
	}
	pids := map[int]bool{}
	for _, ev := range f.TraceEvents {
		if ev.Ph == "X" {
			pids[ev.Pid] = true
		}
	}
	if !pids[1] {
		t.Error("perfetto export has no coordinator (pid 1) slices")
	}
	if len(pids) < 2 {
		t.Error("perfetto export gave the shard servers no process of their own")
	}
}

// TestUntracedExploreStaysUntraced: without a span in the context the
// fabric must not emit trace headers, and the servers must not build
// span trees (the wrap path stays on the zero-copy write-through).
func TestUntracedExploreStaysUntraced(t *testing.T) {
	tbl := datagen.Census(2_000, 5)
	local := writeShardedInputs(t, tbl, 1, 256)
	rf := startReplicatedFabric(t, local, 1)
	opener := NewOpener(Options{Timeout: 5 * time.Second})
	set, err := shard.OpenWith(rf.manifest, shard.Options{Remote: opener})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if _, _, err := set.RemotePredicateBits(context.Background(), 0, query.NewRange("age", 10, 60)); err != nil {
		t.Fatal(err)
	}
}

// TestShardErrorCarriesRequestID: when the fabric gives up on a shard,
// the error names the request id from the context, so a coordinator
// log line and the shard servers' slow-request lines correlate.
func TestShardErrorCarriesRequestID(t *testing.T) {
	tbl := datagen.Census(1_000, 3)
	local := writeShardedInputs(t, tbl, 1, 256)
	rf := startReplicatedFabric(t, local, 1)
	opener := NewOpener(Options{Timeout: time.Second, Retries: -1, RetryWait: time.Millisecond})
	set, err := shard.OpenWith(rf.manifest, shard.Options{Remote: opener})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	rf.injectors[0][0].KillAfter(0)

	ctx := obsv.WithRequestID(context.Background(), "q-cafe01")
	_, _, err = set.RemotePredicateBits(ctx, 0, query.NewRange("age", 0, 50))
	if err == nil {
		t.Fatal("predicate count succeeded against a dead shard")
	}
	if !strings.Contains(err.Error(), "rid q-cafe01") {
		t.Errorf("shard error does not carry the request id: %v", err)
	}
}
