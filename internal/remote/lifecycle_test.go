package remote

import (
	"context"
	"errors"
	"runtime"
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
)

// Query-lifecycle coverage of the fabric: caller cancellation must not
// strike circuit breakers, a hung replica must be escaped by the
// per-attempt budget without burning the whole query deadline, and a
// cancelled or deadlined exploration must release every goroutine it
// fanned out.

// settleGoroutines polls until the goroutine count returns to (about)
// the baseline — the leak assertion of every cancellation test. Slack
// covers runtime bookkeeping goroutines; the poll covers in-flight
// handlers still timing out.
func settleGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(8 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+5 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%s leaked goroutines: %d live, baseline %d\n%s", what, n, base, buf)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestBreakerNoStrikeOnCallerCancel: an RPC attempt that dies because
// OUR caller cancelled must not count as a breaker strike — the
// replica did nothing wrong. A genuine replica failure right after
// still trips (the exemption is narrow).
func TestBreakerNoStrikeOnCallerCancel(t *testing.T) {
	tbl := datagen.Census(2_000, 3)
	local := writeShardedInputs(t, tbl, 1, 256)
	rf := startReplicatedFabric(t, local, 2)
	opener := NewOpener(Options{
		Timeout: 5 * time.Second, RetryWait: time.Millisecond,
		BreakerThreshold: 1, BreakerCooldown: time.Minute,
	})
	be, err := opener.OpenShard(context.Background(), rf.urls[0], colstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	c := be.(*Client)
	p := query.NewRange("age", 30, 40)

	// Hang the primary, then cancel our own context mid-call.
	rf.injectors[0][0].SetFault(chaos.Delay)
	rf.injectors[0][0].SetDelay(2 * time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	_, _, err = c.PredicateBits(ctx, p)
	if !obsv.IsCancellation(err) {
		t.Fatalf("cancelled call returned %v, want a cancellation", err)
	}
	if state := c.Replicas()[0].State; state != "healthy" {
		t.Errorf("primary state %q after caller cancellation, want healthy (no strike)", state)
	}
	if trips := opener.Stats().BreakerTrips; trips != 0 {
		t.Errorf("caller cancellation tripped %d breakers, want 0", trips)
	}

	// Contrast: a real failure (500s) with a live caller still strikes.
	rf.injectors[0][0].SetFault(chaos.Error5xx)
	if _, _, err := c.PredicateBits(context.Background(), p); err != nil {
		t.Fatalf("call failed despite a healthy replica: %v", err)
	}
	if state := c.Replicas()[0].State; state != "tripped" {
		t.Errorf("primary state %q after genuine 500s, want tripped", state)
	}
}

// TestHungReplicaFailoverWithinDeadline is the chaos acceptance test:
// one replica of a 2-shard × 2-replica fabric hangs mid-Explore. The
// per-attempt budget (half the remaining deadline) escapes the hang,
// the query fails over and completes byte-identical to the unsharded
// reference — within the deadline, with the goroutine count back at
// baseline.
func TestHungReplicaFailoverWithinDeadline(t *testing.T) {
	tbl := datagen.Census(8_000, 17)
	local := writeShardedInputs(t, tbl, 2, 256)
	rf := startReplicatedFabric(t, local, 2)
	q := query.New("census", query.NewRange("age", 20, 70))
	want := unshardedRef(t, tbl, q)

	opener := NewOpener(Options{Timeout: 10 * time.Second, RetryWait: time.Millisecond, BreakerCooldown: time.Minute})
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
	base := runtime.NumGoroutine()

	// Shard 1's primary hangs on everything, far past the query deadline.
	rf.injectors[1][0].SetFault(chaos.Delay)
	rf.injectors[1][0].SetDelay(3 * time.Second)

	const deadline = 2 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	res, err := cart.ExploreCtx(ctx, q)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("exploration failed despite a live replica: %v (after %s)", err, elapsed)
	}
	if elapsed > deadline+500*time.Millisecond {
		t.Errorf("exploration took %s, more than deadline+500ms", elapsed)
	}
	if got := renderResult(res); got != want {
		t.Errorf("hung-replica failover result differs from unsharded:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if opener.Stats().Failovers == 0 {
		t.Error("no failover recorded while a replica hung")
	}
	opener.Close() // idle keep-alive connections are not a leak
	settleGoroutines(t, base, "hung-replica failover Explore")
}

// TestAllReplicasHungDeadlineNamesShard: when every replica of a shard
// hangs, the deadlined Explore must return — within deadline + 500ms —
// an error that wraps context.DeadlineExceeded and names the shard,
// and every fanned-out goroutine must drain.
func TestAllReplicasHungDeadlineNamesShard(t *testing.T) {
	tbl := datagen.Census(4_000, 29)
	local := writeShardedInputs(t, tbl, 2, 256)
	rf := startReplicatedFabric(t, local, 2)
	opener := NewOpener(Options{Timeout: 10 * time.Second, RetryWait: time.Millisecond})
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
	base := runtime.NumGoroutine()
	for _, inj := range rf.injectors[0] {
		inj.SetFault(chaos.Delay)
		inj.SetDelay(3 * time.Second)
	}
	const deadline = 800 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	res, err := cart.ExploreCtx(ctx, query.New("census", query.NewRange("age", 18, 80)))
	elapsed := time.Since(start)
	if res != nil {
		t.Error("got a result from a fully hung shard; partial answers must not be served")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
	if elapsed > deadline+500*time.Millisecond {
		t.Errorf("deadlined exploration returned after %s, more than deadline+500ms", elapsed)
	}
	assertNamedShardError(t, err, rf.urls[0][0])
	opener.Close() // idle keep-alive connections are not a leak
	settleGoroutines(t, base, "all-replicas-hung Explore")
}

// TestCancelledExploreReleasesGoroutines: a caller abandoning an
// Explore mid-run gets a cancellation error and the fan-out — cut
// workers, fabric RPCs, chunk loads — unwinds to baseline.
func TestCancelledExploreReleasesGoroutines(t *testing.T) {
	tbl := datagen.Census(8_000, 43)
	local := writeShardedInputs(t, tbl, 2, 256)
	rf := startReplicatedFabric(t, local, 2)
	opener := NewOpener(Options{Timeout: 10 * time.Second, RetryWait: time.Millisecond})
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
	base := runtime.NumGoroutine()
	// Slow every request so the exploration is mid-flight at cancel time.
	for _, shardInjs := range rf.injectors {
		for _, inj := range shardInjs {
			inj.SetFault(chaos.Delay)
			inj.SetDelay(150 * time.Millisecond)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(75 * time.Millisecond)
		cancel()
	}()
	res, err := cart.ExploreCtx(ctx, query.New("census", query.NewRange("age", 20, 70)))
	if err == nil {
		t.Fatalf("exploration completed despite cancellation (res=%v)", res != nil)
	}
	if !obsv.IsCancellation(err) {
		t.Fatalf("cancelled Explore returned %v, want a cancellation", err)
	}
	opener.Close() // idle keep-alive connections are not a leak
	settleGoroutines(t, base, "cancelled Explore")
}

// TestCancelledDrillReleasesGoroutines: same assertion for a session
// drill-down — the stateful path (per-shard base assembly, predicate
// bitmaps) unwinds on cancellation too.
func TestCancelledDrillReleasesGoroutines(t *testing.T) {
	tbl := datagen.Census(8_000, 47)
	local := writeShardedInputs(t, tbl, 2, 256)
	rf := startReplicatedFabric(t, local, 2)
	opener := NewOpener(Options{Timeout: 10 * time.Second, RetryWait: time.Millisecond})
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
	sess := session.NewSharded(cart, set)
	node, err := sess.Explore(query.New("census", query.NewRange("age", 25, 60)))
	if err != nil {
		t.Fatal(err)
	}
	if len(node.Result.Maps) == 0 || len(node.Result.Maps[0].Regions) == 0 {
		t.Skip("no drillable region in the warm result")
	}
	base := runtime.NumGoroutine()
	for _, shardInjs := range rf.injectors {
		for _, inj := range shardInjs {
			inj.SetFault(chaos.Delay)
			inj.SetDelay(150 * time.Millisecond)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	if _, err := sess.DrillDownCtx(ctx, 0, 0); err == nil {
		t.Log("drill completed before the cancellation landed")
	} else if !obsv.IsCancellation(err) {
		t.Fatalf("cancelled drill returned %v, want a cancellation", err)
	}
	opener.Close() // idle keep-alive connections are not a leak
	settleGoroutines(t, base, "cancelled drill-down")
}
