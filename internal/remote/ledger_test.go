package remote

import (
	"context"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/obsv"
	"repro/internal/query"
	"repro/internal/session"
	"repro/internal/shard"
)

// fabricCounters bundles the lifetime counter planes the ledger's store
// and fabric planes mirror: the shard set's store I/O and the opener's
// fabric accounting. Comparable, so stability polling can just compare
// struct values.
type fabricCounters struct {
	io  colstore.IOStats
	fab Stats
}

func readFabricCounters(set *shard.Set, op *Opener) fabricCounters {
	return fabricCounters{io: set.IOStats(), fab: op.Stats()}
}

// waitSettled polls until two consecutive reads agree — detached
// prefetches land asynchronously, and both the counters and the ledger
// must stop moving before a delta comparison means anything.
func waitSettled(t *testing.T, read func() fabricCounters) fabricCounters {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	prev := read()
	for {
		time.Sleep(25 * time.Millisecond)
		cur := read()
		if cur == prev {
			return cur
		}
		if time.Now().After(deadline) {
			t.Fatalf("counters never settled:\n  %+v\nvs\n  %+v", prev, cur)
		}
		prev = cur
	}
}

// TestLedgerExactnessOnFabric is the resource-ledger acceptance test:
// on a 2-shard × 2-replica fabric, an exploration run under a ledger
// context must be billed EXACTLY — the ledger's store and fabric planes
// equal the deltas of the lifetime counters (colstore.IOStats, opener
// Stats) over the same query. The ledger bills at the same call sites
// as those counters, so any drift is a missed or double-billed site.
// (The scan plane has no second counter to compare with: the ledger is
// the only one.)
func TestLedgerExactnessOnFabric(t *testing.T) {
	testLedgerExactness(t, false)
}

// TestLedgerExactnessDeferredOpen covers the deferred-open billing
// path: the first query forces the shard opens, and the open's own
// metadata/zone RPCs must land on its bill like everything else.
func TestLedgerExactnessDeferredOpen(t *testing.T) {
	testLedgerExactness(t, true)
}

func testLedgerExactness(t *testing.T, deferOpen bool) {
	tbl := datagen.Census(8_000, 43)
	local := writeShardedInputs(t, tbl, 2, 256)
	rf := startReplicatedFabric(t, local, 2)

	opener := NewOpener(Options{Timeout: 10 * time.Second})
	set, err := shard.OpenWith(rf.manifest, shard.Options{Remote: opener, Defer: deferOpen})
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

	read := func() fabricCounters { return readFabricCounters(set, opener) }
	q := query.New("census", query.NewRange("age", 25, 60))

	// Two passes: a cold one (stats, dictionaries, and chunks all paid
	// on the wire) and a warm one (mostly cache hits). Exactness must
	// hold at ANY cache state — the bill changes, the match does not.
	for pass, name := range []string{"cold", "warm"} {
		led := obsv.NewLedger()
		ctx := obsv.WithLedger(context.Background(), led)

		before := waitSettled(t, read)
		res, err := cart.ExploreCtx(ctx, q)
		if err != nil {
			t.Fatalf("%s explore: %v", name, err)
		}
		if len(res.Maps) == 0 {
			t.Fatalf("%s explore returned no maps", name)
		}
		led.Finish()

		// Settle counters AND the ledger together: a detached prefetch
		// bills both sides when it lands, so snapshot only once neither
		// is moving.
		var s obsv.LedgerSnapshot
		after := waitSettled(t, func() fabricCounters {
			c := read()
			s = led.Snapshot()
			return c
		})

		if got, want := s.BytesRead, after.io.BytesRead-before.io.BytesRead; got != want {
			t.Errorf("%s: ledger BytesRead = %d, store delta = %d", name, got, want)
		}
		if got, want := s.StoreChunksDecoded, after.io.ChunksDecoded-before.io.ChunksDecoded; got != want {
			t.Errorf("%s: ledger StoreChunksDecoded = %d, store delta = %d", name, got, want)
		}
		if got, want := s.RPCs, after.fab.RPCs-before.fab.RPCs; got != want {
			t.Errorf("%s: ledger RPCs = %d, opener delta = %d", name, got, want)
		}
		if got, want := s.BytesWire, after.fab.BytesIn-before.fab.BytesIn; got != want {
			t.Errorf("%s: ledger BytesWire = %d, opener delta = %d", name, got, want)
		}

		// The cold pass must actually exercise the fabric — an exact
		// match of all-zero deltas would prove nothing.
		if pass == 0 {
			if s.RPCs == 0 || s.BytesWire == 0 {
				t.Errorf("cold pass billed no fabric traffic: %+v", s)
			}
			if s.ChunksScanned+s.ChunksPruned+s.ChunksFull == 0 {
				t.Errorf("cold pass billed no chunk verdicts: %+v", s)
			}
		}
	}
}

// TestSessionRootBillsLikeStatelessExplore: a session's root
// exploration takes the same base path as a stateless one, so over two
// identically cold fabrics the two bill the same RPCs, wire bytes and
// chunk verdicts for the same query.
func TestSessionRootBillsLikeStatelessExplore(t *testing.T) {
	tbl := datagen.Census(8_000, 43)
	local := writeShardedInputs(t, tbl, 2, 256)
	q := query.New("census", query.NewRange("age", 25, 60))
	bill := func(explore func(ctx context.Context, cart *core.Cartographer) (*core.Result, error)) obsv.LedgerSnapshot {
		f := startFabric(t, local, nil)
		opener := testOpener()
		set, err := shard.OpenWith(f.manifest, shard.Options{Remote: opener})
		if err != nil {
			t.Fatal(err)
		}
		defer set.Close()
		opts := core.DefaultOptions()
		opts.Parallelism = 1
		cart, err := core.NewCartographerWith(set.Table(), opts, set.Provider(opts.Parallelism))
		if err != nil {
			t.Fatal(err)
		}
		led := obsv.NewLedger()
		if _, err := explore(obsv.WithLedger(context.Background(), led), cart); err != nil {
			t.Fatal(err)
		}
		led.Finish()
		var s obsv.LedgerSnapshot
		waitSettled(t, func() fabricCounters {
			c := readFabricCounters(set, opener)
			s = led.Snapshot()
			return c
		})
		return s
	}
	stateless := bill(func(ctx context.Context, cart *core.Cartographer) (*core.Result, error) {
		return cart.ExploreCtx(ctx, q)
	})
	sess := bill(func(ctx context.Context, cart *core.Cartographer) (*core.Result, error) {
		n, err := session.New(cart).ExploreCtx(ctx, q)
		if err != nil {
			return nil, err
		}
		return n.Result, nil
	})
	if stateless.RPCs == 0 {
		t.Fatal("stateless explore billed no RPCs")
	}
	if sess.RPCs != stateless.RPCs || sess.BytesWire != stateless.BytesWire {
		t.Errorf("session root billed %d RPCs / %d wire bytes, stateless explore %d / %d",
			sess.RPCs, sess.BytesWire, stateless.RPCs, stateless.BytesWire)
	}
	if sess.ChunksScanned != stateless.ChunksScanned || sess.ChunksPruned != stateless.ChunksPruned || sess.ChunksFull != stateless.ChunksFull {
		t.Errorf("session root chunk verdicts %d/%d/%d, stateless %d/%d/%d",
			sess.ChunksScanned, sess.ChunksPruned, sess.ChunksFull,
			stateless.ChunksScanned, stateless.ChunksPruned, stateless.ChunksFull)
	}
}
