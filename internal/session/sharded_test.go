package session

import (
	"path/filepath"
	"testing"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/query"
	"repro/internal/shard"
)

// lazyThrash is the store configuration the identity test runs next to
// the auto-mode open: lazy, behind a 64 KiB decoded-chunk cache.
var lazyThrash = colstore.Options{Mode: colstore.ModeLazy, CacheBytes: 65536}

func shardedFixture(t *testing.T, shards, workers int, store colstore.Options) (*Session, *Session) {
	t.Helper()
	tbl := datagen.Census(12_000, 9)
	dir := t.TempDir()
	path := filepath.Join(dir, "census.atlm")
	if _, err := shard.WriteSharded(path, tbl, shard.IngestOptions{Shards: shards, ChunkSize: 256}); err != nil {
		t.Fatal(err)
	}
	set, err := shard.OpenWith(path, shard.Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { set.Close() })
	opts := core.DefaultOptions()
	opts.Parallelism = workers
	plainCart, err := core.NewCartographer(tbl, opts)
	if err != nil {
		t.Fatal(err)
	}
	shardCart, err := core.NewCartographerWith(set.Table(), opts, set.Provider(workers))
	if err != nil {
		t.Fatal(err)
	}
	return New(plainCart), New(shardCart)
}

// TestShardedSessionMatchesPlain: a session over a sharded table walks
// the same drill-down tree to the same results as an unsharded one —
// with the set opened in auto mode and lazily behind a tiny cache.
func TestShardedSessionMatchesPlain(t *testing.T) {
	for _, cfg := range []struct {
		shards, workers int
		store           colstore.Options
	}{
		{2, 1, colstore.Options{}}, {4, 2, colstore.Options{}}, {8, 8, colstore.Options{}},
		{2, 1, lazyThrash}, {4, 2, lazyThrash}, {8, 8, lazyThrash},
	} {
		plain, sharded := shardedFixture(t, cfg.shards, cfg.workers, cfg.store)
		q := query.New("census", query.NewRange("age", 20, 70))
		np, err := plain.Explore(q)
		if err != nil {
			t.Fatal(err)
		}
		ns, err := sharded.Explore(q)
		if err != nil {
			t.Fatal(err)
		}
		if np.Result.BaseCount != ns.Result.BaseCount {
			t.Fatalf("shards=%d workers=%d: base %d vs %d", cfg.shards, cfg.workers, np.Result.BaseCount, ns.Result.BaseCount)
		}
		if len(np.Result.Maps) == 0 {
			t.Fatal("no maps")
		}
		for mi, m := range np.Result.Maps {
			if got := ns.Result.Maps[mi].String(); got != m.String() {
				t.Fatalf("shards=%d workers=%d map %d:\n got: %s\nwant: %s", cfg.shards, cfg.workers, mi, got, m.String())
			}
		}
		// Drill into the same region on both sessions.
		dp, err := plain.DrillDown(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := sharded.DrillDown(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if dp.Result.BaseCount != ds.Result.BaseCount {
			t.Fatalf("drill base %d vs %d", dp.Result.BaseCount, ds.Result.BaseCount)
		}
		if got, want := renderMaps(ds.Result.Maps), renderMaps(dp.Result.Maps); got != want {
			t.Fatalf("shards=%d workers=%d drill:\n got: %s\nwant: %s", cfg.shards, cfg.workers, got, want)
		}
	}
}

// TestShardedSessionNoPredicates: an unfiltered exploration of a sharded
// table selects every row.
func TestShardedSessionNoPredicates(t *testing.T) {
	_, sharded := shardedFixture(t, 4, 2, colstore.Options{})
	n, err := sharded.Explore(query.New("census"))
	if err != nil {
		t.Fatal(err)
	}
	if n.Result.BaseCount != n.Result.TotalRows {
		t.Fatalf("base %d, want all %d rows", n.Result.BaseCount, n.Result.TotalRows)
	}
}
