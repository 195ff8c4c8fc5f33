package atlas

// Acceptance tests for the sharded atlas: a table split across N shard
// files must be indistinguishable from the unsharded table — Explore
// output byte-identical at every (shard count, parallelism) pair — while
// ingest, open and sessions all run through the public facade.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeShardedCensus(t *testing.T, tbl *Table, o ShardIngestOptions) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "census.atlm")
	if err := SaveSharded(tbl, path, o); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestShardedExploreByteIdentical is the acceptance bar: Explore over a
// shard set equals Explore over the unsharded table, for 1/2/4/8 shards
// at parallelism 1/2/8, opened in auto mode and lazily behind a tiny
// cache.
func TestShardedExploreByteIdentical(t *testing.T) {
	tbl := CensusDataset(20_000, 3)
	cql := "EXPLORE census WHERE age BETWEEN 20 AND 70"
	for _, shards := range []int{1, 2, 4, 8} {
		path := writeShardedCensus(t, tbl, ShardIngestOptions{Shards: shards, ChunkSize: 512})
		for _, mode := range []string{"auto", "lazy/64KiB"} {
			st := openShardedMode(t, path, mode)
			if shards > 1 && st.NumShards() != shards {
				t.Fatalf("opened %d shards, want %d", st.NumShards(), shards)
			}
			for _, parallelism := range []int{1, 2, 8} {
				opts := DefaultOptions()
				opts.Parallelism = parallelism
				exPlain, err := New(tbl, opts)
				if err != nil {
					t.Fatal(err)
				}
				exShard, err := NewSharded(st, opts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := exPlain.Explore(cql)
				if err != nil {
					t.Fatal(err)
				}
				got, err := exShard.Explore(cql)
				if err != nil {
					t.Fatal(err)
				}
				if got.BaseCount != want.BaseCount || got.TotalRows != want.TotalRows {
					t.Fatalf("%s shards=%d parallelism=%d: counts differ", mode, shards, parallelism)
				}
				if g, w := stripTiming(FormatResult(got)), stripTiming(FormatResult(want)); g != w {
					t.Errorf("%s shards=%d parallelism=%d: sharded result differs:\n got: %s\nwant: %s",
						mode, shards, parallelism, g, w)
				}
			}
		}
	}
}

// openShardedMode opens a manifest in auto mode or, for "lazy/64KiB",
// with lazyThrash; the set closes when the test ends.
func openShardedMode(t *testing.T, path, mode string) *ShardedTable {
	t.Helper()
	o := StoreOpenOptions{}
	if mode == "lazy/64KiB" {
		o = lazyThrash
	}
	st, err := OpenShardedWith(path, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestShardedSessionFacade: sessions over a sharded explorer drill to
// the same results as over the plain table, opened in auto mode and
// lazily behind a tiny cache.
func TestShardedSessionFacade(t *testing.T) {
	tbl := CensusDataset(10_000, 5)
	path := writeShardedCensus(t, tbl, ShardIngestOptions{Shards: 4, ChunkSize: 256})
	for _, mode := range []string{"auto", "lazy/64KiB"} {
		st := openShardedMode(t, path, mode)
		exPlain, err := New(tbl, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		exShard, err := NewSharded(st, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		stmt, err := exShard.Parse("EXPLORE census")
		if err != nil {
			t.Fatal(err)
		}
		q := stmt.Query
		sp := exPlain.NewSession()
		ss := exShard.NewSession()
		np, err := sp.Explore(q)
		if err != nil {
			t.Fatal(err)
		}
		ns, err := ss.Explore(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(np.Result.Maps) == 0 {
			t.Fatal("no maps")
		}
		if g, w := stripTiming(FormatResult(ns.Result)), stripTiming(FormatResult(np.Result)); g != w {
			t.Errorf("%s: sharded session explore differs:\n got: %s\nwant: %s", mode, g, w)
		}
		dp, err := sp.DrillDown(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := ss.DrillDown(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := stripTiming(FormatResult(ds.Result)), stripTiming(FormatResult(dp.Result)); g != w {
			t.Errorf("%s: sharded drill-down differs:\n got: %s\nwant: %s", mode, g, w)
		}
	}
}

// TestShardedHashManifestRefused: the façade refuses a hash-partitioned
// manifest, as hash ingest used to write it, on every open path, naming
// the file: a set is a chunk-aligned range partition.
func TestShardedHashManifestRefused(t *testing.T) {
	path := writeShardedCensus(t, CensusDataset(8_000, 7), ShardIngestOptions{Shards: 4, ChunkSize: 256})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.Replace(data, []byte(`"partitioning": "range",`), []byte(`"partitioning": "hash", "key": "education",`), 1)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if !IsShardManifest(path) {
		t.Fatal("manifest not detected")
	}
	_, errSharded := OpenSharded(path)
	_, errStore := OpenStoreWith(path, StoreOpenOptions{Lazy: true, Defer: true})
	for _, err := range []error{errSharded, errStore} {
		if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), `"hash" partitioning is not supported`) {
			t.Errorf("err = %v, want %s refused as a hash manifest", err, path)
		}
	}
}

// TestIsShardManifestOnStore: a single-file store is not a manifest.
func TestIsShardManifestOnStore(t *testing.T) {
	tbl := CensusDataset(1_000, 1)
	path := filepath.Join(t.TempDir(), "census.atl")
	if err := SaveStore(tbl, path); err != nil {
		t.Fatal(err)
	}
	if IsShardManifest(path) {
		t.Error("single-file store detected as manifest")
	}
}
