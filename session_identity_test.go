package atlas

import (
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/colstore"
	"repro/internal/remote"
	"repro/internal/shard"
)

// serveShardsRemotely serves every shard of the local manifest from an
// in-process fabric server and returns the coordinator manifest naming
// them; the servers stop when the test ends.
func serveShardsRemotely(t *testing.T, localManifest string) string {
	t.Helper()
	m, err := shard.ReadManifest(localManifest)
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, len(m.Shards))
	for i, sf := range m.Shards {
		st, err := colstore.OpenWith(filepath.Join(filepath.Dir(localManifest), sf.File), colstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(remote.NewServer(st).Handler())
		t.Cleanup(func() { ts.Close(); st.Close() })
		urls[i] = ts.URL
	}
	rm, err := shard.RemoteManifest(m, urls)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "remote.atlm")
	if err := shard.WriteManifestFile(path, rm); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSessionDrillMatchesStatelessExplore: a session drill starts from
// the parent region's bitmap, yet answers — FormatResult byte for byte —
// what a stateless Explore of the region's CQL answers, two levels deep,
// on every storage tier: in memory, a lazy store behind a one-chunk
// cache, a sharded set, and shards served over the remote fabric.
func TestSessionDrillMatchesStatelessExplore(t *testing.T) {
	tbl := CensusDataset(8_000, 9)
	dir := t.TempDir()
	single := filepath.Join(dir, "census.atl")
	if err := colstore.WriteFile(single, tbl, 512); err != nil {
		t.Fatal(err)
	}
	ranged := writeShardedCensus(t, tbl, ShardIngestOptions{Shards: 3, ChunkSize: 256})
	stores := []struct {
		name, path string
		open       StoreOpenOptions
	}{
		{"lazy/1chunk", single, StoreOpenOptions{Lazy: true, CacheBytes: 8 * 512}},
		{"sharded", ranged, StoreOpenOptions{}},
		{"remote", serveShardsRemotely(t, ranged), StoreOpenOptions{}},
	}
	plain, err := New(tbl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	explorers := map[string]*Explorer{"in-memory": plain}
	for _, s := range stores {
		h, err := OpenStoreWith(s.path, s.open)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		t.Cleanup(func() { h.Close() })
		ex, err := h.NewExplorer(DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		explorers[s.name] = ex
	}
	for name, ex := range explorers {
		st, err := ex.Parse("EXPLORE census WHERE age BETWEEN 20 AND 70")
		if err != nil {
			t.Fatal(err)
		}
		q := st.Query
		sess := ex.NewSession()
		node, err := sess.Explore(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for level := 1; level <= 2; level++ {
			// The last narrowing region: region 0 would not tell one
			// region's bitmap from another's.
			mi, ri := -1, -1
			for i, m := range node.Result.Maps {
				for j, r := range m.Regions {
					if r.Count > 0 && r.Count < node.Result.BaseCount {
						mi, ri = i, j
					}
				}
			}
			if ri < 0 {
				t.Fatalf("%s level %d: no region narrows the selection", name, level)
			}
			if node, err = sess.DrillDown(mi, ri); err != nil {
				t.Fatalf("%s level %d: %v", name, level, err)
			}
			want, err := ex.Explore(node.Query.String())
			if err != nil {
				t.Fatalf("%s level %d: %v", name, level, err)
			}
			if g, w := stripTiming(FormatResult(node.Result)), stripTiming(FormatResult(want)); g != w {
				t.Errorf("%s level %d: drill differs from a stateless explore of %s:\n got: %s\nwant: %s",
					name, level, node.Query.String(), g, w)
			}
		}
	}
}
