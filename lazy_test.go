package atlas

// Acceptance tests for the memory-tiered store: a lazily opened store
// (chunks decoding on first touch through a bounded cache) must be
// indistinguishable from the eager decode — Explore output
// byte-identical across shard counts, parallelism settings and cache
// budgets, including a thrash-sized budget of about one chunk.

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obsv"
)

// TestLazyExploreByteIdentical is the acceptance bar for the memory
// tiers: (shards ∈ {1,4}) × (parallelism ∈ {1,8}) × (cache budget ∈
// {unbounded, ~1 chunk}) must all reproduce the in-memory exploration
// byte for byte.
func TestLazyExploreByteIdentical(t *testing.T) {
	tbl := CensusDataset(20_000, 3)
	cql := "EXPLORE census WHERE age BETWEEN 20 AND 70"
	dir := t.TempDir()

	stores := map[string]string{}
	single := filepath.Join(dir, "census.atl")
	if err := SaveStore(tbl, single); err != nil {
		t.Fatal(err)
	}
	stores["shards=1"] = single
	sharded := filepath.Join(dir, "census.atlm")
	if err := SaveSharded(tbl, sharded, ShardIngestOptions{Shards: 4, ChunkSize: 512}); err != nil {
		t.Fatal(err)
	}
	stores["shards=4"] = sharded

	for _, parallelism := range []int{1, 8} {
		opts := DefaultOptions()
		opts.Parallelism = parallelism
		exPlain, err := New(tbl, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := exPlain.Explore(cql)
		if err != nil {
			t.Fatal(err)
		}
		for label, path := range stores {
			for _, budget := range []struct {
				name  string
				bytes int64
			}{
				{"unbounded", -1},
				{"1chunk", 4600}, // ≈ one 512-row numeric chunk
			} {
				for _, deferred := range []bool{false, true} {
					if deferred && label == "shards=1" {
						continue // Defer applies to sharded stores
					}
					name := label + "/" + budget.name + "/parallel=" + strconv.Itoa(parallelism)
					if deferred {
						name += "/deferred"
					}
					handle, err := OpenStoreWith(path, StoreOpenOptions{
						Lazy: true, CacheBytes: budget.bytes, Defer: deferred,
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !handle.Lazy() {
						t.Fatalf("%s: store did not open lazily", name)
					}
					ex, err := handle.NewExplorer(opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					led := new(obsv.Ledger)
					got, err := ex.exploreCtx(obsv.WithLedger(context.Background(), led), cql)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if g, w := stripTiming(FormatResult(got)), stripTiming(FormatResult(want)); g != w {
						t.Errorf("%s: lazy result differs:\n got: %s\nwant: %s", name, g, w)
					}
					if sn := led.Snapshot(); sn.ChunksPruned == 0 && sn.ChunksScanned == 0 {
						t.Errorf("%s: no scan decisions recorded", name)
					}
					if err := handle.Close(); err != nil {
						t.Errorf("%s: close: %v", name, err)
					}
				}
			}
		}
	}
}

// TestLazyStoreCorruptExploreError: an Explore touching a corrupt chunk
// must fail with the named chunk error — never panic, never return
// silently wrong maps.
func TestLazyStoreCorruptExploreError(t *testing.T) {
	tbl := CensusDataset(5_000, 1)
	dir := t.TempDir()
	path := filepath.Join(dir, "census.atl")
	if err := SaveStore(tbl, path); err != nil {
		t.Fatal(err)
	}
	corruptFirstValueChunk(t, path)
	handle, err := OpenStoreWith(path, StoreOpenOptions{Lazy: true})
	if err != nil {
		t.Fatal(err) // metadata intact; corruption is in the values
	}
	defer handle.Close()
	ex, err := handle.NewExplorer(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, err = ex.Explore("EXPLORE census WHERE age BETWEEN 20 AND 70")
	if err == nil {
		t.Fatal("explore over a corrupt lazy store returned no error")
	}
	if !strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("error should name the chunk checksum failure, got: %v", err)
	}
}

// TestLazyStoreCorruptSummarizeError: summarizing a lazy store with a
// corrupt chunk fails with the chunk's checksum error instead of
// answering a summary truncated at that chunk.
func TestLazyStoreCorruptSummarizeError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "census.atl")
	if err := SaveStore(CensusDataset(5_000, 1), path); err != nil {
		t.Fatal(err)
	}
	corruptFirstValueChunk(t, path)
	handle, err := OpenStoreWith(path, StoreOpenOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	defer handle.Close()
	sums, err := Summarize(handle.Table())
	if err == nil {
		t.Fatalf("summary of a corrupt lazy store answered %d columns and no error", len(sums))
	}
	if !strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("error should name the chunk checksum failure, got: %v", err)
	}
}

// corruptFirstValueChunk flips one byte in the middle of the file's
// value region and reseals the trailer CRC, so only the per-chunk CRC
// of the unlucky chunk trips — on first touch, not at open.
func corruptFirstValueChunk(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	sum := crc32.ChecksumIEEE(data[:len(data)-4])
	binary.LittleEndian.PutUint32(data[len(data)-4:], sum)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
