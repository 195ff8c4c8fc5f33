package colstore

import (
	"context"
	"math/bits"
	"path/filepath"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/storage"
)

// prefetchStore writes a small numeric store and opens it lazily.
func prefetchStore(t *testing.T, n, chunk int, o Options) *Store {
	t.Helper()
	schema := storage.MustSchema(storage.Field{Name: "v", Type: storage.Int64})
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	tbl := storage.MustTable("t", schema, []storage.Column{storage.NewInt64Column(vals, nil)})
	path := filepath.Join(t.TempDir(), "t.atl")
	if err := WriteFile(path, tbl, chunk); err != nil {
		t.Fatal(err)
	}
	o.Mode = ModeLazy
	s, err := OpenWith(path, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestSequentialPrefetchNoExtraDecodes drives a full sequential scan
// and checks that prefetching never decodes a chunk twice (single
// flight through the shared cache) and never decodes chunks the scan
// does not touch.
func TestSequentialPrefetchNoExtraDecodes(t *testing.T) {
	const n, chunk = 4096, 256
	s := prefetchStore(t, n, chunk, Options{})
	sum := int64(0)
	err := s.Table().Runs(0).Walk(context.Background(), nil, 1, "test", nil, func(_ int, _ []uint64, p *storage.ChunkPayload) {
		for _, v := range p.Ints {
			sum += v
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(n) * (n - 1) / 2; sum != want {
		t.Fatalf("scan sum %d, want %d", sum, want)
	}
	numChunks := s.NumChunks()
	if got := s.IOStats().ChunksDecoded; got != int64(numChunks) {
		t.Errorf("decoded %d chunks for a %d-chunk scan; prefetch must stay single-flight", got, numChunks)
	}
}

// TestSelectedPrefetchOnlyTouchedChunks scans under a sparse selection
// and checks prefetch follows the touched-chunk list, not raw
// adjacency: untouched chunks stay undecoded.
func TestSelectedPrefetchOnlyTouchedChunks(t *testing.T) {
	const n, chunk = 4096, 256
	s := prefetchStore(t, n, chunk, Options{})
	// Select one row in chunk 2 and one in chunk 9 — two touched chunks
	// with a gap, so naive k+1 prefetching would decode chunk 3.
	sel := bitvec.New(n)
	sel.Set(2*chunk + 5)
	sel.Set(9*chunk + 7)
	seen := 0
	err := s.Table().Runs(0).WalkUntil(context.Background(), sel, "test", nil, func(_ int, sw []uint64, p *storage.ChunkPayload) bool {
		for _, w := range sw {
			seen += bits.OnesCount64(w)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 2 {
		t.Fatalf("visited %d rows, want 2", seen)
	}
	if got := s.IOStats().ChunksDecoded; got != 2 {
		t.Errorf("decoded %d chunks; want exactly the 2 touched ones", got)
	}
}

// TestPrefetchEvictionAware checks a tight budget disables prefetching
// instead of thrashing: the scan still works and decodes each chunk
// exactly once per touch.
func TestPrefetchEvictionAware(t *testing.T) {
	const n, chunk = 2048, 256
	// Budget of one chunk's decoded bytes: prefetching chunk k+1 would
	// evict chunk k mid-scan.
	s := prefetchStore(t, n, chunk, Options{CacheBytes: chunk * 8})
	rows := 0
	err := s.Table().Runs(0).Walk(context.Background(), nil, 1, "test", nil, func(_ int, _ []uint64, p *storage.ChunkPayload) {
		rows += p.Rows()
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != n {
		t.Fatalf("scanned %d rows, want %d", rows, n)
	}
	numChunks := int64(s.NumChunks())
	if got := s.IOStats().ChunksDecoded; got != numChunks {
		t.Errorf("decoded %d chunks under a 1-chunk budget; want %d (no speculative churn)", got, numChunks)
	}
}
