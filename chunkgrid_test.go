package atlas

// Every table carries a chunk grid: a store's, or for a table built from
// resident columns its own 4 096-row grid with zone maps computed at
// construction. These tests pin what that grid may and may not change:
// never an answer, always the chunks a scan reads and what EXPLAIN
// reports of them.

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/obsv"
	"repro/internal/storage"
)

// rechunked returns tbl with zone maps and runs over size-row chunks.
func rechunked(t *testing.T, tbl *storage.Table, size int) *storage.Table {
	t.Helper()
	ck, err := storage.ComputeChunking(tbl, size)
	if err != nil {
		t.Fatal(err)
	}
	out, err := tbl.WithChunking(ck)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestChunkSizeNeverChangesAnswer: the chunk size of a resident table
// changes which chunks a scan prunes and how it shards across workers,
// never an answer. Each generated table of the identity net, and its
// copy sorted by i, is explored — every query, a drill into each answer
// and each query WITH SAMPLE — at runs of 64 rows, of 4 096 and of one
// run over the whole table, at Parallelism 1 and 2, and every answer
// must format byte-identically.
func TestChunkSizeNeverChangesAnswer(t *testing.T) {
	seeds := []int64{1, time.Now().UnixNano()}
	if *identitySeed != 0 {
		seeds = []int64{*identitySeed}
	}
	for _, seed := range seeds {
		r := rand.New(rand.NewSource(seed))
		rows := identityChunk*(4+r.Intn(12)) + r.Intn(3) - 1
		tbl := identityTable(seed, rows)
		cats, err := storage.Dictionary(tbl.Column(3))
		if err != nil {
			t.Fatal(err)
		}
		queries := identityQueries(r, 5, cats)
		for _, tc := range []struct {
			label string
			tbl   *storage.Table
		}{
			{"as generated", tbl},
			{"sorted by i", sortedBy(tbl, "i")},
		} {
			var want, wantSampled []string
			for _, size := range []int{storage.ResidentChunkRows, 64, (rows + 63) &^ 63} {
				chunked := rechunked(t, tc.tbl, size)
				for _, par := range []int{1, 2} {
					res := residency{name: fmt.Sprintf("%d-row runs", size), table: chunked}
					got, gotSampled := identityAnswers(t, res, par, queries)
					if want == nil {
						want, wantSampled = got, gotSampled
						continue
					}
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("seed %d (rerun with -identity.seed=%d), %s, %d-row runs at parallelism %d, answer %d differs:\nwant:\n%s\ngot:\n%s",
								seed, seed, tc.label, size, par, i, want[i], got[i])
						}
					}
					for i := range wantSampled {
						if gotSampled[i] != wantSampled[i] {
							t.Errorf("seed %d (rerun with -identity.seed=%d), %s, %d-row runs at parallelism %d, sampled answer %d differs:\nwant:\n%s\ngot:\n%s",
								seed, seed, tc.label, size, par, i, wantSampled[i], gotSampled[i])
						}
					}
				}
			}
		}
	}
}

// raSortedSky is the sky survey ordered by ra, ties in row order: a
// clustered table whose ra bands are contiguous row ranges.
func raSortedSky(rows int, seed int64) *Table {
	sky := SkySurveyDataset(rows, seed)
	col, err := sky.ColumnByName("ra")
	if err != nil {
		panic(err)
	}
	ra := col.(*storage.Float64Column).Values()
	idx := make([]int, rows)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return ra[idx[a]] < ra[idx[b]] })
	return sky.Gather("sky", idx)
}

// TestNarrowBandPrunesResidentChunks: an in-memory table built by a
// gather carries zone maps of its own, so a narrow ra band on the
// ra-sorted sky prunes at least 90 % of its chunks, as the ledger bills
// them, and EXPLAIN reports the same verdicts.
func TestNarrowBandPrunesResidentChunks(t *testing.T) {
	sky := raSortedSky(200_000, 7)
	ex, err := New(sky, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const text = "EXPLORE sky WHERE ra BETWEEN 180 AND 183.6"
	led := new(obsv.Ledger)
	if _, err := ex.exploreCtx(obsv.WithLedger(context.Background(), led), text); err != nil {
		t.Fatal(err)
	}
	chunks := (sky.NumRows() + storage.ResidentChunkRows - 1) / storage.ResidentChunkRows
	sn := led.Snapshot()
	if sn.ChunksPruned*10 < int64(chunks)*9 {
		t.Errorf("ledger: %d of %d chunks pruned, want at least 90 %%", sn.ChunksPruned, chunks)
	}
	plan, err := ex.Explain(text)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumChunks != chunks || plan.ChunkSize != storage.ResidentChunkRows || int64(plan.ChunksPruned) != sn.ChunksPruned || int64(plan.ChunksScanned) != sn.ChunksScanned {
		t.Errorf("explain: %d chunks of %d rows, %d pruned, %d scanned; want %d of %d, and the ledger's %d pruned, %d scanned",
			plan.NumChunks, plan.ChunkSize, plan.ChunksPruned, plan.ChunksScanned, chunks, storage.ResidentChunkRows, sn.ChunksPruned, sn.ChunksScanned)
	}
}

// TestExplainSampleCountsLedgerScan: on the 4-shard sky store, a sampled
// plan counts only the chunks that hold a sampled row, and its scanned
// chunks are the sampled exploration's base scan's, as the ledger bills
// it; without the sample both count every chunk the conjunction scans,
// and agree on every verdict. The ra band scans the chunks at its edges
// and keeps the others whole or prunes them, so at the edges both
// predicates scan one chunk, billed once.
func TestExplainSampleCountsLedgerScan(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "sky.atlm")
	if err := SaveSharded(raSortedSky(50_000, 11), manifest, ShardIngestOptions{Shards: 4, ChunkSize: 1024}); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStoreWith(manifest, StoreOpenOptions{Lazy: true, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ex, err := st.NewExplorer(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const (
		full    = "EXPLORE sky WHERE ra BETWEEN 10 AND 350 AND dec BETWEEN -30 AND 30"
		sampled = full + " WITH SAMPLE 0.0001"
	)
	scanned := map[string]int{}
	for _, text := range []string{full, sampled} {
		plan, err := ex.Explain(text)
		if err != nil {
			t.Fatal(err)
		}
		led := new(obsv.Ledger)
		if _, err := ex.exploreCtx(obsv.WithLedger(context.Background(), led), text); err != nil {
			t.Fatal(err)
		}
		sn := led.Snapshot()
		if got, want := int64(plan.ChunksScanned), sn.ChunksScanned; got != want {
			t.Errorf("%s: explain counts %d chunks scanned, the ledger's base scan %d", text, got, want)
		}
		if text == full && (int64(plan.ChunksPruned) != sn.ChunksPruned || int64(plan.ChunksFull) != sn.ChunksFull) {
			t.Errorf("%s: explain counts %d pruned and %d full, the ledger %d and %d", text, plan.ChunksPruned, plan.ChunksFull, sn.ChunksPruned, sn.ChunksFull)
		}
		if visited := plan.ChunksPruned + plan.ChunksFull + plan.ChunksScanned; visited+plan.Unsampled != plan.NumChunks {
			t.Errorf("%s: %d chunks judged and %d unsampled of %d", text, visited, plan.Unsampled, plan.NumChunks)
		}
		scanned[text] = plan.ChunksScanned
	}
	if scanned[sampled] == 0 || scanned[sampled] >= scanned[full] {
		t.Errorf("the sampled plan scans %d chunks, the full one %d: want the sample's few", scanned[sampled], scanned[full])
	}
}

// TestDeferredPlansLikeEager: on the ra-sorted sky in 4 shards of
// 4 096-row chunks, a deferred open plans every chunk as an eager open
// does — before any shard opens and after the first explore has opened
// some — because both plan with the manifest's zone maps. A 1 % ra band
// scans at most its two edge chunks, in EXPLAIN and in the ledger of one
// explore, and opens only the shard that holds it.
func TestDeferredPlansLikeEager(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "sky.atlm")
	if err := SaveSharded(raSortedSky(200_000, 7), manifest, ShardIngestOptions{Shards: 4, ChunkSize: 4096}); err != nil {
		t.Fatal(err)
	}
	bands := []string{
		"EXPLORE sky WHERE ra BETWEEN 180 AND 183.6", // 1 %
		"EXPLORE sky WHERE ra BETWEEN 90 AND 126",    // 10 %
		"EXPLORE sky WHERE ra BETWEEN 90 AND 270",    // 50 %
	}
	open := func(deferred bool) (*StoreHandle, *Explorer) {
		st, err := OpenStoreWith(manifest, StoreOpenOptions{Lazy: true, CacheBytes: 1 << 20, Defer: deferred})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		ex, err := st.NewExplorer(DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return st, ex
	}
	_, eager := open(false)
	st, deferred := open(true)
	plans := func(when string) {
		for _, text := range bands {
			want, err := eager.Explain(text)
			if err != nil {
				t.Fatal(err)
			}
			got, err := deferred.Explain(text)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got.Verdicts) != fmt.Sprint(want.Verdicts) {
				t.Errorf("%s, %s: deferred verdicts %v, eager %v", when, text, got.Verdicts, want.Verdicts)
			}
		}
	}
	plans("before any shard opens")
	if n := st.Sharded().OpenedShards(); n != 0 {
		t.Fatalf("planning opened %d shards", n)
	}
	plan, err := deferred.Explain(bands[0])
	if err != nil {
		t.Fatal(err)
	}
	led := new(obsv.Ledger)
	if _, err := deferred.exploreCtx(obsv.WithLedger(context.Background(), led), bands[0]); err != nil {
		t.Fatal(err)
	}
	if sn := led.Snapshot(); plan.ChunksScanned > 2 || sn.ChunksScanned > 2 {
		t.Errorf("the 1 %% band scans %d chunks in EXPLAIN and %d in the ledger, want at most 2", plan.ChunksScanned, sn.ChunksScanned)
	}
	if n := st.Sharded().OpenedShards(); n != 1 {
		t.Errorf("the 1 %% band opened %d shards, want the one that holds it", n)
	}
	plans("after the first explore")
}
