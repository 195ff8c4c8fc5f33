package engine

import (
	"sort"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/datagen"
	"repro/internal/obsv"
	"repro/internal/query"
	"repro/internal/storage"
)

// TestEvalBaseStartsAtUnprunedWindow: an exploration's base is allocated
// over the chunks the zone maps leave, not the table: a 1 % ra band on
// the ra-sorted 200k sky holds at most the words of the chunks its
// predicate does not prune, selects exactly the rows a full-length scan
// selects, and bills every other chunk as pruned.
func TestEvalBaseStartsAtUnprunedWindow(t *testing.T) {
	sky := datagen.SkySurvey(200_000, 5)
	ra := sky.Column(sky.Schema().Index("ra")).(*storage.Float64Column).Values()
	idx := make([]int, sky.NumRows())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return ra[idx[a]] < ra[idx[b]] })
	sky = sky.Gather("sky", idx)

	q := query.New("sky", query.NewRange("ra", 90, 93.6))
	var stats ScanStats
	base, err := EvalBase(sky, q, ScanOptions{Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	ck := sky.Chunking()
	cps, err := compileQuery(sky, q)
	if err != nil {
		t.Fatal(err)
	}
	unpruned := 0
	for k := range ck.NumChunks(sky.NumRows()) {
		if chunkVerdict(sky)(&cps[0], k) != zonePrune {
			unpruned++
		}
	}
	_, words := base.Window()
	if limit := unpruned * ck.Size / 64; unpruned == 0 || len(words) > limit {
		t.Errorf("base holds %d words; the %d unpruned chunks hold %d", len(words), unpruned, limit)
	}
	want := bitvec.NewFull(sky.NumRows())
	if err := EvalAndIntoOpts(sky, q, want, ScanOptions{Stats: new(obsv.ScanStats)}); err != nil {
		t.Fatal(err)
	}
	if !base.Equal(want) {
		t.Errorf("base selects %d rows, the full-length scan %d", base.Count(), want.Count())
	}
	if got, wantPruned := stats.ChunksPruned.Load(), int64(ck.NumChunks(sky.NumRows())-unpruned); got != wantPruned {
		t.Errorf("%d chunks billed pruned, want %d", got, wantPruned)
	}
}
