package engine

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/query"
	"repro/internal/storage"
)

// chunkedSorted builds a chunked table whose "x" column rises
// monotonically, so a selective range predicate maps to few chunks.
// Chunk size 64 (the minimum) keeps the chunk count high at small n.
func chunkedSorted(t testing.TB, n int) *storage.Table {
	t.Helper()
	schema := storage.MustSchema(
		storage.Field{Name: "x", Type: storage.Int64},
		storage.Field{Name: "cat", Type: storage.String},
	)
	xs := make([]int64, n)
	cats := make([]string, n)
	for i := range xs {
		xs[i] = int64(i)
		cats[i] = fmt.Sprintf("c%d", i%5)
	}
	cols := []storage.Column{
		storage.NewInt64Column(xs, nil),
		storage.NewStringColumn(cats, nil),
	}
	plain := storage.MustTable("t", schema, cols)
	ck, err := storage.ComputeChunking(plain, 64)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := storage.NewChunkedTable("t", schema, cols, ck)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestZoneMapPruningSkipsChunks is the acceptance check: a selective
// range predicate over a sorted column must scan only the chunks whose
// zone maps intersect it, pruning the rest.
func TestZoneMapPruningSkipsChunks(t *testing.T) {
	const n = 64 * 40 // 40 chunks
	tbl := chunkedSorted(t, n)
	q := query.New("t", query.NewRange("x", 130, 190)) // inside chunks 2..2 (rows 128..191)
	var stats ScanStats
	sel := bitvec.NewFull(n)
	if err := EvalAndIntoOpts(tbl, q, sel, ScanOptions{Stats: &stats}); err != nil {
		t.Fatal(err)
	}
	if got, want := sel.Count(), 61; got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	if got := stats.ChunksScanned.Load(); got != 1 {
		t.Errorf("chunks scanned = %d, want 1 (rows 130..190 live in chunk 2)", got)
	}
	if got := stats.ChunksPruned.Load(); got != 39 {
		t.Errorf("chunks pruned = %d, want 39", got)
	}
	// A predicate aligned exactly to chunk 3 (rows 192..255) should scan
	// nothing: the zone map proves every row matches.
	var full ScanStats
	sel2 := bitvec.NewFull(n)
	q2 := query.New("t", query.NewRange("x", 192, 255))
	if err := EvalAndIntoOpts(tbl, q2, sel2, ScanOptions{Stats: &full}); err != nil {
		t.Fatal(err)
	}
	if got := sel2.Count(); got != 64 {
		t.Fatalf("count = %d, want 64", got)
	}
	if got := full.ChunksFull.Load(); got != 1 {
		t.Errorf("chunks full = %d, want 1", got)
	}
	if got := full.ChunksScanned.Load(); got != 0 {
		t.Errorf("chunks scanned = %d, want 0", got)
	}
}

// TestChunkedEvalMatchesUnchunked: the chunked scan (serial and
// parallel) must produce bit-identical selections to the plain path.
func TestChunkedEvalMatchesUnchunked(t *testing.T) {
	const n = 64*7 + 13 // partial last chunk
	schema := storage.MustSchema(
		storage.Field{Name: "x", Type: storage.Float64},
		storage.Field{Name: "cat", Type: storage.String},
		storage.Field{Name: "ok", Type: storage.Bool},
	)
	xs := make([]float64, n)
	cats := make([]string, n)
	oks := make([]bool, n)
	nulls := bitvec.New(n)
	for i := 0; i < n; i++ {
		xs[i] = math.Sin(float64(i) * 0.7 * 100)
		cats[i] = fmt.Sprintf("g%d", (i*i)%7)
		oks[i] = i%3 == 0
		if i%11 == 5 {
			nulls.Set(i)
		}
	}
	cols := []storage.Column{
		storage.NewFloat64Column(xs, nulls),
		storage.NewStringColumn(cats, nil),
		storage.NewBoolColumn(oks, nil),
	}
	plain := storage.MustTable("t", schema, cols)
	ck, err := storage.ComputeChunking(plain, 64)
	if err != nil {
		t.Fatal(err)
	}
	chunked, err := storage.NewChunkedTable("t", schema, cols, ck)
	if err != nil {
		t.Fatal(err)
	}
	queries := []query.Query{
		query.New("t", query.NewRange("x", -0.5, 0.5)),
		query.New("t", query.NewRange("x", 2, 3)), // empty
		query.New("t", query.NewIn("cat", "g1", "g4")),
		query.New("t", query.NewIn("cat", "missing")),
		query.New("t", query.NewBoolEq("ok", true)),
		query.New("t",
			query.NewRange("x", -1, 0.9),
			query.NewIn("cat", "g0", "g2", "g4"),
			query.NewBoolEq("ok", false)),
		query.New("t"),
	}
	for _, q := range queries {
		want, err := Eval(plain, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 4, 16} {
			sel := bitvec.NewFull(n)
			if err := EvalAndIntoOpts(chunked, q, sel, ScanOptions{Workers: workers}); err != nil {
				t.Fatal(err)
			}
			if !sel.Equal(want) {
				t.Errorf("q=%s workers=%d: chunked selection differs (got %d, want %d rows)",
					q.String(), workers, sel.Count(), want.Count())
			}
		}
	}
}

// TestChunkedEvalNullChunkPruned: a chunk that is entirely NULL is
// pruned for every predicate kind.
func TestChunkedEvalNullChunkPruned(t *testing.T) {
	const n = 192
	schema := storage.MustSchema(storage.Field{Name: "x", Type: storage.Int64})
	xs := make([]int64, n)
	nulls := bitvec.New(n)
	for i := 0; i < n; i++ {
		xs[i] = int64(i % 64)
		if i >= 64 && i < 128 { // chunk 1 all NULL
			nulls.Set(i)
		}
	}
	cols := []storage.Column{storage.NewInt64Column(xs, nulls)}
	plain := storage.MustTable("t", schema, cols)
	ck, err := storage.ComputeChunking(plain, 64)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := storage.NewChunkedTable("t", schema, cols, ck)
	if err != nil {
		t.Fatal(err)
	}
	var stats ScanStats
	sel := bitvec.NewFull(n)
	q := query.New("t", query.NewRange("x", 0, 63))
	if err := EvalAndIntoOpts(tbl, q, sel, ScanOptions{Stats: &stats}); err != nil {
		t.Fatal(err)
	}
	if got := sel.Count(); got != 128 {
		t.Errorf("count = %d, want 128", got)
	}
	if got := stats.ChunksPruned.Load(); got != 1 {
		t.Errorf("pruned = %d, want 1 (the all-NULL chunk)", got)
	}
	if got := stats.ChunksFull.Load(); got != 2 {
		t.Errorf("full = %d, want 2", got)
	}
}

// TestChunkedNaNNeverPruned: chunks containing NaN keep scanning. A NaN
// cell satisfies no range, so a range spanning every other value of its
// chunk must not take the chunk whole, and chunked and plain scans agree
// on ranges inside and outside the chunk's values.
func TestChunkedNaNNeverPruned(t *testing.T) {
	const n = 128
	schema := storage.MustSchema(storage.Field{Name: "x", Type: storage.Float64})
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
	}
	xs[10] = math.NaN()
	cols := []storage.Column{storage.NewFloat64Column(xs, nil)}
	plain := storage.MustTable("t", schema, cols)
	ck, err := storage.ComputeChunking(plain, 64)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := storage.NewChunkedTable("t", schema, cols, ck)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []query.Predicate{query.NewRange("x", 1000, 2000), query.NewRange("x", 0, 63)} {
		q := query.New("t", p)
		want, err := Eval(plain, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Eval(tbl, q)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: chunked NaN selection differs: got %d, want %d", p.String(), got.Count(), want.Count())
		}
		if got.Get(10) {
			t.Errorf("%s: the NaN row matched a range predicate", p.String())
		}
	}
}

// TestEvalPredicateChunked: a one-predicate evaluation also prunes.
func TestEvalPredicateChunked(t *testing.T) {
	tbl := chunkedSorted(t, 64*8)
	sel, err := evalPred(tbl, query.NewRange("x", 70, 80))
	if err != nil {
		t.Fatal(err)
	}
	if got := sel.Count(); got != 11 {
		t.Errorf("count = %d, want 11", got)
	}
}
