package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/colstore"
	"repro/internal/obsv"
	"repro/internal/query"
	"repro/internal/storage"
)

// TestRangeMatcherIsMatchFloat: the compiled matcher and
// query.Predicate.MatchFloat agree on every combination of special
// bounds, endpoint inclusion and value — NaN, infinities, signed zeros
// and the neighbours of each bound included.
func TestRangeMatcherIsMatchFloat(t *testing.T) {
	specials := []float64{math.Inf(-1), -math.MaxFloat64, -1, math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 1, math.MaxFloat64, math.Inf(1), math.NaN()}
	values := append([]float64(nil), specials...)
	for _, s := range specials {
		values = append(values, math.Nextafter(s, math.Inf(1)), math.Nextafter(s, math.Inf(-1)))
	}
	for _, lo := range specials {
		for _, hi := range specials {
			for incl := 0; incl < 4; incl++ {
				p := query.Predicate{Attr: "x", Kind: query.Range, Lo: lo, Hi: hi, LoIncl: incl&1 != 0, HiIncl: incl&2 != 0}
				m := compileRange(p)
				for _, v := range values {
					if got, want := m.match(v), p.MatchFloat(v); got != want {
						t.Fatalf("%v on %v: matcher %v, MatchFloat %v", p, v, got, want)
					}
				}
			}
		}
	}
}

// kernelTable builds a two-column numeric table that exercises the word
// kernels: NULLs, NaN cells, and values sitting exactly on every edge the
// predicate lists below use.
func kernelTable(n int, rnd *rand.Rand) *storage.Table {
	edges := []float64{-20, 0, 10, 20, 30, 50, 80}
	b := storage.NewBuilder("k", storage.MustSchema(
		storage.Field{Name: "f", Type: storage.Float64},
		storage.Field{Name: "i", Type: storage.Int64},
	))
	for r := 0; r < n; r++ {
		var f, i any
		switch {
		case r%13 == 5:
			f = nil
		case r%17 == 3:
			f = math.NaN()
		case r%4 == 0:
			f = edges[rnd.Intn(len(edges))]
		default:
			f = rnd.Float64()*120 - 30
		}
		switch {
		case r%11 == 7:
			i = nil
		case r%3 == 0:
			i = int64(edges[rnd.Intn(len(edges))])
		default:
			i = int64(rnd.Intn(120) - 30)
		}
		b.MustAppendRow(f, i)
	}
	return b.MustBuild()
}

// kernelPredLists are single-attribute predicate lists: the contiguous
// shape CUT emits, overlapping ranges (the first match wins), gapped
// ranges with open ends and a point, and an unsatisfiable range.
func kernelPredLists(attr string) map[string][]query.Predicate {
	last := query.NewRangeHalfOpen(attr, 30, 80)
	last.HiIncl = true
	return map[string][]query.Predicate{
		"cut":         {query.NewRangeHalfOpen(attr, -20, 10), query.NewRangeHalfOpen(attr, 10, 30), last},
		"overlapping": {query.NewRange(attr, 10, 50), query.NewRange(attr, 30, 80), query.NewRange(attr, -20, 80)},
		"gapped": {query.NewRangeHalfOpen(attr, 0, 10),
			{Attr: attr, Kind: query.Range, Lo: 20, Hi: 30, HiIncl: true},
			query.NewRange(attr, 50, 50)},
		"empty-first": {query.NewRange(attr, 5, -5), query.NewRange(attr, -1000, 1000)},
	}
}

// TestNumericKernelsMatchPerRowReference drives the compiled partition
// kernel and the word-wise extraction over every way a numeric column is
// held — in memory, chunked at 1/2/8 workers, lazy behind a one-chunk
// cache — and compares with a per-row pass using Predicate.MatchFloat.
// Row counts straddle a chunk and word boundary. Run under -race: the
// chunk-parallel passes write neighbouring output words.
func TestNumericKernelsMatchPerRowReference(t *testing.T) {
	const chunkRows = 512
	for _, n := range []int{4095, 4096, 4097} {
		rnd := rand.New(rand.NewSource(int64(n)))
		mem := kernelTable(n, rnd)
		path := filepath.Join(t.TempDir(), fmt.Sprintf("k%d.atl", n))
		if err := colstore.WriteFile(path, mem, chunkRows); err != nil {
			t.Fatal(err)
		}
		eager, err := colstore.OpenWith(path, colstore.Options{Mode: colstore.ModeEager})
		if err != nil {
			t.Fatal(err)
		}
		defer eager.Close()
		lazy, err := colstore.OpenWith(path, colstore.Options{Mode: colstore.ModeLazy, CacheBytes: chunkRows * 9}) // one chunk and its nulls
		if err != nil {
			t.Fatal(err)
		}
		defer lazy.Close()
		kinds := []struct {
			name    string
			tbl     *storage.Table
			workers []int
		}{
			{"memory", mem, []int{1}},
			{"chunked", eager.Table(), []int{1, 2, 8}},
			{"lazy", lazy.Table(), []int{1, 2, 8}},
		}

		sels := map[string]*bitvec.Vector{"full": bitvec.NewFull(n), "half": bitvec.New(n), "sparse": bitvec.New(n), "none": bitvec.New(n)}
		for r := 0; r < n; r++ {
			if rnd.Intn(2) == 0 {
				sels["half"].Set(r)
			}
			if r/chunkRows%3 == 1 && r%29 == 0 { // whole chunks without a selected row
				sels["sparse"].Set(r)
			}
		}

		for _, attr := range []string{"f", "i"} {
			col, err := mem.ColumnByName(attr)
			if err != nil {
				t.Fatal(err)
			}
			value := func(r int) float64 {
				if c, ok := col.(*storage.Int64Column); ok {
					return float64(c.At(r))
				}
				return col.(*storage.Float64Column).At(r)
			}
			for selName, sel := range sels {
				// extraction
				var wantVals []float64
				wantSum := NumericSummary{Min: math.Inf(1), Max: math.Inf(-1)}
				wantPresent := bitvec.New(n)
				sel.ForEach(func(r int) bool {
					if col.IsNull(r) {
						return true
					}
					wantPresent.Set(r)
					v := value(r)
					wantVals = append(wantVals, v)
					switch {
					case math.IsNaN(v):
						wantSum.NaN++
					default:
						wantSum.Min, wantSum.Max = math.Min(wantSum.Min, v), math.Max(wantSum.Max, v)
					}
					return true
				})
				for _, kind := range kinds {
					label := fmt.Sprintf("n=%d %s %s %s", n, attr, selName, kind.name)
					x := NumericExtract{Vals: make([]float64, 3, 8), Present: *bitvec.NewFull(70)}
					if err := ExtractNumericUnder(&x, kind.tbl, attr, sel, ScanOptions{}); err != nil {
						t.Fatalf("%s: extract: %v", label, err)
					}
					got, sum := x.Vals, x.Sum
					if !x.Present.Equal(wantPresent) {
						t.Errorf("%s: present bitmap differs from the selected non-NULL rows", label)
					}
					if len(got) != len(wantVals) {
						t.Fatalf("%s: extracted %d values, want %d", label, len(got), len(wantVals))
					}
					for i := range got {
						if math.Float64bits(got[i]) != math.Float64bits(wantVals[i]) {
							t.Fatalf("%s: value %d is %v, want %v", label, i, got[i], wantVals[i])
						}
					}
					if sum != wantSum {
						t.Errorf("%s: summary %+v, want %+v", label, sum, wantSum)
					}
				}

				// partition
				for listName, preds := range kernelPredLists(attr) {
					want := make([]*bitvec.Vector, len(preds))
					for ri := range want {
						want[ri] = bitvec.New(n)
					}
					sel.ForEach(func(r int) bool {
						if col.IsNull(r) {
							return true
						}
						for ri := range preds {
							if preds[ri].MatchFloat(value(r)) {
								want[ri].Set(r)
								break
							}
						}
						return true
					})
					for _, kind := range kinds {
						for _, workers := range kind.workers {
							label := fmt.Sprintf("n=%d %s %s %s %s workers=%d", n, attr, selName, listName, kind.name, workers)
							got, err := PartitionBitsOpts(kind.tbl, attr, preds, sel, ScanOptions{Workers: workers})
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							for ri := range want {
								if !got[ri].Equal(want[ri]) {
									t.Errorf("%s: region %d holds %d rows, want %d", label, ri, got[ri].Count(), want[ri].Count())
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestPartitionValuesMatchesPartitionBits: partitioning from an
// extraction gives bitmaps bit-identical to the column pass, over
// columns held in memory, chunked and lazy, for 2–8 ranges with every
// inclusive/exclusive end. Values sit on the edges (duplicated), and the
// columns carry NULL, NaN, ±Inf and −0.
func TestPartitionValuesMatchesPartitionBits(t *testing.T) {
	const n, chunkRows = 3000, 256
	rnd := rand.New(rand.NewSource(7))
	pool := []float64{-40, -7, -1, 0, 3, 8, 15, 22, 60, 90}
	b := storage.NewBuilder("v", storage.MustSchema(
		storage.Field{Name: "f", Type: storage.Float64},
		storage.Field{Name: "i", Type: storage.Int64},
	))
	for r := 0; r < n; r++ {
		var f, i any
		switch d := rnd.Intn(20); {
		case d == 0:
			f = nil
		case d == 1:
			f = math.NaN()
		case d == 2:
			f = math.Inf(2*rnd.Intn(2) - 1)
		case d == 3:
			f = math.Copysign(0, -1)
		case d < 12:
			f = pool[rnd.Intn(len(pool))]
		default:
			f = rnd.Float64()*140 - 45
		}
		switch d := rnd.Intn(10); {
		case d == 0:
			i = nil
		case d < 6:
			i = int64(pool[rnd.Intn(len(pool))])
		default:
			i = int64(rnd.Intn(140) - 45)
		}
		b.MustAppendRow(f, i)
	}
	mem := b.MustBuild()
	path := filepath.Join(t.TempDir(), "v.atl")
	if err := colstore.WriteFile(path, mem, chunkRows); err != nil {
		t.Fatal(err)
	}
	eager, err := colstore.OpenWith(path, colstore.Options{Mode: colstore.ModeEager})
	if err != nil {
		t.Fatal(err)
	}
	defer eager.Close()
	lazy, err := colstore.OpenWith(path, colstore.Options{Mode: colstore.ModeLazy, CacheBytes: chunkRows * 9})
	if err != nil {
		t.Fatal(err)
	}
	defer lazy.Close()
	tables := map[string]*storage.Table{"memory": mem, "chunked": eager.Table(), "lazy": lazy.Table()}

	sels := map[string]*bitvec.Vector{"full": bitvec.NewFull(n), "half": bitvec.New(n), "sparse": bitvec.New(n)}
	for r := 0; r < n; r++ {
		if rnd.Intn(2) == 0 {
			sels["half"].Set(r)
		}
		if r/chunkRows%3 == 1 && r%7 == 0 {
			sels["sparse"].Set(r)
		}
	}

	// rangeLists yields, for k ranges over k+1 edges drawn from the
	// pool (the outer two sometimes infinite), the lists with every
	// range's ends set one of the four ways, then mixed at random.
	rangeLists := func(attr string, k int) [][]query.Predicate {
		perm := rnd.Perm(len(pool))[:k+1]
		edges := make([]float64, k+1)
		for i, pi := range perm {
			edges[i] = pool[pi]
		}
		slices.Sort(edges)
		if k%2 == 0 {
			edges[0], edges[k] = math.Inf(-1), math.Inf(1)
		}
		var lists [][]query.Predicate
		for mode := 0; mode < 6; mode++ {
			preds := make([]query.Predicate, k)
			for ri := range preds {
				flags := mode
				if mode >= 4 {
					flags = rnd.Intn(4)
				}
				preds[ri] = query.Predicate{Attr: attr, Kind: query.Range, Lo: edges[ri], Hi: edges[ri+1],
					LoIncl: flags&1 != 0, HiIncl: flags&2 != 0}
			}
			lists = append(lists, preds)
		}
		return lists
	}

	for _, attr := range []string{"f", "i"} {
		for k := 2; k <= 8; k++ {
			for li, preds := range rangeLists(attr, k) {
				for selName, sel := range sels {
					for tblName, tbl := range tables {
						label := fmt.Sprintf("%s k=%d list=%d %s %s", attr, k, li, selName, tblName)
						want, err := PartitionBitsOpts(tbl, attr, preds, sel, ScanOptions{})
						if err != nil {
							t.Fatalf("%s: column pass: %v", label, err)
						}
						var x NumericExtract
						if err := ExtractNumericUnder(&x, tbl, attr, sel, ScanOptions{}); err != nil {
							t.Fatalf("%s: extract: %v", label, err)
						}
						got, err := PartitionValues(&x, preds)
						if err != nil {
							t.Fatalf("%s: value pass: %v", label, err)
						}
						for ri := range want {
							if !got[ri].Equal(want[ri]) {
								t.Fatalf("%s: region %d holds %d rows, column pass %d", label, ri, got[ri].Count(), want[ri].Count())
							}
						}
					}
				}
			}
		}
	}
}

// TestExtractionBillsChunkFetches: the extraction passes CUT runs —
// numeric values, category counts, bool counts — bill each chunk they
// fetch once, as the scan and partition passes do: to the context's
// ledger, or to ScanOptions.Stats in its place when that is set.
func TestExtractionBillsChunkFetches(t *testing.T) {
	const n, chunkRows = 2048, 256
	b := storage.NewBuilder("b", storage.MustSchema(
		storage.Field{Name: "x", Type: storage.Int64},
		storage.Field{Name: "s", Type: storage.String},
		storage.Field{Name: "f", Type: storage.Bool},
	))
	for r := 0; r < n; r++ {
		b.MustAppendRow(int64(r%50), []string{"a", "b", "c"}[r%3], r%2 == 0)
	}
	path := filepath.Join(t.TempDir(), "b.atl")
	if err := colstore.WriteFile(path, b.MustBuild(), chunkRows); err != nil {
		t.Fatal(err)
	}
	lazy, err := colstore.OpenWith(path, colstore.Options{Mode: colstore.ModeLazy})
	if err != nil {
		t.Fatal(err)
	}
	defer lazy.Close()
	tbl := lazy.Table()
	sel := bitvec.New(n)
	for _, k := range []int{0, 3, 4, 7} {
		sel.Set(k*chunkRows + 17)
	}
	const touched = 4
	for _, pass := range []struct {
		name string
		run  func(opts ScanOptions) error
	}{
		{"numeric", func(opts ScanOptions) error { return ExtractNumericUnder(&NumericExtract{}, tbl, "x", sel, opts) }},
		{"categorical", func(opts ScanOptions) error { _, _, err := CategoryCountsUnderOpts(tbl, "s", sel, opts); return err }},
		{"bool", func(opts ScanOptions) error { _, _, err := BoolCountsUnderOpts(tbl, "f", sel, opts); return err }},
	} {
		// Twice: the first pass decodes into the ledger, the second hits
		// the cache and bills Stats, which takes the ledger's place.
		for round := 0; round < 2; round++ {
			var st ScanStats
			opts := ScanOptions{}
			if round == 1 {
				opts.Stats = &st
			}
			led := obsv.NewLedger()
			opts.Ctx = obsv.WithLedger(context.Background(), led)
			if err := pass.run(opts); err != nil {
				t.Fatalf("%s: %v", pass.name, err)
			}
			billed, idle := led.Scan().Snapshot(), st.Snapshot()
			if round == 1 {
				billed, idle = idle, billed
			}
			if billed.ChunksDecoded+billed.ChunkCacheHits != touched {
				t.Errorf("%s round %d: billed %d decodes + %d hits, want %d fetches", pass.name, round, billed.ChunksDecoded, billed.ChunkCacheHits, touched)
			}
			if idle != (obsv.ScanSnapshot{}) {
				t.Errorf("%s round %d: the other sink was billed too: %+v", pass.name, round, idle)
			}
		}
	}
}
