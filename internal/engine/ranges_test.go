package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/colstore"
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
				sel.ForEach(func(r int) bool {
					if col.IsNull(r) {
						return true
					}
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
					got, sum, err := ExtractNumericUnder(context.Background(), make([]float64, 3, 8), kind.tbl, attr, sel)
					if err != nil {
						t.Fatalf("%s: extract: %v", label, err)
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
