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
	"repro/internal/query"
	"repro/internal/storage"
)

// chainPool holds the values the generated columns and the generated
// edges share, so that values sit exactly on edges: −0 next to 0, and
// the infinities.
var chainPool = []float64{math.Inf(-1), -40, -7, -1, math.Copysign(0, -1), 0, 3, 8, 15, 22, 60, 90, math.Inf(1)}

// chainTable builds an n-row table with a Float64 column f — NULL, NaN,
// ±Inf, −0 and pool values among random ones — and an Int64 column i
// with NULLs, widened to float by every kernel. Every third word of rows
// is clean, free of NULL and NaN, so that dense words occur.
func chainTable(n int, rnd *rand.Rand) *storage.Table {
	b := storage.NewBuilder("c", storage.MustSchema(
		storage.Field{Name: "f", Type: storage.Float64},
		storage.Field{Name: "i", Type: storage.Int64},
	))
	for r := 0; r < n; r++ {
		var f, i any
		clean := r/64%3 == 0
		switch d := rnd.Intn(16); {
		case d == 0 && !clean:
			f = nil
		case d == 1 && !clean:
			f = math.NaN()
		case d < 9:
			f = chainPool[rnd.Intn(len(chainPool))]
		default:
			f = rnd.Float64()*140 - 45
		}
		switch d := rnd.Intn(8); {
		case d == 0 && !clean:
			i = nil
		case d < 5:
			i = int64(chainPool[1+rnd.Intn(len(chainPool)-2)])
		default:
			i = int64(rnd.Intn(140) - 45)
		}
		b.MustAppendRow(f, i)
	}
	return b.MustBuild()
}

// chainSelection mixes every kind of selection word: dense (all 64 rows),
// empty, a single row, and random; the table's last partial word is
// whatever its kind leaves inside the table. With clean set it selects
// only in chainTable's clean words, so its extraction holds no NaN.
func chainSelection(n int, clean bool, rnd *rand.Rand) *bitvec.Vector {
	sel := bitvec.New(n)
	for w := 0; w*64 < n; w++ {
		kind := rnd.Intn(4)
		if clean && w%3 != 0 {
			kind = 1
		}
		for r := w * 64; r < min(n, w*64+64); r++ {
			if kind == 0 || kind == 3 && rnd.Intn(2) == 0 || kind == 2 && r == w*64+rnd.Intn(64) {
				sel.Set(r)
			}
		}
	}
	return sel
}

// chainPreds draws a CUT-shaped chain of k ranges over k+1 ascending
// edges from the pool — repeated edges, empty ranges, infinite ends
// included — or, with data set, with the outer edges at the extremes of
// data and the inner ones among its values, as a cut of it has them.
func chainPreds(attr string, k int, data []float64, rnd *rand.Rand) []query.Predicate {
	edges := make([]float64, k+1)
	for i := range edges {
		edges[i] = chainPool[rnd.Intn(len(chainPool))]
	}
	if finite := slices.DeleteFunc(slices.Clone(data), func(v float64) bool { return v != v }); len(finite) > 0 {
		for i := range edges {
			edges[i] = finite[rnd.Intn(len(finite))]
		}
		edges[0], edges[k] = slices.Min(finite), slices.Max(finite)
	}
	slices.Sort(edges)
	preds := make([]query.Predicate, k)
	for i := range preds {
		preds[i] = query.NewRangeHalfOpen(attr, edges[i], edges[i+1])
	}
	preds[k-1].HiIncl = true
	return preds
}

// matcherPartition is the oracle of PartitionBitsOpts: the matcher
// kernel over the same runs, first match wins.
func matcherPartition(t *testing.T, tbl *storage.Table, attr string, preds []query.Predicate, sel *bitvec.Vector) []*bitvec.Vector {
	t.Helper()
	out := make([]*bitvec.Vector, len(preds))
	outWords := make([][]uint64, len(preds))
	for i := range out {
		out[i] = bitvec.New(tbl.NumRows())
		outWords[i] = out[i].Words()
	}
	ms := compileRanges(preds)
	selWords := sel.Words()
	err := tbl.Runs(tbl.Schema().Index(attr)).Walk(context.Background(), selWords, 1, "test", nil, func(w0, w1 int, p *storage.ChunkPayload) {
		if p.Ints != nil {
			partitionRanges(ms, p.Ints, p.Nulls, selWords, outWords, w0, w1)
		} else {
			partitionRanges(ms, p.Floats, p.Nulls, selWords, outWords, w0, w1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEdgeChainMatchesMatcher: the edge-rank kernels are bit-identical to
// the matcher kernels on CUT-shaped chains — the column pass of
// PartitionBitsOpts at 1 and 4 workers, and PartitionValues over an
// extraction, gated or not — over Float64 (NaN, ±Inf, −0) and widened
// Int64 columns with NULLs, held in memory, chunked and lazy, at a chunk
// boundary and one row either side of it, under selections mixing dense,
// sparse, single-row and empty words, for 2 to 5 splits.
func TestEdgeChainMatchesMatcher(t *testing.T) {
	const chunkRows = 256
	rnd := rand.New(rand.NewSource(37))
	for _, n := range []int{3*chunkRows - 1, 3 * chunkRows, 3*chunkRows + 1} {
		mem := chainTable(n, rnd)
		path := filepath.Join(t.TempDir(), fmt.Sprintf("c%d.atl", n))
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
		tables := []struct {
			name string
			tbl  *storage.Table
		}{{"memory", mem}, {"chunked", eager.Table()}, {"lazy", lazy.Table()}}
		sels := map[string]*bitvec.Vector{"full": bitvec.NewFull(n), "empty": bitvec.New(n)}
		for i := 0; i < 3; i++ {
			sels[fmt.Sprintf("mixed%d", i)] = chainSelection(n, false, rnd)
			sels[fmt.Sprintf("clean%d", i)] = chainSelection(n, true, rnd)
		}
		for _, attr := range []string{"f", "i"} {
			for selName, sel := range sels {
				var x NumericExtract
				if err := ExtractNumericUnder(&x, mem, attr, sel, ScanOptions{}); err != nil {
					t.Fatal(err)
				}
				for k := 2; k <= 5; k++ {
					for _, data := range [][]float64{nil, x.Vals} {
						preds := chainPreds(attr, k, data, rnd)
						if _, ok := chainOf(preds); !ok {
							t.Fatalf("%v is not a chain", preds)
						}
						want := matcherPartition(t, mem, attr, preds, sel)
						label := fmt.Sprintf("n=%d %s %s k=%d edges=%v", n, attr, selName, k, preds)
						for _, tb := range tables {
							for _, workers := range []int{1, 4} {
								got, err := PartitionBitsOpts(tb.tbl, attr, preds, sel, ScanOptions{Workers: workers})
								if err != nil {
									t.Fatal(err)
								}
								sameRegions(t, fmt.Sprintf("%s %s workers=%d: column pass", label, tb.name, workers), got, want)
							}
							var tx NumericExtract
							if err := ExtractNumericUnder(&tx, tb.tbl, attr, sel, ScanOptions{}); err != nil {
								t.Fatal(err)
							}
							got, err := PartitionValues(&tx, preds)
							if err != nil {
								t.Fatal(err)
							}
							sameRegions(t, label+" "+tb.name+": value pass", got, want)
							// the value kernel's own oracle, on the same extraction
							oracle := make([][]uint64, len(preds))
							for ri := range oracle {
								oracle[ri] = make([]uint64, len(tx.Present))
							}
							partitionValues(compileRanges(preds), tx.Vals, tx.Present, oracle)
							for ri := range oracle {
								if !slices.Equal(got[ri].Words(), oracle[ri]) {
									t.Errorf("%s %s: value pass region %d differs from the matcher value kernel", label, tb.name, ri)
								}
							}
						}
					}
				}
			}
		}
	}
}

func sameRegions(t *testing.T, label string, got, want []*bitvec.Vector) {
	t.Helper()
	for ri := range want {
		if !got[ri].Equal(want[ri]) {
			t.Errorf("%s: region %d holds %d rows, matcher %d", label, ri, got[ri].Count(), want[ri].Count())
		}
	}
}

// TestChainOf: only CUT's shape compiles to a chain — closed outer ends,
// half-open joints, each range ending where the next begins, no NaN or
// reversed bound; every other list keeps the matcher kernel.
func TestChainOf(t *testing.T) {
	cut := func(edges ...float64) []query.Predicate {
		preds := make([]query.Predicate, len(edges)-1)
		for i := range preds {
			preds[i] = query.NewRangeHalfOpen("x", edges[i], edges[i+1])
		}
		preds[len(preds)-1].HiIncl = true
		return preds
	}
	if c, ok := chainOf(cut(0, 1, 1, 5)); !ok || c.lo != 0 || c.hi != 5 || !slices.Equal(c.inner, []float64{1, 1}) {
		t.Errorf("CUT shape: %+v, %v", c, ok)
	}
	if _, ok := chainOf(cut(3, 3)); !ok {
		t.Error("a single closed point range is a chain")
	}
	broken := map[string][]query.Predicate{
		"open last":      func() []query.Predicate { p := cut(0, 1, 2); p[1].HiIncl = false; return p }(),
		"open first":     func() []query.Predicate { p := cut(0, 1, 2); p[0].LoIncl = false; return p }(),
		"closed joint":   func() []query.Predicate { p := cut(0, 1, 2); p[0].HiIncl = true; return p }(),
		"open joint":     func() []query.Predicate { p := cut(0, 1, 2); p[1].LoIncl = false; return p }(),
		"gap":            func() []query.Predicate { p := cut(0, 1, 2); p[1].Lo = 1.5; return p }(),
		"descending":     cut(0, 2, 1),
		"NaN edge":       cut(0, math.NaN(), 2),
		"reversed range": cut(2, 1),
	}
	for name, preds := range broken {
		if _, ok := chainOf(preds); ok {
			t.Errorf("%s: compiled to a chain", name)
		}
	}
}
