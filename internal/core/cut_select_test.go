package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/colstore"
	"repro/internal/query"
	"repro/internal/storage"
)

// referenceNumericEdges is the sort-based numeric CUT that the selection
// replaced, kept as the oracle: sort every value under the selection,
// strip the NaN prefix and read the edges off the sorted rest. vals are
// the non-NULL values in selection order. ok is false where the cut is
// degenerate.
func referenceNumericEdges(vals []float64, opts CutOptions) (edges []float64, ok bool) {
	if len(vals) == 0 {
		return nil, false
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	for len(sorted) > 0 && math.IsNaN(sorted[0]) {
		sorted = sorted[1:]
	}
	if len(sorted) == 0 || sorted[0] == sorted[len(sorted)-1] {
		return nil, false
	}
	lo, hi, k := sorted[0], sorted[len(sorted)-1], opts.Splits
	quantile := func(q float64) float64 {
		pos := q * float64(len(sorted)-1)
		l, h := int(math.Floor(pos)), int(math.Ceil(pos))
		if l == h {
			return sorted[l]
		}
		frac := pos - float64(l)
		return sorted[l]*(1-frac) + sorted[h]*frac
	}
	switch opts.Numeric {
	case CutEquiWidth:
		edges = equiWidthEdges(lo, hi, k)
	case CutMedian:
		edges = quantileEdges(lo, hi, k, quantile)
	case CutVariance:
		edges = varianceEdges(sorted, lo, hi, k)
	case CutSketch:
		edges = quantileEdges(lo, hi, k, newCutSketch(vals, opts.SketchEpsilon).Quantile)
	}
	edges = dedupEdges(edges)
	return edges, len(edges) >= 3
}

// predEdges recovers the edge list from CUT's predicates.
func predEdges(preds []query.Predicate) []float64 {
	edges := []float64{preds[0].Lo}
	for _, p := range preds {
		edges = append(edges, p.Hi)
	}
	return edges
}

func sameEdges(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// cutInputs are the value orders and distributions numeric CUT has to
// agree with the oracle on. nil entries are NULL rows.
func cutInputs(rnd *rand.Rand) map[string][]any {
	gen := func(n int, f func(i int) any) []any {
		out := make([]any, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	const n = 700
	in := map[string][]any{
		"random":     gen(n, func(int) any { return rnd.NormFloat64() * 50 }),
		"3-distinct": gen(n, func(int) any { return float64(rnd.Intn(3)) }),
		"ascending":  gen(n, func(i int) any { return float64(i) / 8 }),
		"descending": gen(n, func(i int) any { return -float64(i) }),
		"organ-pipe": gen(n, func(i int) any { return float64(min(i, n-1-i)) }),
		"all-equal":  gen(n, func(int) any { return 4.25 }),
		"with-nulls": gen(n, func(i int) any {
			if i%7 == 3 {
				return nil
			}
			return rnd.Float64()
		}),
		"infinities": gen(n, func(i int) any {
			switch i % 9 {
			case 0:
				return math.Inf(1)
			case 1:
				return math.Inf(-1)
			}
			return rnd.NormFloat64()
		}),
		"nan-mix": gen(n, func(i int) any {
			if i%5 == 0 {
				return math.NaN()
			}
			return rnd.ExpFloat64()
		}),
		"all-nan": gen(40, func(int) any { return math.NaN() }),
		"small":   gen(40, func(int) any { return rnd.Float64() }), // below the selection's bucketing threshold
	}
	for n := 1; n <= 3; n++ {
		in[fmt.Sprintf("n=%d", n)] = gen(n, func(i int) any { return float64(i * i) })
	}
	return in
}

// TestNumericCutMatchesSortReference: every strategy × Splits 2..5 ×
// input gives the oracle's edges — through the exported, uncached CUT
// under the full selection and under a sub-selection, and through the
// stat cache.
func TestNumericCutMatchesSortReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	for name, rows := range cutInputs(rnd) {
		b := storage.NewBuilder("t", storage.MustSchema(storage.Field{Name: "x", Type: storage.Float64}))
		for _, v := range rows {
			b.MustAppendRow(v)
		}
		tbl := b.MustBuild()
		full := bitvec.NewFull(len(rows))
		sub := bitvec.New(len(rows))
		for i := range rows {
			if i%3 != 1 {
				sub.Set(i)
			}
		}
		under := func(sel *bitvec.Vector) []float64 {
			var vals []float64
			for i, v := range rows {
				if v != nil && sel.Get(i) {
					vals = append(vals, v.(float64))
				}
			}
			return vals
		}
		for _, strat := range []NumericCut{CutEquiWidth, CutMedian, CutVariance, CutSketch} {
			for splits := 2; splits <= 5; splits++ {
				opts := DefaultCutOptions()
				opts.Numeric, opts.Splits = strat, splits
				cached := cutter{t: tbl, cache: newStatCache()}
				for _, tc := range []struct {
					path string
					sel  *bitvec.Vector
					cut  func() ([]query.Predicate, error)
				}{
					{"uncached/full", full, func() ([]query.Predicate, error) { return CutPredicates(tbl, full, "x", opts) }},
					{"uncached/sub", sub, func() ([]query.Predicate, error) { return CutPredicates(tbl, sub, "x", opts) }},
					{"cached/full", full, func() ([]query.Predicate, error) { return cached.cutPredicates(full, true, "x", opts) }},
				} {
					label := fmt.Sprintf("%s %s k=%d %s", name, strat, splits, tc.path)
					want, ok := referenceNumericEdges(under(tc.sel), opts)
					preds, err := tc.cut()
					var deg *ErrDegenerate
					switch {
					case errors.As(err, &deg):
						if ok {
							t.Errorf("%s: degenerate (%s), reference cuts at %v", label, deg.Reason, want)
						}
					case err != nil:
						t.Errorf("%s: %v", label, err)
					case !ok:
						t.Errorf("%s: cut at %v, reference is degenerate", label, predEdges(preds))
					case !sameEdges(predEdges(preds), want):
						t.Errorf("%s: edges %v, reference %v", label, predEdges(preds), want)
					}
				}
			}
		}
	}
}

// TestCutIgnoresNaNForQuantiles is the regression test for the
// NaN-shifted median: with a fifth of the cells NaN the median cut used
// to sit near the 37th percentile of the real values, because quantiles
// were read off the sorted slice with its NaN prefix still on. The cut
// must be the median of the non-NaN values on every path — stat cache,
// sub-selection, in-memory, lazy — and the variance histogram must see
// only them too.
func TestCutIgnoresNaNForQuantiles(t *testing.T) {
	const n = 5000
	rnd := rand.New(rand.NewSource(12))
	b := storage.NewBuilder("t", storage.MustSchema(storage.Field{Name: "x", Type: storage.Float64}))
	// The sub-selection leaves out exactly the NULL rows: not the full
	// selection, so it bypasses the stat cache, yet the same values.
	sub := bitvec.New(n)
	var real []float64
	for i := 0; i < n; i++ {
		switch {
		case i%11 == 0:
			b.MustAppendRow(nil)
			continue
		case i%5 == 0:
			b.MustAppendRow(math.NaN())
		default:
			real = append(real, rnd.Float64()*100)
			b.MustAppendRow(real[len(real)-1])
		}
		sub.Set(i)
	}
	mem := b.MustBuild()
	sort.Float64s(real)
	median := real[len(real)/2]
	if len(real)%2 == 0 {
		median = (real[len(real)/2-1] + real[len(real)/2]) / 2
	}

	path := filepath.Join(t.TempDir(), "nan.atl")
	if err := colstore.WriteFile(path, mem, 512); err != nil {
		t.Fatal(err)
	}
	store, err := colstore.OpenWith(path, colstore.Options{Mode: colstore.ModeLazy, CacheBytes: 4600}) // ≈ one chunk
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	full := bitvec.NewFull(n)
	for _, strat := range []NumericCut{CutMedian, CutVariance} {
		opts := DefaultCutOptions()
		opts.Numeric = strat
		var first []float64
		for _, tc := range []struct {
			name string
			tbl  *storage.Table
		}{{"memory", mem}, {"lazy", store.Table()}} {
			cached := cutter{t: tc.tbl, cache: newStatCache()}
			for path, cut := range map[string]func() ([]query.Predicate, error){
				"full/cached":   func() ([]query.Predicate, error) { return cached.cutPredicates(full, true, "x", opts) },
				"full/uncached": func() ([]query.Predicate, error) { return CutPredicates(tc.tbl, full, "x", opts) },
				"sub-selection": func() ([]query.Predicate, error) { return cached.cutPredicates(sub, false, "x", opts) },
			} {
				preds, err := cut()
				if err != nil {
					t.Fatalf("%s %s %s: %v", strat, tc.name, path, err)
				}
				edges := predEdges(preds)
				if first == nil {
					first = edges
				}
				if !sameEdges(edges, first) {
					t.Errorf("%s %s %s: edges %v, other paths gave %v", strat, tc.name, path, edges, first)
				}
				if strat == CutMedian && edges[1] != median {
					t.Errorf("%s %s: cut at %v, median of the non-NaN values is %v", tc.name, path, edges[1], median)
				}
				if edges[0] != real[0] || edges[len(edges)-1] != real[len(real)-1] {
					t.Errorf("%s %s %s: range [%v, %v], want [%v, %v]", strat, tc.name, path, edges[0], edges[len(edges)-1], real[0], real[len(real)-1])
				}
			}
		}
	}
}
