package core

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/storage"
)

// numTable builds a one-column Float64 table from vals.
func numTable(t testing.TB, vals []float64) *storage.Table {
	t.Helper()
	b := storage.NewBuilder("t", storage.MustSchema(storage.Field{Name: "x", Type: storage.Float64}))
	for _, v := range vals {
		b.MustAppendRow(v)
	}
	return b.MustBuild()
}

func catTable(t testing.TB, vals []string) *storage.Table {
	t.Helper()
	b := storage.NewBuilder("t", storage.MustSchema(storage.Field{Name: "c", Type: storage.String}))
	for _, v := range vals {
		b.MustAppendRow(v)
	}
	return b.MustBuild()
}

func fullSel(tbl *storage.Table) *bitvec.Vector { return bitvec.NewFull(tbl.NumRows()) }

func TestCutOptionsValidate(t *testing.T) {
	good := DefaultCutOptions()
	if err := good.validate(); err != nil {
		t.Fatal(err)
	}
	bad := []CutOptions{
		{Splits: 1, Numeric: CutMedian, Categorical: CatFrequency},
		{Splits: 2, Numeric: "bogus", Categorical: CatFrequency},
		{Splits: 2, Numeric: CutMedian, Categorical: "bogus"},
	}
	for i, o := range bad {
		if err := o.validate(); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestCutMedianSplitsAtMedian(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i)
	}
	tbl := numTable(t, vals)
	opts := DefaultCutOptions()
	preds, err := CutPredicates(tbl, fullSel(tbl), "x", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 2 {
		t.Fatalf("got %d predicates, want 2", len(preds))
	}
	cut := preds[0].Hi
	if cut < 450 || cut > 550 {
		t.Errorf("median cut at %v, want ~500", cut)
	}
	if preds[0].HiIncl || !preds[1].HiIncl {
		t.Error("interval inclusivity wrong")
	}
}

func TestCutEquiWidth(t *testing.T) {
	vals := []float64{0, 1, 2, 3, 100}
	tbl := numTable(t, vals)
	opts := DefaultCutOptions()
	opts.Numeric = CutEquiWidth
	preds, err := CutPredicates(tbl, fullSel(tbl), "x", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 2 {
		t.Fatalf("got %d predicates", len(preds))
	}
	if got := preds[0].Hi; math.Abs(got-50) > 1e-9 {
		t.Errorf("equi-width cut at %v, want 50", got)
	}
}

// TestCutHugeSpan: equiwidth and variance cuts of a column whose finite
// span overflows a float64 (±1e308, and ±MaxFloat64) give finite,
// ordered edges, and their regions cover every row exactly once.
func TestCutHugeSpan(t *testing.T) {
	for _, m := range []float64{1e308, math.MaxFloat64} {
		var vals []float64
		for i := -50; i <= 50; i++ {
			vals = append(vals, m*(float64(i)/50))
		}
		tbl := numTable(t, vals)
		for _, strategy := range []NumericCut{CutEquiWidth, CutVariance} {
			opts := DefaultCutOptions()
			opts.Numeric = strategy
			preds, err := CutPredicates(tbl, fullSel(tbl), "x", opts)
			if err != nil {
				t.Fatalf("±%g %v: %v", m, strategy, err)
			}
			for i, p := range preds {
				if math.IsInf(p.Lo, 0) || math.IsInf(p.Hi, 0) || math.IsNaN(p.Lo) || math.IsNaN(p.Hi) || !(p.Lo < p.Hi) ||
					i > 0 && p.Lo != preds[i-1].Hi {
					t.Fatalf("±%g %v: region %d is %v", m, strategy, i, p)
				}
			}
			for _, v := range vals {
				n := 0
				for _, p := range preds {
					if p.MatchFloat(v) {
						n++
					}
				}
				if n != 1 {
					t.Errorf("±%g %v: %g lies in %d regions of %v", m, strategy, v, n, preds)
				}
			}
		}
	}
}

func TestCutVarianceFindsClusterGap(t *testing.T) {
	// Two tight clusters at 0 and 100: the variance-optimal binary cut
	// separates them; the equi-width cut would too, but a median cut on
	// unbalanced clusters would not. Make cluster sizes unbalanced.
	r := rand.New(rand.NewSource(1))
	var vals []float64
	for i := 0; i < 900; i++ {
		vals = append(vals, r.NormFloat64())
	}
	for i := 0; i < 100; i++ {
		vals = append(vals, 100+r.NormFloat64())
	}
	tbl := numTable(t, vals)
	opts := DefaultCutOptions()
	opts.Numeric = CutVariance
	preds, err := CutPredicates(tbl, fullSel(tbl), "x", opts)
	if err != nil {
		t.Fatal(err)
	}
	// The optimal-SSE boundary can sit anywhere inside the gap (all gap
	// positions give the same cost); what matters is that it separates
	// the clusters perfectly.
	cut := preds[0].Hi
	for _, v := range vals {
		if v < 50 && v >= cut {
			t.Fatalf("cluster-1 value %v on the right of cut %v", v, cut)
		}
		if v >= 50 && v < cut {
			t.Fatalf("cluster-2 value %v on the left of cut %v", v, cut)
		}
	}
	// median cut would land inside the big cluster
	optsM := DefaultCutOptions()
	predsM, err := CutPredicates(tbl, fullSel(tbl), "x", optsM)
	if err != nil {
		t.Fatal(err)
	}
	if mcut := predsM[0].Hi; mcut > 10 {
		t.Errorf("median cut at %v, expected inside the dominant cluster (<10)", mcut)
	}
}

func TestCutMultiWay(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i)
	}
	tbl := numTable(t, vals)
	for _, strat := range []NumericCut{CutEquiWidth, CutMedian, CutVariance} {
		opts := DefaultCutOptions()
		opts.Numeric = strat
		opts.Splits = 4
		preds, err := CutPredicates(tbl, fullSel(tbl), "x", opts)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if len(preds) != 4 {
			t.Errorf("%s: got %d predicates, want 4", strat, len(preds))
		}
	}
}

func TestCutIntColumn(t *testing.T) {
	b := storage.NewBuilder("t", storage.MustSchema(storage.Field{Name: "age", Type: storage.Int64}))
	for i := 0; i < 100; i++ {
		b.MustAppendRow(20 + i%50)
	}
	tbl := b.MustBuild()
	preds, err := CutPredicates(tbl, fullSel(tbl), "age", DefaultCutOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 2 {
		t.Fatalf("got %d predicates", len(preds))
	}
}

// TestPropertyCutIsPartition: for every strategy, the cut predicates must
// partition the selected rows — each non-NULL selected row matches
// exactly one predicate (Definition 1's disjoint cover requirement).
func TestPropertyCutIsPartition(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, strat := range []NumericCut{CutEquiWidth, CutMedian, CutVariance} {
		for trial := 0; trial < 10; trial++ {
			n := 50 + r.Intn(500)
			vals := make([]float64, n)
			for i := range vals {
				switch trial % 3 {
				case 0:
					vals[i] = r.Float64() * 100
				case 1:
					vals[i] = float64(r.Intn(10)) // heavy duplicates
				default:
					vals[i] = r.NormFloat64()*5 + float64(r.Intn(2))*50
				}
			}
			tbl := numTable(t, vals)
			opts := DefaultCutOptions()
			opts.Numeric = strat
			opts.Splits = 2 + r.Intn(3)
			preds, err := CutPredicates(tbl, fullSel(tbl), "x", opts)
			var deg *ErrDegenerate
			if errors.As(err, &deg) {
				continue // constant data is legitimately uncuttable
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range vals {
				matches := 0
				for _, p := range preds {
					if p.MatchFloat(v) {
						matches++
					}
				}
				if matches != 1 {
					t.Fatalf("%s: value %v matched %d predicates, want 1", strat, v, matches)
				}
			}
		}
	}
}

func TestCutCategoricalPerValue(t *testing.T) {
	tbl := catTable(t, []string{"M", "F", "M", "F", "M"})
	preds, err := CutPredicates(tbl, fullSel(tbl), "c", DefaultCutOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 2 {
		t.Fatalf("got %d predicates, want one per value", len(preds))
	}
	// deterministic: alphabetic
	if preds[0].Values[0] != "F" || preds[1].Values[0] != "M" {
		t.Errorf("preds = %v, %v", preds[0], preds[1])
	}
}

func TestCutCategoricalFrequencyBalances(t *testing.T) {
	// 6 values with skewed counts; frequency grouping into 2 groups
	// should balance total counts.
	var vals []string
	counts := map[string]int{"a": 50, "b": 30, "c": 10, "d": 5, "e": 3, "f": 2}
	for v, c := range counts {
		for i := 0; i < c; i++ {
			vals = append(vals, v)
		}
	}
	tbl := catTable(t, vals)
	opts := DefaultCutOptions()
	opts.CatPerValue = 0 // force grouping
	preds, err := CutPredicates(tbl, fullSel(tbl), "c", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 2 {
		t.Fatalf("got %d groups", len(preds))
	}
	weight := func(p query.Predicate) int {
		w := 0
		for _, v := range p.Values {
			w += counts[v]
		}
		return w
	}
	w0, w1 := weight(preds[0]), weight(preds[1])
	if math.Abs(float64(w0-w1)) > 20 {
		t.Errorf("groups unbalanced: %d vs %d", w0, w1)
	}
	// every value in exactly one group
	seen := map[string]int{}
	for _, p := range preds {
		for _, v := range p.Values {
			seen[v]++
		}
	}
	for v := range counts {
		if seen[v] != 1 {
			t.Errorf("value %q in %d groups", v, seen[v])
		}
	}
}

func TestCutCategoricalAlpha(t *testing.T) {
	var vals []string
	for _, v := range []string{"apple", "banana", "cherry", "date", "elder", "fig"} {
		for i := 0; i < 10; i++ {
			vals = append(vals, v)
		}
	}
	tbl := catTable(t, vals)
	opts := DefaultCutOptions()
	opts.CatPerValue = 0
	opts.Categorical = CatAlpha
	preds, err := CutPredicates(tbl, fullSel(tbl), "c", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 2 {
		t.Fatalf("got %d groups", len(preds))
	}
	// alphabetic contiguity: max of group 0 < min of group 1
	max0 := preds[0].Values[len(preds[0].Values)-1]
	min1 := preds[1].Values[0]
	if max0 >= min1 {
		t.Errorf("groups not alphabetic runs: %v | %v", preds[0].Values, preds[1].Values)
	}
}

func TestCutBool(t *testing.T) {
	b := storage.NewBuilder("t", storage.MustSchema(storage.Field{Name: "f", Type: storage.Bool}))
	b.MustAppendRow(true)
	b.MustAppendRow(false)
	b.MustAppendRow(true)
	tbl := b.MustBuild()
	preds, err := CutPredicates(tbl, fullSel(tbl), "f", DefaultCutOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 2 || preds[0].BoolVal || !preds[1].BoolVal {
		t.Fatalf("preds = %v", preds)
	}
}

func TestCutDegenerateCases(t *testing.T) {
	var deg *ErrDegenerate

	// constant numeric
	tbl := numTable(t, []float64{5, 5, 5})
	if _, err := CutPredicates(tbl, fullSel(tbl), "x", DefaultCutOptions()); !errors.As(err, &deg) {
		t.Errorf("constant numeric: got %v", err)
	}
	// single category
	ct := catTable(t, []string{"only", "only"})
	if _, err := CutPredicates(ct, fullSel(ct), "c", DefaultCutOptions()); !errors.As(err, &deg) {
		t.Errorf("single category: got %v", err)
	}
	// constant bool
	bb := storage.NewBuilder("t", storage.MustSchema(storage.Field{Name: "f", Type: storage.Bool}))
	bb.MustAppendRow(true)
	bt := bb.MustBuild()
	if _, err := CutPredicates(bt, fullSel(bt), "f", DefaultCutOptions()); !errors.As(err, &deg) {
		t.Errorf("constant bool: got %v", err)
	}
	// empty selection
	tbl2 := numTable(t, []float64{1, 2, 3})
	if _, err := CutPredicates(tbl2, bitvec.New(3), "x", DefaultCutOptions()); !errors.As(err, &deg) {
		t.Errorf("empty selection: got %v", err)
	}
	// missing column
	if _, err := CutPredicates(tbl2, fullSel(tbl2), "ghost", DefaultCutOptions()); err == nil {
		t.Error("missing column should error")
	}
	if deg != nil && deg.Error() == "" {
		t.Error("ErrDegenerate message empty")
	}
}

// cutQuery applies CUT to a parent region: it splits parent's rows
// (under base) on attr and returns one region query per sub-range, each
// a copy of parent with the attr predicate refined.
func cutQuery(tbl *storage.Table, base *bitvec.Vector, parent query.Query, attr string, opts CutOptions) ([]query.Query, error) {
	sel, err := engine.Eval(tbl, parent)
	if err != nil {
		return nil, err
	}
	preds, err := CutPredicates(tbl, sel.And(base), attr, opts)
	if err != nil {
		return nil, err
	}
	regions := make([]query.Query, len(preds))
	for i, p := range preds {
		regions[i] = applyPredicate(parent, p)
	}
	return regions, nil
}

func TestCutQueryRefinesParent(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	tbl := numTable(t, vals)
	base := fullSel(tbl)
	// parent restricts x to [0,50]; cut must split inside that range
	parent := query.New("t", query.NewRange("x", 0, 50))
	regions, err := cutQuery(tbl, base, parent, "x", DefaultCutOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 2 {
		t.Fatalf("got %d regions", len(regions))
	}
	// each region still has exactly one predicate on x (replaced, not added)
	for _, r := range regions {
		count := 0
		for _, p := range r.Preds {
			if p.Attr == "x" {
				count++
			}
		}
		if count != 1 {
			t.Errorf("region %v has %d predicates on x", r, count)
		}
		if r.Preds[r.PredOn("x")].Hi > 50 {
			t.Errorf("region exceeds parent range: %v", r)
		}
	}
	// counts: regions partition the parent's rows
	c0, err := engine.Count(tbl, regions[0])
	if err != nil {
		t.Fatal(err)
	}
	c1, err := engine.Count(tbl, regions[1])
	if err != nil {
		t.Fatal(err)
	}
	if c0+c1 != 51 {
		t.Errorf("region counts %d + %d != 51 parent rows", c0, c1)
	}
}

func TestCutQueryAddsPredicateWhenAbsent(t *testing.T) {
	tbl, _ := twoColTable(t)
	parent := query.New("t2", query.NewRange("a", 0, 100))
	regions, err := cutQuery(tbl, fullSel(tbl), parent, "b", DefaultCutOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range regions {
		if r.PredOn("b") < 0 {
			t.Errorf("region %v missing predicate on b", r)
		}
		if r.PredOn("a") < 0 {
			t.Errorf("region %v lost parent predicate on a", r)
		}
	}
}

// twoColTable: a=0..99, b alternating low/high values.
func twoColTable(t testing.TB) (*storage.Table, []float64) {
	t.Helper()
	s := storage.MustSchema(
		storage.Field{Name: "a", Type: storage.Float64},
		storage.Field{Name: "b", Type: storage.Float64},
	)
	b := storage.NewBuilder("t2", s)
	var bs []float64
	for i := 0; i < 100; i++ {
		bv := float64(i%2) * 10
		bs = append(bs, bv)
		b.MustAppendRow(float64(i), bv)
	}
	return b.MustBuild(), bs
}

func TestVarianceEdgesMatchesBruteForceOnSmallData(t *testing.T) {
	// On a small dataset, compare the DP's binary cut with the brute
	// force optimal split by SSE.
	r := rand.New(rand.NewSource(4))
	vals := make([]float64, 60)
	for i := range vals {
		vals[i] = r.NormFloat64()*3 + float64(r.Intn(2))*20
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	sse := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		m := 0.0
		for _, x := range xs {
			m += x
		}
		m /= float64(len(xs))
		s := 0.0
		for _, x := range xs {
			s += (x - m) * (x - m)
		}
		return s
	}
	bestCost := math.Inf(1)
	for i := 1; i < len(sorted); i++ {
		if c := sse(sorted[:i]) + sse(sorted[i:]); c < bestCost {
			bestCost = c
		}
	}
	edges := varianceEdges(vals, sorted[0], sorted[len(sorted)-1], 2)
	cut := edges[1]
	// evaluate DP's split cost
	var left, right []float64
	for _, v := range vals {
		if v < cut {
			left = append(left, v)
		} else {
			right = append(right, v)
		}
	}
	dpCost := sse(left) + sse(right)
	// DP works on a compressed histogram: allow 10% slack
	if dpCost > bestCost*1.1+1e-9 {
		t.Errorf("DP split cost %v, brute force %v", dpCost, bestCost)
	}
}
