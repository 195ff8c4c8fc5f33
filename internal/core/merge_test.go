package core

import (
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/datagen"
	"repro/internal/query"
	"repro/internal/storage"
)

// clusteredTable builds the Figure 5 dataset inline: size/weight with two
// planted clusters.
func clusteredTable(t testing.TB, n int) (*storage.Table, []int) {
	t.Helper()
	r := rand.New(rand.NewSource(42))
	s := storage.MustSchema(
		storage.Field{Name: "size", Type: storage.Float64},
		storage.Field{Name: "weight", Type: storage.Float64},
	)
	b := storage.NewBuilder("fig5", s)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			labels[i] = 0
			b.MustAppendRow(140+r.NormFloat64()*4, 45+r.NormFloat64()*3)
		} else {
			labels[i] = 1
			b.MustAppendRow(160+r.NormFloat64()*4, 65+r.NormFloat64()*3)
		}
	}
	return b.MustBuild(), labels
}

// candidateMap is the single-attribute candidate map of attr over the
// whole table under the given cut options.
func candidateMap(t testing.TB, tbl *storage.Table, attr string, opts CutOptions) *Map {
	t.Helper()
	base := fullSel(tbl)
	regions, err := cutQuery(tbl, base, query.New(tbl.Name()), attr, opts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildMap(tbl, base, []string{attr}, regions)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// compose is Definition 4's composition over attrs from the parent
// query, as MergeCluster runs it on a cluster it has to cut from the
// first level.
func compose(tbl *storage.Table, base *bitvec.Vector, parent query.Query, attrs []string, opts CutOptions, maxRegions int) (*Map, error) {
	x := testCutter(tbl, nil)
	return x.composeMaps(base, nil, nil, parent, attrs, opts, maxRegions)
}

func TestProductMapsGrid(t *testing.T) {
	tbl, _ := clusteredTable(t, 1000)
	base := fullSel(tbl)
	ms := candidateMap(t, tbl, "size", DefaultCutOptions())
	mw := candidateMap(t, tbl, "weight", DefaultCutOptions())
	prod, err := productMaps(tbl, tbl.NumRows(), base, query.New("fig5"), []*Map{ms, mw}, 8)
	if err != nil {
		t.Fatal(err)
	}
	// 2x2 grid, but the off-diagonal cells are nearly empty in this
	// data; they are dropped only if exactly zero.
	if len(prod.Regions) < 2 || len(prod.Regions) > 4 {
		t.Fatalf("regions = %d", len(prod.Regions))
	}
	if prod.Key() != "size,weight" {
		t.Fatalf("attrs = %v", prod.Attrs)
	}
	// counts account for all rows
	total := 0
	for _, r := range prod.Regions {
		total += r.Count
	}
	if total != 1000 {
		t.Fatalf("total = %d", total)
	}
	// every region constrains both attributes
	for _, r := range prod.Regions {
		if r.Query.PredOn("size") < 0 || r.Query.PredOn("weight") < 0 {
			t.Fatalf("region %v missing a predicate", r.Query)
		}
	}
}

func TestProductMapsBudget(t *testing.T) {
	tbl, _ := clusteredTable(t, 500)
	base := fullSel(tbl)
	ms := candidateMap(t, tbl, "size", DefaultCutOptions())
	mw := candidateMap(t, tbl, "weight", DefaultCutOptions())
	// budget 2: the second map cannot be folded in
	prod, err := productMaps(tbl, tbl.NumRows(), base, query.New("fig5"), []*Map{ms, mw}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if prod.Key() != "size" {
		t.Fatalf("budgeted product should keep only the first map, got %v", prod.Attrs)
	}
}

func TestProductMapsErrors(t *testing.T) {
	tbl, _ := clusteredTable(t, 10)
	if _, err := productMaps(tbl, tbl.NumRows(), fullSel(tbl), query.New("fig5"), nil, 8); err == nil {
		t.Fatal("zero maps should error")
	}
}

// TestComposeRevealsClusters is the Figure 5 check: composition re-cuts
// weight inside each size region, recovering the planted cluster
// boundaries (~45+σ and ~65±σ local medians) instead of the useless
// global median (~55).
func TestComposeRevealsClusters(t *testing.T) {
	tbl, labels := clusteredTable(t, 4000)
	base := fullSel(tbl)
	comp, err := compose(tbl, base, query.New("fig5"), []string{"size", "weight"}, DefaultCutOptions(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp.Regions) != 4 {
		t.Fatalf("regions = %d, want 4", len(comp.Regions))
	}
	// Cluster recovery: the two planted clusters should each be captured
	// almost entirely by a single region. Compute per-region label purity
	// on the dominant regions.
	assign := comp.Assignment()
	regionLabelCounts := make([]map[int]int, len(comp.Regions))
	for i := range regionLabelCounts {
		regionLabelCounts[i] = map[int]int{}
	}
	for row, lab := range assign.Labels() {
		if lab >= 0 {
			regionLabelCounts[lab][labels[row]]++
		}
	}
	// The two largest regions must be nearly pure and cover most rows.
	covered := 0
	for _, rc := range regionLabelCounts {
		n0, n1 := rc[0], rc[1]
		if n0+n1 < 100 {
			continue // small residue region
		}
		purity := float64(max(n0, n1)) / float64(n0+n1)
		if purity < 0.95 {
			t.Errorf("large region purity %.3f, want >= 0.95 (n0=%d n1=%d)", purity, n0, n1)
		}
		covered += n0 + n1
	}
	if covered < 3600 {
		t.Errorf("large regions cover %d rows, want most of 4000", covered)
	}
}

// TestProductMissesLocalStructure contrasts Figure 5's two operators: on
// data where the weight boundary differs per size region, the product's
// global weight cut separates clusters worse than composition's local
// cuts. Here both clusters straddle the global weight median inside one
// size region.
func TestProductVsComposeEntropy(t *testing.T) {
	tbl, _ := clusteredTable(t, 4000)
	base := fullSel(tbl)
	ms := candidateMap(t, tbl, "size", DefaultCutOptions())
	mw := candidateMap(t, tbl, "weight", DefaultCutOptions())
	prod, err := productMaps(tbl, tbl.NumRows(), base, query.New("fig5"), []*Map{ms, mw}, 8)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := compose(tbl, base, query.New("fig5"), []string{"size", "weight"}, DefaultCutOptions(), 8)
	if err != nil {
		t.Fatal(err)
	}
	// Both are valid maps over the same attrs.
	if prod.Key() != comp.Key() {
		t.Fatalf("keys differ: %s vs %s", prod.Key(), comp.Key())
	}
	// Composition must produce 4 regions with two dominant pure ones;
	// in this data the product grid concentrates mass on the diagonal
	// (2 big cells), composition splits each size region at the local
	// weight boundary producing a different structure. Both should keep
	// all rows.
	for _, m := range []*Map{prod, comp} {
		total := 0
		for _, r := range m.Regions {
			total += r.Count
		}
		if total != 4000 {
			t.Fatalf("map loses rows: %d", total)
		}
	}
}

func TestComposeDegenerateAttributeKeptUnsplit(t *testing.T) {
	// second attribute constant: composition keeps regions unsplit on it
	s := storage.MustSchema(
		storage.Field{Name: "x", Type: storage.Float64},
		storage.Field{Name: "k", Type: storage.Float64},
	)
	b := storage.NewBuilder("t", s)
	for i := 0; i < 100; i++ {
		b.MustAppendRow(float64(i), 7.0)
	}
	tbl := b.MustBuild()
	base := fullSel(tbl)
	m, err := compose(tbl, base, query.New("t"), []string{"x", "k"}, DefaultCutOptions(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Regions) != 2 {
		t.Fatalf("regions = %d, want 2 (k uncuttable)", len(m.Regions))
	}
	if m.Key() != "x" {
		t.Fatalf("attrs = %v, want only x", m.Attrs)
	}
}

func TestComposeAllDegenerate(t *testing.T) {
	tbl := numTable(t, []float64{5, 5, 5})
	_, err := compose(tbl, fullSel(tbl), query.New("t"), []string{"x"}, DefaultCutOptions(), 8)
	if err == nil {
		t.Fatal("expected degenerate error")
	}
}

func TestComposeBudget(t *testing.T) {
	tbl, _ := datagen.BodyMetrics(2000, 1)
	base := fullSel(tbl)
	// 3 attrs with 2 splits each would give 8 regions; budget 4 limits
	// to 2 attrs.
	m, err := compose(tbl, base, query.New("body"), []string{"age", "income", "education_years"}, DefaultCutOptions(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Regions) > 4 {
		t.Fatalf("regions = %d exceeds budget 4", len(m.Regions))
	}
	if len(m.Attrs) > 2 {
		t.Fatalf("attrs = %v, want at most 2", m.Attrs)
	}
}

func TestMergeClusterSingleton(t *testing.T) {
	tbl, _ := clusteredTable(t, 200)
	m := candidateMap(t, tbl, "size", DefaultCutOptions())
	got, err := MergeCluster(tbl, fullSel(tbl), query.New("fig5"), []*Map{m}, MergeCompose, DefaultCutOptions(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatal("singleton cluster should pass through")
	}
}

func TestMergeClusterKinds(t *testing.T) {
	tbl, _ := clusteredTable(t, 500)
	base := fullSel(tbl)
	ms := candidateMap(t, tbl, "size", DefaultCutOptions())
	mw := candidateMap(t, tbl, "weight", DefaultCutOptions())
	for _, kind := range []MergeKind{MergeProduct, MergeCompose} {
		m, err := MergeCluster(tbl, base, query.New("fig5"), []*Map{ms, mw}, kind, DefaultCutOptions(), 8)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if m.Key() != "size,weight" {
			t.Fatalf("%s: attrs = %v", kind, m.Attrs)
		}
	}
	if _, err := MergeCluster(tbl, base, query.New("fig5"), []*Map{ms, mw}, "bogus", DefaultCutOptions(), 8); err == nil {
		t.Fatal("bad merge kind should error")
	}
	if _, err := MergeCluster(tbl, base, query.New("fig5"), nil, MergeCompose, DefaultCutOptions(), 8); err == nil {
		t.Fatal("empty cluster should error")
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
