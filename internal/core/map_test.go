package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/query"
	"repro/internal/storage"
)

func TestBuildMapMeasuresRegions(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	tbl := numTable(t, vals)
	base := fullSel(tbl)
	regions := []query.Query{
		query.New("t", query.NewRangeHalfOpen("x", 0, 50)),
		query.New("t", query.NewRange("x", 50, 99)),
	}
	m, err := BuildMap(tbl, base, []string{"x"}, regions)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Regions) != 2 {
		t.Fatal("regions wrong")
	}
	if m.Regions[0].Count != 50 || m.Regions[1].Count != 50 {
		t.Fatalf("counts = %d, %d", m.Regions[0].Count, m.Regions[1].Count)
	}
	if math.Abs(m.Regions[0].Cover-0.5) > 1e-12 {
		t.Fatalf("cover = %v", m.Regions[0].Cover)
	}
	if math.Abs(m.Entropy-1) > 1e-12 {
		t.Fatalf("entropy = %v, want 1 (balanced halves)", m.Entropy)
	}
	if m.Assignment() == nil {
		t.Fatal("assignment not cached")
	}
	if m.Key() != "x" {
		t.Fatalf("Key = %q", m.Key())
	}
}

func TestBuildMapErrors(t *testing.T) {
	tbl := numTable(t, []float64{1})
	if _, err := BuildMap(tbl, fullSel(tbl), nil, nil); err == nil {
		t.Fatal("zero regions should error")
	}
	bad := []query.Query{query.New("t", query.NewRange("ghost", 0, 1))}
	if _, err := BuildMap(tbl, fullSel(tbl), []string{"ghost"}, bad); err == nil {
		t.Fatal("bad region should error")
	}
}

func TestBuildMapSortsAttrs(t *testing.T) {
	tbl, _ := twoColTable(t)
	regions := []query.Query{query.New("t2", query.NewRange("a", 0, 100))}
	m, err := BuildMap(tbl, fullSel(tbl), []string{"b", "a"}, regions)
	if err != nil {
		t.Fatal(err)
	}
	if m.Key() != "a,b" {
		t.Fatalf("Key = %q, want sorted", m.Key())
	}
}

// TestDropEmptyRegions: a product keeps only the non-empty cells of its
// grid, each with its count and its cover over the total rows given,
// and ranks by the entropy of those cells alone.
func TestDropEmptyRegions(t *testing.T) {
	// x and y put every row in the same half: the off-diagonal cells of
	// their product are empty.
	b := storage.NewBuilder("t", storage.MustSchema(
		storage.Field{Name: "x", Type: storage.Float64},
		storage.Field{Name: "y", Type: storage.Float64},
	))
	for i := range 100 {
		b.MustAppendRow(float64(i), float64(i))
	}
	tbl := b.MustBuild()
	maps := []*Map{candidateMap(t, tbl, "x", DefaultCutOptions()), candidateMap(t, tbl, "y", DefaultCutOptions())}
	prod, err := productMaps(tbl, 400, fullSel(tbl), query.New("t"), maps, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(prod.Regions) != 2 || prod.Entropy != 1 {
		t.Fatalf("%d regions, entropy %v; want the 2 diagonal cells, 1 bit", len(prod.Regions), prod.Entropy)
	}
	for _, r := range prod.Regions {
		if r.Count != 50 || r.Cover != 50.0/400 {
			t.Fatalf("region %v: count %d, cover %v; want 50, 0.125", r.Query, r.Count, r.Cover)
		}
	}
}

func TestMapString(t *testing.T) {
	tbl := numTable(t, []float64{1, 2, 3, 4})
	m, err := BuildMap(tbl, fullSel(tbl), []string{"x"}, []query.Query{
		query.New("t", query.NewRangeHalfOpen("x", 1, 3)),
		query.New("t", query.NewRange("x", 3, 4)),
	})
	if err != nil {
		t.Fatal(err)
	}
	s := m.String()
	if !strings.Contains(s, "map on {x}") || !strings.Contains(s, "rows") {
		t.Fatalf("String = %q", s)
	}
}

func TestRankMaps(t *testing.T) {
	mk := func(entropy float64, regions int, key string) *Map {
		m := &Map{Attrs: []string{key}, Entropy: entropy}
		for i := 0; i < regions; i++ {
			m.Regions = append(m.Regions, Region{})
		}
		return m
	}
	maps := []*Map{
		mk(1.0, 2, "low"),
		mk(2.5, 6, "high"),
		mk(2.0, 4, "mid"),
		mk(2.0, 5, "mid-more-regions"),
		mk(2.0, 5, "amid-tie"),
	}
	RankMaps(maps)
	if maps[0].Key() != "high" {
		t.Fatalf("first = %s", maps[0].Key())
	}
	if maps[len(maps)-1].Key() != "low" {
		t.Fatalf("last = %s", maps[len(maps)-1].Key())
	}
	// equal entropy: more regions first; then key order
	if maps[1].Key() != "amid-tie" || maps[2].Key() != "mid-more-regions" {
		t.Fatalf("tie-break wrong: %s, %s", maps[1].Key(), maps[2].Key())
	}
}

func TestRankPrefersBalanced(t *testing.T) {
	// same number of regions; balanced covers get higher entropy and
	// therefore rank first — the paper's exact tie-break.
	tbl := numTable(t, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	base := fullSel(tbl)
	balanced, err := BuildMap(tbl, base, []string{"x"}, []query.Query{
		query.New("t", query.NewRangeHalfOpen("x", 1, 5)),
		query.New("t", query.NewRange("x", 5, 8)),
	})
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := BuildMap(tbl, base, []string{"x"}, []query.Query{
		query.New("t", query.NewRangeHalfOpen("x", 1, 2)),
		query.New("t", query.NewRange("x", 2, 8)),
	})
	if err != nil {
		t.Fatal(err)
	}
	maps := []*Map{skewed, balanced}
	RankMaps(maps)
	if maps[0] != balanced {
		t.Fatal("balanced map should rank first")
	}
}

func TestMapDistanceIdenticalAndIndependent(t *testing.T) {
	tbl, _ := twoColTable(t) // a: 0..99, b: alternating 0/10
	base := fullSel(tbl)
	aMap, err := BuildMap(tbl, base, []string{"a"}, []query.Query{
		query.New("t2", query.NewRangeHalfOpen("a", 0, 50)),
		query.New("t2", query.NewRange("a", 50, 99)),
	})
	if err != nil {
		t.Fatal(err)
	}
	aMap2, err := BuildMap(tbl, base, []string{"a"}, []query.Query{
		query.New("t2", query.NewRangeHalfOpen("a", 0, 50)),
		query.New("t2", query.NewRange("a", 50, 99)),
	})
	if err != nil {
		t.Fatal(err)
	}
	bMap, err := BuildMap(tbl, base, []string{"b"}, []query.Query{
		query.New("t2", query.NewRangeHalfOpen("b", 0, 5)),
		query.New("t2", query.NewRange("b", 5, 10)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []Distance{DistVI, DistNVI, DistNMI} {
		same, err := MapDistance(aMap, aMap2, kind)
		if err != nil {
			t.Fatal(err)
		}
		if same > 1e-9 {
			t.Errorf("%s: identical maps distance %v, want 0", kind, same)
		}
		indep, err := MapDistance(aMap, bMap, kind)
		if err != nil {
			t.Fatal(err)
		}
		// b alternates with a's parity → independent of a's halves
		if indep < 0.5 {
			t.Errorf("%s: independent maps distance %v, want high", kind, indep)
		}
	}
}

func TestMapDistanceErrors(t *testing.T) {
	a := &Map{}
	b := &Map{}
	if _, err := MapDistance(a, b, DistNVI); err == nil {
		t.Fatal("missing assignments should error")
	}
	tbl := numTable(t, []float64{1, 2})
	m, err := BuildMap(tbl, fullSel(tbl), []string{"x"}, []query.Query{query.New("t", query.NewRange("x", 1, 2))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MapDistance(m, m, "bogus"); err == nil {
		t.Fatal("bad distance kind should error")
	}
}

func TestDistanceMatrixSymmetric(t *testing.T) {
	tbl, _ := twoColTable(t)
	base := fullSel(tbl)
	var maps []*Map
	for _, attr := range []string{"a", "b"} {
		regions, err := cutQuery(tbl, base, query.New("t2"), attr, DefaultCutOptions())
		if err != nil {
			t.Fatal(err)
		}
		m, err := BuildMap(tbl, base, []string{attr}, regions)
		if err != nil {
			t.Fatal(err)
		}
		maps = append(maps, m)
	}
	dm, err := DistanceMatrix(maps, DistNVI, 4)
	if err != nil {
		t.Fatal(err)
	}
	if dm.At(0, 0) != 0 || dm.At(1, 1) != 0 {
		t.Fatal("diagonal should be 0")
	}
	if dm.At(0, 1) != dm.At(1, 0) {
		t.Fatal("matrix should be symmetric")
	}
}

func TestAssignmentPartitionInvariant(t *testing.T) {
	// regions produced by cutQuery never overlap: counts sum to base.
	tbl, _ := twoColTable(t)
	base := fullSel(tbl)
	regions, err := cutQuery(tbl, base, query.New("t2"), "a", DefaultCutOptions())
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildMap(tbl, base, []string{"a"}, regions)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range m.Regions {
		total += r.Count
	}
	if total != base.Count() {
		t.Fatalf("region counts %d != base %d", total, base.Count())
	}
	if m.Assignment().Rest != 0 {
		t.Fatalf("rest = %d, want 0", m.Assignment().Rest)
	}
}

func TestBuildMapUnderRestrictedBase(t *testing.T) {
	vals := make([]float64, 10)
	for i := range vals {
		vals[i] = float64(i)
	}
	tbl := numTable(t, vals)
	base := bitvec.FromIndexes(10, []int{0, 1, 2, 3, 4})
	m, err := BuildMap(tbl, base, []string{"x"}, []query.Query{
		query.New("t", query.NewRange("x", 0, 9)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Regions[0].Count != 5 {
		t.Fatalf("count = %d, want 5 (restricted base)", m.Regions[0].Count)
	}
	// cover is relative to the whole table per the paper's definition
	if math.Abs(m.Regions[0].Cover-0.5) > 1e-12 {
		t.Fatalf("cover = %v", m.Regions[0].Cover)
	}
}
