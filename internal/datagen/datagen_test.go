package datagen

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/storage"
)

func newCatQuery(table, attr, value string) query.Query {
	return query.New(table, query.NewIn(attr, value))
}

func newRangeQuery(table, attr string, lo, hi float64) query.Query {
	return query.New(table, query.NewRangeHalfOpen(attr, lo, hi))
}

func TestCensusShapeAndDeterminism(t *testing.T) {
	a := Census(1000, 1)
	if a.NumRows() != 1000 || a.NumCols() != 5 {
		t.Fatalf("dims = %dx%d", a.NumRows(), a.NumCols())
	}
	b := Census(1000, 1)
	for c := 0; c < a.NumCols(); c++ {
		for r := 0; r < 50; r++ {
			if a.Column(c).Render(r) != b.Column(c).Render(r) {
				t.Fatal("same seed should give identical data")
			}
		}
	}
	c := Census(1000, 2)
	diff := false
	for r := 0; r < 50 && !diff; r++ {
		if a.Column(0).Render(r) != c.Column(0).Render(r) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds should give different data")
	}
}

func TestCensusPlantedDependencies(t *testing.T) {
	tbl := Census(20000, 7)
	sel := bitvec.NewFull(tbl.NumRows())

	// Education ↔ Salary must be strongly dependent; eye color independent
	// of salary. Compare mutual information.
	mi := crossCat(t, tbl, "education", "salary", sel).MutualInformation()
	miEye := crossCat(t, tbl, "eye_color", "salary", sel).MutualInformation()
	if mi < 10*miEye {
		t.Errorf("edu-salary MI %v should dwarf eye-salary MI %v", mi, miEye)
	}

	// Age is bimodal with a gap at 55: both cohorts populated.
	ages, err := engine.NumericValuesUnder(tbl, "age", sel)
	if err != nil {
		t.Fatal(err)
	}
	young, old := 0, 0
	for _, a := range ages {
		if a < 55 {
			young++
		} else {
			old++
		}
	}
	if young < len(ages)/3 || old < len(ages)/3 {
		t.Errorf("cohorts unbalanced: young=%d old=%d", young, old)
	}
}

func crossCat(t *testing.T, tbl *storage.Table, a, b string, sel *bitvec.Vector) *stats.Contingency {
	t.Helper()
	qa := regionsOfCat(t, tbl, a)
	qb := regionsOfCat(t, tbl, b)
	aa, err := engine.Assign(tbl, qa, sel)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := engine.Assign(tbl, qb, sel)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := engine.Contingency(aa, ab)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func regionsOfCat(t *testing.T, tbl *storage.Table, attr string) []query.Query {
	t.Helper()
	dict, _, err := engine.CategoryCountsUnder(tbl, attr, bitvec.NewFull(tbl.NumRows()))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]query.Query, 0, len(dict))
	for _, v := range dict {
		out = append(out, newCatQuery(tbl.Name(), attr, v))
	}
	return out
}

func TestBodyMetricsClusters(t *testing.T) {
	tbl, labels := BodyMetrics(5000, 3)
	if tbl.NumRows() != 5000 || len(labels) != 5000 {
		t.Fatal("dims wrong")
	}
	// Cluster 0 weights ~45, cluster 1 ~65.
	w, _ := tbl.ColumnByName("weight")
	wc := w.(*storage.Float64Column)
	var s0, s1 float64
	var n0, n1 int
	for i, l := range labels {
		if l == 0 {
			s0 += wc.At(i)
			n0++
		} else {
			s1 += wc.At(i)
			n1++
		}
	}
	if n0 == 0 || n1 == 0 {
		t.Fatal("one cluster empty")
	}
	m0, m1 := s0/float64(n0), s1/float64(n1)
	if m0 > 50 || m1 < 60 {
		t.Errorf("cluster means %v, %v not separated", m0, m1)
	}
}

func TestSkySurvey(t *testing.T) {
	tbl := SkySurvey(3000, 11)
	if tbl.NumRows() != 3000 || !tbl.Schema().HasField("mag_r") {
		t.Fatal("shape wrong")
	}
	// classes present
	dict, counts, err := engine.CategoryCountsUnder(tbl, "class", bitvec.NewFull(3000))
	if err != nil {
		t.Fatal(err)
	}
	if len(dict) != 3 {
		t.Fatalf("classes = %v", dict)
	}
	for i, c := range counts {
		if c == 0 {
			t.Errorf("class %s empty", dict[i])
		}
	}
}

func TestOrders(t *testing.T) {
	ot, ct := Orders(5000, 200, 13)
	if ot.NumRows() != 5000 || ct.NumRows() != 200 {
		t.Fatal("dims wrong")
	}
	j, err := engine.JoinFK(ot, "cid", ct, "cid", "joined")
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != 5000 {
		t.Fatalf("join rows = %d, want 5000 (every FK resolves)", j.NumRows())
	}
	// planted dependency: gold orders are larger on average
	seg, _ := j.ColumnByName("segment")
	amt, _ := j.ColumnByName("amount")
	sc, ac := seg.(*storage.StringColumn), amt.(*storage.Float64Column)
	var goldSum, stdSum float64
	var goldN, stdN int
	for i := 0; i < j.NumRows(); i++ {
		if sc.At(i) == "gold" {
			goldSum += ac.At(i)
			goldN++
		} else {
			stdSum += ac.At(i)
			stdN++
		}
	}
	if goldN == 0 || stdN == 0 {
		t.Fatal("segment missing")
	}
	if goldSum/float64(goldN) < 3*stdSum/float64(stdN) {
		t.Error("gold orders should be much larger")
	}
}

func TestWithJunkColumns(t *testing.T) {
	tbl := Census(500, 1)
	junk := WithJunkColumns(tbl, 2)
	if junk.NumCols() != tbl.NumCols()+3 {
		t.Fatal("junk columns missing")
	}
	idCol, err := junk.ColumnByName("row_id")
	if err != nil {
		t.Fatal(err)
	}
	if idCol.(*storage.StringColumn).Cardinality() != 500 {
		t.Error("row_id should be unique per row")
	}
}
