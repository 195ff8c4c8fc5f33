package core

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/datagen"
	"repro/internal/query"
	"repro/internal/storage"
)

func TestRegionExamples(t *testing.T) {
	tbl := datagen.Census(5000, 1)
	region := query.New("census", query.NewIn("education", "MSc"))
	ex, err := RegionExamples(tbl, region, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex) != 5 {
		t.Fatalf("examples = %d", len(ex))
	}
	eduIdx := tbl.Schema().Index("education")
	for _, e := range ex {
		if len(e.Values) != tbl.NumCols() {
			t.Fatalf("row values = %d", len(e.Values))
		}
		if e.Values[eduIdx] != "MSc" {
			t.Fatalf("example outside region: %v", e.Values)
		}
	}
	// deterministic in seed
	ex2, err := RegionExamples(tbl, region, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ex {
		if ex[i].Row != ex2[i].Row {
			t.Fatal("not deterministic")
		}
	}
	// different seed differs (overwhelmingly likely)
	ex3, _ := RegionExamples(tbl, region, 5, 43)
	same := true
	for i := range ex {
		if ex[i].Row != ex3[i].Row {
			same = false
		}
	}
	if same {
		t.Error("different seeds gave identical samples")
	}
}

func TestRegionExamplesSmallRegion(t *testing.T) {
	tbl := datagen.Census(100, 2)
	region := query.New("census")
	ex, err := RegionExamples(tbl, region, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex) != 100 {
		t.Fatalf("examples = %d, want clamped to region size", len(ex))
	}
}

func TestRegionExamplesErrors(t *testing.T) {
	tbl := datagen.Census(100, 3)
	if _, err := RegionExamples(tbl, query.New("census"), 0, 1); err == nil {
		t.Error("k=0 should fail")
	}
	empty := query.New("census", query.NewRange("age", 500, 600))
	if _, err := RegionExamples(tbl, empty, 3, 1); err == nil {
		t.Error("empty region should fail")
	}
	bad := query.New("census", query.NewRange("ghost", 0, 1))
	if _, err := RegionExamples(tbl, bad, 3, 1); err == nil {
		t.Error("bad query should fail")
	}
}

func TestRepresentativeExamplesAreCentral(t *testing.T) {
	tbl, _ := datagen.BodyMetrics(5000, 4)
	region := query.New("body", query.NewRange("weight", 60, 100)) // the heavy cluster
	reps, err := RepresentativeExamples(tbl, region, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 3 {
		t.Fatalf("reps = %d", len(reps))
	}
	// representatives' weight must sit near the cluster median (~65),
	// not at the extremes of the region
	wIdx := tbl.Schema().Index("weight")
	for _, r := range reps {
		w, err := strconv.ParseFloat(r.Values[wIdx], 64)
		if err != nil {
			t.Fatal(err)
		}
		if w < 62 || w > 68 {
			t.Errorf("representative weight %v not central (~65)", w)
		}
	}
}

func TestRepresentativeExamplesErrors(t *testing.T) {
	tbl := datagen.Census(100, 5)
	if _, err := RepresentativeExamples(tbl, query.New("census"), 0); err == nil {
		t.Error("k=0 should fail")
	}
	empty := query.New("census", query.NewRange("age", 500, 600))
	if _, err := RepresentativeExamples(tbl, empty, 3); err == nil {
		t.Error("empty region should fail")
	}
}

func TestMedianOf(t *testing.T) {
	cases := []struct {
		vals []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{1, 2, 3}, 2},
		{[]float64{4, 1, 3, 2, 5}, 3},
		{[]float64{2, 1}, 2}, // upper middle for even length
	}
	for _, c := range cases {
		if got := medianOf(c.vals); got != c.want {
			t.Errorf("medianOf(%v) = %v, want %v", c.vals, got, c.want)
		}
	}
}

func TestExploreWithNullyData(t *testing.T) {
	// Section 5.2: "the raw data may be imprecise or contain mistakes" —
	// the pipeline must survive heavy NULL contamination.
	base := datagen.Census(5000, 6)
	b := rebuilderWithNulls(t, base, 0.3)
	cart, err := NewCartographer(b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := cart.Explore(query.New("census"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Maps) == 0 {
		t.Fatal("no maps on nully data")
	}
	for _, m := range res.Maps {
		if len(m.Regions) > 8 {
			t.Error("budget violated")
		}
	}
}

// rebuilderWithNulls copies a table, replacing a deterministic fraction
// of cells with NULL — the Section 5.2 "imprecise or mistaken data" case.
func rebuilderWithNulls(t *testing.T, src *storage.Table, frac float64) *storage.Table {
	t.Helper()
	r := rand.New(rand.NewSource(99))
	b := storage.NewBuilder(src.Name(), src.Schema())
	for row := 0; row < src.NumRows(); row++ {
		vals := make([]any, src.NumCols())
		for col := 0; col < src.NumCols(); col++ {
			if r.Float64() < frac {
				vals[col] = nil
				continue
			}
			vals[col] = src.Column(col).Value(row)
		}
		if err := b.AppendRow(vals...); err != nil {
			t.Fatal(err)
		}
	}
	return b.MustBuild()
}
