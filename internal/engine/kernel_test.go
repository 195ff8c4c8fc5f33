package engine

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/datagen"
	"repro/internal/query"
	"repro/internal/stats"
)

// TestEvalIntoMatchesEval: evaluating a query into a full scratch
// selection — the base scan of every exploration — selects exactly
// Eval's rows.
func TestEvalIntoMatchesEval(t *testing.T) {
	tbl := datagen.Census(5000, 9)
	queries := []query.Query{
		query.New("census"),
		query.New("census", query.NewRange("age", 20, 60)),
		query.New("census", query.NewRange("age", 20, 60), query.NewIn("education", "BSc", "MSc")),
		query.New("census", query.NewIn("education", "no-such-level")),
		query.New("census", query.NewRange("age", 1000, 2000)), // empty
	}
	scratch := bitvec.New(tbl.NumRows())
	for qi, q := range queries {
		want, err := Eval(tbl, q)
		if err != nil {
			t.Fatalf("q%d: %v", qi, err)
		}
		scratch.Fill()
		if err := EvalAndIntoOpts(tbl, q, scratch, ScanOptions{}); err != nil {
			t.Fatalf("q%d: %v", qi, err)
		}
		if !scratch.Equal(want) {
			t.Fatalf("q%d: EvalAndIntoOpts disagrees with Eval (%d vs %d rows)", qi, scratch.Count(), want.Count())
		}
	}
	if err := EvalAndIntoOpts(tbl, queries[0], bitvec.New(3), ScanOptions{}); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

// TestContingencyMatchesLabelScan cross-checks the AndCount contingency
// kernel against the straightforward per-row label scan it replaced.
func TestContingencyMatchesLabelScan(t *testing.T) {
	tbl := datagen.Census(3000, 4)
	base, err := Eval(tbl, query.New("census", query.NewRange("age", 20, 70)))
	if err != nil {
		t.Fatal(err)
	}
	// deliberately non-covering region sets so both rest sides appear
	a, err := Assign(tbl, []query.Query{
		query.New("census", query.NewRangeHalfOpen("age", 20, 40)),
		query.New("census", query.NewRangeHalfOpen("age", 40, 55)),
	}, base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Assign(tbl, []query.Query{
		query.New("census", query.NewIn("sex", "Male")),
		query.New("census", query.NewIn("sex", "Female")),
	}, base)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := Contingency(a, b)
	if err != nil {
		t.Fatal(err)
	}

	// reference: the old per-row scan over materialized labels
	la, lb := a.Labels(), b.Labels()
	rows, cols := a.Regions, b.Regions
	aRest, bRest := -1, -1
	if a.Rest > 0 {
		aRest = rows
		rows++
	}
	if b.Rest > 0 {
		bRest = cols
		cols++
	}
	want := stats.NewContingency(rows, cols)
	for i := range la {
		ra, rb := int(la[i]), int(lb[i])
		switch {
		case ra >= 0 && rb >= 0:
			want.Add(ra, rb, 1)
		case ra >= 0 && rb < 0 && bRest >= 0:
			want.Add(ra, bRest, 1)
		case ra < 0 && rb >= 0 && aRest >= 0:
			want.Add(aRest, rb, 1)
		}
	}
	if ct.Rows() != want.Rows() || ct.Cols() != want.Cols() {
		t.Fatalf("shape %dx%d, want %dx%d", ct.Rows(), ct.Cols(), want.Rows(), want.Cols())
	}
	for r := 0; r < want.Rows(); r++ {
		for c := 0; c < want.Cols(); c++ {
			if ct.At(r, c) != want.At(r, c) {
				t.Fatalf("cell (%d,%d) = %d, want %d", r, c, ct.At(r, c), want.At(r, c))
			}
		}
	}
	if ct.Total() != want.Total() {
		t.Fatalf("total %d, want %d", ct.Total(), want.Total())
	}
}
