package engine

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/storage"
)

// signedTable is one Float64 column whose least value is zero, −0 or
// +0, salted with NULL, NaN and +Inf: its minimum ties, and its sign is
// that of the first zero in row order.
func signedTable(n int, seed int64) *storage.Table {
	r := rand.New(rand.NewSource(seed))
	b := storage.NewBuilder("t", storage.MustSchema(storage.Field{Name: "x", Type: storage.Float64}))
	vals := []float64{math.Copysign(0, -1), 0, 1, math.NaN(), math.Inf(1)}
	for i := 0; i < n; i++ {
		if r.Intn(8) == 0 {
			b.MustAppendRow(nil)
		} else {
			b.MustAppendRow(vals[r.Intn(len(vals))])
		}
	}
	return b.MustBuild()
}

func randomSel(r *rand.Rand, n int, keep float64) *bitvec.Vector {
	sel := bitvec.New(n)
	for i := 0; i < n; i++ {
		if r.Float64() < keep {
			sel.Set(i)
		}
	}
	return sel
}

// sameExtract fails unless got and want hold the same values bit for
// bit, the same rows and the same summary, signs of zero included.
func sameExtract(t *testing.T, label string, got, want *NumericExtract) {
	t.Helper()
	if len(got.Vals) != len(want.Vals) {
		t.Fatalf("%s: %d values, want %d", label, len(got.Vals), len(want.Vals))
	}
	for i := range got.Vals {
		if math.Float64bits(got.Vals[i]) != math.Float64bits(want.Vals[i]) {
			t.Fatalf("%s: value %d is %v, want %v", label, i, got.Vals[i], want.Vals[i])
		}
	}
	if !got.Present.Equal(&want.Present) {
		t.Fatalf("%s: present rows %v, want %v", label, got.Present.Indexes(), want.Present.Indexes())
	}
	g, w := got.Sum, want.Sum
	if g.NaN != w.NaN || math.Float64bits(g.Min) != math.Float64bits(w.Min) || math.Float64bits(g.Max) != math.Float64bits(w.Max) {
		t.Fatalf("%s: summary %+v, want %+v", label, g, w)
	}
}

// TestRestrictEqualsExtraction: restricting an extraction to a
// sub-selection is the extraction under the sub-selection — values,
// rows and summary — however the scratch it lands in was used before.
func TestRestrictEqualsExtraction(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var dst NumericExtract
	for trial := 0; trial < 40; trial++ {
		n := 64*(1+r.Intn(12)) + r.Intn(3) - 1
		tbl := signedTable(n, int64(trial))
		sel := randomSel(r, n, r.Float64())
		sub := sel.And(randomSel(r, n, r.Float64()))
		var parent, want NumericExtract
		if err := ExtractNumericUnder(&parent, tbl, "x", sel, ScanOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := ExtractNumericUnder(&want, tbl, "x", sub, ScanOptions{}); err != nil {
			t.Fatal(err)
		}
		parent.Restrict(&dst, sub)
		sameExtract(t, "restrict", &dst, &want)
	}
}

// TestAppendRunEqualsExtraction: runs extracted apart, word-aligned, and
// appended in row order are the extraction of the whole — summaries
// folded as one pass in row order would keep them, −0 before +0 and NaN
// never an extreme — whether or not a run's values already lie in place.
func TestAppendRunEqualsExtraction(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := 64*(2+r.Intn(12)) + r.Intn(3) - 1
		tbl := signedTable(n, int64(100+trial))
		sel := randomSel(r, n, r.Float64())
		var want NumericExtract
		if err := ExtractNumericUnder(&want, tbl, "x", sel, ScanOptions{}); err != nil {
			t.Fatal(err)
		}
		cut := 64 * (1 + r.Intn(n/64))
		var got NumericExtract
		got.Reset(sel)
		got.Vals = append(got.Vals, make([]float64, len(want.Vals))...)[:0]
		for _, part := range [][2]int{{0, cut}, {cut, n}} {
			lo, hi := part[0], part[1]
			if lo >= hi {
				continue
			}
			piece, err := tbl.SliceRows("t", lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			var run NumericExtract
			if err := ExtractNumericUnder(&run, piece, "x", sel.Slice(lo, hi), ScanOptions{}); err != nil {
				t.Fatal(err)
			}
			vals := run.Vals
			if trial%2 == 0 { // decoded in place, as a fabric answer is
				vals = append(got.Vals[len(got.Vals):len(got.Vals)], run.Vals...)
			}
			w0, present := run.Present.Window()
			got.AppendRun(lo/64+w0, present, vals, run.Sum)
		}
		sameExtract(t, "appended runs", &got, &want)
	}
}
