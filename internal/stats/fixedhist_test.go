package stats

import (
	"math"
	"testing"
)

func TestFixedHistMergeEqualsSinglePass(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i%97) / 3
	}
	lo, hi, _ := MinMax(vals)
	whole, err := FixedHist(lo, hi, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		whole.Observe(v)
	}
	merged, err := FixedHist(lo, hi, 16)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		part, err := FixedHist(lo, hi, 16)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vals[s*250 : (s+1)*250] {
			part.Observe(v)
		}
		for i, n := range part.Counts {
			merged.Counts[i] += n
		}
	}
	if merged.Total() != len(vals) || whole.Total() != len(vals) {
		t.Fatalf("totals %d / %d", merged.Total(), whole.Total())
	}
	for i := range whole.Counts {
		if whole.Counts[i] != merged.Counts[i] {
			t.Fatalf("bin %d: %d != %d", i, whole.Counts[i], merged.Counts[i])
		}
	}
}

func TestFixedHistDegenerate(t *testing.T) {
	h, err := FixedHist(3, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(3)
	if h.Total() != 1 {
		t.Errorf("degenerate hist total %d", h.Total())
	}
	if _, err := FixedHist(5, 4, 8); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := FixedHist(0, 1, 0); err == nil {
		t.Error("zero bins accepted")
	}
}

// TestEqualWidth: while hi−lo is finite, the edges are lo + w·i with
// w = (hi−lo)/k, bit for bit; once it overflows, they stay finite and
// ordered from lo to hi, and bin places the edges in order, each in its
// own bin or, by rounding, the one below.
func TestEqualWidth(t *testing.T) {
	lo, hi, k := 0.1, 0.7, 3
	edges, _ := EqualWidth(lo, hi, k)
	w := (hi - lo) / float64(k)
	for i := 0; i < k; i++ {
		if edges[i] != lo+w*float64(i) {
			t.Errorf("edge %d = %v, want lo + w·i = %v", i, edges[i], lo+w*float64(i))
		}
	}
	for _, span := range [][2]float64{{-math.MaxFloat64, math.MaxFloat64}, {-1e308, 1e308}, {-math.MaxFloat64, 0.5}} {
		for _, k := range []int{2, 3, 4, 7} {
			edges, bin := EqualWidth(span[0], span[1], k)
			if edges[0] != span[0] || edges[k] != span[1] {
				t.Errorf("%v in %d bins: edges %v do not run from lo to hi", span, k, edges)
			}
			for i := 1; i <= k; i++ {
				if math.IsInf(edges[i], 0) || math.IsNaN(edges[i]) || !(edges[i-1] < edges[i]) {
					t.Fatalf("%v in %d bins: edges %v are not finite and ordered", span, k, edges)
				}
			}
			for i, prev := 0, 0; i < k; i++ {
				b := bin(edges[i])
				if b < prev || b != i && b != i-1 {
					t.Errorf("%v in %d bins: edge %d (%v) falls in bin %d", span, k, i, edges[i], b)
				}
				prev = b
			}
			if b := bin(span[1]); b != k-1 {
				t.Errorf("%v in %d bins: hi falls in bin %d", span, k, b)
			}
		}
	}
}
