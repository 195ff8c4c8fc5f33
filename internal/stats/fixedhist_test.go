package stats

import "testing"

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
