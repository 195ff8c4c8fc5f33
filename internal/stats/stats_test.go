package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestEntropyCounts(t *testing.T) {
	cases := []struct {
		name   string
		counts []int
		want   float64
	}{
		{"empty", nil, 0},
		{"all zero", []int{0, 0}, 0},
		{"single outcome", []int{10}, 0},
		{"uniform 2", []int{5, 5}, 1},
		{"uniform 4", []int{3, 3, 3, 3}, 2},
		{"zeros ignored", []int{5, 0, 5, 0}, 1},
		{"skewed", []int{3, 1}, -(0.75*math.Log2(0.75) + 0.25*math.Log2(0.25))},
	}
	for _, c := range cases {
		if got := EntropyCounts(c.counts); !almostEq(got, c.want) {
			t.Errorf("%s: EntropyCounts = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestEntropyCountsNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EntropyCounts([]int{1, -1})
}

func TestContingencyMarginals(t *testing.T) {
	c := NewContingency(2, 3)
	c.Add(0, 0, 1)
	c.Add(0, 2, 3)
	c.Add(1, 1, 6)
	if c.Total() != 10 {
		t.Fatalf("Total = %d", c.Total())
	}
	if got := c.RowMarginals(); got[0] != 4 || got[1] != 6 {
		t.Fatalf("RowMarginals = %v", got)
	}
	if got := c.ColMarginals(); got[0] != 1 || got[1] != 6 || got[2] != 3 {
		t.Fatalf("ColMarginals = %v", got)
	}
	if c.At(0, 2) != 3 {
		t.Fatal("At wrong")
	}
}

func TestContingencyPanics(t *testing.T) {
	c := NewContingency(2, 2)
	for name, fn := range map[string]func(){
		"row oob":   func() { c.Add(2, 0, 1) },
		"col oob":   func() { c.Add(0, 2, 1) },
		"negative":  func() { c.Add(0, 0, -1) },
		"bad shape": func() { NewContingency(0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestMutualInformationIdenticalVars(t *testing.T) {
	// X == Y uniform over 4 outcomes: I(X;Y) = H(X) = 2 bits, VI = 0.
	c := NewContingency(4, 4)
	for i := 0; i < 4; i++ {
		c.Add(i, i, 25)
	}
	if got := c.MutualInformation(); !almostEq(got, 2) {
		t.Errorf("MI = %v, want 2", got)
	}
	if got := c.VariationOfInformation(); !almostEq(got, 0) {
		t.Errorf("VI = %v, want 0", got)
	}
	if got := c.NormalizedVI(); !almostEq(got, 0) {
		t.Errorf("NVI = %v, want 0", got)
	}
	if got := c.NormalizedMI(); !almostEq(got, 1) {
		t.Errorf("NMI = %v, want 1", got)
	}
}

func TestMutualInformationIndependentVars(t *testing.T) {
	// Independent uniform 2x2: every cell 25. I = 0, VI = H(X)+H(Y) = 2.
	c := NewContingency(2, 2)
	for r := 0; r < 2; r++ {
		for cl := 0; cl < 2; cl++ {
			c.Add(r, cl, 25)
		}
	}
	if got := c.MutualInformation(); !almostEq(got, 0) {
		t.Errorf("MI = %v, want 0", got)
	}
	if got := c.VariationOfInformation(); !almostEq(got, 2) {
		t.Errorf("VI = %v, want 2", got)
	}
}

func randomContingency(r *rand.Rand, rows, cols int) *Contingency {
	c := NewContingency(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			c.Add(i, j, r.Intn(20))
		}
	}
	if c.Total() == 0 {
		c.Add(0, 0, 1)
	}
	return c
}

func TestPropertyInformationInequalities(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		rows, cols := 2+r.Intn(5), 2+r.Intn(5)
		c := randomContingency(r, rows, cols)
		hx, hy, hxy := c.RowEntropy(), c.ColEntropy(), c.JointEntropy()
		mi, vi := c.MutualInformation(), c.VariationOfInformation()
		if mi < -eps || mi > math.Min(hx, hy)+eps {
			t.Fatalf("0 <= MI <= min(H): mi=%v hx=%v hy=%v", mi, hx, hy)
		}
		if hxy > hx+hy+eps || hxy < math.Max(hx, hy)-eps {
			t.Fatalf("max(H) <= Hxy <= Hx+Hy violated: %v %v %v", hx, hy, hxy)
		}
		if vi < -eps || vi > hxy+eps {
			t.Fatalf("0 <= VI <= Hxy violated: vi=%v hxy=%v", vi, hxy)
		}
		if nvi := c.NormalizedVI(); nvi < 0 || nvi > 1 {
			t.Fatalf("NVI out of [0,1]: %v", nvi)
		}
		if nmi := c.NormalizedMI(); nmi < 0 || nmi > 1 {
			t.Fatalf("NMI out of [0,1]: %v", nmi)
		}
	}
}

// TestPropertyVITriangle verifies the triangle inequality of VI on random
// triples of partitions of the same ground set (Meilă 2007) — this is the
// property the paper relies on when calling VI "a metric".
func TestPropertyVITriangle(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	n := 300
	for trial := 0; trial < 100; trial++ {
		kx, ky, kz := 2+r.Intn(4), 2+r.Intn(4), 2+r.Intn(4)
		x := make([]int, n)
		y := make([]int, n)
		z := make([]int, n)
		for i := 0; i < n; i++ {
			x[i], y[i], z[i] = r.Intn(kx), r.Intn(ky), r.Intn(kz)
		}
		vi := func(a []int, ka int, b []int, kb int) float64 {
			c := NewContingency(ka, kb)
			for i := 0; i < n; i++ {
				c.Add(a[i], b[i], 1)
			}
			return c.VariationOfInformation()
		}
		dxy := vi(x, kx, y, ky)
		dyz := vi(y, ky, z, kz)
		dxz := vi(x, kx, z, kz)
		if dxz > dxy+dyz+1e-9 {
			t.Fatalf("triangle violated: d(x,z)=%v > d(x,y)+d(y,z)=%v", dxz, dxy+dyz)
		}
		// symmetry
		if !almostEq(dxy, vi(y, ky, x, kx)) {
			t.Fatal("VI not symmetric")
		}
	}
}

func TestMeanVarianceMinMax(t *testing.T) {
	vals := []float64{1, 2, 3, 4}
	if got := Mean(vals); !almostEq(got, 2.5) {
		t.Errorf("Mean = %v", got)
	}
	if got := Variance(vals); !almostEq(got, 1.25) {
		t.Errorf("Variance = %v", got)
	}
	lo, hi, ok := MinMax(vals)
	if !ok || lo != 1 || hi != 4 {
		t.Errorf("MinMax = %v %v %v", lo, hi, ok)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("degenerate cases wrong")
	}
	if _, _, ok := MinMax(nil); ok {
		t.Error("MinMax(nil) should report !ok")
	}
}

func TestEquiWidthHist(t *testing.T) {
	vals := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	h, err := EquiWidthHist(vals, 5)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumBins() != 5 || h.Total() != 10 {
		t.Fatalf("bins=%d total=%d", h.NumBins(), h.Total())
	}
	for i, c := range h.Counts {
		if c != 2 {
			t.Errorf("bin %d count = %d, want 2", i, c)
		}
	}
	// max value lands in last bin
	if h.BinOf(9) != 4 {
		t.Errorf("BinOf(9) = %d", h.BinOf(9))
	}
	if h.BinOf(0) != 0 {
		t.Errorf("BinOf(0) = %d", h.BinOf(0))
	}
	if h.BinOf(-1) != -1 || h.BinOf(10) != -1 {
		t.Error("out of range should be -1")
	}
}

func TestEquiWidthHistDegenerate(t *testing.T) {
	h, err := EquiWidthHist([]float64{5, 5, 5}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumBins() != 1 || h.Counts[0] != 3 {
		t.Fatalf("degenerate hist wrong: %+v", h)
	}
	if _, err := EquiWidthHist(nil, 3); err == nil {
		t.Fatal("expected error on empty data")
	}
	if _, err := EquiWidthHist([]float64{1}, 0); err == nil {
		t.Fatal("expected error on k=0")
	}
}

func TestQuantile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {-0.5, 1}, {1.5, 5},
	}
	for _, c := range cases {
		if got := Quantile(vals, c.q); !almostEq(got, c.want) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Median([]float64{1, 2, 3, 100}); !almostEq(got, 2.5) {
		t.Errorf("Median = %v", got)
	}
	if !math.IsNaN(QuantileSorted(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	if got := Quantile([]float64{0, 10}, 0.5); !almostEq(got, 5) {
		t.Errorf("interpolated median = %v, want 5", got)
	}
}

func TestPropertyHistogramTotalsAndPartition(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		k := int(kRaw%10) + 1
		n := 1 + r.Intn(500)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.NormFloat64() * 10
		}
		ew, err := EquiWidthHist(vals, k)
		return err == nil && ew.Total() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyQuantileMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(300)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.Float64() * 100
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := Quantile(vals, q)
			if v < prev-eps {
				t.Fatalf("quantile not monotone at q=%v", q)
			}
			prev = v
		}
	}
}
