package sketch

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestGKValidation(t *testing.T) {
	for _, eps := range []float64{0, -0.1, 1, 1.5} {
		if _, err := NewGK(eps); err == nil {
			t.Errorf("NewGK(%v) should fail", eps)
		}
	}
	if _, err := NewGK(0.01); err != nil {
		t.Fatal(err)
	}
}

func TestGKEmpty(t *testing.T) {
	s := MustGK(0.01)
	if !math.IsNaN(s.Quantile(0.5)) {
		t.Fatal("empty sketch should return NaN")
	}
	if s.Count() != 0 {
		t.Fatal("Count should be 0")
	}
}

func TestGKSingleValue(t *testing.T) {
	s := MustGK(0.01)
	s.Add(42)
	for _, q := range []float64{0, 0.5, 1} {
		if got := s.Quantile(q); got != 42 {
			t.Errorf("Quantile(%v) = %v, want 42", q, got)
		}
	}
}

func TestGKExactOnSmallStream(t *testing.T) {
	s := MustGK(0.05)
	for i := 1; i <= 10; i++ {
		s.Add(float64(i))
	}
	med := s.Median()
	if med < 4 || med > 6 {
		t.Errorf("Median = %v, want within [4,6]", med)
	}
}

func TestGKErrorBound(t *testing.T) {
	for _, eps := range []float64{0.1, 0.01} {
		for _, dist := range []string{"uniform", "normal", "sorted", "reversed", "duplicates"} {
			n := 20000
			r := rand.New(rand.NewSource(99))
			vals := make([]float64, n)
			for i := range vals {
				switch dist {
				case "uniform":
					vals[i] = r.Float64()
				case "normal":
					vals[i] = r.NormFloat64()
				case "sorted":
					vals[i] = float64(i)
				case "reversed":
					vals[i] = float64(n - i)
				case "duplicates":
					vals[i] = float64(r.Intn(10))
				}
			}
			s := MustGK(eps)
			s.AddAll(vals)
			sorted := append([]float64(nil), vals...)
			sort.Float64s(sorted)
			for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
				got := s.Quantile(q)
				// rank error must be within eps*n; a duplicated value
				// occupies a whole rank interval [lo,hi], and the error is
				// the distance from the target rank to that interval.
				lo := float64(sort.SearchFloat64s(sorted, got) + 1)
				hi := float64(sort.Search(len(sorted), func(i int) bool { return sorted[i] > got }))
				target := q * float64(n)
				var rankErr float64
				switch {
				case target < lo:
					rankErr = lo - target
				case target > hi:
					rankErr = target - hi
				default:
					rankErr = 0
				}
				if rankErr > eps*float64(n)+1 {
					t.Errorf("eps=%v dist=%s q=%v: rank error %v > %v", eps, dist, q, rankErr, eps*float64(n))
				}
			}
		}
	}
}

func TestGKSpaceIsSublinear(t *testing.T) {
	s := MustGK(0.01)
	n := 100000
	r := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		s.Add(r.Float64())
	}
	if sz := s.Size(); sz > n/10 {
		t.Errorf("sketch size %d not sublinear in n=%d", sz, n)
	}
	if s.Count() != n {
		t.Errorf("Count = %d, want %d", s.Count(), n)
	}
	if s.Epsilon() != 0.01 {
		t.Error("Epsilon accessor wrong")
	}
}

func TestGKQuantileClamping(t *testing.T) {
	s := MustGK(0.1)
	for i := 0; i < 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Quantile(-1); got != s.Quantile(0) {
		t.Error("q<0 should clamp to 0")
	}
	if got := s.Quantile(2); got != s.Quantile(1) {
		t.Error("q>1 should clamp to 1")
	}
}
