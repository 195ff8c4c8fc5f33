package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// selectInputs are the value orders and distributions the selection has
// to survive: every one is a multiset without NaN.
func selectInputs(n int, rnd *rand.Rand) map[string][]float64 {
	gen := func(f func(i int) float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	return map[string][]float64{
		"random":     gen(func(int) float64 { return rnd.NormFloat64() * 100 }),
		"uniform01":  gen(func(int) float64 { return rnd.Float64() }),
		"3-distinct": gen(func(int) float64 { return float64(rnd.Intn(3)) }),
		"ascending":  gen(func(i int) float64 { return float64(i) * 0.25 }),
		"descending": gen(func(i int) float64 { return -float64(i) }),
		"organ-pipe": gen(func(i int) float64 { return float64(min(i, n-1-i)) }),
		"all-equal":  gen(func(int) float64 { return 7.5 }),
		"signed-zero": gen(func(i int) float64 {
			if i%2 == 0 {
				return math.Copysign(0, -1)
			}
			return float64(i % 3)
		}),
		"infinities": gen(func(i int) float64 {
			switch i % 5 {
			case 0:
				return math.Inf(1)
			case 1:
				return math.Inf(-1)
			}
			return rnd.Float64()
		}),
		// below the first level every value is a candidate: no dump slot
		"close-pair": gen(func(i int) float64 {
			if i < 2 {
				return float64(2*i-1) * 1e10
			}
			return 1 + float64(i%2)*1e-9
		}),
		// the worst case: a level's 11 key bits only ever split an outlier
		// off two neighbouring values that make up the rest of the data
		"nested-outliers": gen(func(i int) float64 {
			if i < 6 {
				return math.Float64frombits(math.Float64bits(1) + 1<<(11*uint(i)))
			}
			return math.Float64frombits(math.Float64bits(1) + uint64(i%2))
		}),
		"geometric":  gen(func(i int) float64 { return math.Ldexp(1, i%2000-1000) }),
		"wide-range": gen(func(int) float64 { return math.Ldexp(rnd.NormFloat64(), rnd.Intn(600)-300) }),
	}
}

func TestSelectQuantilesMatchesSort(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	var buf []float64
	for _, n := range []int{1, 2, 3, 31, 32, 33, 100, 5000} {
		for name, vals := range selectInputs(n, rnd) {
			sorted := append([]float64(nil), vals...)
			sort.Float64s(sorted)
			orig := append([]float64(nil), vals...)
			for k := 2; k <= 5; k++ {
				qs := make([]float64, 0, k+1)
				for i := 0; i <= k; i++ { // 0 and 1 included: the clamped ends
					qs = append(qs, float64(i)/float64(k))
				}
				got := SelectQuantiles(vals, sorted[0], sorted[n-1], qs, &buf)
				for i, q := range qs {
					want := QuantileSorted(sorted, q)
					if got[i] != want && !(math.IsNaN(got[i]) && math.IsNaN(want)) {
						t.Errorf("%s n=%d k=%d q=%g: got %v, want %v", name, n, k, q, got[i], want)
					}
				}
			}
			for i := range vals {
				if math.Float64bits(vals[i]) != math.Float64bits(orig[i]) {
					t.Fatalf("%s n=%d: input modified at %d", name, n, i)
				}
			}
		}
	}
}

// The guard counts element visits, not wall time. The first level visits
// each value twice (count, gather); a level below it three times
// (extremes, count, gather), holds at most the values of the level above
// and consumes 11 of the 64 key bits while more than 2048 values are
// left; a bucket down to one key is visited twice more (extremes, read).
// So 2n + 5·3n + 2n bounds every input, and inputs that are not built to
// defeat the narrowing stay far below it.
func TestSelectQuantilesIsLinear(t *testing.T) {
	const n = 1_000_000
	adversarial := map[string]bool{"close-pair": true, "nested-outliers": true}
	rnd := rand.New(rand.NewSource(2))
	var buf []float64
	for name, vals := range selectInputs(n, rnd) {
		lo, hi, _ := MinMax(vals)
		bound := 5 * n
		if adversarial[name] {
			bound = 19 * n
		}
		for _, k := range []int{2, 5} {
			_, visits := selectQuantiles(vals, lo, hi, splitPoints(k), &buf)
			t.Logf("%-15s k=%d: %.2f visits per value", name, k, float64(visits)/n)
			if visits > bound {
				t.Errorf("%s k=%d: %d visits for %d values, want at most %d", name, k, visits, n, bound)
			}
		}
	}
}

func splitPoints(k int) []float64 {
	qs := make([]float64, 0, k-1)
	for i := 1; i < k; i++ {
		qs = append(qs, float64(i)/float64(k))
	}
	return qs
}
