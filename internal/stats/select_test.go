package stats

import (
	"maps"
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
		// a gap straddling the median: the sample jumps across it
		"median-gap": gen(func(i int) float64 {
			if i%2 == 0 {
				return rnd.Float64()
			}
			return 1e6 + rnd.Float64()
		}),
		// ±Inf at the ends: the outer brackets reach the infinite extremes
		"inf-ends": gen(func(i int) float64 {
			switch {
			case i < n/50:
				return math.Inf(-1)
			case i >= n-n/50:
				return math.Inf(1)
			}
			return rnd.NormFloat64()
		}),
	}
}

// bracketMisses are inputs built so that bracketing misses a wanted
// rank: a strided sample that sees only one phase of a sawtooth ascending
// within each stride (the counts show the bracket missed), and a quarter
// of the values tied at the median, just above its bracket's lower end
// (the bracket gathers more than it may).
func bracketMisses(n int, rnd *rand.Rand) map[string][]float64 {
	stride := n / selectSample
	aliased := make([]float64, n)
	tied := make([]float64, n)
	for i := range aliased {
		aliased[i] = float64(i % stride)
		switch {
		case i%100 < 47:
			tied[i] = rnd.Float64() / 4
		case i%100 < 72:
			tied[i] = 0.5
		default:
			tied[i] = 0.75 + rnd.Float64()/4
		}
	}
	return map[string][]float64{"stride-aliased": aliased, "median-ties": tied}
}

// TestSelectQuantilesMatchesSort checks every input at lengths below
// bracketing (histogram narrowing alone) and above it (the bracket pass,
// and the fallback where the bracket misses), k = 2…5 with both ends:
// equal to the sorted quantile, and bit for bit — signed zeros included —
// the answer of narrowing all the values.
func TestSelectQuantilesMatchesSort(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	var buf []float64
	for _, n := range []int{1, 2, 3, 31, 32, 33, 100, 5000, selectBracketMin, 3*selectBracketMin + 7} {
		inputs := selectInputs(n, rnd)
		if n >= selectBracketMin {
			maps.Copy(inputs, bracketMisses(n, rnd))
		}
		for name, vals := range inputs {
			sorted := append([]float64(nil), vals...)
			sort.Float64s(sorted)
			orig := append([]float64(nil), vals...)
			for k := 2; k <= 5; k++ {
				// CUT's interior quantiles (bracketed for k = 2), then with
				// 0 and 1 added: the clamped ends.
				for _, qs := range [][]float64{splitPoints(k), append(append([]float64{0}, splitPoints(k)...), 1)} {
					got := SelectQuantiles(vals, sorted[0], sorted[n-1], qs, &buf)
					narrowed, _ := selectQuantiles(vals, sorted[0], sorted[n-1], qs, &buf, false)
					for i, q := range qs {
						want := QuantileSorted(sorted, q)
						if got[i] != want && !(math.IsNaN(got[i]) && math.IsNaN(want)) {
							t.Errorf("%s n=%d k=%d q=%g: got %v, want %v", name, n, k, q, got[i], want)
						}
						if !sameBits(got[i], narrowed[i]) {
							t.Errorf("%s n=%d k=%d q=%g: got %v, narrowing alone %v", name, n, k, q, got[i], narrowed[i])
						}
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

// TestSelectQuantilesBracketMisses: the inputs built to defeat the
// bracketing sample do defeat it, so the fallback is what the other tests
// check on them; a well-mixed input is answered by the bracket, and so is
// a median inside a block of ties, by a bracket that is a single value.
func TestSelectQuantilesBracketMisses(t *testing.T) {
	const n = 3 * selectBracketMin
	rnd := rand.New(rand.NewSource(3))
	inputs := bracketMisses(n, rnd)
	holds := map[string]bool{"random": true, "3-distinct": true}
	for name := range holds {
		inputs[name] = selectInputs(n, rnd)[name]
	}
	var buf []float64
	for name, vals := range inputs {
		lo, hi, _ := MinMax(vals)
		s := selector{buf: &buf}
		if held := s.bracket(vals, lo, hi, []int{n/2 - 1, n / 2}, make([]float64, 2)); held != holds[name] {
			t.Errorf("%s: bracket held = %v, want %v", name, held, holds[name])
		}
	}
}

// The guard counts element visits, not wall time. Bracketing visits the
// sample and then each value at most once, and narrows what it gathered;
// when it misses, narrowing starts over on all the values. Narrowing's
// first level visits each value twice (count, gather); a level below it
// three times (extremes, count, gather), holds at most the values of the
// level above and consumes 11 of the 64 key bits while more than 2048
// values are left; a bucket down to one key is visited twice more
// (extremes, read). So sample + n + 2n + 5·3n + 2n bounds every input,
// and inputs that are not built to defeat the narrowing stay far below
// it.
func TestSelectQuantilesIsLinear(t *testing.T) {
	const n = 1_000_000
	adversarial := map[string]bool{"close-pair": true, "nested-outliers": true}
	rnd := rand.New(rand.NewSource(2))
	var buf []float64
	inputs := selectInputs(n, rnd)
	maps.Copy(inputs, bracketMisses(n, rnd))
	for name, vals := range inputs {
		lo, hi, _ := MinMax(vals)
		bound := selectSample + 6*n
		if adversarial[name] {
			bound = selectSample + 20*n
		}
		for _, k := range []int{2, 5} {
			_, visits := selectQuantiles(vals, lo, hi, splitPoints(k), &buf, true)
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

// sameBits reports whether a and b are the same float64 bit for bit, any
// two NaNs counting as the same.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}
