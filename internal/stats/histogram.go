package stats

import (
	"fmt"
	"math"
	"sort"
)

// Histogram is a binned summary of a numeric column. Edges has one more
// entry than Counts; bin i covers [Edges[i], Edges[i+1]), except the last
// bin which is closed on both ends so the maximum is included.
type Histogram struct {
	Edges  []float64
	Counts []int
}

// NumBins returns the number of bins.
func (h *Histogram) NumBins() int { return len(h.Counts) }

// Total returns the total count across bins.
func (h *Histogram) Total() int {
	t := 0
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// BinOf returns the bin index holding v, or -1 if v is out of range
// (NaN is outside every bin).
func (h *Histogram) BinOf(v float64) int {
	if len(h.Edges) < 2 || math.IsNaN(v) || v < h.Edges[0] || v > h.Edges[len(h.Edges)-1] {
		return -1
	}
	// binary search for the upper edge
	i := sort.SearchFloat64s(h.Edges[1:], v)
	// v <= Edges[1+i]; handle exact upper-edge hits of interior bins
	if i == len(h.Counts) {
		i = len(h.Counts) - 1
	}
	return i
}

// EquiWidthHist builds a k-bin equal-width histogram over vals. If all
// values are identical, a single degenerate bin is returned.
func EquiWidthHist(vals []float64, k int) (*Histogram, error) {
	if k <= 0 {
		return nil, fmt.Errorf("stats: histogram needs k > 0, got %d", k)
	}
	lo, hi, ok := MinMax(vals)
	if !ok {
		return nil, fmt.Errorf("stats: histogram of empty data")
	}
	if lo == hi {
		return &Histogram{Edges: []float64{lo, hi}, Counts: []int{len(vals)}}, nil
	}
	edges, bin := EqualWidth(lo, hi, k)
	counts := make([]int, k)
	for _, v := range vals {
		counts[bin(v)]++
	}
	return &Histogram{Edges: edges, Counts: counts}, nil
}

// EqualWidth returns the k+1 edges of k equal-width bins over [lo, hi]
// (lo < hi, both finite; edges[k] is hi exactly, so floating error never
// excludes the maximum) and bin, the index in [0, k) of a value in
// [lo, hi]. The width is (hi−lo)/k, and edge i is lo + width·i. When
// hi−lo overflows, the width is hi/k − lo/k instead, edge i is that sum
// taken at half scale and doubled, and bin divides before it subtracts:
// the same grid, without an infinite width.
func EqualWidth(lo, hi float64, k int) (edges []float64, bin func(v float64) int) {
	edges = make([]float64, k+1)
	w := (hi - lo) / float64(k)
	wide := math.IsInf(w, 0)
	if wide {
		w = hi/float64(k) - lo/float64(k)
	}
	for i := range edges {
		if wide {
			edges[i] = 2 * (lo/2 + w/2*float64(i))
		} else {
			edges[i] = lo + w*float64(i)
		}
	}
	edges[k] = hi
	bin = func(v float64) int {
		var b int
		if wide {
			b = int(v/w - lo/w)
		} else {
			b = int((v - lo) / w)
		}
		return min(max(b, 0), k-1)
	}
	return edges, bin
}

// FixedHist returns an empty k-bin equal-width histogram over [lo, hi] —
// the shape distributed counting needs: every shard observes its values
// into a histogram with identical, pre-agreed edges, and the shards'
// counts add up to exactly the histogram a single pass would build.
func FixedHist(lo, hi float64, k int) (*Histogram, error) {
	if k <= 0 {
		return nil, fmt.Errorf("stats: histogram needs k > 0, got %d", k)
	}
	if !(lo <= hi) {
		return nil, fmt.Errorf("stats: histogram range [%g, %g] is invalid", lo, hi)
	}
	if lo == hi {
		return &Histogram{Edges: []float64{lo, hi}, Counts: []int{0}}, nil
	}
	edges, _ := EqualWidth(lo, hi, k)
	return &Histogram{Edges: edges, Counts: make([]int, k)}, nil
}

// Observe adds one value; values outside the edge range are dropped.
func (h *Histogram) Observe(v float64) {
	if b := h.BinOf(v); b >= 0 {
		h.Counts[b]++
	}
}

// QuantileSorted returns the q-quantile (0 ≤ q ≤ 1) of an ascending-sorted
// slice using linear interpolation between order statistics.
func QuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	lo, hi, frac := quantilePos(len(sorted), q)
	return interpolate(sorted[lo], sorted[hi], frac)
}

// Quantile sorts a copy of vals and returns the q-quantile.
func Quantile(vals []float64, q float64) float64 {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	return QuantileSorted(sorted, q)
}

// Median returns the 0.5-quantile of vals.
func Median(vals []float64) float64 { return Quantile(vals, 0.5) }
