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
	edges := make([]float64, k+1)
	width := (hi - lo) / float64(k)
	for i := 0; i <= k; i++ {
		edges[i] = lo + width*float64(i)
	}
	edges[k] = hi // avoid floating error excluding the max
	counts := make([]int, k)
	for _, v := range vals {
		b := int((v - lo) / width)
		if b >= k {
			b = k - 1
		}
		if b < 0 {
			b = 0
		}
		counts[b]++
	}
	return &Histogram{Edges: edges, Counts: counts}, nil
}

// FixedHist returns an empty k-bin equal-width histogram over [lo, hi] —
// the shape distributed counting needs: every shard observes its values
// into a histogram with identical, pre-agreed edges, and the partials
// Merge into exactly the histogram a single pass would build.
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
	edges := make([]float64, k+1)
	width := (hi - lo) / float64(k)
	for i := 0; i <= k; i++ {
		edges[i] = lo + width*float64(i)
	}
	edges[k] = hi
	return &Histogram{Edges: edges, Counts: make([]int, k)}, nil
}

// Observe adds one value; values outside the edge range are dropped.
func (h *Histogram) Observe(v float64) {
	if b := h.BinOf(v); b >= 0 {
		h.Counts[b]++
	}
}

// Merge adds o's counts into h. Both histograms must share identical
// edges (built by FixedHist over the same range).
func (h *Histogram) Merge(o *Histogram) error {
	if len(h.Edges) != len(o.Edges) {
		return fmt.Errorf("stats: merge of histograms with %d vs %d edges", len(h.Edges), len(o.Edges))
	}
	for i := range h.Edges {
		if h.Edges[i] != o.Edges[i] {
			return fmt.Errorf("stats: merge of histograms with different edges at %d (%g vs %g)", i, h.Edges[i], o.Edges[i])
		}
	}
	for i := range h.Counts {
		h.Counts[i] += o.Counts[i]
	}
	return nil
}

// EquiDepthHist builds a k-bin equal-frequency histogram over vals. Bins
// may be fewer than k when duplicate values collapse edges.
func EquiDepthHist(vals []float64, k int) (*Histogram, error) {
	if k <= 0 {
		return nil, fmt.Errorf("stats: histogram needs k > 0, got %d", k)
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("stats: histogram of empty data")
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	edges := []float64{sorted[0]}
	for i := 1; i < k; i++ {
		q := QuantileSorted(sorted, float64(i)/float64(k))
		if q > edges[len(edges)-1] {
			edges = append(edges, q)
		}
	}
	if hi := sorted[len(sorted)-1]; hi > edges[len(edges)-1] {
		edges = append(edges, hi)
	} else if len(edges) == 1 {
		edges = append(edges, edges[0]) // degenerate: all equal
	}
	h := &Histogram{Edges: edges, Counts: make([]int, len(edges)-1)}
	for _, v := range vals {
		if b := h.BinOf(v); b >= 0 {
			h.Counts[b]++
		}
	}
	return h, nil
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
