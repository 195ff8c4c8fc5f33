// Package stats provides the statistical machinery behind Atlas: entropy
// and information-theoretic dependency measures over partitions (mutual
// information, variation of information — Meilă 2007), contingency
// tables, histograms and quantiles. All entropies are in bits (log base 2).
package stats

import (
	"fmt"
	"math"
)

// EntropyCounts returns the Shannon entropy (bits) of the empirical
// distribution given by non-negative counts. Zero counts contribute
// nothing; an all-zero or empty slice has entropy 0.
func EntropyCounts(counts []int) float64 {
	total := 0
	for _, c := range counts {
		if c < 0 {
			panic(fmt.Sprintf("stats: negative count %d", c))
		}
		total += c
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	ft := float64(total)
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / ft
		h -= p * math.Log2(p)
	}
	return h
}

// Contingency is a joint count table between two discrete variables
// ("maps" in the paper: the cell (i,j) counts tuples falling in region i
// of the first map and region j of the second).
type Contingency struct {
	rows, cols int
	counts     []int
	total      int
}

// NewContingency creates an empty rows×cols table.
func NewContingency(rows, cols int) *Contingency {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("stats: invalid contingency shape %dx%d", rows, cols))
	}
	return &Contingency{rows: rows, cols: cols, counts: make([]int, rows*cols)}
}

// Rows returns the number of row outcomes.
func (c *Contingency) Rows() int { return c.rows }

// Cols returns the number of column outcomes.
func (c *Contingency) Cols() int { return c.cols }

// Total returns the grand total count.
func (c *Contingency) Total() int { return c.total }

// Add increments cell (r, cl) by n.
func (c *Contingency) Add(r, cl, n int) {
	if r < 0 || r >= c.rows || cl < 0 || cl >= c.cols {
		panic(fmt.Sprintf("stats: cell (%d,%d) out of %dx%d", r, cl, c.rows, c.cols))
	}
	if n < 0 {
		panic("stats: negative increment")
	}
	c.counts[r*c.cols+cl] += n
	c.total += n
}

// At returns the count in cell (r, cl).
func (c *Contingency) At(r, cl int) int { return c.counts[r*c.cols+cl] }

// RowMarginals returns the per-row totals.
func (c *Contingency) RowMarginals() []int {
	m := make([]int, c.rows)
	for r := 0; r < c.rows; r++ {
		s := 0
		for cl := 0; cl < c.cols; cl++ {
			s += c.counts[r*c.cols+cl]
		}
		m[r] = s
	}
	return m
}

// ColMarginals returns the per-column totals.
func (c *Contingency) ColMarginals() []int {
	m := make([]int, c.cols)
	for r := 0; r < c.rows; r++ {
		for cl := 0; cl < c.cols; cl++ {
			m[cl] += c.counts[r*c.cols+cl]
		}
	}
	return m
}

// RowEntropy returns H(X) of the row variable, in bits.
func (c *Contingency) RowEntropy() float64 { return EntropyCounts(c.RowMarginals()) }

// ColEntropy returns H(Y) of the column variable, in bits.
func (c *Contingency) ColEntropy() float64 { return EntropyCounts(c.ColMarginals()) }

// JointEntropy returns H(X,Y), in bits.
func (c *Contingency) JointEntropy() float64 { return EntropyCounts(c.counts) }

// MutualInformation returns I(X;Y) = H(X)+H(Y)-H(X,Y), in bits. It is
// clamped at 0 to absorb floating-point jitter.
func (c *Contingency) MutualInformation() float64 {
	mi := c.RowEntropy() + c.ColEntropy() - c.JointEntropy()
	if mi < 0 {
		return 0
	}
	return mi
}

// VariationOfInformation returns VI(X;Y) = H(X,Y) − I(X;Y)
// = 2·H(X,Y) − H(X) − H(Y), the metric of Meilă (2007), in bits.
// Lower means more dependent; 0 means the partitions are identical.
func (c *Contingency) VariationOfInformation() float64 {
	vi := 2*c.JointEntropy() - c.RowEntropy() - c.ColEntropy()
	if vi < 0 {
		return 0
	}
	return vi
}

// NormalizedVI returns VI normalized by the joint entropy, in [0,1]
// (0 when the partitions carry identical information, 1 when independent
// given full joint support). When H(X,Y)=0 it returns 0.
func (c *Contingency) NormalizedVI() float64 {
	hj := c.JointEntropy()
	if hj == 0 {
		return 0
	}
	v := c.VariationOfInformation() / hj
	if v > 1 {
		return 1
	}
	return v
}

// NormalizedMI returns I(X;Y)/max(H(X),H(Y)) in [0,1]; 0 when either
// marginal entropy is 0.
func (c *Contingency) NormalizedMI() float64 {
	hx, hy := c.RowEntropy(), c.ColEntropy()
	m := math.Max(hx, hy)
	if m == 0 {
		return 0
	}
	v := c.MutualInformation() / m
	if v > 1 {
		return 1
	}
	return v
}

// Mean returns the arithmetic mean; 0 for an empty slice.
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// Variance returns the population variance; 0 for fewer than 2 values.
func Variance(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	m := Mean(vals)
	s := 0.0
	for _, v := range vals {
		d := v - m
		s += d * d
	}
	return s / float64(len(vals))
}

// MinMax returns the minimum and maximum; ok is false for an empty slice.
func MinMax(vals []float64) (lo, hi float64, ok bool) {
	if len(vals) == 0 {
		return 0, 0, false
	}
	lo, hi = vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi, true
}
