package shard

import (
	"context"
	"fmt"
	"math"

	"repro/internal/sketch"
	"repro/internal/stats"
	"repro/internal/storage"
)

// This file is the mergeable partial-statistics layer: every statistic
// the pipeline (or a front-end) needs over a sharded table is computed
// as one partial per shard and reduced by an associative merge —
// counts and category-count vectors add, sorted runs merge-sort,
// fixed-edge histograms add bin-wise, GK sketches merge entry lists.
// The exact reductions (counts, sorted runs) feed Explore and stay
// byte-identical to the unsharded computation; the approximate ones
// (histograms, sketches) feed aggregate summaries where a shard's raw
// values never need to leave it.

// MergeSortedRuns merge-sorts ascending runs into one ascending slice —
// the exact reduction behind distributed sorted-value statistics: each
// shard sorts its own values and the merged result equals a global sort
// (sort.Float64s order, NaNs first). Ties break toward the earlier run,
// so the output is independent of how the runs were computed.
func MergeSortedRuns(runs [][]float64) []float64 {
	switch len(runs) {
	case 0:
		return nil
	case 1:
		return runs[0]
	}
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	out := make([]float64, 0, total)
	heads := make([]int, len(runs))
	for len(out) < total {
		best := -1
		for ri, r := range runs {
			if heads[ri] >= len(r) {
				continue
			}
			if best < 0 || floatLess(r[heads[ri]], runs[best][heads[best]]) {
				best = ri
			}
		}
		out = append(out, runs[best][heads[best]])
		heads[best]++
	}
	return out
}

// floatLess is sort.Float64s order: NaN sorts before every number.
func floatLess(a, b float64) bool {
	return a < b || (math.IsNaN(a) && !math.IsNaN(b))
}

// AddCounts adds src into dst element-wise — the reduction for category
// counts and any other count vector keyed by a shared dictionary.
func AddCounts(dst, src []int) error {
	if len(dst) != len(src) {
		return fmt.Errorf("shard: count vectors of length %d vs %d", len(dst), len(src))
	}
	for i, v := range src {
		dst[i] += v
	}
	return nil
}

// ColumnPartial is one shard's mergeable statistic bundle for one
// column: exact counts plus, for numeric columns, a fixed-edge histogram
// and a GK quantile sketch that merge across shards.
type ColumnPartial struct {
	// Rows and Nulls count the shard's rows and NULLs in this column.
	Rows, Nulls int
	// Count and Sum cover the non-NULL numeric values; Min/Max are valid
	// when HasMinMax.
	Count     int
	Sum       float64
	Min, Max  float64
	HasMinMax bool
	// Hist is a fixed-edge histogram over the set-wide value range
	// (numeric columns; nil otherwise).
	Hist *stats.Histogram
	// Quantiles is the shard's GK sketch (numeric columns; nil otherwise).
	Quantiles *sketch.GK
	// CatCounts are per-code counts against the set's union dictionary
	// (string columns; nil otherwise).
	CatCounts []int
	// Falses/Trues tally boolean columns.
	Falses, Trues int
}

// Merge folds o into p. Histograms must share edges; sketches merge with
// summed error budgets.
func (p *ColumnPartial) Merge(o *ColumnPartial) error {
	p.Rows += o.Rows
	p.Nulls += o.Nulls
	p.Count += o.Count
	p.Sum += o.Sum
	if o.HasMinMax {
		if !p.HasMinMax {
			p.Min, p.Max, p.HasMinMax = o.Min, o.Max, true
		} else {
			if o.Min < p.Min {
				p.Min = o.Min
			}
			if o.Max > p.Max {
				p.Max = o.Max
			}
		}
	}
	if o.Hist != nil {
		if p.Hist == nil {
			p.Hist = o.Hist
		} else if err := p.Hist.Merge(o.Hist); err != nil {
			return err
		}
	}
	if o.Quantiles != nil {
		if p.Quantiles == nil {
			p.Quantiles = o.Quantiles
		} else {
			p.Quantiles.Merge(o.Quantiles)
		}
	}
	if o.CatCounts != nil {
		if p.CatCounts == nil {
			p.CatCounts = o.CatCounts
		} else if err := AddCounts(p.CatCounts, o.CatCounts); err != nil {
			return err
		}
	}
	p.Falses += o.Falses
	p.Trues += o.Trues
	return nil
}

// ComputeColumnPartial computes one shard table's mergeable partial for
// column ci: what a Set computes per shard locally, and what a remote
// shard server computes where its data lives before shipping only the
// bundle. lo/hi fix the histogram edges (the set-wide range the
// coordinator agreed before the fan-out); useHist disables the
// histogram when the set has no finite range. Lazy columns fetch their
// chunks under ctx.
func ComputeColumnPartial(ctx context.Context, t *storage.Table, ci int, lo, hi float64, useHist bool) (*ColumnPartial, error) {
	if ci < 0 || ci >= t.NumCols() {
		return nil, fmt.Errorf("shard: column %d out of range", ci)
	}
	return columnPartial(ctx, t, ci, lo, hi, useHist)
}

// partialHistBins is the bin count of per-shard summary histograms.
const partialHistBins = 64

// partialEps is the per-shard sketch error; k merged shards answer
// within k·partialEps.
const partialEps = 0.005

// columnPartial computes one shard's partial for column ci of t. For
// numeric columns, lo/hi fix the histogram edges (the set-wide range,
// agreed before the fan-out); useHist is false when the set has no
// finite range.
func columnPartial(ctx context.Context, t *storage.Table, ci int, lo, hi float64, useHist bool) (*ColumnPartial, error) {
	col := t.Column(ci)
	p := &ColumnPartial{Rows: t.NumRows(), Nulls: col.NullCount()}
	switch c := col.(type) {
	case *storage.Int64Column:
		vals := c.Values()
		return p, p.observeNumeric(lo, hi, useHist, c.Len(), c.IsNull, func(i int) float64 { return float64(vals[i]) })
	case *storage.Float64Column:
		vals := c.Values()
		return p, p.observeNumeric(lo, hi, useHist, c.Len(), c.IsNull, func(i int) float64 { return vals[i] })
	case *storage.StringColumn:
		p.CatCounts = make([]int, c.Cardinality())
		codes := c.Codes()
		for i := 0; i < c.Len(); i++ {
			if !c.IsNull(i) {
				p.CatCounts[codes[i]]++
				p.Count++
			}
		}
		return p, nil
	case *storage.BoolColumn:
		vals := c.Values()
		for i := 0; i < c.Len(); i++ {
			if c.IsNull(i) {
				continue
			}
			if vals[i] {
				p.Trues++
			} else {
				p.Falses++
			}
			p.Count++
		}
		return p, nil
	case *storage.LazyColumn:
		return lazyColumnPartial(ctx, p, c, lo, hi, useHist)
	default:
		return nil, fmt.Errorf("shard: unsupported column type %T", col)
	}
}

// lazyColumnPartial computes the partial of a memory-tiered column
// chunk by chunk — a full pass (partials are whole-shard statistics)
// that streams through the chunk cache instead of materializing the
// column.
func lazyColumnPartial(ctx context.Context, p *ColumnPartial, c *storage.LazyColumn, lo, hi float64, useHist bool) (*ColumnPartial, error) {
	switch c.Type() {
	case storage.Int64, storage.Float64:
		if useHist {
			h, err := stats.FixedHist(lo, hi, partialHistBins)
			if err != nil {
				return nil, err
			}
			p.Hist = h
		}
		p.Quantiles = sketch.MustGK(partialEps)
		err := c.ForEachChunk(ctx, func(k, start int, pl *storage.ChunkPayload) (bool, error) {
			for i := 0; i < pl.Rows(); i++ {
				if pl.IsNull(i) {
					continue
				}
				v := pl.Numeric(i)
				p.Count++
				p.Sum += v
				if !math.IsNaN(v) {
					if !p.HasMinMax {
						p.Min, p.Max, p.HasMinMax = v, v, true
					} else {
						if v < p.Min {
							p.Min = v
						}
						if v > p.Max {
							p.Max = v
						}
					}
				}
				if p.Hist != nil {
					p.Hist.Observe(v)
				}
				p.Quantiles.Add(v)
			}
			return true, nil
		})
		if err != nil {
			return nil, err
		}
		p.Quantiles.Finalize()
		return p, nil
	case storage.String:
		dict, err := c.DictValues()
		if err != nil {
			return nil, err
		}
		p.CatCounts = make([]int, len(dict))
		err = c.ForEachChunk(ctx, func(k, start int, pl *storage.ChunkPayload) (bool, error) {
			for i, code := range pl.Codes {
				if !pl.IsNull(i) {
					p.CatCounts[code]++
					p.Count++
				}
			}
			return true, nil
		})
		if err != nil {
			return nil, err
		}
		return p, nil
	case storage.Bool:
		err := c.ForEachChunk(ctx, func(k, start int, pl *storage.ChunkPayload) (bool, error) {
			for i, v := range pl.Bools {
				if pl.IsNull(i) {
					continue
				}
				if v {
					p.Trues++
				} else {
					p.Falses++
				}
				p.Count++
			}
			return true, nil
		})
		if err != nil {
			return nil, err
		}
		return p, nil
	default:
		return nil, fmt.Errorf("shard: unsupported lazy column type %v", c.Type())
	}
}

func (p *ColumnPartial) observeNumeric(lo, hi float64, useHist bool, n int, isNull func(int) bool, at func(int) float64) error {
	if useHist {
		h, err := stats.FixedHist(lo, hi, partialHistBins)
		if err != nil {
			return err
		}
		p.Hist = h
	}
	p.Quantiles = sketch.MustGK(partialEps)
	for i := 0; i < n; i++ {
		if isNull(i) {
			continue
		}
		v := at(i)
		p.Count++
		p.Sum += v
		if !math.IsNaN(v) {
			if !p.HasMinMax {
				p.Min, p.Max, p.HasMinMax = v, v, true
			} else {
				if v < p.Min {
					p.Min = v
				}
				if v > p.Max {
					p.Max = v
				}
			}
		}
		if p.Hist != nil {
			p.Hist.Observe(v)
		}
		p.Quantiles.Add(v)
	}
	p.Quantiles.Finalize()
	return nil
}
