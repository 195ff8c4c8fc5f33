package shard

import (
	"context"
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/storage"
)

// This file is the mergeable partial-statistics layer: every statistic
// the pipeline (or a front-end) needs over a sharded table is computed
// as one partial per shard and reduced by an associative merge —
// counts and category-count vectors add, fixed-edge histograms add
// bin-wise. The exact reductions (counts) feed Explore and stay
// byte-identical to the unsharded computation; the approximate ones
// (histograms) feed aggregate summaries where a shard's raw values never
// need to leave it.

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
// that merges across shards.
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
	// CatCounts are per-code counts against the set's union dictionary
	// (string columns; nil otherwise).
	CatCounts []int
	// Falses/Trues tally boolean columns.
	Falses, Trues int
}

// Merge folds o into p. Histograms must share edges.
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

// columnPartial computes one shard's partial for column ci of t in one
// full pass over its runs. For numeric columns, lo/hi fix the histogram
// edges (the set-wide range, agreed before the fan-out); useHist is
// false when the set has no finite range.
func columnPartial(ctx context.Context, t *storage.Table, ci int, lo, hi float64, useHist bool) (*ColumnPartial, error) {
	runs := t.Runs(ci)
	p := &ColumnPartial{Rows: t.NumRows(), Nulls: t.Column(ci).NullCount()}
	var visit func(pl *storage.ChunkPayload)
	switch runs.Type() {
	case storage.Int64, storage.Float64:
		if useHist {
			h, err := stats.FixedHist(lo, hi, partialHistBins)
			if err != nil {
				return nil, err
			}
			p.Hist = h
		}
		visit = func(pl *storage.ChunkPayload) { pl.EachFloat(p.observe) }
	case storage.String:
		dict, err := storage.Dictionary(t.Column(ci))
		if err != nil {
			return nil, err
		}
		p.CatCounts = make([]int, len(dict))
		visit = func(pl *storage.ChunkPayload) { pl.CountCodes(p.CatCounts) }
	case storage.Bool:
		visit = func(pl *storage.ChunkPayload) {
			falses, trues := pl.CountBools()
			p.Falses += falses
			p.Trues += trues
		}
	default:
		return nil, fmt.Errorf("shard: unsupported column type %v", runs.Type())
	}
	err := runs.Walk(ctx, nil, 1, "shard.partial", nil, func(_ int, _ []uint64, pl *storage.ChunkPayload) { visit(pl) })
	if err != nil {
		return nil, err
	}
	// Numeric values counted themselves; categories and booleans count here.
	for _, n := range p.CatCounts {
		p.Count += n
	}
	p.Count += p.Falses + p.Trues
	return p, nil
}

// observe folds one non-NULL numeric value into the partial.
func (p *ColumnPartial) observe(v float64) {
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
}
