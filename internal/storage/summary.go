package storage

import (
	"context"
	"fmt"
	"math"
	"strings"
)

// ColumnSummary holds the descriptive statistics of one column — what a
// front-end shows next to the schema so the explorer knows what each
// attribute looks like before cutting it.
type ColumnSummary struct {
	Name  string
	Type  DataType
	Rows  int
	Nulls int
	// numeric columns
	Min, Max, Mean float64
	// categorical columns
	Cardinality int
	TopValues   []ValueCount // up to 5, by descending count
	// boolean columns
	TrueCount int
}

// ValueCount is one categorical value with its frequency.
type ValueCount struct {
	Value string
	Count int
}

// String renders a one-line summary.
func (s ColumnSummary) String() string {
	base := fmt.Sprintf("%-20s %-8s rows=%d nulls=%d", s.Name, s.Type, s.Rows, s.Nulls)
	switch s.Type {
	case Int64, Float64:
		return fmt.Sprintf("%s min=%.4g max=%.4g mean=%.4g", base, s.Min, s.Max, s.Mean)
	case String:
		var tops []string
		for _, tv := range s.TopValues {
			tops = append(tops, fmt.Sprintf("%s(%d)", tv.Value, tv.Count))
		}
		return fmt.Sprintf("%s distinct=%d top=[%s]", base, s.Cardinality, strings.Join(tops, " "))
	case Bool:
		return fmt.Sprintf("%s true=%d false=%d", base, s.TrueCount, s.Rows-s.Nulls-s.TrueCount)
	default:
		return base
	}
}

// Summarize computes descriptive statistics for every column. Min and
// Max are the extremes of the non-NULL values other than NaN (0 when
// there are none); Mean averages every non-NULL value. A chunk that
// fails to decode fails the summary, naming the column.
func Summarize(t *Table) ([]ColumnSummary, error) {
	ctx := context.TODO() // Summarize is a display helper with no request behind it
	out := make([]ColumnSummary, 0, t.NumCols())
	for ci := 0; ci < t.NumCols(); ci++ {
		f := t.Schema().Field(ci)
		s := ColumnSummary{Name: f.Name, Type: f.Type, Rows: t.NumRows(), Nulls: t.Column(ci).NullCount()}
		runs := t.Runs(ci)
		walk := func(fn func(p *ChunkPayload)) error {
			return runs.Walk(ctx, nil, 1, "storage.summary", nil, func(_ int, _ []uint64, p *ChunkPayload) { fn(p) })
		}
		var err error
		switch f.Type {
		case Int64, Float64:
			sum, count := 0.0, 0
			s.Min, s.Max = math.Inf(1), math.Inf(-1)
			err = walk(func(p *ChunkPayload) {
				p.EachFloat(func(v float64) {
					if v < s.Min { // false for NaN
						s.Min = v
					}
					if v > s.Max {
						s.Max = v
					}
					sum += v
					count++
				})
			})
			if s.Min > s.Max { // no value but NaN
				s.Min, s.Max = 0, 0
			}
			if count > 0 {
				s.Mean = sum / float64(count)
			}
		case String:
			var dict []string
			if dict, err = Dictionary(t.Column(ci)); err != nil {
				break
			}
			s.Cardinality = len(dict)
			counts := make([]int, len(dict))
			err = walk(func(p *ChunkPayload) { p.CountCodes(counts) })
			s.TopValues = topValues(dict, counts)
		case Bool:
			err = walk(func(p *ChunkPayload) {
				_, trues := p.CountBools()
				s.TrueCount += trues
			})
		}
		if err != nil {
			return nil, fmt.Errorf("storage: summarizing column %q: %w", f.Name, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// topValues returns up to 5 dictionary values by descending count, ties
// broken by value for determinism.
func topValues(dict []string, counts []int) []ValueCount {
	type vc struct {
		v string
		n int
	}
	all := make([]vc, 0, len(counts))
	for code, n := range counts {
		if n > 0 {
			all = append(all, vc{dict[code], n})
		}
	}
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if all[j].n > all[i].n || (all[j].n == all[i].n && all[j].v < all[i].v) {
				all[i], all[j] = all[j], all[i]
			}
		}
	}
	var out []ValueCount
	for i := 0; i < len(all) && i < 5; i++ {
		out = append(out, ValueCount{all[i].v, all[i].n})
	}
	return out
}
