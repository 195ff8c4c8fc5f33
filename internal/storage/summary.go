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

// Summarize computes descriptive statistics for every column.
func Summarize(t *Table) []ColumnSummary {
	out := make([]ColumnSummary, 0, t.NumCols())
	for ci := 0; ci < t.NumCols(); ci++ {
		f := t.Schema().Field(ci)
		s := ColumnSummary{Name: f.Name, Type: f.Type, Rows: t.NumRows()}
		col := t.Column(ci)
		s.Nulls = col.NullCount()
		switch c := col.(type) {
		case *Int64Column:
			summarizeNumeric(&s, c.Len(), c.IsNull, func(i int) float64 { return float64(c.At(i)) })
		case *Float64Column:
			summarizeNumeric(&s, c.Len(), c.IsNull, c.At)
		case *StringColumn:
			s.Cardinality = c.Cardinality()
			counts := make([]int, c.Cardinality())
			for i, code := range c.Codes() {
				if !c.IsNull(i) {
					counts[code]++
				}
			}
			s.TopValues = topValues(c.Dict(), counts)
		case *BoolColumn:
			for i := 0; i < c.Len(); i++ {
				if !c.IsNull(i) && c.At(i) {
					s.TrueCount++
				}
			}
		case *LazyColumn:
			summarizeLazy(&s, c)
		}
		out = append(out, s)
	}
	return out
}

// summarizeLazy summarizes a store-backed column chunk by chunk. A
// chunk that fails to decode truncates the summary (display statistics
// are best-effort; scans surface the error properly).
func summarizeLazy(s *ColumnSummary, c *LazyColumn) {
	ctx := context.TODO() // Summarize is a display helper with no request behind it
	switch c.Type() {
	case Int64, Float64:
		s.Min, s.Max = 0, 0
		sum, count := 0.0, 0
		first := true
		_ = c.ForEachChunk(ctx, func(k, lo int, p *ChunkPayload) (bool, error) {
			for i := 0; i < p.Rows(); i++ {
				if p.IsNull(i) {
					continue
				}
				v := p.Numeric(i)
				if first {
					s.Min, s.Max, first = v, v, false
				} else if v < s.Min {
					s.Min = v
				} else if v > s.Max {
					s.Max = v
				}
				sum += v
				count++
			}
			return true, nil
		})
		if count > 0 {
			s.Mean = sum / float64(count)
		}
	case String:
		dict, err := c.DictValues()
		if err != nil {
			return
		}
		s.Cardinality = len(dict)
		counts := make([]int, len(dict))
		_ = c.ForEachChunk(ctx, func(k, lo int, p *ChunkPayload) (bool, error) {
			for i, code := range p.Codes {
				if !p.IsNull(i) {
					counts[code]++
				}
			}
			return true, nil
		})
		s.TopValues = topValues(dict, counts)
	case Bool:
		_ = c.ForEachChunk(ctx, func(k, lo int, p *ChunkPayload) (bool, error) {
			for i, v := range p.Bools {
				if v && !p.IsNull(i) {
					s.TrueCount++
				}
			}
			return true, nil
		})
	}
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

func summarizeNumeric(s *ColumnSummary, n int, isNull func(int) bool, at func(int) float64) {
	s.Min, s.Max = math.Inf(1), math.Inf(-1)
	sum, count := 0.0, 0
	for i := 0; i < n; i++ {
		if isNull(i) {
			continue
		}
		v := at(i)
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		sum += v
		count++
	}
	if count == 0 {
		s.Min, s.Max, s.Mean = 0, 0, 0
		return
	}
	s.Mean = sum / float64(count)
}
