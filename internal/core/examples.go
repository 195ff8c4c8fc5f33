package core

import (
	"fmt"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/storage"
)

// This file implements the other Section 5.2 presentation idea: "it could
// be interesting to describe the regions with random or, if possible,
// representative examples".

// ExampleRow is one sampled tuple, rendered per column.
type ExampleRow struct {
	// Row is the row's index in the table.
	Row int
	// Values holds one rendered cell per schema field.
	Values []string
}

// RegionExamples returns up to k example tuples from the region selected
// by q: the paper's "random … examples" presentation aid. Sampling is
// uniform over the region and deterministic in seed.
func RegionExamples(t *storage.Table, q query.Query, k int, seed int64) (out_ []ExampleRow, err_ error) {
	defer recoverChunkPanic(&err_)
	if k < 1 {
		return nil, fmt.Errorf("core: need k >= 1 examples, got %d", k)
	}
	sel, err := engine.Eval(t, q)
	if err != nil {
		return nil, err
	}
	rows := sel.Indexes()
	if len(rows) == 0 {
		return nil, fmt.Errorf("core: region %s selects no rows", q.String())
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	if len(rows) > k {
		rows = rows[:k]
	}
	out := make([]ExampleRow, 0, len(rows))
	for _, row := range rows {
		vals := make([]string, t.NumCols())
		for c := 0; c < t.NumCols(); c++ {
			vals[c] = t.Column(c).Render(row)
		}
		out = append(out, ExampleRow{Row: row, Values: vals})
	}
	return out, nil
}

// RepresentativeExamples returns up to k tuples chosen to be central
// rather than random: for every numeric attribute the region's median is
// computed, and rows minimizing the summed normalized distance to those
// medians are returned (ties by row order). Categorical attributes do not
// contribute to centrality. This is the "if possible, representative"
// variant of the Section 5.2 idea.
func RepresentativeExamples(t *storage.Table, q query.Query, k int) (out_ []ExampleRow, err_ error) {
	defer recoverChunkPanic(&err_)
	if k < 1 {
		return nil, fmt.Errorf("core: need k >= 1 examples, got %d", k)
	}
	sel, err := engine.Eval(t, q)
	if err != nil {
		return nil, err
	}
	rows := sel.Indexes()
	if len(rows) == 0 {
		return nil, fmt.Errorf("core: region %s selects no rows", q.String())
	}
	// Score rows by their distance to the medians, column by column: one
	// extraction reads a numeric column under the region, and its present
	// bits tell which rows hold a value, in row order.
	costs := make([]float64, len(rows))
	var x engine.NumericExtract
	for ci := 0; ci < t.NumCols(); ci++ {
		if !t.Column(ci).Type().IsNumeric() {
			continue
		}
		if err := engine.ExtractNumericUnder(&x, t, t.Schema().Field(ci).Name, sel, engine.ScanOptions{}); err != nil {
			return nil, err
		}
		vals := x.Vals
		if len(vals) == 0 {
			continue
		}
		med := medianOf(vals)
		lo, hi := vals[0], vals[0]
		for _, v := range vals {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		scale := hi - lo
		if scale == 0 {
			scale = 1
		}
		j := 0
		for oi, row := range rows {
			if !x.Present.Get(row) {
				costs[oi] += 1 // penalize missing values
				continue
			}
			d := (vals[j] - med) / scale
			j++
			if d < 0 {
				d = -d
			}
			costs[oi] += d
		}
	}
	type scored struct {
		row  int
		cost float64
	}
	scoredRows := make([]scored, len(rows))
	for oi, row := range rows {
		scoredRows[oi] = scored{row, costs[oi]}
	}
	// partial selection sort for the k smallest (k is tiny)
	if k > len(scoredRows) {
		k = len(scoredRows)
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(scoredRows); j++ {
			if scoredRows[j].cost < scoredRows[best].cost ||
				(scoredRows[j].cost == scoredRows[best].cost && scoredRows[j].row < scoredRows[best].row) {
				best = j
			}
		}
		scoredRows[i], scoredRows[best] = scoredRows[best], scoredRows[i]
	}
	out := make([]ExampleRow, 0, k)
	for i := 0; i < k; i++ {
		row := scoredRows[i].row
		vals := make([]string, t.NumCols())
		for c := 0; c < t.NumCols(); c++ {
			vals[c] = t.Column(c).Render(row)
		}
		out = append(out, ExampleRow{Row: row, Values: vals})
	}
	return out, nil
}

func medianOf(vals []float64) float64 {
	// selection of the middle element without mutating the caller's view
	cp := append([]float64(nil), vals...)
	lo, hi, k := 0, len(cp)-1, len(cp)/2
	for lo < hi {
		pivot := cp[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for cp[i] < pivot {
				i++
			}
			for cp[j] > pivot {
				j--
			}
			if i <= j {
				cp[i], cp[j] = cp[j], cp[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return cp[k]
}
