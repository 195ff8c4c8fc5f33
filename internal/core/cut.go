// Package core implements the paper's contribution: the data-map
// generation framework of Section 3 — the CUT primitive, map dependency
// distances, agglomerative map clustering (SLINK), the Product and
// Composition merge operators, entropy ranking, and the end-to-end
// Cartographer pipeline with its anytime variant (Section 5.1) and
// high-cardinality screening (Section 5.2).
package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/sketch"
	"repro/internal/stats"
	"repro/internal/storage"
)

// NumericCut selects how CUT splits an ordinal (numeric) attribute.
type NumericCut string

const (
	// CutEquiWidth splits the value range into equal-width intervals —
	// the paper's "fast and intuitive" option.
	CutEquiWidth NumericCut = "equiwidth"
	// CutMedian splits at quantiles (the median for 2 splits) — the
	// paper's current default ("currently, we use the median").
	CutMedian NumericCut = "median"
	// CutVariance minimizes within-interval variance (optimal 1-D
	// k-means by dynamic programming over a compressed histogram) — the
	// paper's "intra-cluster distance" criterion.
	CutVariance NumericCut = "variance"
	// CutSketch approximates CutMedian with a one-pass Greenwald–Khanna
	// quantile sketch — the Section 5.1 streaming acceleration.
	CutSketch NumericCut = "sketch"
)

// CategoricalCut selects how CUT groups values of a categorical attribute.
type CategoricalCut string

const (
	// CatFrequency groups values by frequency of occurrence, balancing
	// group weights (the paper's default when no user order is given).
	CatFrequency CategoricalCut = "frequency"
	// CatAlpha groups values in alphabetic order — the paper's fallback
	// for high-cardinality name/code attributes.
	CatAlpha CategoricalCut = "alpha"
)

// CutOptions parameterizes the CUT primitive.
type CutOptions struct {
	// Splits is M, the number of sub-ranges per attribute. The paper
	// fixes it to 2, valuing performance over accuracy.
	Splits int
	// Numeric is the ordinal cutting strategy.
	Numeric NumericCut
	// Categorical is the categorical grouping strategy.
	Categorical CategoricalCut
	// CatPerValue: when a categorical attribute has at most this many
	// distinct values under the selection, CUT emits one region per
	// value instead of grouping (the paper's Figure 2 treats Education
	// levels and Salary bands as individual regions). 0 disables.
	CatPerValue int
	// SketchEpsilon is the GK sketch error bound for CutSketch.
	SketchEpsilon float64
}

// DefaultCutOptions returns the paper's choices: 2 splits, median cuts,
// frequency grouping with per-value regions for small domains.
func DefaultCutOptions() CutOptions {
	return CutOptions{Splits: 2, Numeric: CutMedian, Categorical: CatFrequency, CatPerValue: 4, SketchEpsilon: 0.005}
}

func (o CutOptions) validate() error {
	if o.Splits < 2 {
		return fmt.Errorf("core: cut needs at least 2 splits, got %d", o.Splits)
	}
	switch o.Numeric {
	case CutEquiWidth, CutMedian, CutVariance, CutSketch:
	default:
		return fmt.Errorf("core: unknown numeric cut strategy %q", o.Numeric)
	}
	switch o.Categorical {
	case CatFrequency, CatAlpha:
	default:
		return fmt.Errorf("core: unknown categorical cut strategy %q", o.Categorical)
	}
	return nil
}

// ErrDegenerate reports that an attribute cannot be cut under the current
// selection (constant, all-NULL, or single category).
type ErrDegenerate struct {
	Attr   string
	Reason string
}

func (e *ErrDegenerate) Error() string {
	return fmt.Sprintf("core: cannot cut %q: %s", e.Attr, e.Reason)
}

// cutter bundles the inputs of the CUT primitive: the table and an
// optional per-Cartographer stat cache (hit when the selection covers
// every row). A cutter is cheap to create and confined to one
// goroutine; the cache it points to is shared.
type cutter struct {
	t     *storage.Table
	cache *statCache // nil = uncached
	// ctx carries the exploration's trace span, request ID and resource
	// ledger into provider fan-outs and lazy chunk fetches; nil means
	// untraced.
	ctx context.Context
	// scan carries the Cartographer's scan options (worker count, its
	// ScanStats, ctx) into the partition passes the cutter drives, so
	// merge-phase re-partitions bill the same stats — and the same
	// ledger — as every other scan of the exploration.
	scan engine.ScanOptions
}

// reqCtx returns the cutter's context, never nil.
func (x *cutter) reqCtx() context.Context {
	if x.ctx != nil {
		return x.ctx
	}
	return context.Background()
}

// cutScratch is what CUT materializes on the uncached (sub-selection)
// path: the column's values under the selection and, for median cuts,
// the candidates the quantile selection narrows down to. The two are
// recycled together so that a large values buffer is never handed out as
// the small candidates buffer and grown again.
type cutScratch struct{ vals, candidates []float64 }

var scratchPool = sync.Pool{New: func() any { return new(cutScratch) }}

// CutPredicates implements the CUT_k primitive of Definition 1: it splits
// the range of attr, restricted to the rows selected by sel, into at most
// opts.Splits disjoint predicates that together cover the selected values.
// The returned predicates partition the attribute's observed range:
// every selected non-NULL row satisfies exactly one of them.
func CutPredicates(t *storage.Table, sel *bitvec.Vector, attr string, opts CutOptions) ([]query.Predicate, error) {
	x := cutter{t: t}
	return x.cutPredicates(sel, false, attr, opts)
}

func (x *cutter) cutPredicates(sel *bitvec.Vector, full bool, attr string, opts CutOptions) ([]query.Predicate, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	col, err := x.t.ColumnByName(attr)
	if err != nil {
		return nil, err
	}
	switch col.Type() {
	case storage.Int64, storage.Float64:
		return x.cutNumeric(sel, full, attr, opts)
	case storage.String:
		return x.cutCategorical(sel, full, attr, opts)
	case storage.Bool:
		return x.cutBool(sel, full, attr)
	default:
		return nil, fmt.Errorf("core: unsupported column type %v", col.Type())
	}
}

// cutNumeric never sorts the values of a sub-selection: one extraction
// pass yields them with their NaN count and extremes, and each strategy
// takes only what it still needs — nothing (equi-width), the stream
// (sketch), a counting pass (variance) or a handful of order statistics
// (median). Only the full-selection stat cache holds sorted values; its
// quantiles are read off them, everything else is shared.
func (x *cutter) cutNumeric(sel *bitvec.Vector, full bool, attr string, opts CutOptions) ([]query.Predicate, error) {
	var (
		nn     []float64 // the non-NaN values under sel
		sorted bool      // nn is ascending
		total  int       // values under sel, NaN included
		lo, hi float64   // extremes of nn
		gk     *sketch.GK
		// scratch backs nn when it is not the stat cache's
		scratch *cutScratch
	)
	if x.cache != nil && full {
		all, g, err := x.cache.numericStats(x.reqCtx(), x.t, attr, sel, opts)
		if err != nil {
			return nil, err
		}
		// sort.Float64s orders NaN before every number, so the real
		// values start after any NaN prefix (a CSV "NaN" cell is non-NULL)
		nn = all
		for len(nn) > 0 && math.IsNaN(nn[0]) {
			nn = nn[1:]
		}
		if len(nn) > 0 {
			lo, hi = nn[0], nn[len(nn)-1]
		}
		sorted, total, gk = true, len(all), g
	} else {
		scratch = scratchPool.Get().(*cutScratch)
		defer scratchPool.Put(scratch)
		vals, sum, err := engine.ExtractNumericUnder(x.reqCtx(), scratch.vals, x.t, attr, sel)
		if err != nil {
			return nil, err
		}
		scratch.vals = vals
		if opts.Numeric == CutSketch && len(vals) > 0 {
			// built from the selection-order stream, NaN included, so the
			// sketch state matches the cached (table-order) construction
			gk = newCutSketch(vals, opts.SketchEpsilon)
		}
		nn, total, lo, hi = vals, len(vals), sum.Min, sum.Max
		if sum.NaN > 0 {
			nn = vals[:0]
			for _, v := range vals {
				if v == v {
					nn = append(nn, v)
				}
			}
		}
	}
	if total == 0 {
		return nil, &ErrDegenerate{attr, "no non-NULL values under selection"}
	}
	if len(nn) == 0 {
		return nil, &ErrDegenerate{attr, "no finite values under selection"}
	}
	if lo == hi {
		return nil, &ErrDegenerate{attr, "constant under selection"}
	}
	k := opts.Splits
	var edges []float64
	switch opts.Numeric {
	case CutEquiWidth:
		edges = equiWidthEdges(lo, hi, k)
	case CutMedian:
		if sorted {
			edges = quantileEdges(lo, hi, k, func(q float64) float64 { return stats.QuantileSorted(nn, q) })
		} else {
			mid := stats.SelectQuantiles(nn, lo, hi, splitPoints(k), &scratch.candidates)
			edges = append(append([]float64{lo}, mid...), hi)
		}
	case CutVariance:
		edges = varianceEdges(nn, lo, hi, k)
	case CutSketch:
		edges = quantileEdges(lo, hi, k, gk.Quantile)
	}
	edges = dedupEdges(edges)
	if len(edges) < 3 {
		return nil, &ErrDegenerate{attr, "could not find an interior cut point"}
	}
	preds := make([]query.Predicate, 0, len(edges)-1)
	for i := 0; i+1 < len(edges); i++ {
		p := query.NewRangeHalfOpen(attr, edges[i], edges[i+1])
		if i+2 == len(edges) {
			p.HiIncl = true // last interval closed so the maximum is covered
		}
		preds = append(preds, p)
	}
	return preds, nil
}

func equiWidthEdges(lo, hi float64, k int) []float64 {
	edges := make([]float64, k+1)
	w := (hi - lo) / float64(k)
	for i := 0; i <= k; i++ {
		edges[i] = lo + w*float64(i)
	}
	edges[k] = hi
	return edges
}

// splitPoints are the quantiles a k-way cut reads: 1/k … (k−1)/k.
func splitPoints(k int) []float64 {
	qs := make([]float64, k-1)
	for i := range qs {
		qs[i] = float64(i+1) / float64(k)
	}
	return qs
}

// quantileEdges puts the split-point quantiles between the extremes.
func quantileEdges(lo, hi float64, k int, quantile func(q float64) float64) []float64 {
	edges := make([]float64, 0, k+1)
	edges = append(edges, lo)
	for _, q := range splitPoints(k) {
		edges = append(edges, quantile(q))
	}
	return append(edges, hi)
}

// newCutSketch builds a finalized GK sketch over the value stream.
func newCutSketch(vals []float64, eps float64) *sketch.GK {
	if eps <= 0 || eps >= 1 {
		eps = 0.005
	}
	gk := sketch.MustGK(eps)
	gk.AddAll(vals) // one pass; no sort, sublinear state
	gk.Finalize()
	return gk
}

// varianceEdges finds interval boundaries minimizing total within-interval
// variance (weighted SSE), i.e. optimal 1-D k-means. To keep the cost
// independent of n it runs an exact dynamic program over a compressed
// equi-width histogram of the data: one counting pass, in any order. vals
// must be free of NaN, lo < hi its extremes.
func varianceEdges(vals []float64, lo, hi float64, k int) []float64 {
	const maxBins = 256
	h, err := stats.EquiWidthHist(vals, maxBins)
	if err != nil {
		return []float64{lo, hi} // no interior cut point
	}
	b := h.NumBins()
	if k > b {
		k = b
	}
	// Bin representatives (midpoints) and weights; prefix sums for O(1)
	// SSE of any bin range.
	mid := make([]float64, b)
	w := make([]float64, b)
	for i := 0; i < b; i++ {
		mid[i] = (h.Edges[i] + h.Edges[i+1]) / 2
		w[i] = float64(h.Counts[i])
	}
	pw := make([]float64, b+1)  // weight prefix
	pwx := make([]float64, b+1) // weight*mid prefix
	pwx2 := make([]float64, b+1)
	for i := 0; i < b; i++ {
		pw[i+1] = pw[i] + w[i]
		pwx[i+1] = pwx[i] + w[i]*mid[i]
		pwx2[i+1] = pwx2[i] + w[i]*mid[i]*mid[i]
	}
	sse := func(i, j int) float64 { // bins [i, j)
		wt := pw[j] - pw[i]
		if wt == 0 {
			return 0
		}
		sx := pwx[j] - pwx[i]
		sx2 := pwx2[j] - pwx2[i]
		return sx2 - sx*sx/wt
	}
	// dp[m][j]: min cost of covering bins [0, j) with m intervals.
	dp := make([][]float64, k+1)
	cutAt := make([][]int, k+1)
	for m := range dp {
		dp[m] = make([]float64, b+1)
		cutAt[m] = make([]int, b+1)
		for j := range dp[m] {
			dp[m][j] = math.Inf(1)
		}
	}
	dp[0][0] = 0
	for m := 1; m <= k; m++ {
		for j := m; j <= b; j++ {
			for i := m - 1; i < j; i++ {
				if c := dp[m-1][i] + sse(i, j); c < dp[m][j] {
					dp[m][j] = c
					cutAt[m][j] = i
				}
			}
		}
	}
	// Recover boundaries.
	edges := make([]float64, k+1)
	edges[k] = hi
	j := b
	for m := k; m >= 1; m-- {
		i := cutAt[m][j]
		if m > 1 {
			edges[m-1] = h.Edges[i]
		}
		j = i
	}
	edges[0] = lo
	return edges
}

func dedupEdges(edges []float64) []float64 {
	sort.Float64s(edges)
	out := edges[:0]
	for i, e := range edges {
		if i == 0 || e > out[len(out)-1] {
			out = append(out, e)
		}
	}
	return out
}

func (x *cutter) cutCategorical(sel *bitvec.Vector, full bool, attr string, opts CutOptions) ([]query.Predicate, error) {
	var (
		dict   []string
		counts []int
		err    error
	)
	if x.cache != nil && full {
		dict, counts, err = x.cache.categoryStats(x.reqCtx(), x.t, attr, sel)
	} else {
		dict, counts, err = engine.CategoryCountsUnderCtx(x.reqCtx(), x.t, attr, sel)
	}
	if err != nil {
		return nil, err
	}
	type vc struct {
		val   string
		count int
	}
	var present []vc
	for i, c := range counts {
		if c > 0 {
			present = append(present, vc{dict[i], c})
		}
	}
	if len(present) < 2 {
		return nil, &ErrDegenerate{attr, "fewer than two categories under selection"}
	}
	k := opts.Splits
	perValueLimit := k
	if opts.CatPerValue > perValueLimit {
		perValueLimit = opts.CatPerValue
	}
	if len(present) <= perValueLimit {
		// one region per value (e.g. Sex → {'M'}, {'F'})
		sort.Slice(present, func(i, j int) bool { return present[i].val < present[j].val })
		preds := make([]query.Predicate, len(present))
		for i, p := range present {
			preds[i] = query.NewIn(attr, p.val)
		}
		return preds, nil
	}
	groups := make([][]string, k)
	sizes := make([]int, k)
	switch opts.Categorical {
	case CatFrequency:
		// heaviest values first, each into the lightest group: balances
		// group covers, which maximizes the entropy of the result.
		sort.Slice(present, func(i, j int) bool {
			if present[i].count != present[j].count {
				return present[i].count > present[j].count
			}
			return present[i].val < present[j].val
		})
		for _, p := range present {
			gi := 0
			for g := 1; g < k; g++ {
				if sizes[g] < sizes[gi] {
					gi = g
				}
			}
			groups[gi] = append(groups[gi], p.val)
			sizes[gi] += p.count
		}
	case CatAlpha:
		// contiguous alphabetic runs with roughly equal counts
		sort.Slice(present, func(i, j int) bool { return present[i].val < present[j].val })
		total := 0
		for _, p := range present {
			total += p.count
		}
		target := float64(total) / float64(k)
		gi, acc := 0, 0
		for i, p := range present {
			remainingVals := len(present) - i
			remainingGroups := k - gi
			if gi < k-1 && acc > 0 &&
				(float64(acc) >= target || remainingVals <= remainingGroups-1) {
				gi++
				acc = 0
			}
			groups[gi] = append(groups[gi], p.val)
			sizes[gi] += p.count
			acc += p.count
		}
	}
	preds := make([]query.Predicate, 0, k)
	for _, g := range groups {
		if len(g) > 0 {
			preds = append(preds, query.NewIn(attr, g...))
		}
	}
	if len(preds) < 2 {
		return nil, &ErrDegenerate{attr, "grouping collapsed to one region"}
	}
	return preds, nil
}

func (x *cutter) cutBool(sel *bitvec.Vector, full bool, attr string) ([]query.Predicate, error) {
	var (
		falses, trues int
		err           error
	)
	if x.cache != nil && full {
		falses, trues, err = x.cache.boolStats(x.reqCtx(), x.t, attr, sel)
	} else {
		falses, trues, err = engine.BoolCountsUnderCtx(x.reqCtx(), x.t, attr, sel)
	}
	if err != nil {
		return nil, err
	}
	if falses == 0 || trues == 0 {
		return nil, &ErrDegenerate{attr, "constant boolean under selection"}
	}
	return []query.Predicate{
		query.NewBoolEq(attr, false),
		query.NewBoolEq(attr, true),
	}, nil
}

// applyPredicate narrows parent with p: an existing predicate on the same
// attribute is replaced (CUT refines it), otherwise p is appended.
func applyPredicate(parent query.Query, p query.Predicate) query.Query {
	if i := parent.PredOn(p.Attr); i >= 0 {
		return parent.ReplacePred(i, p)
	}
	return parent.And(p)
}

// CutQuery applies CUT to a parent region: it splits parent's rows (under
// base) on attr and returns one region query per sub-range, each a copy of
// parent with the attr predicate refined.
func CutQuery(t *storage.Table, base *bitvec.Vector, parent query.Query, attr string, opts CutOptions) ([]query.Query, error) {
	x := cutter{t: t}
	return x.cutQuery(base, parent, attr, opts)
}

// cutQuery evaluates parent under base and cuts the resulting selection.
func (x *cutter) cutQuery(base *bitvec.Vector, parent query.Query, attr string, opts CutOptions) ([]query.Query, error) {
	sel, err := engine.Eval(x.t, parent)
	if err != nil {
		return nil, err
	}
	sel.And(base)
	return x.cutQuerySel(sel, parent, attr, opts)
}

// cutQuerySel is cutQuery with the region's selection already evaluated.
func (x *cutter) cutQuerySel(sel *bitvec.Vector, parent query.Query, attr string, opts CutOptions) ([]query.Query, error) {
	full := sel.Count() == x.t.NumRows()
	preds, err := x.cutPredicates(sel, full, attr, opts)
	if err != nil {
		return nil, err
	}
	regions := make([]query.Query, len(preds))
	for i, p := range preds {
		regions[i] = applyPredicate(parent, p)
	}
	return regions, nil
}
