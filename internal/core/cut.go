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
}

// DefaultCutOptions returns the paper's choices: 2 splits, median cuts,
// frequency grouping with per-value regions for small domains.
func DefaultCutOptions() CutOptions {
	return CutOptions{Splits: 2, Numeric: CutMedian, Categorical: CatFrequency, CatPerValue: 4}
}

func (o CutOptions) validate() error {
	if o.Splits < 2 {
		return fmt.Errorf("core: cut needs at least 2 splits, got %d", o.Splits)
	}
	switch o.Numeric {
	case CutEquiWidth, CutMedian, CutVariance:
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
// optional per-Cartographer memo of full-selection answers. A cutter is
// cheap to create and confined to one goroutine; the memo it points to
// is shared.
type cutter struct {
	t     *storage.Table
	cache *statCache // nil = unmemoized
	// scan carries the Cartographer's scan options (worker count, its
	// ScanStats, and the exploration's context with its trace span,
	// request ID and resource ledger) into the column reads and provider
	// fan-outs the cutter drives, so they bill the same stats — and the
	// same ledger — as every other scan of the exploration. A nil Ctx
	// means untraced.
	scan engine.ScanOptions
}

// reqCtx returns the cutter's context, never nil.
func (x *cutter) reqCtx() context.Context {
	if x.scan.Ctx != nil {
		return x.scan.Ctx
	}
	return context.Background()
}

// cutScratch is what numeric CUT materializes: the extraction — the
// column's values under the selection and the rows they came from, which
// the cut then partitions from — a NaN-free copy of the values when they
// hold NaN, and, for median cuts, the quantile selection's scratch: its
// sample, the values its bracket gathers and their spare. They are
// recycled together so that a large buffer is never handed out as a small
// one and grown again.
type cutScratch struct {
	engine.NumericExtract
	finite, candidates []float64
}

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

// cutPredicates is CUT; full reports that sel selects every row, in
// which case the answer comes from (and goes to) the memo. The returned
// predicates are shared with the memo and must not be modified.
func (x *cutter) cutPredicates(sel *bitvec.Vector, full bool, attr string, opts CutOptions) ([]query.Predicate, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if x.memoized(full, opts) {
		return x.cache.cut(attr, func() ([]query.Predicate, error) {
			return x.cut(sel, attr, opts, x.cache.provider)
		})
	}
	return x.cut(sel, attr, opts, nil)
}

// memoized reports whether the memo answers a cut under opts of a
// selection that full says is, or is not, the whole table.
func (x *cutter) memoized(full bool, opts CutOptions) bool {
	return x.cache != nil && full && opts == x.cache.opts
}

// cutPartition is CUT followed by the partition of sel's rows into the
// cut's regions, one bitmap per predicate. A numeric cut the memo does
// not answer reads its column once: the regions are partitioned from the
// values it extracted to find its edges. Memoized, categorical and bool
// cuts have no values in hand and partition with a column pass.
func (x *cutter) cutPartition(sel *bitvec.Vector, full bool, attr string, opts CutOptions) ([]query.Predicate, []*bitvec.Vector, error) {
	col, err := x.t.ColumnByName(attr)
	if err != nil {
		return nil, nil, err
	}
	if col.Type().IsNumeric() && !x.memoized(full, opts) {
		if err := opts.validate(); err != nil {
			return nil, nil, err
		}
		scratch := scratchPool.Get().(*cutScratch)
		defer scratchPool.Put(scratch)
		preds, err := x.cutNumeric(sel, attr, opts, nil, scratch)
		if err != nil {
			return nil, nil, err
		}
		bits, err := engine.PartitionValues(&scratch.NumericExtract, preds)
		return preds, bits, err
	}
	preds, err := x.cutPredicates(sel, full, attr, opts)
	if err != nil {
		return nil, nil, err
	}
	bits, err := engine.PartitionBitsOpts(x.t, attr, preds, sel, x.scan)
	return preds, bits, err
}

// cut computes CUT from the column's statistics under sel — or, when sp
// is non-nil, from sp's full-selection statistics.
func (x *cutter) cut(sel *bitvec.Vector, attr string, opts CutOptions, sp StatProvider) ([]query.Predicate, error) {
	col, err := x.t.ColumnByName(attr)
	if err != nil {
		return nil, err
	}
	switch col.Type() {
	case storage.Int64, storage.Float64:
		scratch := scratchPool.Get().(*cutScratch)
		defer scratchPool.Put(scratch)
		return x.cutNumeric(sel, attr, opts, sp, scratch)
	case storage.String:
		return x.cutCategorical(sel, attr, opts, sp)
	case storage.Bool:
		return x.cutBool(sel, attr, sp)
	default:
		return nil, fmt.Errorf("core: unsupported column type %v", col.Type())
	}
}

// cutNumeric never sorts: one extraction pass yields the values with
// their NaN count and extremes, and each strategy takes only what it
// still needs — nothing (equi-width), a counting pass (variance) or a
// handful of order statistics (median). Without sp the extraction is
// left in scratch, its values in row order and untouched, for the
// partition that follows the cut.
func (x *cutter) cutNumeric(sel *bitvec.Vector, attr string, opts CutOptions, sp StatProvider, scratch *cutScratch) ([]query.Predicate, error) {
	var (
		vals []float64
		sum  engine.NumericSummary
		err  error
	)
	if sp != nil {
		vals, sum, err = sp.NumericStats(x.reqCtx(), attr, opts)
	} else {
		err = engine.ExtractNumericUnder(&scratch.NumericExtract, x.t, attr, sel, x.scan)
		vals, sum = scratch.Vals, scratch.Sum
	}
	if err != nil {
		return nil, err
	}
	nn, lo, hi := vals, sum.Min, sum.Max // nn: the non-NaN values
	if sum.NaN > 0 {
		nn = scratch.finite[:0]
		for _, v := range vals {
			if v == v {
				nn = append(nn, v)
			}
		}
		scratch.finite = nn
	}
	if len(vals) == 0 {
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
		mid := stats.SelectQuantiles(nn, lo, hi, splitPoints(k), &scratch.candidates)
		edges = append(append([]float64{lo}, mid...), hi)
	case CutVariance:
		edges = varianceEdges(nn, lo, hi, k)
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

func (x *cutter) cutCategorical(sel *bitvec.Vector, attr string, opts CutOptions, sp StatProvider) ([]query.Predicate, error) {
	var (
		dict   []string
		counts []int
		err    error
	)
	if sp != nil {
		dict, counts, err = sp.CategoryStats(x.reqCtx(), attr)
	} else {
		dict, counts, err = engine.CategoryCountsUnderOpts(x.t, attr, sel, x.scan)
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

func (x *cutter) cutBool(sel *bitvec.Vector, attr string, sp StatProvider) ([]query.Predicate, error) {
	var (
		falses, trues int
		err           error
	)
	if sp != nil {
		falses, trues, err = sp.BoolStats(x.reqCtx(), attr)
	} else {
		falses, trues, err = engine.BoolCountsUnderOpts(x.t, attr, sel, x.scan)
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
