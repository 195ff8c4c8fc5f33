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
	"slices"
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

// cutter bundles the inputs of the CUT primitive: the table, the
// provider every column read goes through, and an optional
// per-Cartographer memo of full-selection answers. A cutter is cheap to
// create and confined to one goroutine; the memo it points to is shared.
type cutter struct {
	t     *storage.Table
	total int // the rows its maps' covers are over: the table's or a sample's
	sp    StatProvider
	cache *statCache // nil = unmemoized
	// ctx is the exploration's context — its trace span, request ID and
	// resource ledger — which every provider read runs under, so it
	// bills the same ledger as every other scan of the exploration.
	ctx context.Context
	// held is what the exploration has in hand from its candidate cuts,
	// by attribute, all under the base selection. Composition cuts
	// regions from it instead of reading the column again. Read-only.
	held map[string]heldCut
	// workers is the exploration's worker count, which composition cuts
	// regions from held values over; <= 1 cuts them one after another.
	workers int
}

// heldCut is one candidate cut kept for composition: its map, and for
// a numeric attribute the values it was cut from.
type heldCut struct {
	m   *Map
	ext *engine.NumericExtract
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

// extractPool recycles the extractions an exploration keeps in hand
// until it ends; they carry no cut scratch of their own.
var extractPool = sync.Pool{New: func() any { return new(engine.NumericExtract) }}

// CutPredicates implements the CUT_k primitive of Definition 1: it splits
// the range of attr, restricted to the rows selected by sel, into at most
// opts.Splits disjoint predicates that together cover the selected values.
// The returned predicates partition the attribute's observed range:
// every selected non-NULL row satisfies exactly one of them.
func CutPredicates(t *storage.Table, sel *bitvec.Vector, attr string, opts CutOptions) ([]query.Predicate, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	x := cutter{t: t, sp: NewTableProvider(t, 1), ctx: context.Background()}
	s := scratchPool.Get().(*cutScratch)
	defer scratchPool.Put(s)
	return x.cut(sel, attr, opts, s, &s.NumericExtract, false)
}

// cutPartition is CUT followed by the partition of sel's rows into the
// cut's regions, one bitmap per predicate; full reports that sel selects
// every row, in which case the answer comes from (and goes to) the memo.
// A numeric cut partitions from the values it extracted to find its
// edges — or from pre, attr's values under sel when the caller has them
// in hand. A categorical or boolean cut asks the provider for the
// partition, and a memo hit reads nothing. The predicates and bitmaps
// are shared with the memo and must not be modified.
func (x *cutter) cutPartition(sel *bitvec.Vector, full bool, attr string, opts CutOptions, pre *engine.NumericExtract) ([]query.Predicate, []*bitvec.Vector, error) {
	if err := opts.validate(); err != nil {
		return nil, nil, err
	}
	if x.cache == nil || !full {
		return x.partition(sel, attr, opts, pre)
	}
	return x.cache.cut(attr, opts, func() ([]query.Predicate, []*bitvec.Vector, error) {
		return x.partition(sel, attr, opts, pre)
	})
}

// partition is cutPartition without the memo.
func (x *cutter) partition(sel *bitvec.Vector, attr string, opts CutOptions, pre *engine.NumericExtract) ([]query.Predicate, []*bitvec.Vector, error) {
	s := scratchPool.Get().(*cutScratch)
	defer scratchPool.Put(s)
	ext := pre
	if ext == nil {
		ext = &s.NumericExtract
	}
	preds, err := x.cut(sel, attr, opts, s, ext, pre != nil)
	if err != nil {
		return nil, nil, err
	}
	if preds[0].Kind == query.Range {
		bits, err := engine.PartitionValues(ext, preds)
		return preds, bits, err
	}
	bits, err := x.sp.Partition(x.ctx, attr, preds, sel)
	return preds, bits, err
}

// cutByCategory cuts a string or bool attr under sel from cand, attr's
// candidate map cut one region per category under a selection that
// holds sel: a category's count under sel is its region's rows in sel,
// and a group's rows are its categories' — so no column is read, and
// the answer is cutPartition's over sel. ok is false when cand groups
// categories.
func cutByCategory(cand *Map, sel *bitvec.Vector, attr string, opts CutOptions) (preds []query.Predicate, bits []*bitvec.Vector, ok bool, err error) {
	cats := make([]query.Predicate, len(cand.Regions)) // each region's predicate on attr
	counts := make([]int, len(cand.Regions))
	for ri, r := range cand.Regions {
		cats[ri] = r.Query.Preds[r.Query.PredOn(attr)]
		if c := cats[ri]; c.Kind != query.BoolEq && (c.Kind != query.In || len(c.Values) != 1) {
			return nil, nil, false, nil
		}
		counts[ri] = bitvec.AndCount(cand.assign.RegionBits(ri), sel)
	}
	if cats[0].Kind == query.BoolEq {
		var tally [2]int // falses, trues
		for ri, c := range cats {
			tally[b2i(c.BoolVal)] += counts[ri]
		}
		preds, err = cutBool(attr, tally[0], tally[1])
	} else {
		vals := make([]string, len(cats))
		for ri, c := range cats {
			vals[ri] = c.Values[0]
		}
		preds, err = cutCategorical(attr, vals, counts, opts)
	}
	if err != nil {
		return nil, nil, true, err
	}
	bits = make([]*bitvec.Vector, len(preds))
	for pi, p := range preds {
		bits[pi] = bitvec.NewLike(sel)
		for ri, c := range cats {
			if p.Kind == query.BoolEq && c.BoolVal == p.BoolVal || p.Kind == query.In && slices.Contains(p.Values, c.Values[0]) {
				bits[pi].OrAnd(cand.assign.RegionBits(ri), sel)
			}
		}
	}
	return preds, bits, true, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// cutRestricted cuts attr under sel, a selection within the one parent
// was extracted under, and partitions sel's rows into the cut's regions:
// from parent's values, restricted to sel, without reading the column.
// It answers exactly as cutPartition over sel does.
func cutRestricted(parent *engine.NumericExtract, sel *bitvec.Vector, attr string, opts CutOptions) ([]query.Predicate, []*bitvec.Vector, error) {
	s := scratchPool.Get().(*cutScratch)
	defer scratchPool.Put(s)
	parent.Restrict(&s.NumericExtract, sel)
	preds, err := cutNumeric(&s.NumericExtract, attr, opts, s)
	if err != nil {
		return nil, nil, err
	}
	bits, err := engine.PartitionValues(&s.NumericExtract, preds)
	return preds, bits, err
}

// cut computes CUT from the provider's statistics of the column under
// sel. A numeric cut reads the values into ext — unless extracted says
// ext holds them already — and leaves them there, in row order and
// untouched, for the partition that follows; s holds its scratch.
func (x *cutter) cut(sel *bitvec.Vector, attr string, opts CutOptions, s *cutScratch, ext *engine.NumericExtract, extracted bool) ([]query.Predicate, error) {
	col, err := x.t.ColumnByName(attr)
	if err != nil {
		return nil, err
	}
	switch col.Type() {
	case storage.Int64, storage.Float64:
		if !extracted {
			if err := x.sp.Extract(x.ctx, []*engine.NumericExtract{ext}, []string{attr}, sel); err != nil {
				return nil, err
			}
		}
		return cutNumeric(ext, attr, opts, s)
	case storage.String:
		dict, counts, err := x.sp.Categories(x.ctx, attr, sel)
		if err != nil {
			return nil, err
		}
		return cutCategorical(attr, dict, counts, opts)
	case storage.Bool:
		falses, trues, err := x.sp.Bools(x.ctx, attr, sel)
		if err != nil {
			return nil, err
		}
		return cutBool(attr, falses, trues)
	default:
		return nil, fmt.Errorf("core: unsupported column type %v", col.Type())
	}
}

// cutNumeric cuts from an extraction and never sorts: the extraction
// carries the values with their NaN count and extremes, and each
// strategy takes only what it still needs — nothing (equi-width), a
// counting pass (variance) or a handful of order statistics (median).
// The extraction is left untouched; s holds the cut's own scratch.
func cutNumeric(ext *engine.NumericExtract, attr string, opts CutOptions, s *cutScratch) ([]query.Predicate, error) {
	vals, sum := ext.Vals, ext.Sum
	nn, lo, hi := vals, sum.Min, sum.Max // nn: the non-NaN values
	if sum.NaN > 0 {
		nn = s.finite[:0]
		for _, v := range vals {
			if v == v {
				nn = append(nn, v)
			}
		}
		s.finite = nn
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
		edges, _ = stats.EqualWidth(lo, hi, k)
	case CutMedian:
		mid := stats.SelectQuantiles(nn, lo, hi, splitPoints(k), &s.candidates)
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
	// Bin representatives and weights; prefix sums for O(1) SSE of any
	// bin range. The bins are equally wide, so the same boundaries
	// minimize the SSE in bin units (midpoint i + 0.5), which neither
	// overflows nor depends on the values' scale.
	pw := make([]float64, b+1)  // weight prefix
	pwx := make([]float64, b+1) // weight*mid prefix
	pwx2 := make([]float64, b+1)
	for i := 0; i < b; i++ {
		w, mid := float64(h.Counts[i]), float64(i)+0.5
		pw[i+1] = pw[i] + w
		pwx[i+1] = pwx[i] + w*mid
		pwx2[i+1] = pwx2[i] + w*mid*mid
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

// cutCategorical groups the categories present under the selection,
// given the column's dictionary and per-code counts.
func cutCategorical(attr string, dict []string, counts []int, opts CutOptions) ([]query.Predicate, error) {
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

// cutBool splits a boolean column given its tallies under the selection.
func cutBool(attr string, falses, trues int) ([]query.Predicate, error) {
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
