package engine

import (
	"fmt"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/storage"
)

// Assignment labels every selected row with the index of the region (one
// query per region) containing it. Regions of a well-formed map are
// disjoint; when they are not, the lowest-index matching region wins.
// Internally the assignment is a set of disjoint per-region bitmaps,
// which makes contingency tables a word-level popcount kernel; the dense
// per-row label array is materialized only on demand via Labels.
type Assignment struct {
	Regions int   // number of regions (label domain is [0, Regions))
	Counts  []int // rows per region
	Rest    int   // selected rows matched by no region

	n          int // table length
	regionBits []*bitvec.Vector

	labelsOnce sync.Once
	labels     []int32
}

// Assign evaluates each region query under the base selection and claims
// rows first-match-wins. Regions must be non-empty.
func Assign(t *storage.Table, regions []query.Query, base *bitvec.Vector) (*Assignment, error) {
	if len(regions) == 0 {
		return nil, fmt.Errorf("engine: Assign with zero regions")
	}
	if base.Len() != t.NumRows() {
		return nil, fmt.Errorf("engine: base selection length %d != table rows %d", base.Len(), t.NumRows())
	}
	// Every bitmap holds base's window: region rows are base's rows.
	taken := bitvec.NewLike(base)
	scratch := bitvec.NewLike(base)
	counts := make([]int, len(regions))
	regionBits := make([]*bitvec.Vector, len(regions))
	for ri, rq := range regions {
		// start from base, not all-ones: the fused predicate kernels then
		// test only rows the base selection admits
		scratch.CopyFrom(base)
		if err := evalAndInto(t, rq, scratch); err != nil {
			return nil, err
		}
		rv := bitvec.NewLike(base)
		counts[ri] = bitvec.ClaimInto(rv, scratch, taken)
		regionBits[ri] = rv
	}
	return &Assignment{
		Regions:    len(regions),
		Counts:     counts,
		Rest:       bitvec.AndNotCount(base, taken),
		n:          base.Len(),
		regionBits: regionBits,
	}, nil
}

// RegionBits returns the bitmap of rows assigned to region ri. The
// returned vector is shared and must be treated as read-only.
func (a *Assignment) RegionBits(ri int) *bitvec.Vector { return a.regionBits[ri] }

// Labels materializes the per-row region labels: one entry per table
// row, -1 for unassigned rows. The array is computed once and cached;
// the assignment itself stays read-only, so concurrent calls are safe.
func (a *Assignment) Labels() []int32 {
	a.labelsOnce.Do(func() {
		labels := make([]int32, a.n)
		for i := range labels {
			labels[i] = -1
		}
		for ri, rv := range a.regionBits {
			ri32 := int32(ri)
			rv.ForEach(func(i int) bool {
				labels[i] = ri32
				return true
			})
		}
		a.labels = labels
	})
	return a.labels
}

// Entropy returns the Shannon entropy (bits) of the region-cover
// distribution, the paper's Section 3.4 ranking score. When some selected
// rows fall outside all regions, that remainder counts as an extra
// outcome.
func (a *Assignment) Entropy() float64 {
	counts := a.Counts
	if a.Rest > 0 {
		counts = append(append([]int(nil), a.Counts...), a.Rest)
	}
	return stats.EntropyCounts(counts)
}

// Contingency builds the joint count table between two assignments over
// the same table: cell (i, j) counts rows labeled i by a and j by b.
// Rows unassigned in either are attributed to an extra "rest" outcome for
// that side, so the joint distribution always accounts for every row that
// at least one side covers. Each cell is a fused AND+popcount over the
// two region bitmaps — no per-row pass and no intermediate bitmaps.
func Contingency(a, b *Assignment) (*stats.Contingency, error) {
	if a.n != b.n {
		return nil, fmt.Errorf("engine: assignments over different tables (%d vs %d rows)", a.n, b.n)
	}
	rows, cols := a.Regions, b.Regions
	aRest, bRest := -1, -1
	if a.Rest > 0 {
		aRest = rows
		rows++
	}
	if b.Rest > 0 {
		bRest = cols
		cols++
	}
	ct := stats.NewContingency(rows, cols)
	// colRem tracks, per b-region, the rows not matched by any a-region:
	// they belong to a's rest row (when it exists).
	colRem := append([]int(nil), b.Counts...)
	for i, av := range a.regionBits {
		rowSum := 0
		for j, bv := range b.regionBits {
			c := bitvec.AndCount(av, bv)
			if c > 0 {
				ct.Add(i, j, c)
			}
			rowSum += c
			colRem[j] -= c
		}
		if bRest >= 0 {
			if rem := a.Counts[i] - rowSum; rem > 0 {
				ct.Add(i, bRest, rem)
			}
		}
	}
	if aRest >= 0 {
		for j, rem := range colRem {
			if rem > 0 {
				ct.Add(aRest, j, rem)
			}
		}
	}
	return ct, nil
}
