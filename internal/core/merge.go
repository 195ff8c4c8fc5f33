package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/storage"
)

// MergeKind selects how the maps of one cluster are combined
// (Section 3.3).
type MergeKind string

const (
	// MergeProduct intersects each region of one map with each region of
	// the other (Definition 3): a global grid. Natural partitionings,
	// but data clusters are "unlikely to appear on the map".
	MergeProduct MergeKind = "product"
	// MergeCompose cuts the queries of one map on the attributes of the
	// other (Definition 4), re-estimating the cut inside each region —
	// "a higher chance of revealing the clusters in the data".
	MergeCompose MergeKind = "compose"
)

func (m MergeKind) validate() error {
	switch m {
	case MergeProduct, MergeCompose:
		return nil
	default:
		return fmt.Errorf("core: unknown merge kind %q", m)
	}
}

// productMaps implements Definition 3: the ×-product of candidate maps.
// Region queries are the k-wise conjunctions of the candidates' regions
// applied over the shared parent query. The operator is associative and
// commutative, so any number of maps can be merged; maps are folded in
// order and a map whose inclusion would push the region count beyond
// maxRegions (readability budget, Section 2) is skipped. Empty
// intersections are dropped. Covers are over total rows.
func productMaps(t *storage.Table, total int, base *bitvec.Vector, parent query.Query, maps []*Map, maxRegions int) (*Map, error) {
	if len(maps) == 0 {
		return nil, errors.New("core: product of zero maps")
	}
	if maxRegions < 2 {
		maxRegions = 2
	}
	regions := []query.Query{parent}
	var attrs []string
	for mi, m := range maps {
		if mi > 0 && len(regions)*len(m.Regions) > maxRegions {
			continue // budget: skip this candidate
		}
		attrs = append(attrs, m.Attrs...)
		next := make([]query.Query, 0, len(regions)*len(m.Regions))
		for _, r := range regions {
			for _, mr := range m.Regions {
				q := r
				// apply every predicate the candidate's region adds
				for _, a := range m.Attrs {
					if pi := mr.Query.PredOn(a); pi >= 0 {
						q = applyPredicate(q, mr.Query.Preds[pi])
					}
				}
				next = append(next, q)
			}
		}
		regions = next
	}
	assign, err := engine.Assign(t, regions, base)
	if err != nil {
		return nil, err
	}
	keep, bits := regions[:0], []*bitvec.Vector{} // filtered in place
	for ri, rq := range regions {
		if assign.Counts[ri] > 0 {
			keep, bits = append(keep, rq), append(bits, assign.RegionBits(ri))
		}
	}
	return buildMapFromBits(total, base, attrs, keep, bits)
}

// composeMaps implements Definition 4: starting from the parent query,
// successively CUT every region on each attribute in attrs, re-estimating
// cut points inside the region (this is what lets composition reveal
// local cluster structure, Figure 5). A region whose local cut is
// degenerate (constant attribute inside the region) is kept unsplit. An
// attribute whose cuts would push the region count beyond maxRegions is
// skipped entirely.
//
// parentSel is parent's selection under base when the caller already
// evaluated it (Explore holds it as base); nil computes it here. The
// vector is only read. seed, when non-nil, is the candidate map of
// attrs[0] built by cutPartition under parentSel with opts and parent as
// its parent query: exactly composition's first level, which is then
// taken from it instead of being cut again.
//
// A numeric attribute whose values under parentSel x holds from its
// candidate cut has its regions cut from them, each restricting them to
// its own rows, so its column is not read again. A categorical or
// boolean attribute whose candidate map x holds, cut one region per
// category, is cut from that map's bitmaps alone.
func (x *cutter) composeMaps(base, parentSel *bitvec.Vector, seed *Map, parent query.Query, attrs []string, opts CutOptions, maxRegions int) (*Map, error) {
	if len(attrs) == 0 {
		return nil, errors.New("core: composition over zero attributes")
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if maxRegions < 2 {
		maxRegions = 2
	}
	// The selection of every region is threaded through the composition
	// as a bitmap: each level cuts and partitions a region's bitmap
	// instead of re-evaluating the region's whole conjunctive query
	// against the table — and the final map is assembled from the
	// bitmaps directly.
	n := x.t.NumRows()
	held := x.held
	if parentSel == nil {
		sel, err := engine.Eval(x.t, parent)
		if err != nil {
			return nil, err
		}
		parentSel = sel.And(base)
		held = nil // extracted under another selection
	}
	regions := []query.Query{parent}
	bits := []*bitvec.Vector{parentSel}
	var usedAttrs []string
	rest := attrs
	if seed != nil {
		rest = attrs[1:]
		if len(seed.Regions) <= maxRegions {
			regions, bits = make([]query.Query, len(seed.Regions)), make([]*bitvec.Vector, len(seed.Regions))
			for ri, r := range seed.Regions {
				regions[ri], bits[ri] = r.Query, seed.assign.RegionBits(ri)
			}
			usedAttrs = []string{attrs[0]}
		}
	}
	for _, attr := range rest {
		if len(regions)*2 > maxRegions {
			break // even binary cuts would blow the budget
		}
		// A numeric attribute cuts every region from its candidate's
		// values when they are in hand, over the exploration's workers,
		// and a categorical or boolean one whose candidate map has a
		// region per category from that map's bitmaps. Otherwise the
		// provider reads each region, and the regions are cut all at once,
		// so a remote table's round trips overlap. Cuts are collected by
		// region index, so the map is the same at any worker count.
		type regionCut struct {
			preds []query.Predicate
			bits  []*bitvec.Vector
		}
		cuts := make([]regionCut, len(regions))
		ext := held[attr].ext
		workers := len(regions)
		if ext != nil {
			workers = x.workers
		}
		err := parallelFor(workers, len(regions), func(ri int) error {
			b := bits[ri]
			var (
				preds []query.Predicate
				pb    []*bitvec.Vector
				err   error
			)
			full, inHand := b.Count() == n, false
			switch cand := held[attr].m; {
			case x.cache != nil && full: // the memo answers
			case ext != nil:
				preds, pb, err = cutRestricted(ext, b, attr, opts)
				inHand = true
			case cand != nil:
				preds, pb, inHand, err = cutByCategory(cand, b, attr, opts)
			}
			if !inHand {
				preds, pb, err = x.cutPartition(b, full, attr, opts, nil)
			}
			var deg *ErrDegenerate
			if errors.As(err, &deg) {
				return nil // keep the region unsplit
			}
			cuts[ri] = regionCut{preds, pb}
			return err
		})
		if err != nil {
			return nil, err
		}
		next := make([]query.Query, 0, len(regions)*opts.Splits)
		nextBits := make([]*bitvec.Vector, 0, len(regions)*opts.Splits)
		for ri, r := range regions {
			if cuts[ri].preds == nil {
				next = append(next, r)
				nextBits = append(nextBits, bits[ri])
				continue
			}
			for pi, p := range cuts[ri].preds {
				next = append(next, applyPredicate(r, p))
				nextBits = append(nextBits, cuts[ri].bits[pi])
			}
		}
		if len(next) > maxRegions || len(next) == len(regions) {
			continue // skip attribute: over budget or fully degenerate
		}
		regions, bits = next, nextBits
		usedAttrs = append(usedAttrs, attr)
	}
	if len(regions) == 1 {
		return nil, &ErrDegenerate{Attr: fmt.Sprint(attrs), Reason: "no attribute could be cut"}
	}
	return buildMapFromBits(x.total, base, usedAttrs, regions, bits)
}

// MergeCluster combines the candidate maps of one dendrogram cluster into
// a single result map using the configured operator, honoring the region
// budget. For MergeCompose the composition order follows the given
// candidate order (base map first).
func MergeCluster(t *storage.Table, base *bitvec.Vector, parent query.Query, cluster []*Map, kind MergeKind, cutOpts CutOptions, maxRegions int) (*Map, error) {
	x := cutter{t: t, total: t.NumRows(), sp: NewTableProvider(t, 1), ctx: context.Background()}
	return x.mergeCluster(base, nil, false, parent, cluster, kind, cutOpts, maxRegions)
}

// mergeCluster is MergeCluster. seeded says cluster[0] is a candidate
// map cut by cutPartition under parentSel with cutOpts, so composition
// starts from it (see composeMaps).
func (x *cutter) mergeCluster(base, parentSel *bitvec.Vector, seeded bool, parent query.Query, cluster []*Map, kind MergeKind, cutOpts CutOptions, maxRegions int) (*Map, error) {
	if err := kind.validate(); err != nil {
		return nil, err
	}
	if len(cluster) == 0 {
		return nil, errors.New("core: empty cluster")
	}
	if len(cluster) == 1 {
		return cluster[0], nil
	}
	if kind == MergeProduct {
		return productMaps(x.t, x.total, base, parent, cluster, maxRegions)
	}
	var attrs []string
	for _, m := range cluster {
		attrs = append(attrs, m.Attrs...)
	}
	var seed *Map
	if seeded {
		seed = cluster[0]
	}
	return x.composeMaps(base, parentSel, seed, parent, attrs, cutOpts, maxRegions)
}
