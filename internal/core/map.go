package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/storage"
)

// Region is one query of a data map together with its measured extent.
type Region struct {
	// Query describes the region (a conjunction of simple predicates).
	Query query.Query
	// Count is the number of selected rows the region covers.
	Count int
	// Cover is C(Q): Count divided by the total rows of the table
	// (Section 3's definition), or of the sample explored.
	Cover float64
}

// Map is a data map: a small set of disjoint region queries over a set of
// attributes (Section 2). Maps returned by the pipeline carry their
// entropy score and cached row assignment.
type Map struct {
	// Attrs lists the attributes the map cuts on, sorted.
	Attrs []string
	// Regions are the map's queries with their covers.
	Regions []Region
	// Entropy is the Section 3.4 ranking score (bits) of the region
	// cover distribution.
	Entropy float64

	assign *engine.Assignment

	// textsOnce guards texts, the regions' canonical query texts,
	// rendered on first use (see RegionText).
	textsOnce sync.Once
	texts     []string
}

// Assignment returns the cached per-row region labeling, or nil when the
// map was built without one.
func (m *Map) Assignment() *engine.Assignment { return m.assign }

// RegionText returns region i's canonical query text, Regions[i].Query
// rendered as CQL. The first call renders every region's text once and
// the map keeps them for its lifetime, so the texts of a shared map —
// a response body's region queries, a result-cache key — cost nothing
// after the first reader. Call it only once the map's regions are
// final; it is safe for concurrent use.
func (m *Map) RegionText(i int) string {
	m.textsOnce.Do(func() {
		regionTextRenders.Add(1)
		m.texts = make([]string, len(m.Regions))
		for ri := range m.Regions {
			m.texts[ri] = m.Regions[ri].Query.String()
		}
	})
	return m.texts[i]
}

// regionTextRenders counts the maps whose region texts were rendered;
// tests read it.
var regionTextRenders atomic.Int64

// Key returns a deterministic identity string for the map's attribute
// set, used for grouping and stable ordering.
func (m *Map) Key() string { return strings.Join(m.Attrs, ",") }

// String renders a compact multi-line description.
func (m *Map) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "map on {%s} (entropy %.3f):\n", m.Key(), m.Entropy)
	for _, r := range m.Regions {
		fmt.Fprintf(&b, "  %-60s  %6d rows (%5.1f%%)\n", renderPreds(r.Query), r.Count, 100*r.Cover)
	}
	return b.String()
}

func renderPreds(q query.Query) string {
	parts := make([]string, len(q.Preds))
	for i, p := range q.Preds {
		parts[i] = p.String()
	}
	return strings.Join(parts, " AND ")
}

// BuildMap measures a set of region queries against the table under the
// base selection and assembles a Map: per-region counts, covers, the
// entropy score, and the cached assignment. attrs is the set of cut
// attributes the regions vary on.
func BuildMap(t *storage.Table, base *bitvec.Vector, attrs []string, regions []query.Query) (*Map, error) {
	if len(regions) == 0 {
		return nil, fmt.Errorf("core: map with zero regions")
	}
	assign, err := engine.Assign(t, regions, base)
	if err != nil {
		return nil, err
	}
	return mapFromAssignment(t.NumRows(), attrs, regions, assign), nil
}

// buildMapFromBits is BuildMap for callers that already materialized the
// disjoint per-region selections (the CUT partition kernel): no region
// query is re-evaluated. Covers are over total rows.
func buildMapFromBits(total int, base *bitvec.Vector, attrs []string, regions []query.Query, regionBits []*bitvec.Vector) (*Map, error) {
	if len(regions) == 0 {
		return nil, fmt.Errorf("core: map with zero regions")
	}
	if len(regions) != len(regionBits) {
		return nil, fmt.Errorf("core: %d regions with %d bitmaps", len(regions), len(regionBits))
	}
	return mapFromAssignment(total, attrs, regions, engine.AssignFromPartition(regionBits, base)), nil
}

func mapFromAssignment(total int, attrs []string, regions []query.Query, assign *engine.Assignment) *Map {
	out := make([]Region, len(regions))
	for i, rq := range regions {
		cover := 0.0
		if total > 0 {
			cover = float64(assign.Counts[i]) / float64(total)
		}
		out[i] = Region{Query: rq, Count: assign.Counts[i], Cover: cover}
	}
	sortedAttrs := append([]string(nil), attrs...)
	sort.Strings(sortedAttrs)
	return &Map{
		Attrs:   sortedAttrs,
		Regions: out,
		Entropy: assign.Entropy(),
		assign:  assign,
	}
}
