package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/storage"
)

// edgeTable is a generated table of the values CUT and the predicate
// kernels treat specially: NULL, NaN and ±Inf cells in a float column,
// NULLs in the integer, string and boolean columns, a single-value column
// and an all-NULL column.
func edgeTable(n int, seed int64) *storage.Table {
	rnd := rand.New(rand.NewSource(seed))
	b := storage.NewBuilder("edge", storage.MustSchema(
		storage.Field{Name: "x", Type: storage.Float64},
		storage.Field{Name: "k", Type: storage.Int64},
		storage.Field{Name: "c", Type: storage.String},
		storage.Field{Name: "f", Type: storage.Bool},
		storage.Field{Name: "single", Type: storage.Float64},
		storage.Field{Name: "empty", Type: storage.Float64},
	))
	cats := []string{"red", "green", "blue", "grey"}
	for i := 0; i < n; i++ {
		var x any = rnd.NormFloat64()*10 + float64(i%3)*25
		switch {
		case i%7 == 0:
			x = nil
		case i%11 == 0:
			x = math.NaN()
		case i%13 == 0:
			x = math.Inf(1)
		case i%17 == 0:
			x = math.Inf(-1)
		}
		var k any = int64(rnd.Intn(60))
		if i%9 == 0 {
			k = nil
		}
		var c any = cats[rnd.Intn(len(cats))]
		if i%8 == 0 {
			c = nil
		}
		var f any = rnd.Intn(3) == 0
		if i%10 == 0 {
			f = nil
		}
		b.MustAppendRow(x, k, c, f, 3.5, nil)
	}
	return b.MustBuild()
}

// randomQuery draws a conjunction of up to two predicates whose bounds
// and values come from random rows of tbl, so they select something
// more often than not.
func randomQuery(rnd *rand.Rand, tbl *storage.Table) query.Query {
	q := query.New(tbl.Name())
	fields := tbl.Schema().Fields()
	for _, fi := range rnd.Perm(len(fields))[:rnd.Intn(3)] {
		f, col := fields[fi], tbl.Column(fi)
		switch f.Type {
		case storage.Int64, storage.Float64:
			var vals []float64
			for tries := 0; tries < 20 && len(vals) < 2; tries++ {
				if v, ok := numericAt(col, rnd.Intn(tbl.NumRows())); ok {
					vals = append(vals, v)
				}
			}
			if len(vals) < 2 {
				continue
			}
			sort.Float64s(vals)
			q = q.And(query.NewRange(f.Name, vals[0], vals[1]))
		case storage.String:
			var vals []string
			for tries := 0; tries < 4; tries++ {
				if v, ok := col.Value(rnd.Intn(tbl.NumRows())).(string); ok {
					vals = append(vals, v)
				}
			}
			if len(vals) > 0 {
				q = q.And(query.NewIn(f.Name, vals[:1+rnd.Intn(len(vals))]...))
			}
		case storage.Bool:
			q = q.And(query.NewBoolEq(f.Name, rnd.Intn(2) == 0))
		}
	}
	return q
}

func numericAt(col storage.Column, i int) (float64, bool) {
	switch v := col.Value(i).(type) {
	case int64:
		return float64(v), true
	case float64:
		return v, !math.IsNaN(v) && !math.IsInf(v, 0)
	}
	return 0, false
}

// checkRegionBits asserts the oracle on every map and region of res:
// the assignment's bitmap of region r is exactly Eval(region.Query),
// and the region's count is that bitmap's size.
func checkRegionBits(t *testing.T, label string, tbl *storage.Table, res *Result) {
	t.Helper()
	for mi, m := range res.Maps {
		a := m.Assignment()
		if a == nil {
			t.Fatalf("%s map %d: no assignment", label, mi)
		}
		for ri, r := range m.Regions {
			want, err := engine.Eval(tbl, r.Query)
			if err != nil {
				t.Fatalf("%s map %d region %d: %v", label, mi, ri, err)
			}
			got := a.RegionBits(ri)
			if !got.Equal(want) {
				t.Fatalf("%s map %d region %d (%s): RegionBits selects %d rows, Eval %d",
					label, mi, ri, r.Query.String(), got.Count(), want.Count())
			}
			if r.Count != want.Count() {
				t.Fatalf("%s map %d region %d: Count %d, Eval %d", label, mi, ri, r.Count, want.Count())
			}
		}
	}
}

// TestRegionBitsEqualEval is the oracle behind drilling from a bitmap:
// for every map and region of an exploration, the map's assignment
// holds exactly Eval(region.Query). So a drill that explores
// region.Query on RegionBits(r) answers what re-querying the region
// would. Seeded generated root queries, two drill levels, every
// MergeKind × NumericCut, on census, sky and a table of edge values.
func TestRegionBitsEqualEval(t *testing.T) {
	tables := []*storage.Table{datagen.Census(3000, 3), datagen.SkySurvey(3000, 5), edgeTable(3000, 7)}
	for _, tbl := range tables {
		for _, merge := range []MergeKind{MergeCompose, MergeProduct} {
			for _, cut := range []NumericCut{CutMedian, CutEquiWidth, CutVariance} {
				opts := DefaultOptions()
				opts.Merge = merge
				opts.Cut.Numeric = cut
				opts.Parallelism = 2
				cart, err := NewCartographer(tbl, opts)
				if err != nil {
					t.Fatal(err)
				}
				rnd := rand.New(rand.NewSource(int64(len(tbl.Name())*7 + len(cut) + len(merge))))
				for qi := 0; qi < 3; qi++ {
					q := randomQuery(rnd, tbl)
					label := fmt.Sprintf("%s/%s/%s q%d %s", tbl.Name(), merge, cut, qi, q.String())
					res, err := cart.Explore(q)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					checkRegionBits(t, label, tbl, res)
					drillChecked(t, rnd, cart, label, res, 2)
				}
			}
		}
	}
}

// drillChecked drills from res into one random non-empty region of each
// of up to two maps, levels deep, exploring each region from its bitmap
// as a session does. Every drill must answer exactly what exploring the
// region's query from scratch answers, and its maps must satisfy the
// oracle in turn.
func drillChecked(t *testing.T, rnd *rand.Rand, cart *Cartographer, label string, res *Result, levels int) {
	t.Helper()
	if levels == 0 {
		return
	}
	for mi, m := range res.Maps {
		if mi == 2 {
			break
		}
		ri := rnd.Intn(len(m.Regions))
		if m.Regions[ri].Count == 0 {
			continue
		}
		rq := m.Regions[ri].Query
		dlabel := fmt.Sprintf("%s → map %d region %d %s", label, mi, ri, rq.String())
		got, err := cart.ExploreSel(rq, m.Assignment().RegionBits(ri).Clone())
		if err != nil {
			t.Fatalf("%s: %v", dlabel, err)
		}
		want, err := cart.Explore(rq)
		if err != nil {
			t.Fatalf("%s: re-query: %v", dlabel, err)
		}
		if g, w := renderMaps(got), renderMaps(want); g != w || got.BaseCount != want.BaseCount {
			t.Fatalf("%s: drill from bits differs from re-query:\n got: %s\nwant: %s", dlabel, g, w)
		}
		checkRegionBits(t, dlabel, cart.Table(), got)
		drillChecked(t, rnd, cart, dlabel, got, levels-1)
	}
}
