package atlas

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/storage"
)

// unseededMerge re-runs steps 2–4 of an exploration (cluster, merge,
// rank) from res's candidates, merging every cluster with the public
// MergeCluster — which cuts composition's first level itself — instead
// of starting from the cluster's first candidate map as the
// Cartographer does.
func unseededMerge(t *testing.T, tbl *storage.Table, opts core.Options, q query.Query, res *core.Result) *core.Result {
	t.Helper()
	base, err := engine.Eval(tbl, q)
	if err != nil {
		t.Fatal(err)
	}
	cands := res.Candidates
	clusters := [][]int{{0}}
	if len(cands) > 1 {
		dm, err := core.DistanceMatrix(cands, opts.Distance, 1)
		if err != nil {
			t.Fatal(err)
		}
		clusters = core.SLINK(len(cands), dm.At).CutWithBudget(opts.DependencyThreshold, opts.MaxPredicates)
	}
	var maps []*core.Map
	for _, idxs := range clusters {
		group := make([]*core.Map, len(idxs))
		for gi, ci := range idxs {
			group[gi] = cands[ci]
		}
		m, err := core.MergeCluster(tbl, base, q, group, opts.Merge, opts.Cut, opts.MaxRegions)
		var deg *core.ErrDegenerate
		if errors.As(err, &deg) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		maps = append(maps, m)
	}
	core.RankMaps(maps)
	if len(maps) > opts.MaxMaps {
		maps = maps[:opts.MaxMaps]
	}
	out := *res
	out.Maps = maps
	return &out
}

// TestComposeSeedMatchesMergeCluster: composition seeded with the
// cluster's first candidate map gives byte-for-byte the maps an
// unseeded MergeCluster gives on the same candidates, for every numeric
// strategy at 2 and 3 splits, under the full selection (the cut memo)
// and under sub-selections.
func TestComposeSeedMatchesMergeCluster(t *testing.T) {
	fig5, _ := Figure5Dataset(8000, 3)
	datasets := []struct {
		name    string
		tbl     *storage.Table
		queries []query.Query
	}{
		{"census", CensusDataset(20000, 2), []query.Query{
			query.New("census"),
			query.New("census", query.NewRange("age", 25, 60)),
		}},
		{"sky", SkySurveyDataset(20000, 4), []query.Query{
			query.New("sky"),
			query.New("sky", query.NewRange("ra", 40, 220)),
		}},
		{"fig5", fig5, []query.Query{
			query.New("fig5"),
			query.New("fig5", query.NewRange("weight", 45, 75)),
		}},
	}
	composed := 0
	for _, ds := range datasets {
		for _, strat := range []core.NumericCut{core.CutEquiWidth, core.CutMedian, core.CutVariance} {
			for _, splits := range []int{2, 3} {
				opts := core.DefaultOptions()
				opts.Cut.Numeric, opts.Cut.Splits = strat, splits
				cart, err := core.NewCartographer(ds.tbl, opts)
				if err != nil {
					t.Fatal(err)
				}
				for qi, q := range ds.queries {
					label := fmt.Sprintf("%s/%s/%d/q%d", ds.name, strat, splits, qi)
					res, err := cart.Explore(q)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					res.Elapsed = 0
					for _, attrs := range res.AttrClusters {
						if len(attrs) > 1 {
							composed++
						}
					}
					want := unseededMerge(t, ds.tbl, opts, q, res)
					if got, want := FormatResult(res), FormatResult(want); got != want {
						t.Errorf("%s: seeded composition differs from MergeCluster\n--- seeded\n%s--- unseeded\n%s", label, got, want)
					}
				}
			}
		}
	}
	if composed == 0 {
		t.Fatal("no exploration composed two attributes: the seed was never exercised")
	}
	t.Logf("%d composed maps compared", composed)
}
