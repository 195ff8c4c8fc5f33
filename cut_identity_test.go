package atlas

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/query"
)

// cutIdentityGoldens are digests of FormatResult (Elapsed zeroed) taken
// at the commit before CUT stopped sorting sub-selections and the
// partition kernel was compiled: every strategy must still give the very
// same maps. Key: strategy/splits/query.
var cutIdentityGoldens = map[string]string{
	"equiwidth/2/both": "67b6d49a9516d434",
	"equiwidth/2/dec":  "b34b31cf45a74dfd",
	"equiwidth/2/full": "7d7793b991f2df93",
	"equiwidth/2/ra":   "83e36b1a03cc5e18",
	"equiwidth/3/both": "d73e2268beb86f52",
	"equiwidth/3/dec":  "bc70d5c25dc62a22",
	"equiwidth/3/full": "9bb3d9e5e004b25f",
	"equiwidth/3/ra":   "d3deaf305ce9145d",
	"median/2/both":    "1b502b386acf748e",
	"median/2/dec":     "b2f2dadb58f138a0",
	"median/2/full":    "175235df5b13e483",
	"median/2/ra":      "fe9cc8469cda93a6",
	"median/3/both":    "9c779200028f682f",
	"median/3/dec":     "b30b98f95c6fede4",
	"median/3/full":    "faf9e4a0d1b163d5",
	"median/3/ra":      "feb413216995c545",
	"variance/2/both":  "2d3817c73951ff43",
	"variance/2/dec":   "44a552c95c47f752",
	"variance/2/full":  "a9283b828376dc7e",
	"variance/2/ra":    "34e763f8f5e03c73",
	"variance/3/both":  "ae10b90009f1db1c",
	"variance/3/dec":   "31676956b76212d0",
	"variance/3/full":  "fe0fe823fcf03eb3",
	"variance/3/ra":    "dc5f93b372caa549",
}

// TestCutStrategiesByteIdentical runs ExploreSel over a clustered sky
// table — full selection (the Cartographer's cut memo), a contiguous ra band (ascending
// values) and a scattered dec band — with every numeric strategy.
func TestCutStrategiesByteIdentical(t *testing.T) {
	tbl := skyByRA(30000, 5)
	queries := map[string]query.Query{
		"full": query.New("sky"),
		"ra":   query.New("sky", query.NewRange("ra", 100, 250)),
		"dec":  query.New("sky", query.NewRange("dec", -60, 10)),
		"both": query.New("sky", query.NewRange("ra", 20, 300), query.NewRange("mag_r", 15, 17.5)),
	}
	for _, strat := range []core.NumericCut{core.CutEquiWidth, core.CutMedian, core.CutVariance} {
		for _, splits := range []int{2, 3} {
			opts := core.DefaultOptions()
			opts.Cut.Numeric, opts.Cut.Splits = strat, splits
			cart, err := core.NewCartographer(tbl, opts)
			if err != nil {
				t.Fatal(err)
			}
			for name, q := range queries {
				base, err := engine.Eval(tbl, q)
				if err != nil {
					t.Fatal(err)
				}
				res, err := cart.ExploreSel(q, base)
				if err != nil {
					t.Fatal(err)
				}
				res.Elapsed = 0
				key := fmt.Sprintf("%s/%d/%s", strat, splits, name)
				got := fmt.Sprintf("%x", sha256.Sum256([]byte(FormatResult(res))))[:16]
				if want := cutIdentityGoldens[key]; got != want {
					t.Errorf("%q: %q, // golden is %q", key, got, want)
				}
			}
		}
	}
}
