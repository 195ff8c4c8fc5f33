package core

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/storage"
)

// The paper's claims about CUT, merging, distances, ranking, sampling,
// screening and readability, each checked on the planted datasets at
// 10k–20k rows. Figure 2 runs through the public facade as the root
// package's TestPaperFigure2.

// distance is MapDistance that fails the test on error.
func distance(t testing.TB, a, b *Map, kind Distance) float64 {
	t.Helper()
	d, err := MapDistance(a, b, kind)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// purity is the row-weighted share of each region's dominant planted
// label: 1 when every region holds a single label.
func purity(m *Map, labels []int) float64 {
	counts := make([]map[int]int, len(m.Regions))
	for i := range counts {
		counts[i] = map[int]int{}
	}
	total := 0
	for row, lab := range m.Assignment().Labels() {
		if lab >= 0 {
			counts[lab][labels[row]]++
			total++
		}
	}
	if total == 0 {
		return 0
	}
	dominant := 0
	for _, c := range counts {
		best := 0
		for _, v := range c {
			best = max(best, v)
		}
		dominant += best
	}
	return float64(dominant) / float64(total)
}

// regionARI scores a map's region assignment against planted labels with
// the adjusted Rand index.
func regionARI(t testing.TB, m *Map, labels []int) float64 {
	t.Helper()
	var pred, truth []int
	for row, lab := range m.Assignment().Labels() {
		if lab >= 0 {
			pred = append(pred, int(lab))
			truth = append(truth, labels[row])
		}
	}
	ari, err := stats.AdjustedRandIndex(pred, truth)
	if err != nil {
		t.Fatal(err)
	}
	return ari
}

// dependentPair generates two numeric columns x and y whose dependency
// is tunable: with probability strength a row's y follows x's latent
// cluster, otherwise it picks a cluster at random. strength 0 gives
// independence, 1 full dependence.
func dependentPair(n int, strength float64, seed int64) *storage.Table {
	r := rand.New(rand.NewSource(seed))
	b := storage.NewBuilder("pair", storage.MustSchema(
		storage.Field{Name: "x", Type: storage.Float64},
		storage.Field{Name: "y", Type: storage.Float64},
	))
	for i := 0; i < n; i++ {
		zx := r.Intn(2)
		zy := zx
		if r.Float64() >= strength {
			zy = r.Intn(2)
		}
		b.MustAppendRow(float64(zx*10)+r.NormFloat64(), float64(zy*10)+r.NormFloat64())
	}
	return b.MustBuild()
}

// TestPaperCutAgeSex is Figure 3: the median cut on age lands at the
// planted cohort boundary (the paper's figure cuts at 55), and sex
// splits into one region per value.
func TestPaperCutAgeSex(t *testing.T) {
	tbl := datagen.Census(10000, 7)
	opts := DefaultCutOptions()
	age, err := CutPredicates(tbl, fullSel(tbl), "age", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(age) != 2 || age[0].HiIncl || age[0].Hi < 50 || age[0].Hi > 60 {
		t.Errorf("age cut = %v, want two regions split in [50, 60]", age)
	}
	sex, err := CutPredicates(tbl, fullSel(tbl), "sex", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(sex) != 2 {
		t.Errorf("sex cut = %v, want {'Male'} and {'Female'}", sex)
	}
}

// TestPaperFigure4Merges is Figure 4's dendrogram: among the five
// body-metrics candidate maps exactly three merges fall below the
// dependency threshold (two inside {age, income, education_years}, one
// joining {size, weight}), so cutting there leaves those two clusters.
func TestPaperFigure4Merges(t *testing.T) {
	tbl, _ := datagen.BodyMetrics(10000, 3)
	opts := DefaultOptions()
	cands := make([]*Map, tbl.NumCols())
	for i := range cands {
		cands[i] = candidateMap(t, tbl, tbl.Schema().Field(i).Name, opts.Cut)
	}
	dm, err := DistanceMatrix(cands, opts.Distance, 1)
	if err != nil {
		t.Fatal(err)
	}
	dend := SLINK(len(cands), dm.At)
	below := 0
	for _, m := range dend.Merges() {
		if m.Height <= opts.DependencyThreshold {
			below++
		}
	}
	if below != 3 {
		t.Errorf("%d merges below the threshold, want 3", below)
	}
	if cl := dend.CutWithBudget(opts.DependencyThreshold, opts.MaxPredicates); len(cl) != 2 {
		t.Errorf("clusters = %v, want the trio and {size, weight}", cl)
	}
}

// TestPaperComposeBeatsProduct is Figure 5: on four clusters whose
// weight boundary depends on size, composition re-cuts weight inside
// each size region near 45 and 65 and recovers the clusters, while the
// product's global weight cut leaves its cells mixed.
func TestPaperComposeBeatsProduct(t *testing.T) {
	tbl, labels := datagen.Figure5(10000, 11)
	base, parent, opts := fullSel(tbl), query.New("fig5"), DefaultCutOptions()
	cands := []*Map{candidateMap(t, tbl, "size", opts), candidateMap(t, tbl, "weight", opts)}
	prod, err := MergeCluster(tbl, base, parent, cands, MergeProduct, opts, 8)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := MergeCluster(tbl, base, parent, cands, MergeCompose, opts, 8)
	if err != nil {
		t.Fatal(err)
	}
	prodPurity, compPurity := purity(prod, labels), purity(comp, labels)
	if compPurity < 0.95 {
		t.Errorf("composition purity %.3f, want ≥ 0.95: all four clusters recovered", compPurity)
	}
	if prodPurity > 0.7 {
		t.Errorf("product purity %.3f, want ≤ 0.7: the global weight cut mixes its cells", prodPurity)
	}
	if compPurity <= prodPurity {
		t.Errorf("composition purity %.3f not above product %.3f", compPurity, prodPurity)
	}
	if prodARI, compARI := regionARI(t, prod, labels), regionARI(t, comp, labels); compARI <= prodARI {
		t.Errorf("composition ARI %.3f not above product %.3f", compARI, prodARI)
	}

	localCuts := map[string]float64{}
	for _, r := range comp.Regions {
		wi, si := r.Query.PredOn("weight"), r.Query.PredOn("size")
		if wi < 0 || si < 0 || r.Query.Preds[wi].HiIncl {
			continue
		}
		side := "large"
		if r.Query.Preds[si].Hi < 155 {
			side = "small"
		}
		localCuts[side] = r.Query.Preds[wi].Hi
	}
	if c := localCuts["small"]; c <= 42 || c >= 48 {
		t.Errorf("local weight cut in the small-size region at %.1f, want near 45", c)
	}
	if c := localCuts["large"]; c <= 62 || c >= 68 {
		t.Errorf("local weight cut in the large-size region at %.1f, want near 65", c)
	}
}

// TestPaperCutStrategiesUnbalanced is Section 3.1's cutting-method
// trade-off: on 80/20 clusters the median lands inside the dominant
// cluster, while the variance cut finds the gap.
func TestPaperCutStrategiesUnbalanced(t *testing.T) {
	tbl, labels := datagen.ClusterPair(20000, 0.8, 13)
	nvi, pur := map[NumericCut]float64{}, map[NumericCut]float64{}
	for _, strat := range []NumericCut{CutEquiWidth, CutMedian, CutVariance} {
		opts := DefaultCutOptions()
		opts.Numeric = strat
		mx, my := candidateMap(t, tbl, "x", opts), candidateMap(t, tbl, "y", opts)
		nvi[strat], pur[strat] = distance(t, mx, my, DistNVI), purity(mx, labels)
	}
	if pur[CutVariance] <= 0.99 {
		t.Errorf("variance cut purity %.3f, want > 0.99: the planted boundary", pur[CutVariance])
	}
	if pur[CutVariance] <= pur[CutMedian] {
		t.Errorf("variance purity %.3f not above median %.3f", pur[CutVariance], pur[CutMedian])
	}
	if nvi[CutVariance] >= nvi[CutEquiWidth]+0.05 {
		t.Errorf("variance NVI %.3f, equi-width %.3f: variance should detect the dependency at least as well",
			nvi[CutVariance], nvi[CutEquiWidth])
	}
}

// TestPaperTwoSplitsSeparate is Section 3.1's choice of two splits per
// attribute: at M=2 the dependent pair {age, sex} is already clearly
// closer than the independent pair {age, eye_color}.
func TestPaperTwoSplitsSeparate(t *testing.T) {
	tbl := datagen.Census(20000, 7)
	opts := DefaultCutOptions()
	opts.Splits = 2
	opts.CatPerValue = 0 // M-way grouping for categoricals too
	age := candidateMap(t, tbl, "age", opts)
	dep := distance(t, age, candidateMap(t, tbl, "sex", opts), DistNVI)
	indep := distance(t, age, candidateMap(t, tbl, "eye_color", opts), DistNVI)
	if margin := indep - dep; margin <= 0.05 {
		t.Errorf("NVI margin %.3f (dependent %.3f, independent %.3f), want > 0.05", margin, dep, indep)
	}
}

// TestPaperDependentPairStrength checks the generator behind the
// distance tests: at strength 1 the median cuts of x and y share far
// more information than at strength 0.
func TestPaperDependentPairStrength(t *testing.T) {
	mi := func(strength float64) float64 {
		tbl := dependentPair(10000, strength, 5)
		mx, my := candidateMap(t, tbl, "x", DefaultCutOptions()), candidateMap(t, tbl, "y", DefaultCutOptions())
		ct, err := engine.Contingency(mx.Assignment(), my.Assignment())
		if err != nil {
			t.Fatal(err)
		}
		return ct.MutualInformation()
	}
	if mi0, mi1 := mi(0), mi(1); mi1 < mi0+0.5 {
		t.Errorf("MI at strength 1 (%v) should exceed MI at strength 0 (%v)", mi1, mi0)
	}
}

// TestPaperDistancesTrackDependency is Section 3.2's distance
// discussion: VI, NVI and NMI distance all fall as dependency grows, but
// raw VI depends on the attributes' entropies — on the census it ranks
// the independent {age, salary} closer than the dependent {education,
// salary} — while NVI orders the two correctly.
func TestPaperDistancesTrackDependency(t *testing.T) {
	const n = 20000
	kinds := []Distance{DistVI, DistNVI, DistNMI}
	prev := map[Distance]float64{}
	for i, strength := range []float64{0, 0.25, 0.5, 0.75, 1} {
		tbl := dependentPair(n, strength, 29)
		mx, my := candidateMap(t, tbl, "x", DefaultCutOptions()), candidateMap(t, tbl, "y", DefaultCutOptions())
		for _, kind := range kinds {
			d := distance(t, mx, my, kind)
			if i > 0 && d > prev[kind]+1e-9 {
				t.Errorf("%s rises from %.4f to %.4f at strength %v", kind, prev[kind], d, strength)
			}
			prev[kind] = d
		}
	}

	tbl := datagen.Census(n, 7)
	edu := candidateMap(t, tbl, "education", DefaultCutOptions())
	sal := candidateMap(t, tbl, "salary", DefaultCutOptions())
	age := candidateMap(t, tbl, "age", DefaultCutOptions())
	if dep, indep := distance(t, edu, sal, DistVI), distance(t, age, sal, DistVI); indep >= dep {
		t.Errorf("raw VI: independent %.3f, dependent %.3f bits; the census should show raw VI misordering them", indep, dep)
	}
	if dep, indep := distance(t, edu, sal, DistNVI), distance(t, age, sal, DistNVI); dep >= indep {
		t.Errorf("NVI: dependent %.3f not below independent %.3f", dep, indep)
	}
}

// TestPaperEntropyRanking is Section 3.4: maps rank by decreasing
// entropy, so maps with more regions come first and a map isolating a
// tiny outlier subset comes last.
func TestPaperEntropyRanking(t *testing.T) {
	tbl := datagen.Census(20000, 7)
	c, err := NewCartographer(tbl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Explore(query.New("census"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Maps) < 2 {
		t.Fatalf("maps = %v, want at least two to rank", mapKeys(res.Maps))
	}
	for i := 1; i < len(res.Maps); i++ {
		if res.Maps[i].Entropy > res.Maps[i-1].Entropy+1e-9 {
			t.Errorf("map %d (%.3f bits) ranks below map %d (%.3f bits)", i-1, res.Maps[i-1].Entropy, i, res.Maps[i].Entropy)
		}
	}
	if first, last := res.Maps[0], res.Maps[len(res.Maps)-1]; len(first.Regions) < len(last.Regions) {
		t.Errorf("first map has %d regions, last %d", len(first.Regions), len(last.Regions))
	}
	outlier, err := BuildMap(tbl, fullSel(tbl), []string{"age"}, []query.Query{
		query.New("census", query.NewRange("age", 17, 18)),
		query.New("census", query.NewRange("age", 19, 90)),
	})
	if err != nil {
		t.Fatal(err)
	}
	pool := append(append([]*Map(nil), res.Maps...), outlier)
	RankMaps(pool)
	if pool[len(pool)-1] != outlier {
		t.Errorf("the outlier map (%.3f bits) does not rank last", outlier.Entropy)
	}
}

// TestPaperAnytimeAgreementGrows is Section 5.1's sampling claim: a map
// grouping found on a uniform sample agrees more with the full-data
// grouping as the sample grows, and exploring every row reproduces it.
func TestPaperAnytimeAgreementGrows(t *testing.T) {
	const n = 20000
	tbl := datagen.Census(n, 17)
	full := exploreAll(t, tbl)
	r := rand.New(rand.NewSource(3))
	var agreement []float64
	for _, rate := range []float64{0.001, 0.01, 0.1, 1} {
		rows := r.Perm(n)[:max(10, int(rate*n))]
		sort.Ints(rows)
		res := exploreAll(t, tbl.Gather("census", rows))
		agreement = append(agreement, GroupingJaccard(full.AttrClusters, res.AttrClusters))
	}
	for i := 1; i < len(agreement); i++ {
		if agreement[i] < agreement[i-1] {
			t.Errorf("agreement falls as the sample grows: %v", agreement)
			break
		}
	}
	if last := agreement[len(agreement)-1]; last != 1 {
		t.Errorf("the full-rate run agrees %.3f with the full grouping, want 1", last)
	}
}

// exploreAll explores every row of tbl with the default options.
func exploreAll(t testing.TB, tbl *storage.Table) *Result {
	t.Helper()
	c, err := NewCartographer(tbl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Explore(query.New(tbl.Name()))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPaperReadabilityBudgets is Section 2's readability requirement:
// every map respects its region and predicate budgets, whatever they are.
func TestPaperReadabilityBudgets(t *testing.T) {
	tbl, _ := datagen.BodyMetrics(10000, 3)
	for _, maxR := range []int{4, 8, 16} {
		for _, maxP := range []int{2, 3, 4} {
			opts := DefaultOptions()
			opts.MaxRegions, opts.MaxPredicates = maxR, maxP
			c, err := NewCartographer(tbl, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Explore(query.New("body"))
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range res.Maps {
				if len(m.Regions) > maxR || len(m.Attrs) > maxP {
					t.Errorf("budget %d regions × %d predicates: map %s has %d regions over %d attributes",
						maxR, maxP, m.Key(), len(m.Regions), len(m.Attrs))
				}
			}
		}
	}
}

// TestPaperScreeningJunkColumns is Section 5.2's column screening: keys,
// codes and free-text comments are flagged and kept out of every map,
// and without screening they pollute the candidate set.
func TestPaperScreeningJunkColumns(t *testing.T) {
	tbl := datagen.WithJunkColumns(datagen.Census(10000, 2), 4)
	explore := func(screen bool) *Result {
		opts := DefaultOptions()
		opts.Screen = screen
		c, err := NewCartographer(tbl, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Explore(query.New(tbl.Name()))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	junk := func(res *Result) int {
		n := 0
		for _, m := range res.Maps {
			for _, a := range m.Attrs {
				if a == "row_id" || a == "code" || a == "comment" {
					n++
				}
			}
		}
		return n
	}
	on, off := explore(true), explore(false)
	if j := junk(on); j != 0 {
		t.Errorf("%d junk columns reach a map with screening on; maps %v", j, mapKeys(on.Maps))
	}
	if len(on.Flagged) < 3 {
		t.Errorf("flagged = %v, want all three junk columns", on.Flagged)
	}
	if junk(off) == 0 && len(off.Candidates) <= len(on.Candidates) {
		t.Errorf("screening off: %d candidates, screening on: %d; junk should pollute the candidates",
			len(off.Candidates), len(on.Candidates))
	}
}

// TestPaperSLINKEqualsNaive is Section 3.2's reason for SLINK at the
// candidate-set sizes where its O(n²) beats naive agglomeration: on
// random distances over 64, 128 and 256 candidates, cutting the SLINK
// dendrogram gives exactly the naive single-linkage clusters.
func TestPaperSLINKEqualsNaive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{64, 128, 256} {
		m := randomDistMatrix(r, n)
		d := SLINK(n, matrixDist(m))
		for _, threshold := range []float64{0.005, 0.01, 0.02, 0.05} {
			got := d.CutWithBudget(threshold, n)
			want := AgglomerateNaive(n, matrixDist(m), threshold, n)
			if !eqClusters(got, want) {
				t.Errorf("n=%d threshold=%v: SLINK gives %d clusters, naive %d", n, threshold, len(got), len(want))
			}
		}
	}
}
