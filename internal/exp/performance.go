package exp

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/query"
)

func init() {
	register(Experiment{
		ID:       "E5",
		Title:    "Quasi-real-time latency vs exhaustive clustering",
		Artifact: "Sections 1–2 latency claim",
		Run:      runE5,
	})
	register(Experiment{
		ID:       "E10",
		Title:    "Sampling accuracy and the anytime loop",
		Artifact: "Section 5.1 (sampling and refinement)",
		Run:      runE10,
	})
	register(Experiment{
		ID:       "E14",
		Title:    "SLINK correctness and scaling vs naive agglomeration",
		Artifact: "Section 3.2 (choice of SLINK [14])",
		Run:      runE14,
	})
}

func runE5(w io.Writer, quick bool) error {
	sizes := []int{1000, 10000, 100000}
	if !quick {
		sizes = append(sizes, 1000000)
	}
	const dims = 8

	section(w, "E5: latency vs n (dims=%d); Atlas vs CLIQUE vs single-link tuples", dims)
	t := newTable(w, "n", "atlas_ms", "clique_ms", "slink_tuples_ms", "baseline_note")
	var atlasMs, cliqueMs []float64
	const cliqueCap = 100000 // CLIQUE support counting is linear in n for a fixed unit lattice: measure at the cap, scale linearly
	for _, n := range sizes {
		tbl, _ := datagen.SubspaceClusters(n, dims, 3, 3, 5)
		cart, err := core.NewCartographer(tbl, core.DefaultOptions())
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := cart.Explore(query.New("subspace")); err != nil {
			return err
		}
		atlasT := time.Since(start)

		names := make([]string, dims)
		for i := range names {
			names[i] = tbl.Schema().Field(i).Name
		}
		data, _, err := baseline.NumericMatrix(tbl, names)
		if err != nil {
			return err
		}
		cliqueData := data
		if len(cliqueData) > cliqueCap {
			cliqueData = cliqueData[:cliqueCap]
		}
		start = time.Now()
		if _, err := baseline.Clique(cliqueData, baseline.CliqueOptions{Xi: 8, Tau: 0.02, MaxDim: 3}); err != nil {
			return err
		}
		cliqueT := time.Since(start)
		if len(cliqueData) < n {
			cliqueT = time.Duration(float64(cliqueT) * float64(n) / float64(len(cliqueData)))
		}

		// exhaustive tuple clustering is O(n²): cap it and extrapolate.
		capN := n
		note := ""
		if n > cliqueCap {
			note = "clique scaled linearly from n=100k; "
		}
		if capN > 4000 {
			capN = 4000
			note += fmt.Sprintf("slink measured at n=4000, scaled x%.0f^2", float64(n)/4000)
		} else {
			note += "slink exact"
		}
		start = time.Now()
		if _, err := baseline.SingleLinkTuples(data[:capN], 3); err != nil {
			return err
		}
		slinkT := time.Since(start)
		scaled := slinkT
		if capN < n {
			f := float64(n) / float64(capN)
			scaled = time.Duration(float64(slinkT) * f * f)
		}

		t.row(n, ms(atlasT), ms(cliqueT), ms(scaled), note)
		atlasMs = append(atlasMs, ms(atlasT))
		cliqueMs = append(cliqueMs, ms(cliqueT))
	}
	t.flush()

	last := len(sizes) - 1
	check(w, atlasMs[2] < interactiveMs(), "full-scan Atlas stays interactive at n=%d (%.1f ms < %v ms)", sizes[2], atlasMs[2], interactiveMs())
	check(w, atlasMs[last] < cliqueMs[last], "Atlas is faster than CLIQUE at n=%d (%.1fx)", sizes[last], cliqueMs[last]/atlasMs[last])

	// Beyond ~100k the full scan leaves the interactive regime; the
	// paper's own answer (Section 5.1) is sampling. Measure the anytime
	// path on the largest table.
	{
		n := sizes[last]
		tbl, _ := datagen.SubspaceClusters(n, dims, 3, 3, 5)
		cart, err := core.NewCartographer(tbl, core.DefaultOptions())
		if err != nil {
			return err
		}
		start := time.Now()
		ares, err := cart.ExploreAnytime(context.Background(), query.New("subspace"), core.DefaultAnytimeOptions())
		if err != nil {
			return err
		}
		anyT := ms(time.Since(start))
		readRows := ares.Rounds[len(ares.Rounds)-1].SampleSize
		fmt.Fprintf(w, "anytime path at n=%d: %.1f ms, stabilized=%v after sampling %d rows (%.1f%%)\n",
			n, anyT, ares.Stabilized, readRows, 100*float64(readRows)/float64(n))
		check(w, anyT < interactiveMs(),
			"the sampled anytime path keeps n=%d interactive (%.1f ms < %v ms) — the Section 5.1 design", n, anyT, interactiveMs())
	}

	// dimensionality sweep at fixed n: Atlas grows ~linearly, the
	// subspace search combinatorially.
	n := pick(quick, 20000, 50000)
	dimSweep := []int{4, 8, 16}
	section(w, "E5b: latency vs dims (n=%d)", n)
	t2 := newTable(w, "dims", "atlas_ms", "clique_ms", "clique_units")
	var aFirst, aLast, cFirst, cLast float64
	for di, d := range dimSweep {
		tbl, _ := datagen.SubspaceClusters(n, d, 3, 3, 6)
		cart, err := core.NewCartographer(tbl, core.DefaultOptions())
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := cart.Explore(query.New("subspace")); err != nil {
			return err
		}
		atlasT := ms(time.Since(start))

		names := make([]string, d)
		for i := range names {
			names[i] = tbl.Schema().Field(i).Name
		}
		data, _, err := baseline.NumericMatrix(tbl, names)
		if err != nil {
			return err
		}
		start = time.Now()
		cres, err := baseline.Clique(data, baseline.CliqueOptions{Xi: 8, Tau: 0.02, MaxDim: 3})
		if err != nil {
			return err
		}
		cliqueT := ms(time.Since(start))
		t2.row(d, atlasT, cliqueT, cres.UnitsExamined)
		if di == 0 {
			aFirst, cFirst = atlasT, cliqueT
		}
		if di == len(dimSweep)-1 {
			aLast, cLast = atlasT, cliqueT
		}
	}
	t2.flush()
	aGrowth := aLast / aFirst
	cGrowth := cLast / cFirst
	check(w, aGrowth < cGrowth, "Atlas growth with dims (%.1fx) below CLIQUE growth (%.1fx)", aGrowth, cGrowth)
	return nil
}

func runE10(w io.Writer, quick bool) error {
	n := pick(quick, 50000, 200000)
	tbl := datagen.Census(n, 17)
	cart, err := core.NewCartographer(tbl, core.DefaultOptions())
	if err != nil {
		return err
	}
	full, err := cart.Explore(query.New("census"))
	if err != nil {
		return err
	}

	section(w, "E10a: sampling — agreement with the full-data grouping (n=%d)", n)
	t := newTable(w, "sample_rate", "rows", "grouping_jaccard", "elapsed_ms")
	rates := []float64{0.001, 0.01, 0.1, 1.0}
	var first, lastJ float64
	for i, rate := range rates {
		k := int(rate * float64(n))
		if k < 10 {
			k = 10
		}
		sub := tbl.Gather("census", sampleRows(n, k, 3))
		scart, err := core.NewCartographer(sub, core.DefaultOptions())
		if err != nil {
			return err
		}
		start := time.Now()
		res, err := scart.Explore(query.New("census"))
		if err != nil {
			return err
		}
		j := core.GroupingJaccard(full.AttrClusters, res.AttrClusters)
		t.row(rate, k, j, ms(time.Since(start)))
		if i == 0 {
			first = j
		}
		lastJ = j
	}
	t.flush()
	check(w, lastJ == 1, "the full-rate run reproduces the full-data grouping")
	check(w, lastJ >= first, "agreement is non-decreasing from the smallest to the largest sample")

	section(w, "E10b: anytime refinement rounds")
	res, err := cart.ExploreAnytime(context.Background(), query.New("census"), core.DefaultAnytimeOptions())
	if err != nil {
		return err
	}
	t2 := newTable(w, "round", "sample", "grouping_similarity", "elapsed_ms")
	for i, r := range res.Rounds {
		t2.row(i+1, r.SampleSize, r.GroupingSimilarity, ms(r.Elapsed))
	}
	t2.flush()
	finalJ := core.GroupingJaccard(full.AttrClusters, res.Final.AttrClusters)
	check(w, res.Stabilized, "anytime loop stabilized before exhausting the data")
	check(w, finalJ == 1, "anytime result matches the full-data grouping (jaccard %.2f)", finalJ)
	return nil
}

func runE14(w io.Writer, quick bool) error {
	section(w, "E14: SLINK vs naive single-linkage (correctness + scaling)")
	r := rand.New(rand.NewSource(7))

	// correctness: identical clusters on random matrices at random cuts
	agree := true
	for trial := 0; trial < 50; trial++ {
		k := 2 + r.Intn(20)
		m := make([][]float64, k)
		for i := range m {
			m[i] = make([]float64, k)
		}
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				d := r.Float64()
				m[i][j], m[j][i] = d, d
			}
		}
		threshold := r.Float64()
		dend := core.SLINK(k, func(i, j int) float64 { return m[i][j] })
		got := dend.Cut(threshold)
		want, err := core.AgglomerateNaive(k, func(i, j int) float64 { return m[i][j] }, core.LinkSingle, threshold, k)
		if err != nil {
			return err
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			agree = false
		}
	}
	check(w, agree, "SLINK clusters equal naive single-linkage on 50 random instances")

	// scaling: candidate-set sizes
	sizes := []int{64, 128, 256}
	if !quick {
		sizes = append(sizes, 512)
	}
	t := newTable(w, "candidates", "slink_ms", "naive_ms", "speedup")
	for _, k := range sizes {
		m := make([][]float64, k)
		for i := range m {
			m[i] = make([]float64, k)
		}
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				d := r.Float64()
				m[i][j], m[j][i] = d, d
			}
		}
		dist := func(i, j int) float64 { return m[i][j] }
		start := time.Now()
		core.SLINK(k, dist)
		slinkT := time.Since(start)
		start = time.Now()
		if _, err := core.AgglomerateNaive(k, dist, core.LinkSingle, 2, k); err != nil {
			return err
		}
		naiveT := time.Since(start)
		t.row(k, ms(slinkT), ms(naiveT), float64(naiveT)/float64(slinkT))
	}
	t.flush()
	return nil
}

// ---- small shared helpers ----

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000.0 }

// interactiveMs is the "quasi-real-time" latency budget used by the
// checks: 1 second normally, relaxed under the race detector whose
// instrumentation slows everything by an order of magnitude.
func interactiveMs() float64 {
	if raceEnabled {
		return 15000
	}
	return 1000
}

func sampleRows(n, k int, seed int64) []int {
	r := rand.New(rand.NewSource(seed))
	rows := r.Perm(n)[:k]
	sort.Ints(rows)
	return rows
}
