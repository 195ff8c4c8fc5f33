package atlas

// The benchmark harness: one benchmark per experiment (E1–E15, the
// regenerated figures and claims of the paper — see DESIGN.md for the
// index and EXPERIMENTS.md for recorded results), plus micro-benchmarks
// for the pipeline's cost drivers (CUT strategies, dependency distances,
// SLINK, FK join, end-to-end exploration latency).
//
// Run everything:   go test -bench=. -benchmem
// One experiment:   go test -bench=BenchmarkE4 -benchmem

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/query"
	"repro/internal/storage"
)

// benchExperiment runs a registered experiment in quick mode, discarding
// its printed tables; the benchmark time is the full experiment cost.
func benchExperiment(b *testing.B, id string) {
	e, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1_Figure2_TwoMaps(b *testing.B)          { benchExperiment(b, "E1") }
func BenchmarkE2_Figure3_Cut(b *testing.B)              { benchExperiment(b, "E2") }
func BenchmarkE3_Figure4_MapClustering(b *testing.B)    { benchExperiment(b, "E3") }
func BenchmarkE4_Figure5_ProductVsCompose(b *testing.B) { benchExperiment(b, "E4") }
func BenchmarkE5_LatencyVsBaselines(b *testing.B)       { benchExperiment(b, "E5") }
func BenchmarkE6_CutMethodAblation(b *testing.B)        { benchExperiment(b, "E6") }
func BenchmarkE7_SplitsAblation(b *testing.B)           { benchExperiment(b, "E7") }
func BenchmarkE8_DistanceAblation(b *testing.B)         { benchExperiment(b, "E8") }
func BenchmarkE9_EntropyRanking(b *testing.B)           { benchExperiment(b, "E9") }
func BenchmarkE10_SamplingAnytime(b *testing.B)         { benchExperiment(b, "E10") }
func BenchmarkE11_SketchCut(b *testing.B)               { benchExperiment(b, "E11") }
func BenchmarkE12_MultiTableJoin(b *testing.B)          { benchExperiment(b, "E12") }
func BenchmarkE13_Screening(b *testing.B)               { benchExperiment(b, "E13") }
func BenchmarkE14_SLINKVsNaive(b *testing.B)            { benchExperiment(b, "E14") }
func BenchmarkE15_ReadabilityBudgets(b *testing.B)      { benchExperiment(b, "E15") }

// ---- pipeline micro-benchmarks ----

// BenchmarkExplore measures the end-to-end Explore latency (the paper's
// quasi-real-time requirement) as the table grows, with the default
// (all-core) parallelism.
func BenchmarkExplore(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000, 1000000} {
		b.Run(fmt.Sprintf("census_n=%d", n), func(b *testing.B) {
			benchExplore(b, n, 0)
		})
	}
	// Every iteration explores another half-table band, so neither the
	// stat cache (full selections only) nor a result cache serves it: the
	// sub-selection CUT, partition and merge kernels do all the work.
	b.Run("sky_wide", func(b *testing.B) {
		tbl := skyByRA(200000, 1)
		cart, err := core.NewCartographer(tbl, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		rnd := rand.New(rand.NewSource(1))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo := rnd.Float64() * 180
			q := query.New("sky", query.NewRange("ra", lo, lo+180))
			if i%2 == 1 {
				q = query.New("sky", query.NewRange("dec", lo/2-90, lo/2))
			}
			if _, err := cart.Explore(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// skyByRA is the sky survey re-ordered by ra, the clustered ingest of the
// repository's benchmark: an ra band is a contiguous row range whose ra
// values arrive ascending, a dec band is scattered over the whole table.
func skyByRA(n int, seed int64) *storage.Table {
	t := datagen.SkySurvey(n, seed)
	col, err := t.ColumnByName("ra")
	if err != nil {
		panic(err)
	}
	ra := col.(*storage.Float64Column).Values()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return ra[idx[a]] < ra[idx[b]] })
	return t.Gather("sky", idx)
}

// BenchmarkExploreSerial is BenchmarkExplore pinned to one worker — the
// baseline for the parallel speedup (results are byte-identical).
func BenchmarkExploreSerial(b *testing.B) {
	for _, n := range []int{100000, 1000000} {
		b.Run(fmt.Sprintf("census_n=%d", n), func(b *testing.B) {
			benchExplore(b, n, 1)
		})
	}
}

func benchExplore(b *testing.B, n, parallelism int) {
	tbl := datagen.Census(n, 1)
	opts := core.DefaultOptions()
	opts.Parallelism = parallelism
	cart, err := core.NewCartographer(tbl, opts)
	if err != nil {
		b.Fatal(err)
	}
	q := query.New("census")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cart.Explore(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)/float64(b.Elapsed().Nanoseconds())*float64(b.N)*1e9, "rows/s")
}

// BenchmarkExploreAnytime measures a full progressive run on a large
// table (it normally stabilizes long before reading everything).
func BenchmarkExploreAnytime(b *testing.B) {
	tbl := datagen.Census(500000, 1)
	cart, err := core.NewCartographer(tbl, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	q := query.New("census")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cart.ExploreAnytime(context.Background(), q, core.DefaultAnytimeOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCutStrategies isolates the cost of the CUT primitive per
// strategy (paper Section 3.1/5.1: CUT "is called many times", making it
// the optimization target). Inside an exploration the full selection is
// served by the stat cache; the sub-selection variants are the path every
// filtered query and every composition level takes: 1 %, 10 % and 50 % of
// the rows, as one contiguous band of the table and scattered over it.
func BenchmarkCutStrategies(b *testing.B) {
	tbl, _ := datagen.ClusterPair(200000, 0.5, 1)
	n := tbl.NumRows()
	type namedSel struct {
		name string
		sel  *bitvec.Vector
	}
	sels := []namedSel{{"full", bitvec.NewFull(n)}}
	for _, pct := range []int{1, 10, 50} {
		band, scattered := bitvec.New(n), bitvec.New(n)
		rnd := rand.New(rand.NewSource(int64(pct)))
		for i := 0; i < n; i++ {
			if i >= n/4 && i < n/4+n*pct/100 {
				band.Set(i)
			}
			if rnd.Intn(100) < pct {
				scattered.Set(i)
			}
		}
		sels = append(sels,
			namedSel{fmt.Sprintf("band_%d%%", pct), band},
			namedSel{fmt.Sprintf("scattered_%d%%", pct), scattered})
	}
	for _, strat := range []core.NumericCut{core.CutEquiWidth, core.CutMedian, core.CutVariance, core.CutSketch} {
		for _, s := range sels {
			name := string(strat) + "/" + s.name
			if s.name == "full" {
				name = string(strat)
			}
			b.Run(name, func(b *testing.B) {
				opts := core.DefaultCutOptions()
				opts.Numeric = strat
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := core.CutPredicates(tbl, s.sel, "x", opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPartitionBitsNumeric measures the compiled range-partition
// kernel: the rows of a half-table selection split at the column's
// median, over an in-memory column, the same column chunk-parallel, and
// a lazy store whose chunk cache holds every chunk.
func BenchmarkPartitionBitsNumeric(b *testing.B) {
	const n = 200000
	mem := skyByRA(n, 1)
	path := filepath.Join(b.TempDir(), "sky.atl")
	if err := colstore.WriteFile(path, mem, 4096); err != nil {
		b.Fatal(err)
	}
	eager, err := colstore.OpenWith(path, colstore.Options{Mode: colstore.ModeEager})
	if err != nil {
		b.Fatal(err)
	}
	defer eager.Close()
	lazy, err := colstore.OpenWith(path, colstore.Options{Mode: colstore.ModeLazy})
	if err != nil {
		b.Fatal(err)
	}
	defer lazy.Close()
	sel, err := engine.Eval(mem, query.New("sky", query.NewRange("dec", -45, 45)))
	if err != nil {
		b.Fatal(err)
	}
	preds, err := core.CutPredicates(mem, sel, "mag_r", core.DefaultCutOptions())
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		tbl     *storage.Table
		workers int
	}{{"memory", mem, 1}, {"chunked_w2", eager.Table(), 2}, {"lazy_warm", lazy.Table(), 1}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := engine.PartitionBitsOpts(tc.tbl, "mag_r", preds, sel, engine.ScanOptions{Workers: tc.workers}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(sel.Count()), "ns/row")
		})
	}
}

// BenchmarkMapDistance measures one dependency-distance evaluation
// (contingency + VI) between two candidate maps.
func BenchmarkMapDistance(b *testing.B) {
	tbl := datagen.Census(100000, 1)
	base := bitvec.NewFull(tbl.NumRows())
	mk := func(attr string) *core.Map {
		regions, err := core.CutQuery(tbl, base, query.New("census"), attr, core.DefaultCutOptions())
		if err != nil {
			b.Fatal(err)
		}
		m, err := core.BuildMap(tbl, base, []string{attr}, regions)
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	ma, ms := mk("age"), mk("sex")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.MapDistance(ma, ms, core.DistNVI); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSLINK measures map clustering over synthetic candidate sets.
func BenchmarkSLINK(b *testing.B) {
	for _, k := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			dist := func(i, j int) float64 {
				return float64((i*31+j*17)%100) / 100.0
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.SLINK(k, dist)
			}
		})
	}
}

// BenchmarkEval measures raw conjunctive-filter throughput.
func BenchmarkEval(b *testing.B) {
	tbl := datagen.Census(1000000, 1)
	q := query.New("census",
		query.NewRange("age", 20, 60),
		query.NewIn("education", "BSc", "MSc"),
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Eval(tbl, q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1e6*float64(b.N)/float64(b.Elapsed().Seconds())/1e6, "Mrows/s")
}

// BenchmarkStoreOpen measures cold-starting from the on-disk columnar
// store — the path that replaces CSV re-parsing at process start. The
// acceptance bar is ≥5× faster than BenchmarkCSVParse at 1M rows.
// Scenarios are shared with atlasbench -benchjson (exp.ColdStartInputs).
func BenchmarkStoreOpen(b *testing.B) {
	for _, n := range []int{100000, 1000000} {
		b.Run(fmt.Sprintf("census_n=%d", n), func(b *testing.B) {
			path, _, err := exp.ColdStartInputs(n, 1, b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := colstore.Open(path)
				if err != nil {
					b.Fatal(err)
				}
				if s.Table().NumRows() != n {
					b.Fatal("short read")
				}
			}
		})
	}
}

// BenchmarkCSVParse is the cold-start baseline StoreOpen replaces.
func BenchmarkCSVParse(b *testing.B) {
	for _, n := range []int{100000, 1000000} {
		b.Run(fmt.Sprintf("census_n=%d", n), func(b *testing.B) {
			_, data, err := exp.ColdStartInputs(n, 1, b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t, err := storage.ReadCSV("census", bytes.NewReader(data), nil)
				if err != nil {
					b.Fatal(err)
				}
				if t.NumRows() != n {
					b.Fatal("short read")
				}
			}
		})
	}
}

// BenchmarkEvalPruned measures a selective range scan with zone-map
// pruning (chunked store table) against the same scan without chunk
// metadata, on the shared exp.PrunedScanScenario workload.
func BenchmarkEvalPruned(b *testing.B) {
	const n = 1000000
	chunked, plain, q, err := exp.PrunedScanScenario(n)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tbl  *Table
	}{{"chunked", chunked}, {"plain", plain}} {
		tbl := tc.tbl
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			sel := bitvec.NewFull(n)
			for i := 0; i < b.N; i++ {
				sel.Fill()
				if err := engine.EvalAndIntoOpts(tbl, q, sel, engine.ScanOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJoinFK measures FK-join materialization (Section 5.2).
func BenchmarkJoinFK(b *testing.B) {
	orders, customers := datagen.Orders(200000, 5000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.JoinFK(orders, "cid", customers, "cid", "j"); err != nil {
			b.Fatal(err)
		}
	}
}
