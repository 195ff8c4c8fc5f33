package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/query"
)

func TestParallelForCoversAllIndexes(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		n := 57
		hits := make([]int, n)
		var mu sync.Mutex
		err := parallelFor(workers, n, func(i int) error {
			mu.Lock()
			hits[i]++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestParallelForPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		err := parallelFor(workers, 20, func(i int) error {
			if i == 7 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
	}
}

// sameResult asserts two exploration results are byte-for-byte
// equivalent in everything the API exposes.
func sameResult(t *testing.T, a, b *Result) {
	t.Helper()
	if a.BaseCount != b.BaseCount || a.TotalRows != b.TotalRows {
		t.Fatalf("base counts differ: %d/%d vs %d/%d", a.BaseCount, a.TotalRows, b.BaseCount, b.TotalRows)
	}
	sameMaps := func(kind string, ma, mb []*Map) {
		if len(ma) != len(mb) {
			t.Fatalf("%s count differs: %d vs %d", kind, len(ma), len(mb))
		}
		for i := range ma {
			if ma[i].String() != mb[i].String() {
				t.Fatalf("%s %d differs:\n%s\nvs\n%s", kind, i, ma[i], mb[i])
			}
			if ma[i].Entropy != mb[i].Entropy {
				t.Fatalf("%s %d entropy differs: %v vs %v", kind, i, ma[i].Entropy, mb[i].Entropy)
			}
		}
	}
	sameMaps("map", a.Maps, b.Maps)
	sameMaps("candidate", a.Candidates, b.Candidates)
	if fmt.Sprint(a.AttrClusters) != fmt.Sprint(b.AttrClusters) {
		t.Fatalf("clusters differ: %v vs %v", a.AttrClusters, b.AttrClusters)
	}
	if len(a.Flagged) != len(b.Flagged) {
		t.Fatalf("flagged differ: %v vs %v", a.Flagged, b.Flagged)
	}
	for i := range a.Flagged {
		if a.Flagged[i] != b.Flagged[i] {
			t.Fatalf("flagged %d differs: %v vs %v", i, a.Flagged[i], b.Flagged[i])
		}
	}
}

// TestExploreDeterministicAcrossParallelism is the concurrency
// correctness contract: the ranked answer is identical whether the
// pipeline runs on one worker or many, for every cut strategy.
func TestExploreDeterministicAcrossParallelism(t *testing.T) {
	tbl := datagen.Census(20000, 3)
	queries := []query.Query{
		query.New("census"),
		query.New("census", query.NewRange("age", 25, 60)),
		query.New("census", query.NewIn("education", "BSc", "MSc", "PhD")),
	}
	for _, numeric := range []NumericCut{CutMedian, CutEquiWidth, CutVariance} {
		serialOpts := DefaultOptions()
		serialOpts.Cut.Numeric = numeric
		serialOpts.Parallelism = 1
		parallelOpts := serialOpts
		parallelOpts.Parallelism = 8

		serial, err := NewCartographer(tbl, serialOpts)
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := NewCartographer(tbl, parallelOpts)
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			// run each query twice so the second serial pass reads the warm
			// stat cache: cached and uncached answers must also agree
			rs1, err := serial.Explore(q)
			if err != nil {
				t.Fatalf("%s q%d serial: %v", numeric, qi, err)
			}
			rs2, err := serial.Explore(q)
			if err != nil {
				t.Fatalf("%s q%d serial warm: %v", numeric, qi, err)
			}
			rp, err := parallel.Explore(q)
			if err != nil {
				t.Fatalf("%s q%d parallel: %v", numeric, qi, err)
			}
			sameResult(t, rs1, rs2)
			sameResult(t, rs1, rp)
		}
	}
}

// TestConcurrentExploreSharedCartographer hammers one Cartographer from
// many goroutines (the server sharing pattern); run with -race. Every
// result must match the serial reference.
func TestConcurrentExploreSharedCartographer(t *testing.T) {
	tbl := datagen.Census(10000, 5)
	cart, err := NewCartographer(tbl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	queries := []query.Query{
		query.New("census"),
		query.New("census", query.NewRange("age", 17, 55)),
		query.New("census", query.NewIn("sex", "Male")),
		query.New("census", query.NewRange("age", 40, 90)),
	}
	refs := make([]*Result, len(queries))
	refCart, err := NewCartographer(tbl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		if refs[i], err = refCart.Explore(q); err != nil {
			t.Fatal(err)
		}
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	results := make([][]*Result, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]*Result, len(queries))
			for i, q := range queries {
				res, err := cart.Explore(q)
				if err != nil {
					errCh <- err
					return
				}
				out[i] = res
			}
			results[g] = out
		}(g)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	for g, out := range results {
		if out == nil {
			continue
		}
		for i := range queries {
			t.Run(fmt.Sprintf("g%d_q%d", g, i), func(t *testing.T) {
				sameResult(t, refs[i], out[i])
			})
		}
	}
}
