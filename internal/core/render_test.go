package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/datagen"
	"repro/internal/query"
)

// TestResultRenderedOnceConcurrently: eight readers of one result,
// concurrently, render its body once and each ranked map's region texts
// once, and all read the same bytes.
func TestResultRenderedOnceConcurrently(t *testing.T) {
	cart, err := NewCartographer(datagen.Census(4000, 1), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := cart.Explore(query.New("census", query.NewRange("age", 20, 70)))
	if err != nil {
		t.Fatal(err)
	}
	var renders atomic.Int64
	render := func(r *Result) []byte {
		renders.Add(1)
		var b []byte
		for _, m := range r.Maps {
			for ri := range m.Regions {
				b = append(b, m.RegionText(ri)...)
			}
		}
		return b
	}
	textsBefore := regionTextRenders.Load()
	const readers = 8
	bodies := make([][]byte, readers)
	var wg sync.WaitGroup
	for i := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bodies[i] = res.Rendered(render)
			for _, m := range res.Maps {
				for ri := range m.Regions {
					if m.RegionText(ri) != m.Regions[ri].Query.String() {
						t.Errorf("region text %q, query %q", m.RegionText(ri), m.Regions[ri].Query)
					}
				}
			}
		}()
	}
	wg.Wait()
	if n := renders.Load(); n != 1 {
		t.Fatalf("%d readers rendered the body %d times", readers, n)
	}
	if n := regionTextRenders.Load() - textsBefore; n != int64(len(res.Maps)) {
		t.Fatalf("%d readers rendered region texts of %d maps, the result ranks %d", readers, n, len(res.Maps))
	}
	for i := range bodies {
		if &bodies[i][0] != &bodies[0][0] {
			t.Fatalf("reader %d got a body of its own", i)
		}
	}
}

// TestRenderedCopyRendersAgain: a copy of a result — which may differ in
// any field — and a Result built outside the pipeline render on every
// call instead of reading another result's memo.
func TestRenderedCopyRendersAgain(t *testing.T) {
	cart, err := NewCartographer(datagen.Census(2000, 1), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := cart.Explore(query.New("census"))
	if err != nil {
		t.Fatal(err)
	}
	var renders int
	render := func(r *Result) []byte {
		renders++
		return []byte(r.Input.String() + " " + r.Elapsed.String())
	}
	res.Rendered(render)
	res.Rendered(render)
	cp := *res
	cp.Elapsed = 0
	if got := string(cp.Rendered(render)); got != "EXPLORE census 0s" {
		t.Fatalf("copy rendered %q", got)
	}
	built := &Result{Input: query.New("t")}
	built.Rendered(render)
	built.Rendered(render)
	if renders != 4 {
		t.Fatalf("%d renders, want 1 for the pipeline's result, 1 for its copy and 2 for a built one", renders)
	}
}
