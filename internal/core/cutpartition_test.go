package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/engine"
	"repro/internal/obsv"
	"repro/internal/query"
	"repro/internal/storage"
)

// nanColumnTable builds one Float64 column "x" holding NULLs and NaN
// cells among clustered values, so a cut of any strategy splits it.
func nanColumnTable(n int, seed int64) *storage.Table {
	rnd := rand.New(rand.NewSource(seed))
	b := storage.NewBuilder("t", storage.MustSchema(storage.Field{Name: "x", Type: storage.Float64}))
	for r := 0; r < n; r++ {
		switch {
		case r%9 == 4:
			b.MustAppendRow(nil)
		case r%7 == 2:
			b.MustAppendRow(math.NaN())
		default:
			b.MustAppendRow(float64(rnd.Intn(3)*10) + rnd.NormFloat64())
		}
	}
	return b.MustBuild()
}

// TestCutPartitionNaNUnderSubSelection: a numeric cut of a NaN-bearing
// column under a sub-selection partitions from its extracted values
// exactly as the column pass partitions under the same predicates — the
// cut's NaN filtering must leave the values it partitions from in row
// order.
func TestCutPartitionNaNUnderSubSelection(t *testing.T) {
	const n = 5000
	tbl := nanColumnTable(n, 3)
	sel := bitvec.New(n)
	rnd := rand.New(rand.NewSource(4))
	for r := 0; r < n; r++ {
		if rnd.Intn(3) > 0 {
			sel.Set(r)
		}
	}
	for _, strat := range []NumericCut{CutEquiWidth, CutMedian, CutVariance} {
		for _, splits := range []int{2, 3, 5} {
			opts := DefaultCutOptions()
			opts.Numeric, opts.Splits = strat, splits
			label := fmt.Sprintf("%s/%d", strat, splits)
			x := testCutter(tbl, nil)
			preds, got, err := x.cutPartition(sel, false, "x", opts, nil)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			wantPreds, err := CutPredicates(tbl, sel, "x", opts)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(preds) != fmt.Sprint(wantPreds) {
				t.Fatalf("%s: cut %v, CutPredicates %v", label, preds, wantPreds)
			}
			want, err := engine.PartitionBitsOpts(tbl, "x", preds, sel, engine.ScanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for ri := range want {
				if !got[ri].Equal(want[ri]) {
					t.Errorf("%s: region %d holds %d rows, column pass %d", label, ri, got[ri].Count(), want[ri].Count())
				}
			}
		}
	}
}

// countingSource serves an in-memory Float64 column chunk by chunk and
// counts the loads of every chunk.
type countingSource struct {
	col   *storage.Float64Column
	size  int
	mu    sync.Mutex
	loads map[int]int
}

func (s *countingSource) FetchChunk(_ context.Context, _, k int) (*storage.ChunkPayload, bool, error) {
	s.mu.Lock()
	s.loads[k]++
	s.mu.Unlock()
	lo, hi := k*s.size, min((k+1)*s.size, s.col.Len())
	p := &storage.ChunkPayload{Floats: s.col.Values()[lo:hi]}
	nulls := bitvec.New(hi - lo)
	for i := lo; i < hi; i++ {
		if s.col.IsNull(i) {
			nulls.Set(i - lo)
		}
	}
	if nulls.Any() {
		_, p.Nulls = nulls.Window()
	}
	return p, false, nil
}

// testCutter is a cutter over t reading through the table provider, as
// a Cartographer built without a provider cuts.
func testCutter(t *storage.Table, cache *statCache) cutter {
	return cutter{t: t, sp: NewTableProvider(t, 1), cache: cache, ctx: context.Background()}
}

// cutOf is CUT through x's memo and provider, without the partition's
// extraction kept.
func (x *cutter) cutOf(sel *bitvec.Vector, full bool, attr string, opts CutOptions) ([]query.Predicate, error) {
	preds, _, err := x.cutPartition(sel, full, attr, opts, nil)
	return preds, err
}

func (s *countingSource) PrefetchChunks(context.Context, int, []int) {}

// TestCandidateCutLoadsEachChunkOnce: exploring a sub-selection of a
// one-column lazy table — one candidate cut, nothing to merge — loads
// every chunk holding a selected row exactly once, and no other chunk:
// the partition comes from the values the cut extracted, not from a
// second pass over the column.
func TestCandidateCutLoadsEachChunkOnce(t *testing.T) {
	const n, size = 16 * 256, 256
	mem := nanColumnTable(n, 5)
	ck, err := storage.ComputeChunking(mem, size)
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{col: mem.Column(0).(*storage.Float64Column), size: size, loads: map[int]int{}}
	lazy, err := storage.NewLazyColumn(storage.LazyColumnConfig{Source: src, Type: storage.Float64,
		Rows: n, ChunkSize: size, NullCount: mem.Column(0).NullCount()})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := storage.NewChunkedTable("t", mem.Schema(), []storage.Column{lazy}, ck)
	if err != nil {
		t.Fatal(err)
	}
	touched := []int{1, 2, 5, 11}
	sel := bitvec.New(n)
	for _, k := range touched {
		for r := k * size; r < (k+1)*size; r += 3 {
			sel.Set(r)
		}
	}
	opts := DefaultOptions()
	opts.Screen, opts.Parallelism = false, 1
	cart, err := NewCartographer(tbl, opts)
	if err != nil {
		t.Fatal(err)
	}
	led := new(obsv.Ledger)
	res, err := cart.ExploreSelCtx(obsv.WithLedger(context.Background(), led), query.New("t"), sel)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 1 {
		t.Fatalf("%d candidates, want 1", len(res.Candidates))
	}
	for k := 0; k < n/size; k++ {
		want := 0
		for _, tk := range touched {
			if tk == k {
				want = 1
			}
		}
		if got := src.loads[k]; got != want {
			t.Errorf("chunk %d loaded %d times, want %d", k, got, want)
		}
	}
	if got, want := led.Snapshot().ChunksDecoded, int64(len(touched)); got != want {
		t.Errorf("the ledger bills %d chunk decodes, want %d", got, want)
	}
}
