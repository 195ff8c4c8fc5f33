package obsv

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// ---- Histogram.Quantile edge cases ----

func TestHistogramQuantileEmpty(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("empty_seconds", "e", nil, []float64{0.1, 0.2})
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if v := h.Quantile(q); v != 0 {
			t.Errorf("empty histogram Quantile(%v) = %v, want 0", q, v)
		}
	}
	var nilH *Histogram
	if v := nilH.Quantile(0.5); v != 0 {
		t.Errorf("nil histogram Quantile = %v, want 0", v)
	}
}

func TestHistogramQuantileSingleBucket(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("single_seconds", "s", nil, []float64{1.0})
	h.Observe(0.5)
	if v := h.Quantile(0.5); v < 0 || v > 1.0 {
		t.Errorf("single-bucket p50 %v outside [0, 1]", v)
	}
	if v := h.Quantile(1.0); v > 1.0 {
		t.Errorf("single-bucket p100 %v above the only bound", v)
	}
}

func TestHistogramQuantileOverflowBucket(t *testing.T) {
	r := NewRegistry()
	bounds := []float64{0.1, 0.2, 0.4}
	h := r.NewHistogram("overflow_seconds", "o", nil, bounds)
	for i := 0; i < 10; i++ {
		h.Observe(99) // all land in the implicit +Inf bucket
	}
	// The estimate cannot invent values above the last finite bound.
	if v := h.Quantile(0.99); v != bounds[len(bounds)-1] {
		t.Errorf("overflow-only p99 = %v, want last finite bound %v", v, bounds[len(bounds)-1])
	}
	// Mixed: half in a finite bucket, half overflowed — p25 stays finite.
	for i := 0; i < 10; i++ {
		h.Observe(0.15)
	}
	if v := h.Quantile(0.25); v < 0.1 || v > 0.2 {
		t.Errorf("mixed p25 = %v, want within (0.1, 0.2]", v)
	}
}

// ---- query log ring ----

func TestQueryLogNewestFirst(t *testing.T) {
	q := NewQueryLog(4)
	for i := 0; i < 6; i++ { // wraps: only the last 4 survive
		q.Add(&QueryLogEntry{Op: "explore", Input: fmt.Sprintf("q%d", i)})
	}
	if q.Total() != 6 {
		t.Fatalf("Total = %d, want 6", q.Total())
	}
	if q.Depth() != 4 {
		t.Fatalf("Depth = %d, want 4", q.Depth())
	}
	got := q.Entries()
	if len(got) != 4 {
		t.Fatalf("Entries len = %d, want 4", len(got))
	}
	for i, e := range got {
		want := fmt.Sprintf("q%d", 5-i)
		if e.Input != want {
			t.Errorf("entry %d = %q, want %q (newest first)", i, e.Input, want)
		}
	}
}

func TestQueryLogConcurrent(t *testing.T) {
	const writers, perWriter = 8, 200
	q := NewQueryLog(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers snapshot while writers churn the ring.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				es := q.Entries()
				for i := 1; i < len(es); i++ {
					if es[i-1].Seq <= es[i].Seq {
						t.Errorf("entries out of order: seq %d then %d", es[i-1].Seq, es[i].Seq)
						return
					}
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				q.Add(&QueryLogEntry{Op: "explore", Input: fmt.Sprintf("w%d-%d", w, i)})
			}
		}(w)
	}
	for q.Total() < writers*perWriter {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if q.Total() != writers*perWriter {
		t.Fatalf("Total = %d, want %d", q.Total(), writers*perWriter)
	}
	if q.Depth() != 64 {
		t.Fatalf("Depth = %d, want 64", q.Depth())
	}
}

// ---- ledger ----

func TestNilLedgerIsSafe(t *testing.T) {
	var l *Ledger
	if l.Scan() != nil {
		t.Fatal("nil ledger has a scan plane")
	}
	l.Scan().BillScanned()
	l.Scan().BillPruned()
	l.Scan().BillFull()
	l.Scan().BillFetch(true)
	l.Scan().BillFetch(false)
	if s := l.Scan().Snapshot(); s != (ScanSnapshot{}) {
		t.Fatalf("nil scan plane snapshot moved: %+v", s)
	}
	l.ReadBytes(10)
	l.StoreChunkDecoded()
	l.RPC()
	l.WireBytes(10)
	l.Finish()
	l.Add(LedgerSnapshot{BytesRead: 5})
	if s := l.Snapshot(); s.BytesRead != 0 {
		t.Fatalf("nil ledger snapshot moved: %+v", s)
	}
	if LedgerFrom(nil) != nil {
		t.Fatal("LedgerFrom(nil) != nil")
	}
	if LedgerFrom(context.Background()) != nil {
		t.Fatal("unledgered context returned a ledger")
	}
}

func TestLedgerRoundTrip(t *testing.T) {
	l := NewLedger()
	ctx := WithLedger(context.Background(), l)
	got := LedgerFrom(ctx)
	if got != l {
		t.Fatal("context did not carry the ledger")
	}
	// Values survive WithoutCancel — the async-prefetch path.
	if LedgerFrom(context.WithoutCancel(ctx)) != l {
		t.Fatal("ledger lost across WithoutCancel")
	}
	got.Scan().BillScanned()
	got.Scan().BillPruned()
	got.Scan().BillFetch(false)
	got.Scan().BillFetch(true)
	got.ReadBytes(128)
	got.StoreChunkDecoded()
	got.RPC()
	got.WireBytes(64)
	got.Finish()
	s := l.Snapshot()
	if s.ChunksScanned != 1 || s.ChunksPruned != 1 || s.ChunksDecoded != 1 || s.ChunkCacheHits != 1 {
		t.Fatalf("scan plane: %+v", s)
	}
	if s.BytesRead != 128 || s.StoreChunksDecoded != 1 || s.RPCs != 1 || s.BytesWire != 64 {
		t.Fatalf("store/fabric plane: %+v", s)
	}
	if s.Phases != nil {
		t.Fatalf("a ledger keeps no phases: %+v", s.Phases)
	}
	var totals Ledger
	totals.Add(s)
	totals.Add(s)
	if ts := totals.Snapshot(); ts.BytesRead != 256 || ts.ChunksScanned != 2 {
		t.Fatalf("totals: %+v", ts)
	}
}

// TestPhasesOfSpanTree: a query's phases are its root's direct children
// but the skipped ones, timed by their spans and sorted by name; deeper
// spans are not phases.
func TestPhasesOfSpanTree(t *testing.T) {
	tr, root := NewTrace("explore")
	for _, name := range []string{"screen", "base", "cut"} {
		sp := root.NewChild(name)
		sp.NewChild("cut age").End()
		sp.End()
	}
	root.End()
	tree := tr.Tree()
	got := PhasesOf(tree, "base")
	if len(got) != 2 || got[0].Name != "cut" || got[1].Name != "screen" {
		t.Fatalf("phases = %+v, want cut and screen", got)
	}
	for _, p := range got {
		for _, c := range tree.Children {
			if c.Name == p.Name && c.DurNs != p.WallNs {
				t.Errorf("%s: wallNs %d, span durNs %d", p.Name, p.WallNs, c.DurNs)
			}
		}
	}
	if PhasesOf(nil, "base") != nil {
		t.Fatal("a nil tree has phases")
	}
}

// ---- Perfetto export ----

func TestPerfettoTrace(t *testing.T) {
	tr, root := NewTrace("explore")
	base := root.NewChild("base")
	rpc := base.NewChild("rpc chunk")
	// A shard server's subtree grafted under the RPC that triggered it.
	rtr, rroot := NewTrace("shard: chunk")
	rroot.NewChild("decode").End()
	rroot.End()
	rpc.Graft(rtr.Tree())
	rpc.End()
	base.End()
	root.End()

	b, err := PerfettoTrace(tr.Tree())
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int     `json:"pid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatalf("export is not valid trace-event JSON: %v", err)
	}
	if f.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", f.DisplayTimeUnit)
	}
	pids := map[int]bool{}
	var sawRemote, sawMeta bool
	for _, ev := range f.TraceEvents {
		switch ev.Ph {
		case "X":
			pids[ev.Pid] = true
			if ev.Pid != 1 {
				sawRemote = true
			}
		case "M":
			sawMeta = true
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if !pids[1] {
		t.Error("no coordinator (pid 1) events")
	}
	if !sawRemote {
		t.Error("grafted remote subtree did not get its own process")
	}
	if !sawMeta {
		t.Error("no process_name metadata events")
	}
	if PerfettoMustParse(t, b) == 0 {
		t.Error("no events")
	}
}

// PerfettoMustParse re-parses an export and returns the event count —
// shared with the server tests asserting the HTTP surface.
func PerfettoMustParse(t *testing.T, b []byte) int {
	t.Helper()
	var f struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatalf("invalid trace-event JSON: %v", err)
	}
	return len(f.TraceEvents)
}

func TestPerfettoTraceNil(t *testing.T) {
	b, err := PerfettoTrace(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "traceEvents") {
		t.Fatalf("nil trace export: %s", b)
	}
}

// ---- Go runtime metric families ----

func TestGoRuntimeMetrics(t *testing.T) {
	r := NewRegistry()
	RegisterGoRuntime(r)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, fam := range []string{
		"go_goroutines", "go_gomaxprocs", "go_heap_alloc_bytes",
		"go_gc_cycles_total", "go_alloc_bytes_total", "go_gc_pause_seconds_bucket",
	} {
		if !strings.Contains(out, fam) {
			t.Errorf("scrape missing %s", fam)
		}
	}
}
