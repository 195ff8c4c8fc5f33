package obsv

import (
	"context"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestNilSpanIsSafe(t *testing.T) {
	ctx, sp := StartSpan(context.Background(), "noop")
	if sp != nil {
		t.Fatalf("untraced context produced a span")
	}
	if SpanFrom(ctx) != nil {
		t.Fatalf("untraced context carries a span")
	}
	// Every method must be a no-op on nil.
	sp.SetAttr("k", 1)
	sp.End()
	sp.Graft(&SpanJSON{Name: "x"})
	if got := sp.NewChild("c"); got != nil {
		t.Fatalf("nil span spawned a child")
	}
	if sp.TraceHeaderValue() != "" {
		t.Fatalf("nil span has a trace header")
	}
}

func TestSpanTreeWellFormed(t *testing.T) {
	tr, root := NewTrace("explore")
	ctx := WithSpan(context.Background(), root)
	ctx, phase := StartSpan(ctx, "cut")
	_, leaf := StartSpan(ctx, "cut age")
	time.Sleep(time.Millisecond)
	leaf.SetAttr("attr", "age")
	leaf.End()
	phase.End()
	root.End()

	tree := tr.Tree()
	if tree.Name != "explore" || len(tree.Children) != 1 || tree.Children[0].Name != "cut" {
		t.Fatalf("unexpected tree shape: %+v", tree)
	}
	assertWellFormed(t, tree)
	if got := tree.Children[0].Children[0].Attrs["attr"]; got != "age" {
		t.Fatalf("attr lost: %v", got)
	}
}

// assertWellFormed checks the satellite-3 invariants: positive
// durations, parents covering children. Remote (grafted) subtrees are
// rebased at graft time, so the same containment must hold.
func assertWellFormed(t *testing.T, sp *SpanJSON) {
	t.Helper()
	if sp.DurNs <= 0 {
		t.Fatalf("span %q has non-positive duration %d", sp.Name, sp.DurNs)
	}
	if sp.StartNs < 0 {
		t.Fatalf("span %q starts before the trace anchor", sp.Name)
	}
	for _, c := range sp.Children {
		if c.StartNs < sp.StartNs || c.StartNs+c.DurNs > sp.StartNs+sp.DurNs {
			t.Fatalf("child %q [%d,%d] escapes parent %q [%d,%d]",
				c.Name, c.StartNs, c.StartNs+c.DurNs, sp.Name, sp.StartNs, sp.StartNs+sp.DurNs)
		}
		assertWellFormed(t, c)
	}
}

func TestZeroDurationClamped(t *testing.T) {
	tr, root := NewTrace("r")
	c := root.NewChild("instant")
	c.End() // likely sub-nanosecond
	root.End()
	tree := tr.Tree()
	assertWellFormed(t, tree)
}

func TestGraftContainment(t *testing.T) {
	tr, root := NewTrace("r")
	rpc := root.NewChild("rpc values")
	time.Sleep(2 * time.Millisecond)
	// A remote subtree with server-local offsets.
	remote := &SpanJSON{
		Name: "shard values", StartNs: 5_000_000, DurNs: 1_000_000,
		Children: []*SpanJSON{{Name: "statcompute", StartNs: 5_100_000, DurNs: 500_000}},
	}
	rpc.Graft(remote)
	rpc.End()
	root.End()
	tree := tr.Tree()
	assertWellFormed(t, tree)
	g := tree.Children[0].Children[0]
	if !g.Remote || g.Name != "shard values" {
		t.Fatalf("graft lost: %+v", g)
	}
	if len(g.Children) != 1 || g.Children[0].StartNs-g.StartNs != 100_000 {
		t.Fatalf("graft did not preserve relative offsets: %+v", g.Children)
	}
}

func TestTraceHeaderRoundTrip(t *testing.T) {
	tr, root := NewTrace("r")
	h := root.TraceHeaderValue()
	id, parent, ok := ParseTraceHeader(h)
	if !ok || id != tr.ID() || parent != 1 {
		t.Fatalf("round trip failed: %q -> (%q, %d, %v)", h, id, parent, ok)
	}
	for _, bad := range []string{"", "noslash", "/5", "t-x/"} {
		if _, _, ok := ParseTraceHeader(bad); ok {
			t.Fatalf("accepted bad header %q", bad)
		}
	}
}

func TestSpanTreeCodec(t *testing.T) {
	in := &SpanJSON{Name: "a", StartNs: 1, DurNs: 2, Attrs: map[string]any{"k": "v"},
		Children: []*SpanJSON{{Name: "b", StartNs: 1, DurNs: 1}}}
	enc, err := EncodeSpanTree(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeSpanTree(enc)
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != "a" || len(out.Children) != 1 || out.Children[0].Name != "b" {
		t.Fatalf("round trip mangled tree: %+v", out)
	}
	if _, err := DecodeSpanTree("!!!"); err == nil {
		t.Fatalf("decoded garbage")
	}
}

func TestRequestIDs(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b || !strings.HasPrefix(a, "q-") {
		t.Fatalf("bad request ids %q %q", a, b)
	}
	ctx := WithRequestID(context.Background(), a)
	if got := RequestIDFrom(ctx); got != a {
		t.Fatalf("rid lost: %q", got)
	}
	if RequestIDFrom(context.Background()) != "" {
		t.Fatalf("phantom rid")
	}
}

// Prometheus text-format line shapes (exposition format 0.0.4).
var (
	helpRe   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$`)
	typeRe   = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$`)
	sampleRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+$`)
)

// checkPrometheusText asserts every line of a text exposition parses,
// and returns the sample count. Shared with the server-side tests.
func checkPrometheusText(t *testing.T, text string) int {
	t.Helper()
	samples := 0
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case helpRe.MatchString(line), typeRe.MatchString(line):
		case sampleRe.MatchString(line):
			samples++
			val := line[strings.LastIndexByte(line, ' ')+1:]
			if _, err := strconv.ParseFloat(val, 64); err != nil && val != "+Inf" && val != "-Inf" && val != "NaN" {
				t.Fatalf("unparseable sample value in %q", line)
			}
		default:
			t.Fatalf("line does not parse as Prometheus text format: %q", line)
		}
	}
	return samples
}

func TestRegistryPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("atlas_test_total", "test counter", nil)
	c.Add(3)
	r.GaugeFunc("atlas_test_gauge", "test gauge", map[string]string{"layer": "engine"}, func() float64 { return -2 })
	r.CounterFunc("atlas_test_fn_total", "sampled", nil, func() float64 { return 7 })
	h := r.NewHistogram("atlas_test_seconds", "latency", nil, []float64{0.01, 0.1, 1})
	h.Observe(0.004)
	h.Observe(0.05)
	h.Observe(99)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	samples := checkPrometheusText(t, text)
	if samples < 9 { // 3 scalars + 4 buckets + sum + count
		t.Fatalf("only %d samples in:\n%s", samples, text)
	}
	for _, want := range []string{
		"atlas_test_total 3",
		`atlas_test_gauge{layer="engine"} -2`,
		"atlas_test_fn_total 7",
		`atlas_test_seconds_bucket{le="+Inf"} 3`,
		"atlas_test_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in:\n%s", want, text)
		}
	}
	// Buckets must be cumulative: le=0.1 holds both small observations.
	if !strings.Contains(text, `atlas_test_seconds_bucket{le="0.1"} 2`) {
		t.Fatalf("buckets not cumulative:\n%s", text)
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.NewCounter("dup_total", "d", nil)
	a.Inc()
	b := r.NewCounter("dup_total", "d", nil)
	if a != b {
		t.Fatalf("re-registration returned a new counter")
	}
	if r.NumMetrics() != 1 {
		t.Fatalf("duplicate series registered")
	}
	h1 := r.NewHistogram("dup_seconds", "d", nil, nil)
	h2 := r.NewHistogram("dup_seconds", "d", nil, nil)
	if h1 != h2 {
		t.Fatalf("re-registration returned a new histogram")
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("q_seconds", "q", nil, []float64{0.1, 0.2, 0.4, 0.8})
	for i := 0; i < 100; i++ {
		h.Observe(0.15) // all in the (0.1, 0.2] bucket
	}
	p50 := h.Quantile(0.5)
	if p50 < 0.1 || p50 > 0.2 {
		t.Fatalf("p50 %v outside containing bucket", p50)
	}
	if h.Quantile(0.99) > 0.2 {
		t.Fatalf("p99 escaped the only occupied bucket")
	}
}

func TestConcurrentSpansAndMetrics(t *testing.T) {
	tr, root := NewTrace("r")
	reg := NewRegistry()
	c := reg.NewCounter("conc_total", "c", nil)
	h := reg.NewHistogram("conc_seconds", "c", nil, nil)
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func(i int) {
			defer close2(done)
			sp := root.NewChild("worker")
			sp.SetAttr("i", i)
			c.Inc()
			h.Observe(0.001)
			sp.End()
		}(i)
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	root.End()
	assertWellFormed(t, tr.Tree())
	if c.Value() != 8 || h.Count() != 8 {
		t.Fatalf("lost updates: %d %d", c.Value(), h.Count())
	}
}

func close2(ch chan struct{}) { ch <- struct{}{} }
