package obsv

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a process-level metric set exported in Prometheus text
// exposition format (version 0.0.4). It holds owned metrics (Counter,
// Histogram) and collector functions sampling values that
// already exist elsewhere (engine scan stats, store I/O, fabric
// traffic). No dependencies, atomics throughout.
type Registry struct {
	mu       sync.Mutex
	entries  []*metricEntry
	index    map[string]*metricEntry // name + rendered labels
	onScrape []func()
}

type metricEntry struct {
	name   string
	help   string
	typ    string // "counter", "gauge", "histogram"
	labels string // rendered `k="v",...` (no braces), "" if none
	value  func() float64
	hist   *Histogram
	owned  any // the *Counter/*Histogram handle, for idempotent re-registration
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*metricEntry)}
}

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d (d must be >= 0).
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a fixed-bucket latency/size distribution. Buckets are
// upper bounds in ascending order; observations above the last bound
// land in the implicit +Inf bucket.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // one per bound, non-cumulative
	inf     atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// DefLatencyBuckets are the default latency bounds in seconds: 1ms to
// 10s, roughly 2.5× apart.
func DefLatencyBuckets() []float64 {
	return []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) {
		h.buckets[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the q-quantile (0..1) from the bucket counts by
// linear interpolation within the containing bucket — the p50/p99
// surface of /api/stats.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	lo := 0.0
	for i, b := range h.bounds {
		n := float64(h.buckets[i].Load())
		if seen+n >= rank && n > 0 {
			frac := (rank - seen) / n
			return lo + frac*(b-lo)
		}
		seen += n
		lo = b
	}
	return lo // +Inf bucket: report the last finite bound
}

// NewCounter registers and returns a counter. Registering the same
// (name, labels) twice returns the original.
func (r *Registry) NewCounter(name, help string, labels map[string]string) *Counter {
	c := &Counter{}
	if prior, ok := r.register("counter", name, help, labels, func() float64 { return float64(c.Value()) }, nil, c).(*Counter); ok {
		return prior
	}
	return c
}

// NewHistogram registers and returns a histogram with the given upper
// bounds (ascending; nil uses DefLatencyBuckets).
func (r *Registry) NewHistogram(name, help string, labels map[string]string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefLatencyBuckets()
	}
	h := &Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds))}
	if prior, ok := r.register("histogram", name, help, labels, nil, h, h).(*Histogram); ok {
		return prior
	}
	return h
}

// CounterFunc registers a counter whose value is sampled from fn at
// scrape time — the adapter for counters owned by other layers.
func (r *Registry) CounterFunc(name, help string, labels map[string]string, fn func() float64) {
	r.register("counter", name, help, labels, fn, nil, nil)
}

// GaugeFunc registers a sampled gauge.
func (r *Registry) GaugeFunc(name, help string, labels map[string]string, fn func() float64) {
	r.register("gauge", name, help, labels, fn, nil, nil)
}

// register adds an entry, returning the prior owned metric handle when
// the same (name, labels) series is already present.
func (r *Registry) register(typ, name, help string, labels map[string]string, value func() float64, hist *Histogram, owned any) any {
	ls := renderLabels(labels)
	key := name + "{" + ls + "}"
	r.mu.Lock()
	defer r.mu.Unlock()
	if prior, ok := r.index[key]; ok {
		return prior.owned
	}
	e := &metricEntry{name: name, help: help, typ: typ, labels: ls, value: value, hist: hist, owned: owned}
	r.entries = append(r.entries, e)
	r.index[key] = e
	return nil
}

// OnScrape registers a hook run at the start of every WritePrometheus
// — the seam for samplers that refresh a shared snapshot (e.g. one
// ReadMemStats feeding several Go runtime families) or feed histograms
// from counters that only move between scrapes.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	r.onScrape = append(r.onScrape, fn)
	r.mu.Unlock()
}

// NumMetrics returns the number of registered series.
func (r *Registry) NumMetrics() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

func renderLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + `="` + escapeLabel(labels[k]) + `"`
	}
	return strings.Join(parts, ",")
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// WritePrometheus renders every metric in text exposition format,
// grouped and sorted by name (HELP and TYPE emitted once per name).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	entries := append([]*metricEntry(nil), r.entries...)
	hooks := append([]func(){}, r.onScrape...)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].name != entries[j].name {
			return entries[i].name < entries[j].name
		}
		return entries[i].labels < entries[j].labels
	})
	var prev string
	for _, e := range entries {
		if e.name != prev {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", e.name, e.help, e.name, e.typ); err != nil {
				return err
			}
			prev = e.name
		}
		if e.hist != nil {
			if err := writeHistogram(w, e); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", series(e.name, e.labels), formatValue(e.value())); err != nil {
			return err
		}
	}
	return nil
}

func writeHistogram(w io.Writer, e *metricEntry) error {
	h := e.hist
	var cum int64
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		ls := joinLabels(e.labels, `le="`+formatValue(b)+`"`)
		if _, err := fmt.Fprintf(w, "%s %d\n", series(e.name+"_bucket", ls), cum); err != nil {
			return err
		}
	}
	cum += h.inf.Load()
	if _, err := fmt.Fprintf(w, "%s %d\n", series(e.name+"_bucket", joinLabels(e.labels, `le="+Inf"`)), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s %s\n", series(e.name+"_sum", e.labels), formatValue(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", series(e.name+"_count", e.labels), h.count.Load())
	return err
}

func series(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns the GET /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
