// Package obsv is the observability seam of the repository: per-Explore
// span traces threaded through context.Context, a dependency-free
// metrics registry exported in Prometheus text format, and the request
// IDs that make a failed fan-out greppable across coordinator and
// shard-server logs.
//
// Tracing is strictly pay-for-use: when no trace rides the context,
// StartSpan returns a nil *Span whose every method is a no-op, so
// instrumented code paths cost one context lookup and a nil check.
//
// # Span trees
//
// A Trace anchors one exploration: a wall-clock start instant, a trace
// ID, and a root span. Spans record a name, a start offset from the
// trace anchor, a duration, free-form attributes and child spans. All
// offsets and durations come from the same monotonic clock reading
// (time.Since of the anchor), so within one process a parent always
// covers its children exactly.
//
// Remote subtrees — a shard server's spans returned in the
// X-Atlas-Spans response header — are grafted into the client's RPC
// span with Graft: the server-side offsets are rebased so the subtree
// sits centered inside the RPC span (the symmetric-skew estimate; the
// gap on either side is network plus envelope time). Grafted roots are
// marked Remote.
package obsv

import (
	"context"
	"crypto/rand"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Trace anchors one traced operation: an ID, a start instant and a
// root span. Safe for concurrent use by the goroutines of one
// exploration.
type Trace struct {
	id    string
	start time.Time
	ids   atomic.Int64
	root  *Span
}

// Span is one timed phase of a trace. The zero value is not used; nil
// *Span is the disabled span — every method is nil-safe.
type Span struct {
	tr   *Trace
	id   int64
	name string

	begin time.Time
	off   time.Duration // begin - trace start

	mu       sync.Mutex
	dur      time.Duration // 0 until End
	attrs    map[string]any
	children []*Span
	grafts   []*SpanJSON
}

// NewTrace starts a trace with a fresh ID and a root span of the given
// name. End the root span before calling Tree.
func NewTrace(rootName string) (*Trace, *Span) {
	return newTraceID(newID("t"), rootName)
}

// NewTraceWithID starts a trace under a caller-supplied ID — the
// server side of trace propagation, adopting the coordinator's ID.
func NewTraceWithID(id, rootName string) (*Trace, *Span) {
	return newTraceID(id, rootName)
}

func newTraceID(id, rootName string) (*Trace, *Span) {
	tr := &Trace{id: id, start: time.Now()}
	sp := &Span{tr: tr, id: tr.ids.Add(1), name: rootName, begin: tr.start}
	tr.root = sp
	return tr, sp
}

// ID returns the trace ID.
func (t *Trace) ID() string { return t.id }

// Tree snapshots the whole span tree. Call after the root span ended;
// spans still running are reported with their duration so far.
func (t *Trace) Tree() *SpanJSON { return t.root.snapshot() }

type ctxKey int

const (
	spanCtxKey ctxKey = iota
	ridCtxKey
	ledgerCtxKey
)

// WithSpan returns a context carrying sp as the current span.
func WithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey, sp)
}

// SpanFrom returns the current span of ctx, or nil when the context is
// untraced (or nil).
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanCtxKey).(*Span)
	return sp
}

// StartSpan opens a child of the context's current span and returns a
// context carrying it. Untraced contexts return (ctx, nil) — and a nil
// span's methods are all no-ops — so instrumentation is free when
// disabled.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFrom(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.NewChild(name)
	return context.WithValue(ctx, spanCtxKey, sp), sp
}

// NewChild opens a child span. Used directly (instead of StartSpan)
// when the child does not become the context's current span — e.g.
// per-attempt spans inside one RPC.
func (s *Span) NewChild(name string) *Span {
	if s == nil {
		return nil
	}
	now := time.Now()
	c := &Span{tr: s.tr, id: s.tr.ids.Add(1), name: name, begin: now, off: now.Sub(s.tr.start)}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// SetAttr records a key/value attribute on the span.
func (s *Span) SetAttr(key string, v any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = v
	s.mu.Unlock()
}

// End closes the span. The duration is clamped to at least 1ns and
// extended to cover every ended child, so a finished tree is always
// well-formed: positive durations, parents covering children.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.begin)
	if d <= 0 {
		d = time.Nanosecond
	}
	s.mu.Lock()
	if s.dur == 0 {
		for _, c := range s.children {
			c.mu.Lock()
			cend := c.off + c.dur
			c.mu.Unlock()
			if cend > s.off+d {
				d = cend - s.off
			}
		}
		s.dur = d
	}
	s.mu.Unlock()
}

// Graft attaches a remote span subtree (a shard server's, decoded from
// the X-Atlas-Spans header) under this span. Offsets are rebased so
// the subtree sits centered within this span's elapsed time — the
// symmetric network-skew estimate — which keeps the finished tree
// well-formed without comparing clocks across machines.
func (s *Span) Graft(remote *SpanJSON) {
	if s == nil || remote == nil {
		return
	}
	elapsed := time.Since(s.begin).Nanoseconds()
	if remote.DurNs > elapsed {
		elapsed = remote.DurNs // clock jitter; degrade to zero skew
	}
	delta := s.off.Nanoseconds() + (elapsed-remote.DurNs)/2 - remote.StartNs
	shiftSpan(remote, delta)
	remote.Remote = true
	s.mu.Lock()
	s.grafts = append(s.grafts, remote)
	s.mu.Unlock()
}

func shiftSpan(sp *SpanJSON, delta int64) {
	sp.StartNs += delta
	for _, c := range sp.Children {
		shiftSpan(c, delta)
	}
}

// TraceHeaderValue renders the span's wire context for the
// X-Atlas-Trace request header: "traceID/spanID".
func (s *Span) TraceHeaderValue() string {
	if s == nil {
		return ""
	}
	return s.tr.id + "/" + strconv.FormatInt(s.id, 10)
}

// ParseTraceHeader splits an X-Atlas-Trace value into its trace ID and
// parent span ID.
func ParseTraceHeader(v string) (traceID string, parentID int64, ok bool) {
	i := strings.LastIndexByte(v, '/')
	if i <= 0 {
		return "", 0, false
	}
	id, err := strconv.ParseInt(v[i+1:], 10, 64)
	if err != nil {
		return "", 0, false
	}
	return v[:i], id, true
}

// SpanJSON is the serialized form of a span tree: offsets and
// durations in nanoseconds relative to the trace anchor.
type SpanJSON struct {
	ID       int64          `json:"id,omitempty"`
	Name     string         `json:"name"`
	StartNs  int64          `json:"startNs"`
	DurNs    int64          `json:"durNs"`
	Remote   bool           `json:"remote,omitempty"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []*SpanJSON    `json:"children,omitempty"`
}

func (s *Span) snapshot() *SpanJSON {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := &SpanJSON{ID: s.id, Name: s.name, StartNs: s.off.Nanoseconds(), DurNs: s.dur.Nanoseconds()}
	if s.dur == 0 {
		out.DurNs = time.Since(s.begin).Nanoseconds()
	}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]any, len(s.attrs))
		for k, v := range s.attrs {
			out.Attrs[k] = v
		}
	}
	kids := append([]*Span(nil), s.children...)
	grafts := append([]*SpanJSON(nil), s.grafts...)
	s.mu.Unlock()
	for _, c := range kids {
		out.Children = append(out.Children, c.snapshot())
	}
	out.Children = append(out.Children, grafts...)
	return out
}

// EncodeSpanTree packs a span tree for the X-Atlas-Spans response
// header: base64 over compact JSON.
func EncodeSpanTree(sp *SpanJSON) (string, error) {
	b, err := json.Marshal(sp)
	if err != nil {
		return "", err
	}
	return base64.StdEncoding.EncodeToString(b), nil
}

// DecodeSpanTree unpacks an X-Atlas-Spans header value.
func DecodeSpanTree(s string) (*SpanJSON, error) {
	b, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("obsv: bad span encoding: %w", err)
	}
	var sp SpanJSON
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("obsv: bad span tree: %w", err)
	}
	return &sp, nil
}

// NewRequestID generates a short random request ID ("q-xxxxxxxxxxxx").
func NewRequestID() string { return newID("q") }

var idFallback atomic.Uint64

func newID(prefix string) string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy exhaustion is effectively unreachable; degrade to a
		// process-local counter rather than failing a query over an ID.
		binary.BigEndian.PutUint32(b[2:], uint32(idFallback.Add(1)))
	}
	return prefix + "-" + fmt.Sprintf("%x", b[:])
}

// WithRequestID returns a context carrying the request ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ridCtxKey, id)
}

// RequestIDFrom returns the context's request ID, or "".
func RequestIDFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(ridCtxKey).(string)
	return id
}
