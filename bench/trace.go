package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented). Spans of one probe
// op share Op; Parent is the id of the span that caused this one, -1 for
// the op's root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Aux marks a span measured beside the op (a layer call replayed on
	// its own after the op's root closed). It has no parent to subtract
	// from and does not count towards the op's whole time.
	Aux bool `json:"aux,omitempty"`
}

// recorder keeps spans in memory until the run ends. The probe pass is
// single-threaded, but RPC spans arrive from the remote client's own
// goroutines, so appends are locked.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// cur is the innermost open span of the probe goroutine and curOp its
	// op: concurrent RPC spans attach to whatever the probe is doing.
	cur, curOp int
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), cur: -1, curOp: -1} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span under parent and makes it the current one.
func (r *recorder) begin(op, parent int, name string, aux bool) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Aux: aux, Start: r.now()})
	r.cur, r.curOp = id, op
	return id
}

// end closes span id and makes its parent current again.
func (r *recorder) end(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = r.now()
	r.cur = r.spans[id].Parent
}

// in times fn as a child span of parent.
func (r *recorder) in(op, parent int, name string, fn func() error) error {
	id := r.begin(op, parent, name, false)
	err := fn()
	r.end(id)
	return err
}

// async records a span that ran on another goroutine, attached to
// whatever span the probe had open when it started.
func (r *recorder) async(name string, start, end int64, parent, op int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Op: op, Name: name, Start: start, End: end})
}

// snapshot copies the spans recorded so far; RPC goroutines may still be
// appending.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// current returns the probe's innermost open span and its op.
func (r *recorder) current() (id, op int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur, r.curOp
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its (non-aux) child spans cover. Children may overlap
// each other (concurrent RPCs), so the covered part is the union of
// their intervals clipped to the parent.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && !s.Aux {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = (s.End - s.Start) - coveredNs(s, spans, kids[i])
	}
	return out
}

func coveredNs(parent span, spans []span, kids []int) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var covered, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		covered += v.hi - max(v.lo, end)
		end = v.hi
	}
	return covered
}

// spanMsPerOp sums, per op, the time in ms of every span with the given
// name: its self time, or its whole duration for an aux span (which was
// measured on its own).
func spanMsPerOp(spans []span, self []int64, name string) map[int]float64 {
	out := map[int]float64{}
	for i, s := range spans {
		switch {
		case s.Name != name:
		case s.Aux:
			out[s.Op] += float64(s.End-s.Start) / 1e6
		default:
			out[s.Op] += float64(self[i]) / 1e6
		}
	}
	return out
}

// traceFile is what <out>.trace.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Ops maps a probe op id to the CQL it ran and its class.
	Ops   []probeOpInfo `json:"ops"`
	Spans []span        `json:"spans"`
}

type probeOpInfo struct {
	Op    int    `json:"op"`
	Class string `json:"class"`
	CQL   string `json:"cql"`
}

func writeTrace(path string, tf traceFile) error {
	raw, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
