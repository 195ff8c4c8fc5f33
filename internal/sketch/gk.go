// Package sketch implements the one-pass streaming summary the paper's
// Section 5.1 proposes for accelerating the CUT primitive: a
// Greenwald–Khanna quantile sketch (approximate medians in one pass).
package sketch

import (
	"fmt"
	"math"
	"sort"
)

// GK is a Greenwald–Khanna ε-approximate quantile sketch. After observing
// n values, Quantile(q) returns a value whose rank differs from ⌈q·n⌉ by
// at most ε·n.
type GK struct {
	eps     float64
	n       int
	entries []gkEntry // ascending by value
	buf     []float64 // insertion buffer, flushed in batches
}

type gkEntry struct {
	v     float64
	g     int // rmin(i) - rmin(i-1)
	delta int // rmax(i) - rmin(i)
}

// NewGK creates a sketch with error bound eps in (0, 1).
func NewGK(eps float64) (*GK, error) {
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("sketch: GK epsilon must be in (0,1), got %g", eps)
	}
	return &GK{eps: eps}, nil
}

// MustGK is NewGK that panics on error.
func MustGK(eps float64) *GK {
	s, err := NewGK(eps)
	if err != nil {
		panic(err)
	}
	return s
}

// Count returns the number of values observed.
func (s *GK) Count() int { return s.n + len(s.buf) }

// Epsilon returns the configured error bound.
func (s *GK) Epsilon() float64 { return s.eps }

// Size returns the number of stored tuples (the sketch's footprint).
func (s *GK) Size() int {
	s.flush()
	return len(s.entries)
}

// Add observes one value.
func (s *GK) Add(v float64) {
	s.buf = append(s.buf, v)
	if len(s.buf) >= s.batchSize() {
		s.flush()
	}
}

// AddAll observes a slice of values.
func (s *GK) AddAll(vals []float64) {
	for _, v := range vals {
		s.Add(v)
	}
}

func (s *GK) batchSize() int {
	b := int(1.0 / (2.0 * s.eps))
	if b < 16 {
		b = 16
	}
	return b
}

func (s *GK) flush() {
	if len(s.buf) == 0 {
		return
	}
	sort.Float64s(s.buf)
	for _, v := range s.buf {
		s.insertSorted(v)
	}
	s.buf = s.buf[:0]
	s.compress()
}

func (s *GK) insertSorted(v float64) {
	s.n++
	idx := sort.Search(len(s.entries), func(i int) bool { return s.entries[i].v >= v })
	var delta int
	if idx == 0 || idx == len(s.entries) {
		delta = 0
	} else {
		delta = int(math.Floor(2*s.eps*float64(s.n))) - 1
		if delta < 0 {
			delta = 0
		}
	}
	e := gkEntry{v: v, g: 1, delta: delta}
	s.entries = append(s.entries, gkEntry{})
	copy(s.entries[idx+1:], s.entries[idx:])
	s.entries[idx] = e
}

func (s *GK) compress() {
	if len(s.entries) < 3 {
		return
	}
	threshold := int(math.Floor(2 * s.eps * float64(s.n)))
	out := s.entries[:0]
	out = append(out, s.entries[0])
	for i := 1; i < len(s.entries); i++ {
		e := s.entries[i]
		last := &out[len(out)-1]
		// merge last into e when their combined span stays within budget
		// (never merge into the final entry's position prematurely: the
		// standard algorithm scans right-to-left; scanning left-to-right
		// and folding the previous tuple forward is equivalent here).
		if len(out) > 1 && i < len(s.entries) && last.g+e.g+e.delta <= threshold {
			e.g += last.g
			out = out[:len(out)-1]
		}
		out = append(out, e)
	}
	s.entries = out
}

// Finalize flushes the insertion buffer so that subsequent Quantile
// calls mutate nothing, making the sketch safe to share read-only across
// goroutines.
func (s *GK) Finalize() { s.flush() }

// Quantile returns an ε-approximate q-quantile (q clamped to [0,1]).
// Returns NaN if no values were observed.
func (s *GK) Quantile(q float64) float64 {
	s.flush()
	if s.n == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int(math.Ceil(q * float64(s.n)))
	if rank < 1 {
		rank = 1
	}
	margin := int(math.Ceil(s.eps * float64(s.n)))
	rmin := 0
	for i, e := range s.entries {
		rmin += e.g
		rmax := rmin + e.delta
		if rank-rmin <= margin && rmax-rank <= margin {
			return e.v
		}
		_ = i
	}
	return s.entries[len(s.entries)-1].v
}

// Median returns an ε-approximate median.
func (s *GK) Median() float64 { return s.Quantile(0.5) }

// GKEntry is one exported tuple of a GK sketch: a value with its rank
// uncertainty bounds, the unit of the sketch's wire serialization
// (remote shards ship their per-column sketches to a coordinator that
// rebuilds and merges them).
type GKEntry struct {
	// V is the observed value.
	V float64
	// G is rmin(i) − rmin(i−1); Delta is rmax(i) − rmin(i).
	G, Delta int
}

// Export flushes the sketch and returns its observation count and entry
// list — everything GKFromEntries needs to reconstruct an equivalent
// sketch on the other side of a wire.
func (s *GK) Export() (n int, entries []GKEntry) {
	s.flush()
	entries = make([]GKEntry, len(s.entries))
	for i, e := range s.entries {
		entries[i] = GKEntry{V: e.v, G: e.g, Delta: e.delta}
	}
	return s.n, entries
}

// GKFromEntries reconstructs a sketch from an exported entry list.
// Entries must be ascending by value (as Export produces); the rebuilt
// sketch answers Quantile and Merge exactly as the original.
func GKFromEntries(eps float64, n int, entries []GKEntry) (*GK, error) {
	s, err := NewGK(eps)
	if err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("sketch: negative observation count %d", n)
	}
	g := 0
	s.entries = make([]gkEntry, len(entries))
	for i, e := range entries {
		if i > 0 && e.V < entries[i-1].V {
			return nil, fmt.Errorf("sketch: entries out of order at %d", i)
		}
		if e.G < 0 || e.Delta < 0 {
			return nil, fmt.Errorf("sketch: negative rank bounds at entry %d", i)
		}
		g += e.G
		s.entries[i] = gkEntry{v: e.V, g: e.G, delta: e.Delta}
	}
	if g > n {
		return nil, fmt.Errorf("sketch: entry gaps sum to %d for %d observations", g, n)
	}
	s.n = n
	return s, nil
}

// Merge folds another sketch into s — the reduction step of distributed
// quantile summaries: each shard sketches its own value stream and the
// coordinator merges the partials. Entry lists are merge-sorted by value
// with gap counts preserved; each entry's rank uncertainty widens by the
// other sketch's error budget, so the merged sketch answers quantiles
// within ε_s·n_s + ε_o·n_o of the exact rank. It does not reproduce the
// sketch a single pass over the concatenated stream would build — callers
// that need bit-identical single-stream sketches must replay the streams
// in order instead.
func (s *GK) Merge(o *GK) {
	s.flush()
	o.flush()
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		s.n = o.n
		s.entries = append(s.entries[:0], o.entries...)
		return
	}
	sPad := int(math.Floor(2 * s.eps * float64(s.n)))
	oPad := int(math.Floor(2 * o.eps * float64(o.n)))
	merged := make([]gkEntry, 0, len(s.entries)+len(o.entries))
	i, j := 0, 0
	for i < len(s.entries) || j < len(o.entries) {
		var e gkEntry
		if j >= len(o.entries) || (i < len(s.entries) && s.entries[i].v <= o.entries[j].v) {
			e = s.entries[i]
			e.delta += oPad
			i++
		} else {
			e = o.entries[j]
			e.delta += sPad
			j++
		}
		merged = append(merged, e)
	}
	// Endpoints must stay exact (delta 0) so min/max queries are precise.
	merged[0].delta = 0
	merged[len(merged)-1].delta = 0
	s.entries = merged
	s.n += o.n
	s.compress()
}
