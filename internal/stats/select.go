package stats

import (
	"math"
	"math/bits"
	"sort"
)

// quantilePos locates the q-quantile of n ≥ 1 ascending values: it is
// interpolated between the order statistics of (0-based) rank lo and hi,
// hi−lo ≤ 1, at weight frac of the upper one.
func quantilePos(n int, q float64) (lo, hi int, frac float64) {
	if q <= 0 {
		return 0, 0, 0
	}
	if q >= 1 {
		return n - 1, n - 1, 0
	}
	pos := q * float64(n-1)
	lo = int(math.Floor(pos))
	hi = int(math.Ceil(pos))
	return lo, hi, pos - float64(lo)
}

// interpolate is the quantile at weight frac between two neighbouring
// order statistics. An exact position (frac 0) returns the lower one
// untouched, so an infinite value never meets a zero weight.
func interpolate(a, b, frac float64) float64 {
	if frac == 0 {
		return a
	}
	return a*(1-frac) + b*frac
}

// SelectQuantiles returns, for every q in qs, exactly the value
// QuantileSorted(sorted vals, q) — without sorting. vals must be non-empty
// and free of NaN, lo and hi its extremes; it is only read. buf is
// scratch that is grown as needed and may be recycled across calls.
//
// The order statistics come from histogram narrowing: one counting pass
// buckets the values by the leading bits of an order-preserving integer
// key, the few buckets holding a wanted rank are gathered, and each is
// narrowed again on its own range. A level consumes at least five key
// bits and never sees more values than the one above it, so the cost is
// linear in len(vals) whatever their order or distribution — ascending,
// organ-pipe and heavily duplicated inputs included.
func SelectQuantiles(vals []float64, lo, hi float64, qs []float64, buf *[]float64) []float64 {
	out, _ := selectQuantiles(vals, lo, hi, qs, buf)
	return out
}

// selectQuantiles also reports the number of element visits it made, the
// quantity the linear bound is stated (and tested) in.
func selectQuantiles(vals []float64, lo, hi float64, qs []float64, buf *[]float64) ([]float64, int) {
	ranks := make([]int, 0, 2*len(qs))
	for _, q := range qs {
		r0, r1, _ := quantilePos(len(vals), q)
		ranks = append(ranks, r0, r1)
	}
	sort.Ints(ranks)
	uniq := ranks[:0]
	for i, r := range ranks {
		if i == 0 || r != uniq[len(uniq)-1] {
			uniq = append(uniq, r)
		}
	}
	ranks = uniq
	at := make([]float64, len(ranks))
	s := selector{buf: buf}
	s.narrow(vals, nil, floatKey(lo), floatKey(hi), append([]int(nil), ranks...), at)

	out := make([]float64, len(qs))
	for i, q := range qs {
		r0, r1, frac := quantilePos(len(vals), q)
		out[i] = interpolate(at[sort.SearchInts(ranks, r0)], at[sort.SearchInts(ranks, r1)], frac)
	}
	return out, s.visits
}

const (
	// selectBucketBits caps a level at 2048 buckets: the counters stay in
	// the L1 cache and a typical column is down to a few hundred
	// candidates after one pass.
	selectBucketBits = 11
	// selectSmall is the candidate count at or below which a level
	// insertion-sorts instead of bucketing.
	selectSmall = 32
)

// floatKey maps a non-NaN float64 to an integer with the same order.
// Adding zero first folds −0 into +0, which compare equal as floats.
func floatKey(v float64) uint64 {
	b := math.Float64bits(v + 0)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

type selector struct {
	buf    *[]float64
	visits int
}

// scratch returns n floats of the caller's buffer, growing it if needed.
func (s *selector) scratch(n int) []float64 {
	if cap(*s.buf) < n {
		*s.buf = make([]float64, n)
	}
	return (*s.buf)[:n]
}

// narrow writes the ranks[j]-th smallest value of src (0-based, ranks
// ascending and distinct) into out[j]. kLo and kHi are the keys of src's
// extremes. src is read before anything is written; spare, when non-nil,
// is scratch at least as long as src that may alias nothing still needed.
// Below the first level the two swap roles, so the recursion allocates
// nothing: a level gathers into spare, and its children use the then-dead
// src as theirs. ranks is clobbered.
func (s *selector) narrow(src, spare []float64, kLo, kHi uint64, ranks []int, out []float64) {
	n := len(src)
	s.visits += n
	if kLo == kHi {
		for j := range out {
			out[j] = src[0]
		}
		return
	}
	if n <= selectSmall {
		if spare == nil {
			spare = s.scratch(n)
		}
		tmp := spare[:n]
		copy(tmp, src)
		for i := 1; i < n; i++ {
			for j := i; j > 0 && tmp[j] < tmp[j-1]; j-- {
				tmp[j], tmp[j-1] = tmp[j-1], tmp[j]
			}
		}
		for j, r := range ranks {
			out[j] = tmp[r]
		}
		return
	}

	span := kHi - kLo
	shift := uint(0)
	if b := min(selectBucketBits, bits.Len(uint(n))); bits.Len64(span) > b {
		shift = uint(bits.Len64(span) - b)
	}
	nb := int(span>>shift) + 1
	// counts[b] is bucket b's population, then — once the wanted buckets
	// are known — the position its next candidate is gathered to; the
	// buckets nobody wants share one dump slot past the candidates, which
	// keeps the gather loop free of a data-dependent branch.
	var counts [1 << selectBucketBits]int
	for _, v := range src {
		counts[(floatKey(v)-kLo)>>shift]++
	}
	type segment struct{ off, n, j0, j1 int }
	segs := make([]segment, 0, len(ranks))
	cum, j, m := 0, 0, 0
	for b := 0; b < nb; b++ {
		c := counts[b]
		counts[b] = math.MaxInt
		if j < len(ranks) && ranks[j] < cum+c {
			j0 := j
			for ; j < len(ranks) && ranks[j] < cum+c; j++ {
				ranks[j] -= cum
			}
			segs = append(segs, segment{m, c, j0, j})
			counts[b] = m
			m += c
		}
		cum += c
	}

	// The dump slot is dst[m]. When every value is a candidate (m == n)
	// nothing is dumped and the slot need not exist.
	var dst, next []float64
	if spare == nil { // first level: src is the caller's and stays as it is
		both := s.scratch(2*m + 1)
		dst, next = both[:m+1], both[m+1:]
	} else {
		dst, next = spare[:min(m+1, n)], src
	}
	for b := 0; b < nb; b++ {
		counts[b] = min(counts[b], m)
	}
	for _, v := range src {
		b := (floatKey(v) - kLo) >> shift
		w := counts[b]
		dst[w] = v
		if w != m {
			w++
		}
		counts[b] = w
	}
	s.visits += n
	for _, g := range segs {
		sub := dst[g.off : g.off+g.n]
		lo, hi, _ := MinMax(sub)
		s.visits += g.n
		s.narrow(sub, next[g.off:g.off+g.n], floatKey(lo), floatKey(hi), ranks[g.j0:g.j1], out[g.j0:g.j1])
	}
}
