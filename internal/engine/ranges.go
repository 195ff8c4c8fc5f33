package engine

import (
	"math"
	"math/bits"

	"repro/internal/query"
)

// rangeMatcher is a numeric Range predicate compiled down to the four
// bounds its row test compares against. The scan and partition kernels
// test every selected row; going through query.Predicate there copies its
// ~100 bytes per call (MatchFloat has a value receiver).
//
// An inclusive end admits with a non-strict comparison and an exclusive
// end with a strict one, so each end holds its bound in the field of the
// comparison it needs and NaN — against which every comparison is false —
// in the other. A row test is then four comparisons and no flag, and a
// NaN value, like a NULL, satisfies no range.
type rangeMatcher struct {
	geLo, gtLo float64 // admitted from below when v >= geLo or v > gtLo
	leHi, ltHi float64 // admitted from above when v <= leHi or v < ltHi
}

// compileRange compiles p, which the caller has checked is a Range.
func compileRange(p query.Predicate) rangeMatcher {
	nan := math.NaN()
	m := rangeMatcher{geLo: p.Lo, gtLo: nan, leHi: p.Hi, ltHi: nan}
	if !p.LoIncl {
		m.geLo, m.gtLo = nan, p.Lo
	}
	if !p.HiIncl {
		m.leHi, m.ltHi = nan, p.Hi
	}
	return m
}

func compileRanges(preds []query.Predicate) []rangeMatcher {
	ms := make([]rangeMatcher, len(preds))
	for i, p := range preds {
		ms[i] = compileRange(p)
	}
	return ms
}

// match is query.Predicate.MatchFloat bit for bit. A NaN value matches
// no range, so the ranges of one CUT are disjoint as queries: the
// partition kernel's first-match claims are each range's own selection.
// Zone maps stay sound: a chunk holding NaN drops its min/max and is
// scanned, never pruned or taken whole.
func (m *rangeMatcher) match(v float64) bool {
	return (v >= m.geLo || v > m.gtLo) && (v <= m.leHi || v < m.ltHi)
}

// numeric is a column or chunk payload the numeric kernels read; Int64
// values are widened to the engine's float comparison space.
type numeric interface{ ~int64 | ~float64 }

// partitionRanges assigns every selected non-NULL row of words [w0, w1)
// to the first matcher admitting it. sel and every out[ri] are whole
// bitmaps; vals and nulls (nil when the run has no NULLs) hold the run
// alone: vals[0] is row w0*64, nulls[0] covers the rows of sel[w0].
//
// Rows are resolved a selection word at a time, matcher by matcher: each
// matcher tests the rows no earlier one took, collects its hits in a
// register and ORs them into its output word once. Which matcher a row
// falls to is data (a median split sends every other row the other way),
// so the row test is written without a branch on it. Disjoint word ranges
// can be partitioned concurrently.
func partitionRanges[T numeric](ms []rangeMatcher, vals []T, nulls, sel []uint64, out [][]uint64, w0, w1 int) {
	for wi := w0; wi < w1; wi++ {
		free := sel[wi]
		if nulls != nil {
			free &^= nulls[wi-w0]
		}
		if free == 0 {
			continue
		}
		row := vals[(wi-w0)*64:]
		for ri := range ms {
			m := ms[ri]
			var hits uint64
			for w := free; w != 0; w &= w - 1 {
				v := float64(row[bits.TrailingZeros64(w)])
				hits |= (w & -w) & -m.admits(v)
			}
			out[ri][wi] |= hits
			if free &^= hits; free == 0 {
				break
			}
		}
	}
}

// edgeChain is a CUT's region list compiled down to its edges. The
// ranges of one cut form a chain [e0,e1) … [e(k−1),ek]: a value's region
// is the number of interior edges e1 … e(k−1) at or below it, provided it
// passes the gate e0 ≤ v ≤ ek. NaN fails the gate and so, as under
// rangeMatcher, lands in no region; the regions are rangeMatcher's
// first-match partition bit for bit, at one comparison per interior edge
// (the default median split has one) instead of up to four per range.
//
// A word's region masks are built an edge at a time: of the lanes still
// in play — at first those that pass the gate — the ones below the next
// interior edge belong to the current region and the rest move on to the
// next.
type edgeChain struct {
	lo, hi float64   // e0 and ek: the gate
	inner  []float64 // e1 … e(k−1), ascending
}

// chainOf compiles preds — Range predicates — to an edgeChain when they
// form one: no bound is NaN, each range ends where the next begins, the
// chain is closed at both ends and half-open inside.
func chainOf(preds []query.Predicate) (edgeChain, bool) {
	k := len(preds)
	if !preds[0].LoIncl || !preds[k-1].HiIncl {
		return edgeChain{}, false
	}
	c := edgeChain{lo: preds[0].Lo, hi: preds[k-1].Hi, inner: make([]float64, 0, k-1)}
	for i, p := range preds {
		if !(p.Lo <= p.Hi) {
			return edgeChain{}, false
		}
		if i > 0 {
			if prev := preds[i-1]; prev.HiIncl || !p.LoIncl || prev.Hi != p.Lo {
				return edgeChain{}, false
			}
			c.inner = append(c.inner, p.Lo)
		}
	}
	return c, true
}

// partitionChain is partitionRanges for a chain: same layout, same
// bitmaps.
func partitionChain[T numeric](c *edgeChain, vals []T, nulls, sel []uint64, out [][]uint64, w0, w1 int) {
	for wi := w0; wi < w1; wi++ {
		lanes := sel[wi]
		if nulls != nil {
			lanes &^= nulls[wi-w0]
		}
		if lanes == 0 {
			continue
		}
		row := vals[(wi-w0)*64:]
		var in uint64
		for m := lanes; m != 0; m &= m - 1 {
			v := float64(row[bits.TrailingZeros64(m)])
			in |= (m & -m) & -(b2u(v >= c.lo) & b2u(v <= c.hi))
		}
		r := 0
		for ; r < len(c.inner) && in != 0; r++ {
			e := c.inner[r]
			var ge uint64
			for m := in; m != 0; m &= m - 1 {
				ge |= (m & -m) & -b2u(float64(row[bits.TrailingZeros64(m)]) >= e)
			}
			out[r][wi], in = in&^ge, ge
		}
		if in != 0 {
			out[r][wi] = in
		}
	}
}

// partitionChainValues is partitionChain over extracted values, laid out
// as partitionValues reads them. gate is false when the extraction's
// summary proves every value passes it: no NaN, and its extremes inside
// [e0, ek], as they are for a cut of the values themselves.
func partitionChainValues(c *edgeChain, gate bool, vals []float64, present []uint64, out [][]uint64) {
	j := 0
	for wi, word := range present {
		if word == 0 {
			continue
		}
		row := vals[j : j+bits.OnesCount64(word)]
		j += len(row)
		in := word
		if gate {
			in = 0
			for k, w := 0, word; w != 0; k, w = k+1, w&(w-1) {
				in |= (w & -w) & -(b2u(row[k] >= c.lo) & b2u(row[k] <= c.hi))
			}
		}
		r := 0
		for ; r < len(c.inner) && in != 0; r++ {
			e := c.inner[r]
			var ge uint64
			for k, w := 0, word; w != 0; k, w = k+1, w&(w-1) {
				ge |= (w & -w) & -b2u(row[k] >= e)
			}
			ge &= in
			out[r][wi], in = in&^ge, ge
		}
		if in != 0 {
			out[r][wi] = in
		}
	}
}

// partitionValues is partitionRanges over extracted values: present
// marks the rows and vals holds their values in row order. A word's
// values are consumed in bit order, so each matcher walks the word's
// rows with a rank into vals instead of a row index.
func partitionValues(ms []rangeMatcher, vals []float64, present []uint64, out [][]uint64) {
	j := 0
	for wi, word := range present {
		if word == 0 {
			continue
		}
		row := vals[j : j+bits.OnesCount64(word)]
		j += len(row)
		free := word
		for ri := range ms {
			m := ms[ri]
			var hits uint64
			for k, w := 0, word; w != 0; k, w = k+1, w&(w-1) {
				hits |= (w & -w) & free & -m.admits(row[k])
			}
			out[ri][wi] |= hits
			if free &^= hits; free == 0 {
				break
			}
		}
	}
}

// admits is 1 exactly when match says true, computed without a branch.
func (m *rangeMatcher) admits(v float64) uint64 {
	return (b2u(v >= m.geLo) | b2u(v > m.gtLo)) & (b2u(v <= m.leHi) | b2u(v < m.ltHi))
}

// b2u is 1 for true, 0 for false; the compiler turns it into a flag read.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
