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
// An inclusive end rejects with a strict comparison and an exclusive end
// with a non-strict one, so each end holds its bound in the field of the
// comparison it needs and NaN — against which every comparison is false —
// in the other. A row test is then four comparisons and no flag.
type rangeMatcher struct {
	ltLo, leLo float64 // rejected when v < ltLo or v <= leLo
	gtHi, geHi float64 // rejected when v > gtHi or v >= geHi
}

// compileRange compiles p, which the caller has checked is a Range.
func compileRange(p query.Predicate) rangeMatcher {
	nan := math.NaN()
	m := rangeMatcher{ltLo: p.Lo, leLo: nan, gtHi: p.Hi, geHi: nan}
	if !p.LoIncl {
		m.ltLo, m.leLo = nan, p.Lo
	}
	if !p.HiIncl {
		m.gtHi, m.geHi = nan, p.Hi
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

// match is query.Predicate.MatchFloat bit for bit. It rejects rather than
// admits, so a NaN value matches any range; zone maps rely on that (a
// chunk holding NaN drops its min/max and is never pruned).
func (m *rangeMatcher) match(v float64) bool {
	return !(v < m.ltLo || v <= m.leLo || v > m.gtHi || v >= m.geHi)
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
				// rejected is 1 exactly when rangeMatcher.match says false
				rejected := b2u(v < m.ltLo) | b2u(v <= m.leLo) | b2u(v > m.gtHi) | b2u(v >= m.geHi)
				hits |= (w & -w) & (rejected - 1)
			}
			out[ri][wi] |= hits
			if free &^= hits; free == 0 {
				break
			}
		}
	}
}

// b2u is 1 for true, 0 for false; the compiler turns it into a flag read.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
