package stats

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
)

// FuzzSelectQuantiles: the selection equals sort + QuantileSorted on any
// values, and is bit for bit the answer of narrowing all of them — the
// bracket changes no signed zero. data holds little-endian float64s (NaN is
// dropped, as CUT drops it); k picks 2–5 splits, whose interior
// quantiles are asked for as CUT asks them, and bit 2 of k adds both
// ends; an odd tile repeats the values, walked with stride tile/2+1, to a
// length that brackets — so the fuzzer steers periodic inputs against the
// bracketing sample's stride.
func FuzzSelectQuantiles(f *testing.F) {
	le := func(vs ...float64) []byte {
		b := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(le(3, 1, 2), uint8(0), uint16(0))
	f.Add(le(math.Inf(-1), 0, math.Copysign(0, -1), 5, math.Inf(1)), uint8(3), uint16(1))
	f.Add(le(1, 2, 3, 4, 5, 6, 7, 8), uint8(1), uint16(7))
	f.Add(le(0.5, 0.5, 0.5, 0.25, 0.75), uint8(2), uint16(41))
	f.Fuzz(func(t *testing.T, data []byte, k uint8, tile uint16) {
		var vals []float64
		for ; len(data) >= 8; data = data[8:] {
			if v := math.Float64frombits(binary.LittleEndian.Uint64(data)); v == v {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return
		}
		if tile%2 == 1 {
			tiled := make([]float64, selectBracketMin+int(tile))
			for i := range tiled {
				tiled[i] = vals[i*(int(tile)/2+1)%len(vals)]
			}
			vals = tiled
		}
		splits := 2 + int(k%4)
		qs := make([]float64, 0, splits+1)
		for i := 1; i < splits; i++ {
			qs = append(qs, float64(i)/float64(splits))
		}
		if k&4 != 0 {
			qs = append(append(qs, 0), 1)
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		var buf []float64
		got := SelectQuantiles(vals, sorted[0], sorted[len(sorted)-1], qs, &buf)
		narrowed, _ := selectQuantiles(vals, sorted[0], sorted[len(sorted)-1], qs, &buf, false)
		for i, q := range qs {
			if want := QuantileSorted(sorted, q); got[i] != want && !(got[i] != got[i] && want != want) {
				t.Fatalf("%d values, q=%g: got %v, want %v", len(vals), q, got[i], want)
			}
			if !sameBits(got[i], narrowed[i]) {
				t.Fatalf("%d values, q=%g: got %v, narrowing alone %v", len(vals), q, got[i], narrowed[i])
			}
		}
	})
}
