// Package bitvec provides packed bit vectors used as selection vectors
// throughout the engine: a bit per row of a table, set when the row is
// selected. All binary operations require operands of identical length.
package bitvec

import (
	"fmt"
	"math/bits"
)

const wordBits = 64

// Vector is a fixed-length packed bit vector. The zero value is an empty
// vector of length 0; use New to create one of a given length.
type Vector struct {
	n     int
	words []uint64
}

// New returns an all-zero vector of length n.
func New(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &Vector{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// NewFull returns an all-ones vector of length n.
func NewFull(n int) *Vector {
	v := New(n)
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.trim()
	return v
}

// FromIndexes returns a vector of length n with exactly the given bits set.
func FromIndexes(n int, idx []int) *Vector {
	v := New(n)
	for _, i := range idx {
		v.Set(i)
	}
	return v
}

// FromWords returns a vector of length n over words, which it takes
// ownership of: exactly the words n bits need, with every tail bit
// beyond n clear — the check a bitmap read off the wire must pass.
func FromWords(n int, words []uint64) (*Vector, error) {
	if n < 0 || len(words) != (n+wordBits-1)/wordBits {
		return nil, fmt.Errorf("bitvec: %d words for %d bits", len(words), n)
	}
	if r := n % wordBits; r != 0 && words[len(words)-1]>>uint(r) != 0 {
		return nil, fmt.Errorf("bitvec: bits set beyond length %d", n)
	}
	return &Vector{n: n, words: words}, nil
}

// trim clears the unused tail bits of the last word so that Count and
// word-wise equality stay exact.
func (v *Vector) trim() {
	if r := v.n % wordBits; r != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (uint64(1) << uint(r)) - 1
	}
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Words exposes the packed backing words, low bits first. The tail bits
// beyond Len are always zero. Callers may mutate words in place for
// word-level kernels, but must never set tail bits.
func (v *Vector) Words() []uint64 { return v.words }

// CopyFrom overwrites v with o's bits. Lengths must match.
func (v *Vector) CopyFrom(o *Vector) *Vector {
	v.sameLen(o)
	copy(v.words, o.words)
	return v
}

// AndCount returns Count(a AND b) without materializing the
// intersection — the fused word-level kernel behind contingency tables.
func AndCount(a, b *Vector) int {
	a.sameLen(b)
	c := 0
	for i, w := range a.words {
		c += bits.OnesCount64(w & b.words[i])
	}
	return c
}

// AndNotCount returns Count(a AND NOT b) without materializing.
func AndNotCount(a, b *Vector) int {
	a.sameLen(b)
	c := 0
	for i, w := range a.words {
		c += bits.OnesCount64(w &^ b.words[i])
	}
	return c
}

// ClaimInto sets dst = src AND NOT taken, marks the claimed bits in
// taken, and returns the number of bits claimed — one fused pass for the
// first-match-wins region assignment. All three vectors must share one
// length; dst must not alias src or taken.
func ClaimInto(dst, src, taken *Vector) int {
	dst.sameLen(src)
	dst.sameLen(taken)
	c := 0
	for i, sw := range src.words {
		w := sw &^ taken.words[i]
		dst.words[i] = w
		taken.words[i] |= w
		c += bits.OnesCount64(w)
	}
	return c
}

// Set sets bit i.
func (v *Vector) Set(i int) {
	v.check(i)
	v.words[i/wordBits] |= uint64(1) << uint(i%wordBits)
}

// Clear clears bit i.
func (v *Vector) Clear(i int) {
	v.check(i)
	v.words[i/wordBits] &^= uint64(1) << uint(i%wordBits)
}

// Get reports whether bit i is set.
func (v *Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(uint64(1)<<uint(i%wordBits)) != 0
}

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Count returns the number of set bits.
func (v *Vector) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns a deep copy of v.
func (v *Vector) Clone() *Vector {
	w := &Vector{n: v.n, words: make([]uint64, len(v.words))}
	copy(w.words, v.words)
	return w
}

// And sets v = v AND o and returns v.
func (v *Vector) And(o *Vector) *Vector {
	v.sameLen(o)
	for i := range v.words {
		v.words[i] &= o.words[i]
	}
	return v
}

// Or sets v = v OR o and returns v.
func (v *Vector) Or(o *Vector) *Vector {
	v.sameLen(o)
	for i := range v.words {
		v.words[i] |= o.words[i]
	}
	return v
}

// AndNot sets v = v AND NOT o and returns v.
func (v *Vector) AndNot(o *Vector) *Vector {
	v.sameLen(o)
	for i := range v.words {
		v.words[i] &^= o.words[i]
	}
	return v
}

// Xor sets v = v XOR o and returns v.
func (v *Vector) Xor(o *Vector) *Vector {
	v.sameLen(o)
	for i := range v.words {
		v.words[i] ^= o.words[i]
	}
	return v
}

// Not flips every bit in place and returns v.
func (v *Vector) Not() *Vector {
	for i := range v.words {
		v.words[i] = ^v.words[i]
	}
	v.trim()
	return v
}

func (v *Vector) sameLen(o *Vector) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, o.n))
	}
}

// Equal reports whether v and o have identical length and bits.
func (v *Vector) Equal(o *Vector) bool {
	if v.n != o.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Any reports whether at least one bit is set.
func (v *Vector) Any() bool {
	for _, w := range v.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Indexes returns the positions of all set bits in ascending order.
func (v *Vector) Indexes() []int {
	out := make([]int, 0, v.Count())
	for wi, w := range v.words {
		base := wi * wordBits
		for w != 0 {
			out = append(out, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return out
}

// ForEach calls fn for every set bit in ascending order. It stops early if
// fn returns false.
func (v *Vector) ForEach(fn func(i int) bool) {
	for wi, w := range v.words {
		base := wi * wordBits
		for w != 0 {
			if !fn(base + bits.TrailingZeros64(w)) {
				return
			}
			w &= w - 1
		}
	}
}

// Slice returns a new vector holding bits [lo, hi) of v — the bit-range
// counterpart of slicing a value array, used to carve per-shard views out
// of a whole-table bitmap. Word-aligned lo copies words; unaligned slices
// stitch each output word from two input words.
func (v *Vector) Slice(lo, hi int) *Vector {
	if lo < 0 || hi < lo || hi > v.n {
		panic(fmt.Sprintf("bitvec: slice [%d,%d) out of range [0,%d]", lo, hi, v.n))
	}
	out := New(hi - lo)
	if out.n == 0 {
		return out
	}
	w0 := lo / wordBits
	if shift := uint(lo % wordBits); shift == 0 {
		copy(out.words, v.words[w0:])
	} else {
		for i := range out.words {
			w := v.words[w0+i] >> shift
			if w0+i+1 < len(v.words) {
				w |= v.words[w0+i+1] << (wordBits - shift)
			}
			out.words[i] = w
		}
	}
	out.trim()
	return out
}

// OrBlit ORs src's bits into v starting at bit offset off:
// v[off+i] |= src[i] for every i. It is how shard-local selection bitmaps
// land in their row range of a global bitmap; blitting disjoint ranges of
// a zeroed vector reassembles the exact concatenation. off need not be
// word-aligned.
func (v *Vector) OrBlit(off int, src *Vector) {
	if off < 0 || off+src.n > v.n {
		panic(fmt.Sprintf("bitvec: blit [%d,%d) out of range [0,%d]", off, off+src.n, v.n))
	}
	if src.n == 0 {
		return
	}
	d := off / wordBits
	shift := uint(off % wordBits)
	if shift == 0 {
		for i, w := range src.words {
			v.words[d+i] |= w
		}
		return
	}
	for i, w := range src.words {
		v.words[d+i] |= w << shift
		// src's tail bits beyond its length are zero by invariant, so the
		// carried high part never writes past off+src.n; when it is zero
		// the next word may not even exist.
		if hi := w >> (wordBits - shift); hi != 0 {
			v.words[d+i+1] |= hi
		}
	}
}

// Rank returns the number of set bits in [0, i). Rank(Len()) == Count().
func (v *Vector) Rank(i int) int {
	if i < 0 || i > v.n {
		panic(fmt.Sprintf("bitvec: rank index %d out of range [0,%d]", i, v.n))
	}
	c := 0
	full := i / wordBits
	for wi := 0; wi < full; wi++ {
		c += bits.OnesCount64(v.words[wi])
	}
	if r := i % wordBits; r != 0 {
		c += bits.OnesCount64(v.words[full] & ((uint64(1) << uint(r)) - 1))
	}
	return c
}

// String renders the vector as a 0/1 string, low index first. Intended for
// tests and debugging of short vectors.
func (v *Vector) String() string {
	b := make([]byte, v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}
