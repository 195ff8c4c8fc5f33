// Package bitvec provides packed bit vectors used as selection vectors
// throughout the engine: a bit per row of a table, set when the row is
// selected. All binary operations require operands of identical length.
//
// A vector holds only a window of its words: [w0, w0+len(words)). Every
// bit outside the window is zero, and every kernel walks only the
// windows of its operands, so a selection costs the span of its rows,
// not the table's length. New and NewFull hold every word; Trim narrows
// a vector to its set bits and NewLike allocates another vector's
// window. Writing a bit outside a vector's window panics, as a length
// mismatch does.
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
	w0    int      // the window's first word
	words []uint64 // words [w0, w0+len(words)); all others are zero
}

// numWords is the number of words n bits occupy.
func numWords(n int) int { return (n + wordBits - 1) / wordBits }

// New returns an all-zero vector of length n, holding every word.
func New(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &Vector{n: n, words: make([]uint64, numWords(n))}
}

// NewFull returns an all-ones vector of length n.
func NewFull(n int) *Vector { return NewFullWindow(n, 0, numWords(n)) }

// NewFullWindow returns a vector of length n holding words [w0, w1),
// whose bits are all set: the rows of those words, and no others.
func NewFullWindow(n, w0, w1 int) *Vector {
	if n < 0 || w0 < 0 || w0 > w1 || w1 > numWords(n) {
		panic(fmt.Sprintf("bitvec: window [%d,%d) over %d bits", w0, w1, n))
	}
	v := &Vector{n: n, w0: w0, words: make([]uint64, w1-w0)}
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.clearTail()
	return v
}

// NewLike returns an all-zero vector with o's length and window: the
// vector a kernel writes a subset of o's rows into.
func NewLike(o *Vector) *Vector {
	return &Vector{n: o.n, w0: o.w0, words: make([]uint64, len(o.words))}
}

// ResetLike makes v an all-zero vector with o's length and window,
// reusing v's backing when it has room. It costs o's window.
func (v *Vector) ResetLike(o *Vector) {
	if cap(v.words) < len(o.words) {
		v.words = make([]uint64, len(o.words))
	} else {
		v.words = v.words[:len(o.words)]
		clear(v.words)
	}
	v.n, v.w0 = o.n, o.w0
}

// FromIndexes returns a vector of length n with exactly the given bits set.
func FromIndexes(n int, idx []int) *Vector {
	v := New(n)
	for _, i := range idx {
		v.Set(i)
	}
	return v
}

// FromWindow returns a vector of length n holding words, not copied, as
// its window from word w0 on: the window must lie within the n bits'
// words and set no bit beyond n — the check a bitmap read off the wire
// must pass.
func FromWindow(n, w0 int, words []uint64) (*Vector, error) {
	if n < 0 || w0 < 0 || w0+len(words) > numWords(n) {
		return nil, fmt.Errorf("bitvec: words [%d,%d) for %d bits", w0, w0+len(words), n)
	}
	v := &Vector{n: n, w0: w0, words: words}
	if r := n % wordBits; r != 0 && v.end() == numWords(n) && len(words) > 0 && words[len(words)-1]>>uint(r) != 0 {
		return nil, fmt.Errorf("bitvec: bits set beyond length %d", n)
	}
	return v, nil
}

// clearTail clears the unused tail bits of the last word so that Count
// and word-wise equality stay exact.
func (v *Vector) clearTail() {
	if r := v.n % wordBits; r != 0 && len(v.words) > 0 && v.end() == numWords(v.n) {
		v.words[len(v.words)-1] &= (uint64(1) << uint(r)) - 1
	}
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Window returns the words v holds, low bits first: words[i] is word
// w0+i of the vector, and every word outside the window is zero. The
// tail bits beyond Len are always zero. Callers may mutate the words in
// place for word-level kernels, but must never set tail bits.
func (v *Vector) Window() (w0 int, words []uint64) { return v.w0, v.words }

// end is the word just past the window.
func (v *Vector) end() int { return v.w0 + len(v.words) }

// Trim narrows v's window to the words from its first to its last set
// bit — one pass over the window and a reslice. An empty vector keeps
// no words.
func (v *Vector) Trim() {
	a, b := 0, len(v.words)
	for a < b && v.words[a] == 0 {
		a++
	}
	for b > a && v.words[b-1] == 0 {
		b--
	}
	v.w0 += a
	v.words = v.words[a:b]
}

// overlap returns the words [lo, hi) both a and b hold; lo >= hi when
// they share none.
func overlap(a, b *Vector) (lo, hi int) {
	return max(a.w0, b.w0), min(a.end(), b.end())
}

// within panics unless o's window lies within v's: v is about to take
// o's bits.
func (v *Vector) within(o *Vector) {
	if len(o.words) > 0 && (o.w0 < v.w0 || o.end() > v.end()) {
		panic(fmt.Sprintf("bitvec: window [%d,%d) outside window [%d,%d)", o.w0, o.end(), v.w0, v.end()))
	}
}

// CopyFrom overwrites v with o's bits. Lengths must match, and o's
// window must lie within v's.
func (v *Vector) CopyFrom(o *Vector) *Vector {
	v.sameLen(o)
	v.within(o)
	lo, hi := o.w0-v.w0, o.end()-v.w0
	if len(o.words) == 0 {
		lo, hi = 0, 0
	}
	clear(v.words[:lo])
	copy(v.words[lo:hi], o.words)
	clear(v.words[hi:])
	return v
}

// AndCount returns Count(a AND b) without materializing the
// intersection — the fused word-level kernel behind contingency tables.
func AndCount(a, b *Vector) int {
	a.sameLen(b)
	lo, hi := overlap(a, b)
	c := 0
	if lo < hi {
		bw := b.words[lo-b.w0 : hi-b.w0]
		for i, w := range a.words[lo-a.w0 : hi-a.w0] {
			c += bits.OnesCount64(w & bw[i])
		}
	}
	return c
}

// AndNotCount returns Count(a AND NOT b) without materializing.
func AndNotCount(a, b *Vector) int {
	a.sameLen(b)
	return a.Count() - AndCount(a, b)
}

// ClaimInto sets dst = src AND NOT taken, marks the claimed bits in
// taken, and returns the number of bits claimed — one fused pass for the
// first-match-wins region assignment. All three vectors must share one
// length, and src's window must lie within dst's and taken's; dst must
// not alias src or taken.
func ClaimInto(dst, src, taken *Vector) int {
	dst.sameLen(src)
	dst.sameLen(taken)
	dst.within(src)
	taken.within(src)
	if len(src.words) == 0 {
		clear(dst.words)
		return 0
	}
	dw := dst.words[src.w0-dst.w0 : src.end()-dst.w0]
	tw := taken.words[src.w0-taken.w0 : src.end()-taken.w0]
	clear(dst.words[:src.w0-dst.w0])
	clear(dst.words[src.end()-dst.w0:])
	c := 0
	for i, sw := range src.words {
		w := sw &^ tw[i]
		dw[i] = w
		tw[i] |= w
		c += bits.OnesCount64(w)
	}
	return c
}

// Set sets bit i, which must lie in v's window.
func (v *Vector) Set(i int) {
	v.check(i)
	wi := i/wordBits - v.w0
	if wi < 0 || wi >= len(v.words) {
		panic(fmt.Sprintf("bitvec: bit %d outside window [%d,%d)", i, v.w0*wordBits, v.end()*wordBits))
	}
	v.words[wi] |= uint64(1) << uint(i%wordBits)
}

// Clear clears bit i.
func (v *Vector) Clear(i int) {
	v.check(i)
	if wi := i/wordBits - v.w0; wi >= 0 && wi < len(v.words) {
		v.words[wi] &^= uint64(1) << uint(i%wordBits)
	}
}

// Get reports whether bit i is set.
func (v *Vector) Get(i int) bool {
	v.check(i)
	return v.word(i/wordBits)&(uint64(1)<<uint(i%wordBits)) != 0
}

// word returns word wi of v, zero outside the window.
func (v *Vector) word(wi int) uint64 {
	if wi -= v.w0; wi >= 0 && wi < len(v.words) {
		return v.words[wi]
	}
	return 0
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

// Clone returns a deep copy of v, window and all.
func (v *Vector) Clone() *Vector {
	w := NewLike(v)
	copy(w.words, v.words)
	return w
}

// And sets v = v AND o and returns v.
func (v *Vector) And(o *Vector) *Vector {
	v.sameLen(o)
	lo, hi := overlap(v, o)
	if lo >= hi {
		clear(v.words)
		return v
	}
	clear(v.words[:lo-v.w0])
	clear(v.words[hi-v.w0:])
	ow := o.words[lo-o.w0 : hi-o.w0]
	for i, w := range ow {
		v.words[lo-v.w0+i] &= w
	}
	return v
}

// Or sets v = v OR o and returns v. o's window must lie within v's.
func (v *Vector) Or(o *Vector) *Vector {
	v.sameLen(o)
	v.within(o)
	for i, w := range o.words {
		v.words[o.w0-v.w0+i] |= w
	}
	return v
}

// OrAnd sets v = v OR (a AND b) and returns v. The words a and b share
// must lie within v's window.
func (v *Vector) OrAnd(a, b *Vector) *Vector {
	v.sameLen(a)
	v.sameLen(b)
	lo, hi := overlap(a, b)
	if lo >= hi {
		return v
	}
	if lo < v.w0 || hi > v.end() {
		panic(fmt.Sprintf("bitvec: window [%d,%d) outside window [%d,%d)", lo, hi, v.w0, v.end()))
	}
	aw, bw := a.words[lo-a.w0:hi-a.w0], b.words[lo-b.w0:hi-b.w0]
	for i, w := range aw {
		v.words[lo-v.w0+i] |= w & bw[i]
	}
	return v
}

// AndNot sets v = v AND NOT o and returns v.
func (v *Vector) AndNot(o *Vector) *Vector {
	v.sameLen(o)
	lo, hi := overlap(v, o)
	for wi := lo; wi < hi; wi++ {
		v.words[wi-v.w0] &^= o.words[wi-o.w0]
	}
	return v
}

// Xor sets v = v XOR o and returns v. o's window must lie within v's.
func (v *Vector) Xor(o *Vector) *Vector {
	v.sameLen(o)
	v.within(o)
	for i, w := range o.words {
		v.words[o.w0-v.w0+i] ^= w
	}
	return v
}

// Not flips every bit in place and returns v, which must hold every
// word: the zeros outside a narrower window would become ones.
func (v *Vector) Not() *Vector {
	if v.w0 != 0 || len(v.words) != numWords(v.n) {
		panic(fmt.Sprintf("bitvec: Not of window [%d,%d) of %d words", v.w0, v.end(), numWords(v.n)))
	}
	for i := range v.words {
		v.words[i] = ^v.words[i]
	}
	v.clearTail()
	return v
}

func (v *Vector) sameLen(o *Vector) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, o.n))
	}
}

// Equal reports whether v and o have identical length and bits,
// whatever their windows.
func (v *Vector) Equal(o *Vector) bool {
	if v.n != o.n {
		return false
	}
	for i, w := range v.words {
		if w != o.word(v.w0+i) {
			return false
		}
	}
	for i, w := range o.words {
		if wi := o.w0 + i; w != 0 && (wi < v.w0 || wi >= v.end()) {
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
	v.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// ForEach calls fn for every set bit in ascending order. It stops early if
// fn returns false.
func (v *Vector) ForEach(fn func(i int) bool) {
	for wi, w := range v.words {
		base := (v.w0 + wi) * wordBits
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
// of a whole-table bitmap. Its window is the words v's window reaches;
// word-aligned lo copies words, unaligned slices stitch each output word
// from two input words.
func (v *Vector) Slice(lo, hi int) *Vector {
	if lo < 0 || hi < lo || hi > v.n {
		panic(fmt.Sprintf("bitvec: slice [%d,%d) out of range [0,%d]", lo, hi, v.n))
	}
	out := &Vector{n: hi - lo}
	// The bits of [lo, hi) v's window holds, in v's and out's numbering.
	b0, b1 := max(lo, v.w0*wordBits), min(hi, v.end()*wordBits)
	if b0 >= b1 {
		return out
	}
	out.w0 = (b0 - lo) / wordBits
	out.words = make([]uint64, numWords(b1-lo)-out.w0)
	shift := uint(lo % wordBits)
	for i := range out.words {
		src := (out.w0+i)*wordBits + lo // v's bit at out's word start
		w := v.word(src/wordBits) >> shift
		if shift != 0 {
			w |= v.word(src/wordBits+1) << (wordBits - shift)
		}
		out.words[i] = w
	}
	out.clearTail()
	return out
}

// OrBlit ORs src's bits into v starting at bit offset off:
// v[off+i] |= src[i] for every i. It is how shard-local selection bitmaps
// land in their row range of a global bitmap; blitting disjoint ranges of
// a zeroed vector reassembles the exact concatenation. off need not be
// word-aligned; the words src's window lands on must lie in v's window.
func (v *Vector) OrBlit(off int, src *Vector) {
	if off < 0 || off+src.n > v.n {
		panic(fmt.Sprintf("bitvec: blit [%d,%d) out of range [0,%d]", off, off+src.n, v.n))
	}
	if len(src.words) == 0 {
		return
	}
	start := off + src.w0*wordBits
	if last := min(off+src.n, off+src.end()*wordBits) - 1; start/wordBits < v.w0 || last/wordBits >= v.end() {
		panic(fmt.Sprintf("bitvec: blit of bits [%d,%d] outside window [%d,%d)", start, last, v.w0*wordBits, v.end()*wordBits))
	}
	d := start/wordBits - v.w0
	shift := uint(start % wordBits)
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
	full := min(i/wordBits, v.end())
	for wi := v.w0; wi < full; wi++ {
		c += bits.OnesCount64(v.words[wi-v.w0])
	}
	if r := i % wordBits; r != 0 {
		c += bits.OnesCount64(v.word(i/wordBits) & ((uint64(1) << uint(r)) - 1))
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
