package bitvec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// span is a window [w0, w1) of words.
type span struct{ w0, w1 int }

// randSpan draws a window of a vector of nw words: empty, one word, the
// whole vector, one ending on the tail word, or any; and, relative to
// ref, nested in it, overlapping it, disjoint from it or equal to it.
func randSpan(r *rand.Rand, nw int, ref span) span {
	anywhere := func() span {
		a := r.Intn(nw + 1)
		return span{a, a + r.Intn(nw-a+1)}
	}
	switch r.Intn(9) {
	case 0: // empty, anywhere
		a := r.Intn(nw + 1)
		return span{a, a}
	case 1: // one word
		if nw == 0 {
			return span{}
		}
		a := r.Intn(nw)
		return span{a, a + 1}
	case 2:
		return span{0, nw}
	case 3: // ending on the tail word
		return span{r.Intn(nw + 1), nw}
	case 4: // nested in ref
		a := ref.w0 + r.Intn(ref.w1-ref.w0+1)
		return span{a, a + r.Intn(ref.w1-a+1)}
	case 5: // overlapping ref across one of its ends
		if r.Intn(2) == 0 {
			return span{r.Intn(ref.w0 + 1), ref.w0 + r.Intn(ref.w1-ref.w0+1)}
		}
		a := ref.w0 + r.Intn(ref.w1-ref.w0+1)
		return span{a, ref.w1 + r.Intn(nw-ref.w1+1)}
	case 6: // disjoint from ref, before or after it
		if r.Intn(2) == 0 {
			a := r.Intn(ref.w0 + 1)
			return span{a, a + r.Intn(ref.w0-a+1)}
		}
		a := ref.w1 + r.Intn(nw-ref.w1+1)
		return span{a, a + r.Intn(nw-a+1)}
	case 7:
		return ref
	}
	return anywhere()
}

// hull is the smallest window holding a and b.
func hull(a, b span) span {
	switch {
	case a.w0 == a.w1:
		return b
	case b.w0 == b.w1:
		return a
	}
	return span{min(a.w0, b.w0), max(a.w1, b.w1)}
}

// pair is one vector held two ways: win holds only its window's words,
// full the same bits in every word — the oracle.
type pair struct {
	win, full *Vector
}

// randPair fills window s of an n-bit vector with bits of density p.
func randPair(r *rand.Rand, n int, s span, p float64) pair {
	full := New(n)
	for i := s.w0 * wordBits; i < min(n, s.w1*wordBits); i++ {
		if r.Float64() < p {
			full.Set(i)
		}
	}
	return pair{windowOf(full, s), full}
}

// windowOf holds full's bits in window s, which must hold them all.
func windowOf(full *Vector, s span) *Vector {
	v, err := FromWindow(full.n, s.w0, slices.Clone(full.words[s.w0:s.w1]))
	if err != nil {
		panic(err)
	}
	if !v.Equal(full) {
		panic("windowOf: bits outside the window")
	}
	return v
}

// panics reports whether fn panics.
func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

// checkWindowKernels runs every kernel once on windowed vectors drawn
// from r and compares each answer with the same kernel's on the bits
// held table-length.
func checkWindowKernels(t *testing.T, r *rand.Rand, n int) {
	t.Helper()
	nw := numWords(n)
	sa := randSpan(r, nw, span{0, nw})
	sb := randSpan(r, nw, sa)
	a := randPair(r, n, sa, r.Float64())
	b := randPair(r, n, sb, r.Float64())
	fail := func(kernel string, got, want any) {
		t.Helper()
		t.Fatalf("n=%d a%v b%v: %s = %v, want %v", n, sa, sb, kernel, got, want)
	}
	same := func(kernel string, got, want *Vector) {
		t.Helper()
		if !got.Equal(want) || !want.Equal(got) || got.Count() != want.Count() {
			fail(kernel, got.Indexes(), want.Indexes())
		}
	}

	if got, want := a.win.Count(), a.full.Count(); got != want {
		fail("Count", got, want)
	}
	if got, want := a.win.Any(), a.full.Any(); got != want {
		fail("Any", got, want)
	}
	if got, want := a.win.Indexes(), a.full.Indexes(); !slices.Equal(got, want) {
		fail("Indexes", got, want)
	}
	var seen []int
	stop := r.Intn(a.full.Count() + 1)
	a.win.ForEach(func(i int) bool { seen = append(seen, i); return len(seen) < stop })
	if want := a.full.Indexes()[:max(stop, min(1, a.full.Count()))]; !slices.Equal(seen, want) {
		fail("ForEach", seen, want)
	}
	for i := 0; i <= n; i++ {
		if got, want := a.win.Rank(i), a.full.Rank(i); got != want {
			fail(fmt.Sprintf("Rank(%d)", i), got, want)
		}
		if i < n && a.win.Get(i) != a.full.Get(i) {
			fail(fmt.Sprintf("Get(%d)", i), a.win.Get(i), a.full.Get(i))
		}
	}
	if got, want := AndCount(a.win, b.win), AndCount(a.full, b.full); got != want {
		fail("AndCount", got, want)
	}
	if got, want := AndNotCount(a.win, b.win), AndNotCount(a.full, b.full); got != want {
		fail("AndNotCount", got, want)
	}
	if got, want := a.win.Equal(b.win), a.full.Equal(b.full); got != want {
		fail("Equal", got, want)
	}
	same("Clone", a.win.Clone(), a.full)
	same("And", a.win.Clone().And(b.win), a.full.Clone().And(b.full))
	same("AndNot", a.win.Clone().AndNot(b.win), a.full.Clone().AndNot(b.full))

	// Writes into a window that holds the source's.
	sd := hull(sb, randSpan(r, nw, sb))
	d := randPair(r, n, sd, r.Float64())
	same("Or", d.win.Clone().Or(b.win), d.full.Clone().Or(b.full))
	same("Xor", d.win.Clone().Xor(b.win), d.full.Clone().Xor(b.full))
	same("CopyFrom", d.win.Clone().CopyFrom(b.win), d.full.Clone().CopyFrom(b.full))
	same("OrAnd", hullPair(d, a, b).win.OrAnd(a.win, b.win), hullPair(d, a, b).full.OrAnd(a.full, b.full))
	taken := randPair(r, n, hull(sb, randSpan(r, nw, sb)), r.Float64()/2)
	dst := randPair(r, n, sd, r.Float64())
	wantTaken, wantDst := taken.full.Clone(), dst.full.Clone()
	gotC, wantC := ClaimInto(dst.win, b.win, taken.win), ClaimInto(wantDst, b.full, wantTaken)
	if gotC != wantC {
		fail("ClaimInto count", gotC, wantC)
	}
	same("ClaimInto dst", dst.win, wantDst)
	same("ClaimInto taken", taken.win, wantTaken)

	// Windows that do not hold the source's refuse the write.
	if len(b.win.words) > 0 && (sd.w0 > sb.w0 || sd.w1 < sb.w1) {
		t.Fatalf("hull %v does not hold %v", sd, sb)
	}
	if len(a.win.words) > 0 && (sb.w0 > sa.w0 || sb.w1 < sa.w1) && !panics(func() { b.win.Clone().Or(a.win) }) {
		fail("Or into a narrower window", "no panic", "panic")
	}
	if i := r.Intn(max(n, 1)); n > 0 && (i/wordBits < sa.w0 || i/wordBits >= sa.w1) && !panics(func() { a.win.Clone().Set(i) }) {
		fail(fmt.Sprintf("Set(%d) outside the window", i), "no panic", "panic")
	}

	// Trim keeps the bits and narrows to them.
	tr := a.win.Clone()
	tr.Trim()
	same("Trim", tr, a.full)
	if w0, words := tr.Window(); len(words) > 0 && (words[0] == 0 || words[len(words)-1] == 0 || w0 < sa.w0) {
		fail("Trim window", fmt.Sprint(w0, len(words)), "first and last words set")
	}
	if len(a.win.words) == nw {
		same("Not", a.win.Clone().Not(), a.full.Clone().Not())
	} else if !panics(func() { a.win.Clone().Not() }) {
		fail("Not of a narrow window", "no panic", "panic")
	}

	// Slice and OrBlit move bits between windows and offsets.
	lo := r.Intn(n + 1)
	hi := lo + r.Intn(n-lo+1)
	same("Slice", a.win.Slice(lo, hi), a.full.Slice(lo, hi))
	src := a.win.Slice(lo, hi)
	off := r.Intn(n - (hi - lo) + 1)
	bw := span{} // the words src's window lands on
	if sw0, sws := src.Window(); len(sws) > 0 {
		first, last := off+sw0*wordBits, min(off+src.Len(), off+(sw0+len(sws))*wordBits)-1
		bw = span{first / wordBits, last/wordBits + 1}
	}
	into := randPair(r, n, hull(bw, randSpan(r, nw, bw)), r.Float64())
	wantBlit := into.full.Clone()
	wantBlit.OrBlit(off, a.full.Slice(lo, hi))
	into.win.OrBlit(off, src)
	same("OrBlit", into.win, wantBlit)
}

// hullPair is d widened to hold the words a and b share, as OrAnd's
// destination must.
func hullPair(d, a, b pair) pair {
	lo, hi := overlap(a.win, b.win)
	s := span{d.win.w0, d.win.end()}
	if lo < hi {
		s = hull(s, span{lo, hi})
	}
	return pair{windowOf(d.full, s), d.full.Clone()}
}

// TestWindowKernelsMatchFullLength: every kernel on vectors holding
// random windows — empty, one word, ending on the tail word, nested,
// overlapping and disjoint — answers as it does on the same bits held
// in every word.
func TestWindowKernelsMatchFullLength(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 3000; trial++ {
		checkWindowKernels(t, r, r.Intn(700))
	}
}

// FuzzWindowKernels is TestWindowKernelsMatchFullLength on fuzzed
// seeds and lengths.
func FuzzWindowKernels(f *testing.F) {
	for _, s := range [][2]int64{{1, 0}, {2, 1}, {3, 64}, {4, 65}, {5, 130}, {6, 640}} {
		f.Add(s[0], uint16(s[1]))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		checkWindowKernels(t, rand.New(rand.NewSource(seed)), int(n%2048))
	})
}
