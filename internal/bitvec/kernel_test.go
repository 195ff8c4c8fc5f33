package bitvec

import (
	"math/rand"
	"testing"
)

func randomDenseVec(n int, p float64, r *rand.Rand) *Vector {
	v := New(n)
	for i := 0; i < n; i++ {
		if r.Float64() < p {
			v.Set(i)
		}
	}
	return v
}

func TestAndCountKernels(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		a := randomDenseVec(n, 0.4, r)
		b := randomDenseVec(n, 0.6, r)
		if got, want := AndCount(a, b), a.Clone().And(b).Count(); got != want {
			t.Fatalf("n=%d AndCount = %d, want %d", n, got, want)
		}
		if got, want := AndNotCount(a, b), a.Clone().AndNot(b).Count(); got != want {
			t.Fatalf("n=%d AndNotCount = %d, want %d", n, got, want)
		}
	}
}

func TestClaimInto(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	n := 300
	taken := New(n)
	total := 0
	for round := 0; round < 5; round++ {
		src := randomDenseVec(n, 0.3, r)
		before := taken.Clone()
		dst := New(n)
		c := ClaimInto(dst, src, taken)
		// dst is exactly the src bits that were free
		if want := src.Clone().AndNot(before); !dst.Equal(want) {
			t.Fatalf("round %d: dst = %s, want %s", round, dst, want)
		}
		if c != dst.Count() {
			t.Fatalf("round %d: count %d != %d", round, c, dst.Count())
		}
		// taken grew by exactly the claimed bits
		if want := before.Clone().Or(dst); !taken.Equal(want) {
			t.Fatalf("round %d: taken wrong", round)
		}
		total += c
	}
	if total != taken.Count() {
		t.Fatalf("claim total %d != taken %d", total, taken.Count())
	}
}

func TestZeroCopyFrom(t *testing.T) {
	for _, n := range []int{0, 5, 64, 130} {
		v := NewFull(n)
		if v.CopyFrom(New(n)).Count() != 0 {
			t.Fatalf("n=%d: copying an empty vector should clear every bit", n)
		}
		src := NewFull(n)
		if !v.CopyFrom(src).Equal(src) {
			t.Fatalf("n=%d: CopyFrom mismatch", n)
		}
	}
	// NewFull must not set tail bits: Not() after CopyFrom stays consistent
	v := New(70)
	v.CopyFrom(NewFull(70))
	if v.Not().Count() != 0 {
		t.Fatal("NewFull set tail bits beyond Len")
	}
}
