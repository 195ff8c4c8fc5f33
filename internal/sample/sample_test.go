package sample

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestFraction: WITH SAMPLE f selects max(1, ⌊f·n⌋) rows, the prefix of
// the seed-1 permutation that the row-list sampler took — the same rows
// as before sampling became a selection.
func TestFraction(t *testing.T) {
	for _, c := range []struct {
		n    int
		f    float64
		want int
	}{{100, 0.1, 10}, {100, 0.001, 1}, {5, 1, 5}, {2000, 0.77, 1540}, {0, 0.5, 0}} {
		s := Fraction(c.n, c.f)
		if s.Len() != c.n || s.Count() != c.want {
			t.Fatalf("Fraction(%d, %g): %d of %d rows, want %d of %d", c.n, c.f, s.Count(), s.Len(), c.want, c.n)
		}
		perm := rand.New(rand.NewSource(1)).Perm(c.n)[:c.want]
		sort.Ints(perm)
		if got := s.Indexes(); !slices.Equal(got, perm) && c.want > 0 {
			t.Fatalf("Fraction(%d, %g) = %v, want the seed-1 prefix %v", c.n, c.f, got, perm)
		}
	}
}

func TestProgressiveNested(t *testing.T) {
	p, err := NewProgressive(1000, 10, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	var prev []int
	sizes := []int{}
	for {
		s, ok := p.Next()
		if !ok {
			break
		}
		sizes = append(sizes, s.Count())
		// nested: previous sample is a subset
		for _, i := range prev {
			if !s.Get(i) {
				t.Fatal("samples not nested")
			}
		}
		prev = s.Indexes()
	}
	want := []int{10, 20, 40, 80, 160, 320, 640, 1000}
	if !slices.Equal(sizes, want) {
		t.Fatalf("sizes = %v, want %v", sizes, want)
	}
	if _, ok := p.Next(); ok {
		t.Fatal("should be exhausted")
	}
}

func TestProgressiveSmallPopulation(t *testing.T) {
	p, err := NewProgressive(5, 10, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := p.Next()
	if !ok || s.Count() != 5 {
		t.Fatalf("s=%v ok=%v", s, ok)
	}
	if _, ok := p.Next(); ok {
		t.Fatal("should be done after covering population")
	}
}

func TestProgressiveValidation(t *testing.T) {
	if _, err := NewProgressive(-1, 1, 2, 1); err == nil {
		t.Fatal("negative n")
	}
	if _, err := NewProgressive(10, 0, 2, 1); err == nil {
		t.Fatal("zero start")
	}
	if _, err := NewProgressive(10, 1, 1, 1); err == nil {
		t.Fatal("factor < 2")
	}
}
