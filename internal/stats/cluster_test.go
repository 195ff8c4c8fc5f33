package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestRandIndexIdentical(t *testing.T) {
	a := []int{0, 0, 1, 1, 2}
	ari, err := AdjustedRandIndex(a, a)
	if err != nil || math.Abs(ari-1) > 1e-12 {
		t.Fatalf("ari = %v err %v", ari, err)
	}
}

func TestRandIndexRelabelInvariant(t *testing.T) {
	a := []int{0, 0, 1, 1, 2, 2}
	b := []int{5, 5, 9, 9, 7, 7} // same partition, different labels
	ari, err := AdjustedRandIndex(a, b)
	if err != nil || math.Abs(ari-1) > 1e-12 {
		t.Fatalf("ari = %v", ari)
	}
}

func TestRandIndexDisagreement(t *testing.T) {
	a := []int{0, 0, 1, 1}
	b := []int{0, 1, 0, 1}
	ari, err := AdjustedRandIndex(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Every cell of the 2×2 contingency table holds one item: no pair is
	// together in both, against 2·2/6 expected by chance, so the index
	// sits below zero: (0 - 2/3) / (2 - 2/3) = -1/2.
	if math.Abs(ari+0.5) > 1e-12 {
		t.Fatalf("ari = %v, want -1/2", ari)
	}
}

func TestAdjustedRandIndexChanceLevel(t *testing.T) {
	// random labelings of many items: ARI should hover near 0.
	r := rand.New(rand.NewSource(1))
	n := 2000
	a := make([]int, n)
	b := make([]int, n)
	for i := 0; i < n; i++ {
		a[i] = r.Intn(3)
		b[i] = r.Intn(3)
	}
	ari, err := AdjustedRandIndex(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ari) > 0.05 {
		t.Fatalf("ari = %v, want ~0 for independent labelings", ari)
	}
}

func TestAdjustedRandIndexTrivialPartitions(t *testing.T) {
	all := []int{0, 0, 0, 0}
	ari, err := AdjustedRandIndex(all, all)
	if err != nil || ari != 1 {
		t.Fatalf("ari = %v err %v", ari, err)
	}
}

func TestRandIndexErrors(t *testing.T) {
	if _, err := AdjustedRandIndex([]int{1}, []int{1, 2}); err == nil {
		t.Fatal("length mismatch should error")
	}
	if ari, err := AdjustedRandIndex([]int{1}, []int{2}); err != nil || ari != 1 {
		t.Fatal("single item partitions are trivially equal")
	}
}

func TestPropertyARIBounds(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(100)
		a := make([]int, n)
		b := make([]int, n)
		for i := 0; i < n; i++ {
			a[i] = r.Intn(1 + r.Intn(5))
			b[i] = r.Intn(1 + r.Intn(5))
		}
		ari, err := AdjustedRandIndex(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if ari > 1+1e-9 || ari < -1-1e-9 {
			t.Fatalf("ari out of bounds: %v", ari)
		}
		// symmetry
		ari2, err := AdjustedRandIndex(b, a)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ari-ari2) > 1e-9 {
			t.Fatal("ARI not symmetric")
		}
	}
}
