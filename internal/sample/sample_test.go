package sample

import (
	"testing"

	"repro/internal/storage"
)

func TestRows(t *testing.T) {
	got := Rows(100, 10, 1)
	if len(got) != 10 {
		t.Fatalf("len = %d", len(got))
	}
	seen := map[int]bool{}
	prev := -1
	for _, i := range got {
		if i < 0 || i >= 100 {
			t.Fatalf("index %d out of range", i)
		}
		if seen[i] {
			t.Fatalf("duplicate index %d", i)
		}
		if i <= prev {
			t.Fatal("not ascending")
		}
		seen[i] = true
		prev = i
	}
	// determinism
	again := Rows(100, 10, 1)
	for i := range got {
		if got[i] != again[i] {
			t.Fatal("not deterministic")
		}
	}
	// clamping and degenerate cases
	if len(Rows(5, 10, 1)) != 5 {
		t.Fatal("k > n should clamp")
	}
	if Rows(5, 0, 1) != nil {
		t.Fatal("k=0 should be nil")
	}
}

func TestTableSample(t *testing.T) {
	b := storage.NewBuilder("t", storage.MustSchema(storage.Field{Name: "x", Type: storage.Int64}))
	for i := 0; i < 100; i++ {
		b.MustAppendRow(i)
	}
	tbl := b.MustBuild()
	s := Table(tbl, 20, 3)
	if s.NumRows() != 20 || s.Name() != "t" {
		t.Fatalf("rows=%d name=%s", s.NumRows(), s.Name())
	}
}

func TestProgressiveNested(t *testing.T) {
	p, err := NewProgressive(1000, 10, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	var prev map[int]bool
	sizes := []int{}
	for {
		s, ok := p.Next()
		if !ok {
			break
		}
		sizes = append(sizes, len(s))
		cur := map[int]bool{}
		for _, i := range s {
			cur[i] = true
		}
		// nested: previous sample is a subset
		for i := range prev {
			if !cur[i] {
				t.Fatal("samples not nested")
			}
		}
		prev = cur
	}
	want := []int{10, 20, 40, 80, 160, 320, 640, 1000}
	if len(sizes) != len(want) {
		t.Fatalf("sizes = %v", sizes)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("sizes = %v, want %v", sizes, want)
		}
	}
	if p.Remaining() {
		t.Fatal("should be exhausted")
	}
}

func TestProgressiveSmallPopulation(t *testing.T) {
	p, err := NewProgressive(5, 10, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := p.Next()
	if !ok || len(s) != 5 {
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
