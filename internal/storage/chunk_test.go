package storage

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/bitvec"
)

func chunkTestTable(t *testing.T, n int) *Table {
	t.Helper()
	schema := MustSchema(
		Field{Name: "id", Type: Int64},
		Field{Name: "v", Type: Float64},
		Field{Name: "cat", Type: String},
		Field{Name: "flag", Type: Bool},
	)
	b := NewBuilder("t", schema)
	cats := []string{"a", "b", "c"}
	for i := 0; i < n; i++ {
		var vals [4]any
		vals[0] = int64(i)
		vals[1] = float64(i) / 2
		vals[2] = cats[i%len(cats)]
		vals[3] = i%2 == 0
		if i%7 == 3 {
			vals[1] = nil
		}
		b.MustAppendRow(vals[0], vals[1], vals[2], vals[3])
	}
	return b.MustBuild()
}

func TestComputeChunkingZones(t *testing.T) {
	const n, size = 300, 128
	tbl := chunkTestTable(t, n)
	ck, err := ComputeChunking(tbl, size)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ck.NumChunks(n), 3; got != want {
		t.Fatalf("NumChunks = %d, want %d", got, want)
	}
	// id column: chunk k covers [k*128, min(n,(k+1)*128)), dense ints.
	idZones := ck.Zones[0]
	for k, zm := range idZones {
		lo, hi := k*size, (k+1)*size
		if hi > n {
			hi = n
		}
		if !zm.HasMinMax {
			t.Fatalf("chunk %d: no min/max", k)
		}
		if zm.Min != float64(lo) || zm.Max != float64(hi-1) {
			t.Errorf("chunk %d: min/max = %g/%g, want %d/%d", k, zm.Min, zm.Max, lo, hi-1)
		}
		if zm.NullCount != 0 {
			t.Errorf("chunk %d: id nulls = %d", k, zm.NullCount)
		}
		if zm.Distinct != hi-lo {
			t.Errorf("chunk %d: distinct = %d, want %d", k, zm.Distinct, hi-lo)
		}
	}
	// v column has planted nulls at i%7==3.
	vNulls := 0
	for _, zm := range ck.Zones[1] {
		vNulls += zm.NullCount
	}
	wantNulls := 0
	for i := 0; i < n; i++ {
		if i%7 == 3 {
			wantNulls++
		}
	}
	if vNulls != wantNulls {
		t.Errorf("v nulls = %d, want %d", vNulls, wantNulls)
	}
	// cat column: 3 distinct per full chunk, no min/max.
	for k, zm := range ck.Zones[2] {
		if zm.HasMinMax {
			t.Errorf("chunk %d: string column has min/max", k)
		}
		if zm.Distinct != 3 {
			t.Errorf("chunk %d: cat distinct = %d, want 3", k, zm.Distinct)
		}
	}
	// bool column: both values present per chunk.
	for k, zm := range ck.Zones[3] {
		if zm.Distinct != 2 {
			t.Errorf("chunk %d: flag distinct = %d, want 2", k, zm.Distinct)
		}
	}
}

func TestComputeChunkingNaNDisablesMinMax(t *testing.T) {
	schema := MustSchema(Field{Name: "x", Type: Float64})
	vals := make([]float64, 128)
	for i := range vals {
		vals[i] = float64(i)
	}
	vals[17] = math.NaN()
	tbl := MustTable("t", schema, []Column{NewFloat64Column(vals, nil)})
	ck, err := ComputeChunking(tbl, 64)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Zones[0][0].HasMinMax {
		t.Error("chunk containing NaN must not advertise min/max")
	}
	if !ck.Zones[0][1].HasMinMax {
		t.Error("NaN-free chunk should have min/max")
	}
}

func TestChunkingValidation(t *testing.T) {
	tbl := chunkTestTable(t, 100)
	if _, err := ComputeChunking(tbl, 100); err == nil {
		t.Error("chunk size not a multiple of 64 must fail")
	}
	if _, err := ComputeChunking(tbl, -64); err == nil {
		t.Error("negative chunk size must fail")
	}
	ck, err := ComputeChunking(tbl, 64)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([]Column, tbl.NumCols())
	for i := range cols {
		cols[i] = tbl.Column(i)
	}
	ct, err := NewChunkedTable("t", tbl.Schema(), cols, ck)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Chunking() == nil {
		t.Fatal("chunked table lost its chunking")
	}
	// Wrong zone count must be rejected.
	bad := &Chunking{Size: 64, Zones: ck.Zones[:1]}
	if _, err := NewChunkedTable("t", tbl.Schema(), cols, bad); err == nil {
		t.Error("zone/column count mismatch must fail")
	}
}

func TestChunkingSurvivesProjectAndRename(t *testing.T) {
	tbl := chunkTestTable(t, 100)
	ck, err := ComputeChunking(tbl, 64)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([]Column, tbl.NumCols())
	for i := range cols {
		cols[i] = tbl.Column(i)
	}
	ct, err := NewChunkedTable("t", tbl.Schema(), cols, ck)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ct.Project("p", "v", "id")
	if err != nil {
		t.Fatal(err)
	}
	pck := p.Chunking()
	if pck == nil {
		t.Fatal("projection dropped chunking")
	}
	if len(pck.Zones) != 2 {
		t.Fatalf("projected zones = %d columns, want 2", len(pck.Zones))
	}
	if !reflect.DeepEqual(pck.Zones[1][0], ck.Zones[0][0]) {
		t.Error("projected zone maps not remapped to surviving columns")
	}
	if ct.Rename("x").Chunking() == nil {
		t.Error("rename dropped chunking")
	}
	// Gather reorders rows: it computes zone maps of its own, on the
	// resident grid, rather than keeping the source's.
	g := ct.Gather("g", []int{5, 3, 1})
	if gck := g.Chunking(); gck == nil || gck.Size != ResidentChunkRows || gck.Zones[0][0].Min != 1 || gck.Zones[0][0].Max != 5 {
		t.Errorf("gather chunking = %+v, want its own %d-row zone maps over ids 5, 3, 1", gck, ResidentChunkRows)
	}
}

func TestNullWords(t *testing.T) {
	nulls := bitvec.New(128)
	nulls.Set(3)
	c := NewInt64Column(make([]int64, 128), nulls)
	if w := NullWords(c); len(w) != 2 || w[0] != 1<<3 {
		t.Errorf("NullWords = %v", w)
	}
	if w := NullWords(NewInt64Column(make([]int64, 64), nil)); w != nil {
		t.Errorf("NullWords(no nulls) = %v, want nil", w)
	}
}
