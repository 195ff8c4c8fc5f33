package storage

import (
	"slices"
	"testing"

	"repro/internal/bitvec"
)

// sliceFixture builds an n-row, 4-column table with nulls.
func sliceFixture(t *testing.T, n int) *Table {
	t.Helper()
	schema := MustSchema(
		Field{Name: "i", Type: Int64},
		Field{Name: "f", Type: Float64},
		Field{Name: "s", Type: String},
		Field{Name: "b", Type: Bool},
	)
	b := NewBuilder("t", schema)
	cats := []string{"red", "green", "blue", "cyan", "mauve"}
	for r := 0; r < n; r++ {
		var i, f, s, bv any = int64(r), float64(r) / 3, cats[r%len(cats)], r%2 == 0
		if r%7 == 3 {
			i = nil
		}
		if r%11 == 5 {
			s = nil
		}
		if r%13 == 1 {
			bv = nil
		}
		b.MustAppendRow(i, f, s, bv)
	}
	return b.MustBuild()
}

func TestSliceRowsView(t *testing.T) {
	tbl := sliceFixture(t, 300)
	v, err := tbl.SliceRows("v", 65, 231)
	if err != nil {
		t.Fatal(err)
	}
	if v.NumRows() != 166 {
		t.Fatalf("rows = %d", v.NumRows())
	}
	for r := 0; r < v.NumRows(); r++ {
		for c := 0; c < v.NumCols(); c++ {
			if gv, wv := v.Column(c).Render(r), tbl.Column(c).Render(65+r); gv != wv {
				t.Fatalf("col %d row %d: %q != %q", c, r, gv, wv)
			}
		}
	}
	// Values are shared, not copied.
	if &v.Column(0).(*Int64Column).Values()[0] != &tbl.Column(0).(*Int64Column).Values()[65] {
		t.Error("SliceRows copied int values")
	}
	if _, err := tbl.SliceRows("v", -1, 5); err == nil {
		t.Error("negative lo accepted")
	}
	if _, err := tbl.SliceRows("v", 0, 301); err == nil {
		t.Error("hi beyond rows accepted")
	}
}

func TestWithChunkingValidates(t *testing.T) {
	tbl := sliceFixture(t, 128)
	ck, err := ComputeChunking(tbl, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.WithChunking(ck); err != nil {
		t.Fatal(err)
	}
	bad := &Chunking{Size: 64, Zones: ck.Zones[:2]}
	if _, err := tbl.WithChunking(bad); err == nil {
		t.Error("mismatched zones accepted")
	}
	if _, err := tbl.WithChunking(nil); err == nil {
		t.Error("nil chunking accepted")
	}
}

func TestCategoricalZoneCodeSets(t *testing.T) {
	// Clustered categories: chunk 0 holds only "a", chunk 1 only "b".
	vals := make([]string, 128)
	for i := range vals {
		if i < 64 {
			vals[i] = "a"
		} else {
			vals[i] = "b"
		}
	}
	col := NewStringColumn(vals, nil)
	tbl := MustTable("t", MustSchema(Field{Name: "s", Type: String}), []Column{col})
	ck, err := ComputeChunking(tbl, 64)
	if err != nil {
		t.Fatal(err)
	}
	codeA, codeB := slices.Index(col.Dict(), "a"), slices.Index(col.Dict(), "b")
	z0, z1 := ck.Zones[0][0], ck.Zones[0][1]
	if z0.CodeSet == nil || z1.CodeSet == nil {
		t.Fatal("code sets missing")
	}
	if z0.CodeSet[0] != uint64(1)<<codeA || z1.CodeSet[0] != uint64(1)<<codeB {
		t.Errorf("code sets = %b / %b", z0.CodeSet[0], z1.CodeSet[0])
	}
	if z0.Distinct != 1 || z1.Distinct != 1 {
		t.Errorf("distinct = %d / %d", z0.Distinct, z1.Distinct)
	}
	// Nulls are never in the code set.
	nulls := bitvec.New(128)
	nulls.Set(0)
	coln := NewStringColumn(vals, nulls)
	tbl2 := MustTable("t", MustSchema(Field{Name: "s", Type: String}), []Column{coln})
	ck2, err := ComputeChunking(tbl2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if ck2.Zones[0][0].NullCount != 1 {
		t.Errorf("null count = %d", ck2.Zones[0][0].NullCount)
	}
}
