package storage

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/bitvec"
)

// concatFixture builds a 4-column table with nulls and splits it at the
// given row boundaries via SliceRows.
func concatFixture(t *testing.T, n int) *Table {
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

func TestConcatTablesRoundTrip(t *testing.T) {
	tbl := concatFixture(t, 1000)
	// Split at unaligned boundaries, including an empty part.
	bounds := []int{0, 137, 137, 640, 1000}
	var parts []*Table
	for i := 0; i+1 < len(bounds); i++ {
		p, err := tbl.SliceRows("part", bounds[i], bounds[i+1])
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	got, err := ConcatTables("t", parts)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != tbl.NumRows() {
		t.Fatalf("rows %d, want %d", got.NumRows(), tbl.NumRows())
	}
	for c := 0; c < tbl.NumCols(); c++ {
		for r := 0; r < tbl.NumRows(); r++ {
			if got.Column(c).IsNull(r) != tbl.Column(c).IsNull(r) {
				t.Fatalf("col %d row %d: null mismatch", c, r)
			}
			if gv, wv := got.Column(c).Render(r), tbl.Column(c).Render(r); gv != wv {
				t.Fatalf("col %d row %d: %q != %q", c, r, gv, wv)
			}
		}
	}
	// The parts share the table's dictionary, and so does their
	// concatenation.
	if !slices.Equal(got.Column(2).(*StringColumn).Dict(), tbl.Column(2).(*StringColumn).Dict()) {
		t.Error("concatenation changed the parts' dictionary")
	}
}

// TestConcatRefusesMixedDictionaries: parts whose string columns hold
// different dictionaries code in different spaces; their concatenation
// is refused, not re-encoded.
func TestConcatRefusesMixedDictionaries(t *testing.T) {
	schema := MustSchema(Field{Name: "s", Type: String})
	a := MustTable("a", schema, []Column{NewStringColumn([]string{"red", "green"}, nil)})
	b := MustTable("b", schema, []Column{NewStringColumn([]string{"green", "blue"}, nil)})
	_, err := ConcatTables("t", []*Table{a, b})
	if err == nil || !strings.Contains(err.Error(), "one dictionary") || !strings.Contains(err.Error(), `"s"`) {
		t.Errorf("err = %v, want a refusal naming column s", err)
	}
}

func TestConcatSingleSharesStorage(t *testing.T) {
	tbl := concatFixture(t, 100)
	ck, err := ComputeChunking(tbl, 64)
	if err != nil {
		t.Fatal(err)
	}
	chunked, err := tbl.WithChunking(ck)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ConcatTables("renamed", []*Table{chunked})
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != "renamed" {
		t.Errorf("name %q", got.Name())
	}
	if got.Chunking() != ck {
		t.Error("single-part concat dropped chunk metadata")
	}
	if got.Column(0).(*Int64Column).Values()[0] != tbl.Column(0).(*Int64Column).Values()[0] {
		t.Error("single-part concat copied values")
	}
}

func TestConcatSchemaMismatch(t *testing.T) {
	a := concatFixture(t, 10)
	b2 := NewBuilder("other", MustSchema(Field{Name: "x", Type: Int64}))
	b2.MustAppendRow(int64(1))
	_, err := ConcatTables("t", []*Table{a, b2.MustBuild()})
	if err == nil || !strings.Contains(err.Error(), "schema mismatch") {
		t.Errorf("err = %v", err)
	}
	if _, err := ConcatTables("t", nil); err == nil {
		t.Error("concat of zero tables succeeded")
	}
}

func TestSliceRowsView(t *testing.T) {
	tbl := concatFixture(t, 300)
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
	tbl := concatFixture(t, 128)
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
