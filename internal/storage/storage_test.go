package storage

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitvec"
)

func TestSchemaBasics(t *testing.T) {
	s, err := NewSchema(Field{"a", Int64}, Field{"b", String})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumFields() != 2 {
		t.Fatalf("NumFields = %d", s.NumFields())
	}
	if s.Index("a") != 0 || s.Index("b") != 1 || s.Index("c") != -1 {
		t.Fatal("Index lookup wrong")
	}
	if !s.HasField("b") || s.HasField("z") {
		t.Fatal("HasField wrong")
	}
}

func TestSchemaDuplicateName(t *testing.T) {
	if _, err := NewSchema(Field{"a", Int64}, Field{"a", String}); err == nil {
		t.Fatal("expected error for duplicate field name")
	}
}

func TestSchemaEmptyName(t *testing.T) {
	if _, err := NewSchema(Field{"", Int64}); err == nil {
		t.Fatal("expected error for empty field name")
	}
}

func TestSchemaEqual(t *testing.T) {
	a := MustSchema(Field{"x", Int64})
	b := MustSchema(Field{"x", Int64})
	c := MustSchema(Field{"x", Float64})
	if !a.Equal(b) || a.Equal(c) {
		t.Fatal("Equal wrong")
	}
}

func TestDataTypeString(t *testing.T) {
	cases := map[DataType]string{Int64: "BIGINT", Float64: "DOUBLE", String: "VARCHAR", Bool: "BOOLEAN"}
	for dt, want := range cases {
		if dt.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(dt), dt.String(), want)
		}
	}
	if !Int64.IsNumeric() || !Float64.IsNumeric() || String.IsNumeric() || Bool.IsNumeric() {
		t.Error("IsNumeric wrong")
	}
}

func TestInt64Column(t *testing.T) {
	nulls := bitvec.FromIndexes(4, []int{2})
	c := NewInt64Column([]int64{10, 20, 0, 40}, nulls)
	if c.Type() != Int64 || c.Len() != 4 {
		t.Fatal("type/len wrong")
	}
	if c.At(1) != 20 {
		t.Fatal("At wrong")
	}
	if !c.IsNull(2) || c.IsNull(1) {
		t.Fatal("IsNull wrong")
	}
	if c.NullCount() != 1 {
		t.Fatal("NullCount wrong")
	}
	if c.Value(2) != nil {
		t.Fatal("Value of null should be nil")
	}
	if c.Value(0).(int64) != 10 {
		t.Fatal("Value wrong")
	}
	if c.Render(0) != "10" || c.Render(2) != "" {
		t.Fatal("Render wrong")
	}
}

func TestFloat64Column(t *testing.T) {
	c := NewFloat64Column([]float64{1.5, -2.25}, nil)
	if c.Type() != Float64 || c.Len() != 2 || c.NullCount() != 0 {
		t.Fatal("basics wrong")
	}
	if c.Render(0) != "1.5" {
		t.Fatalf("Render = %q", c.Render(0))
	}
	if c.At(1) != -2.25 {
		t.Fatal("At wrong")
	}
}

func TestBoolColumn(t *testing.T) {
	c := NewBoolColumn([]bool{true, false}, nil)
	if c.Render(0) != "true" || c.Render(1) != "false" {
		t.Fatal("Render wrong")
	}
	if c.Value(0).(bool) != true {
		t.Fatal("Value wrong")
	}
}

func TestStringColumnDictionary(t *testing.T) {
	c := NewStringColumn([]string{"red", "blue", "red", "green", "blue"}, nil)
	if c.Cardinality() != 3 {
		t.Fatalf("Cardinality = %d, want 3", c.Cardinality())
	}
	if c.At(0) != "red" || c.At(2) != "red" || c.At(3) != "green" {
		t.Fatal("At wrong")
	}
	// Codes for equal values must be equal.
	if c.Codes()[0] != c.Codes()[2] {
		t.Fatal("equal values got different codes")
	}
	if code := slices.Index(c.Dict(), "green"); code < 0 || c.Codes()[3] != uint32(code) {
		t.Fatal("green has no dictionary code, or not row 3's")
	}
	if slices.Contains(c.Dict(), "purple") {
		t.Fatal("purple is in the dictionary")
	}
}

func TestStringColumnWithNulls(t *testing.T) {
	nulls := bitvec.FromIndexes(3, []int{1})
	c := NewStringColumn([]string{"a", "", "b"}, nulls)
	if c.Cardinality() != 2 {
		t.Fatalf("Cardinality = %d, want 2 (null excluded)", c.Cardinality())
	}
	if c.Value(1) != nil {
		t.Fatal("null Value should be nil")
	}
}

func TestColumnGather(t *testing.T) {
	nulls := bitvec.FromIndexes(5, []int{1})
	ic := NewInt64Column([]int64{0, 1, 2, 3, 4}, nulls)
	g := ic.Gather([]int{4, 1, 0}).(*Int64Column)
	if g.Len() != 3 || g.At(0) != 4 || g.At(2) != 0 {
		t.Fatal("gather values wrong")
	}
	if !g.IsNull(1) || g.IsNull(0) {
		t.Fatal("gather nulls wrong")
	}

	sc := NewStringColumn([]string{"x", "y", "z", "x", "w"}, nil)
	gs := sc.Gather([]int{3, 4}).(*StringColumn)
	if gs.At(0) != "x" || gs.At(1) != "w" {
		t.Fatal("string gather wrong")
	}
	// Gather with no surviving nulls should drop the bitmap.
	g2 := ic.Gather([]int{0, 2}).(*Int64Column)
	if g2.NullCount() != 0 {
		t.Fatal("expected no nulls after gather")
	}
}

func buildTestTable(t *testing.T) *Table {
	t.Helper()
	schema := MustSchema(
		Field{"age", Int64},
		Field{"salary", Float64},
		Field{"city", String},
		Field{"active", Bool},
	)
	b := NewBuilder("people", schema)
	b.MustAppendRow(31, 55000.0, "amsterdam", true)
	b.MustAppendRow(42, 72000.5, "utrecht", false)
	b.MustAppendRow(nil, nil, nil, nil)
	b.MustAppendRow(28, 39000.0, "amsterdam", true)
	return b.MustBuild()
}

func TestBuilderAndTable(t *testing.T) {
	tbl := buildTestTable(t)
	if tbl.NumRows() != 4 || tbl.NumCols() != 4 {
		t.Fatalf("dims = %dx%d", tbl.NumRows(), tbl.NumCols())
	}
	age, err := tbl.ColumnByName("age")
	if err != nil {
		t.Fatal(err)
	}
	if age.(*Int64Column).At(1) != 42 {
		t.Fatal("age wrong")
	}
	if !age.IsNull(2) {
		t.Fatal("null row not null")
	}
	if _, err := tbl.ColumnByName("nope"); err == nil {
		t.Fatal("expected error for missing column")
	}
	if tbl.Name() != "people" {
		t.Fatal("name wrong")
	}
}

func TestBuilderTypeErrors(t *testing.T) {
	schema := MustSchema(Field{"a", Int64})
	b := NewBuilder("t", schema)
	if err := b.AppendRow("not an int"); err == nil {
		t.Fatal("expected type error")
	}
	if err := b.AppendRow(1, 2); err == nil {
		t.Fatal("expected arity error")
	}
}

func TestBuilderAcceptsIntForFloat(t *testing.T) {
	schema := MustSchema(Field{"x", Float64})
	b := NewBuilder("t", schema)
	if err := b.AppendRow(3); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendRow(int64(4)); err != nil {
		t.Fatal(err)
	}
	tbl := b.MustBuild()
	c := tbl.Column(0).(*Float64Column)
	if c.At(0) != 3.0 || c.At(1) != 4.0 {
		t.Fatal("widening wrong")
	}
}

func TestTableGather(t *testing.T) {
	tbl := buildTestTable(t)
	g := tbl.Gather("subset", []int{3, 0})
	if g.NumRows() != 2 {
		t.Fatal("rows wrong")
	}
	if g.Column(0).(*Int64Column).At(0) != 28 {
		t.Fatal("values wrong")
	}
}

func TestTableProject(t *testing.T) {
	tbl := buildTestTable(t)
	p, err := tbl.Project("proj", "city", "age")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCols() != 2 || p.Schema().Field(0).Name != "city" {
		t.Fatal("projection wrong")
	}
	if _, err := tbl.Project("bad", "ghost"); err == nil {
		t.Fatal("expected error")
	}
}

func TestNewTableValidation(t *testing.T) {
	schema := MustSchema(Field{"a", Int64}, Field{"b", String})
	good := []Column{
		NewInt64Column([]int64{1}, nil),
		NewStringColumn([]string{"x"}, nil),
	}
	if _, err := NewTable("t", schema, good); err != nil {
		t.Fatal(err)
	}
	// wrong arity
	if _, err := NewTable("t", schema, good[:1]); err == nil {
		t.Fatal("expected arity error")
	}
	// wrong type
	bad := []Column{good[1], good[0]}
	if _, err := NewTable("t", schema, bad); err == nil {
		t.Fatal("expected type error")
	}
	// mismatched lengths
	uneven := []Column{
		NewInt64Column([]int64{1, 2}, nil),
		NewStringColumn([]string{"x"}, nil),
	}
	if _, err := NewTable("t", schema, uneven); err == nil {
		t.Fatal("expected length error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tbl := buildTestTable(t)
	var buf bytes.Buffer
	if err := WriteCSV(tbl, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV("people", bytes.NewReader(buf.Bytes()), tbl.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != tbl.NumRows() {
		t.Fatalf("rows = %d, want %d", got.NumRows(), tbl.NumRows())
	}
	for c := 0; c < tbl.NumCols(); c++ {
		for r := 0; r < tbl.NumRows(); r++ {
			if tbl.Column(c).Render(r) != got.Column(c).Render(r) {
				t.Fatalf("cell (%d,%d) differs: %q vs %q", r, c, tbl.Column(c).Render(r), got.Column(c).Render(r))
			}
		}
	}
}

func TestCSVTypeInference(t *testing.T) {
	csvData := "id,score,name,flag\n1,1.5,anna,true\n2,2,bob,false\n,,,"
	tbl, err := ReadCSV("t", strings.NewReader(csvData), nil)
	if err != nil {
		t.Fatal(err)
	}
	wantTypes := []DataType{Int64, Float64, String, Bool}
	for i, want := range wantTypes {
		if got := tbl.Schema().Field(i).Type; got != want {
			t.Errorf("col %d inferred %v, want %v", i, got, want)
		}
	}
	if !tbl.Column(0).IsNull(2) {
		t.Error("empty cell should be NULL")
	}
}

func TestCSVErrors(t *testing.T) {
	// ragged row
	if _, err := ReadCSV("t", strings.NewReader("a,b\n1"), nil); err == nil {
		t.Error("expected error for ragged CSV")
	}
	// header mismatch with schema
	s := MustSchema(Field{"x", Int64})
	if _, err := ReadCSV("t", strings.NewReader("y\n1"), s); err == nil {
		t.Error("expected header mismatch error")
	}
	// unparsable cell under explicit schema
	if _, err := ReadCSV("t", strings.NewReader("x\nhello"), s); err == nil {
		t.Error("expected parse error")
	}
}

func TestPropertyGatherPreservesValues(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n := 500
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = r.Int63n(1000)
	}
	c := NewInt64Column(vals, nil)
	for trial := 0; trial < 20; trial++ {
		k := r.Intn(n)
		idx := make([]int, k)
		for i := range idx {
			idx[i] = r.Intn(n)
		}
		g := c.Gather(idx).(*Int64Column)
		for o, i := range idx {
			if g.At(o) != vals[i] {
				t.Fatalf("gather mismatch at %d", o)
			}
		}
	}
}

func TestPropertyDictionaryRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	words := []string{"aa", "bb", "cc", "dd", "ee", "ff"}
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(400)
		vals := make([]string, n)
		for i := range vals {
			vals[i] = words[r.Intn(len(words))]
		}
		c := NewStringColumn(vals, nil)
		for i := range vals {
			if c.At(i) != vals[i] {
				t.Fatalf("round trip mismatch at %d", i)
			}
		}
		if c.Cardinality() > len(words) {
			t.Fatal("cardinality too high")
		}
	}
}
