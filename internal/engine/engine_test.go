package engine

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/query"
	"repro/internal/storage"
)

// people builds a small table covering all column types and NULLs.
func people(t testing.TB) *storage.Table {
	t.Helper()
	schema := storage.MustSchema(
		storage.Field{Name: "age", Type: storage.Int64},
		storage.Field{Name: "salary", Type: storage.Float64},
		storage.Field{Name: "edu", Type: storage.String},
		storage.Field{Name: "active", Type: storage.Bool},
	)
	b := storage.NewBuilder("people", schema)
	b.MustAppendRow(25, 30000.0, "BSc", true)   // 0
	b.MustAppendRow(35, 55000.0, "MSc", true)   // 1
	b.MustAppendRow(45, 80000.0, "PhD", false)  // 2
	b.MustAppendRow(55, 42000.0, "BSc", true)   // 3
	b.MustAppendRow(65, nil, "MSc", false)      // 4
	b.MustAppendRow(nil, 20000.0, "None", true) // 5
	b.MustAppendRow(30, 35000.0, nil, nil)      // 6
	return b.MustBuild()
}

// evalPred evaluates one predicate as a one-predicate query.
func evalPred(t *storage.Table, p query.Predicate) (*bitvec.Vector, error) {
	return Eval(t, query.New(t.Name(), p))
}

func TestEvalPredicateRangeInt(t *testing.T) {
	tbl := people(t)
	sel, err := evalPred(tbl, query.NewRange("age", 30, 55))
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3, 6}
	if got := sel.Indexes(); !eqInts(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestEvalPredicateRangeFloat(t *testing.T) {
	tbl := people(t)
	sel, err := evalPred(tbl, query.NewRange("salary", 30000, 60000))
	if err != nil {
		t.Fatal(err)
	}
	// row 4 has NULL salary and must not match
	want := []int{0, 1, 3, 6}
	if got := sel.Indexes(); !eqInts(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestEvalPredicateIn(t *testing.T) {
	tbl := people(t)
	sel, err := evalPred(tbl, query.NewIn("edu", "BSc", "MSc"))
	if err != nil {
		t.Fatal(err)
	}
	// row 6 has NULL edu
	want := []int{0, 1, 3, 4}
	if got := sel.Indexes(); !eqInts(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestEvalPredicateInUnknownValue(t *testing.T) {
	tbl := people(t)
	sel, err := evalPred(tbl, query.NewIn("edu", "Diploma"))
	if err != nil {
		t.Fatal(err)
	}
	if sel.Any() {
		t.Fatal("unknown value should match nothing")
	}
}

func TestEvalPredicateBool(t *testing.T) {
	tbl := people(t)
	sel, err := evalPred(tbl, query.NewBoolEq("active", true))
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 3, 5} // row 6 has NULL active
	if got := sel.Indexes(); !eqInts(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestEvalPredicateErrors(t *testing.T) {
	tbl := people(t)
	cases := []query.Predicate{
		query.NewRange("edu", 0, 1),     // range on string col
		query.NewIn("age", "x"),         // in on int col
		query.NewBoolEq("salary", true), // bool on float col
		query.NewRange("ghost", 0, 1),   // missing column
	}
	for _, p := range cases {
		if _, err := evalPred(tbl, p); err == nil {
			t.Errorf("predicate %v should fail", p)
		}
	}
}

func TestEvalConjunction(t *testing.T) {
	tbl := people(t)
	q := query.New("people",
		query.NewRange("age", 30, 60),
		query.NewIn("edu", "BSc", "MSc"),
		query.NewBoolEq("active", true),
	)
	sel, err := Eval(tbl, q)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 3}
	if got := sel.Indexes(); !eqInts(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestEvalEmptyQuerySelectsAll(t *testing.T) {
	tbl := people(t)
	sel, err := Eval(tbl, query.New("people"))
	if err != nil {
		t.Fatal(err)
	}
	if sel.Count() != tbl.NumRows() {
		t.Fatalf("Count = %d, want %d", sel.Count(), tbl.NumRows())
	}
}

func TestEvalShortCircuit(t *testing.T) {
	tbl := people(t)
	q := query.New("people",
		query.NewRange("age", 1000, 2000), // matches nothing
		query.NewIn("edu", "BSc"),
	)
	sel, err := Eval(tbl, q)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Any() {
		t.Fatal("expected empty selection")
	}
}

func TestCount(t *testing.T) {
	tbl := people(t)
	q := query.New("people", query.NewIn("edu", "BSc"))
	c, err := Count(tbl, q)
	if err != nil || c != 2 {
		t.Fatalf("Count = %d err %v, want 2", c, err)
	}
}

func TestCountEmptyTable(t *testing.T) {
	schema := storage.MustSchema(storage.Field{Name: "x", Type: storage.Int64})
	tbl := storage.NewBuilder("empty", schema).MustBuild()
	c, err := Count(tbl, query.New("empty"))
	if err != nil || c != 0 {
		t.Fatalf("Count = %d err %v", c, err)
	}
}

func TestNumericValuesUnder(t *testing.T) {
	tbl := people(t)
	sel := bitvec.NewFull(tbl.NumRows())
	vals, err := NumericValuesUnder(tbl, "age", sel)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 6 { // 7 rows - 1 null
		t.Fatalf("len = %d, want 6", len(vals))
	}
	// restricted selection
	sub := bitvec.FromIndexes(tbl.NumRows(), []int{0, 5})
	vals, err = NumericValuesUnder(tbl, "age", sub)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 || vals[0] != 25 {
		t.Fatalf("vals = %v", vals)
	}
	if _, err := NumericValuesUnder(tbl, "edu", sel); err == nil {
		t.Fatal("expected error for non-numeric column")
	}
}

func TestCategoryCountsUnder(t *testing.T) {
	tbl := people(t)
	sel := bitvec.NewFull(tbl.NumRows())
	dict, counts, err := CategoryCountsUnder(tbl, "edu", sel)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	for i, d := range dict {
		byName[d] = counts[i]
	}
	if byName["BSc"] != 2 || byName["MSc"] != 2 || byName["PhD"] != 1 || byName["None"] != 1 {
		t.Fatalf("counts = %v", byName)
	}
	if _, _, err := CategoryCountsUnder(tbl, "age", sel); err == nil {
		t.Fatal("expected error for non-categorical column")
	}
}

func TestBoolCountsUnder(t *testing.T) {
	tbl := people(t)
	sel := bitvec.NewFull(tbl.NumRows())
	f, tr, err := BoolCountsUnder(tbl, "active", sel)
	if err != nil {
		t.Fatal(err)
	}
	if f != 2 || tr != 4 {
		t.Fatalf("false=%d true=%d", f, tr)
	}
	if _, _, err := BoolCountsUnder(tbl, "age", sel); err == nil {
		t.Fatal("expected error")
	}
}

func TestAssign(t *testing.T) {
	tbl := people(t)
	base := bitvec.NewFull(tbl.NumRows())
	regions := []query.Query{
		query.New("people", query.NewRangeHalfOpen("age", 0, 40)),
		query.New("people", query.NewRange("age", 40, 100)),
	}
	a, err := Assign(tbl, regions, base)
	if err != nil {
		t.Fatal(err)
	}
	if a.Regions != 2 {
		t.Fatal("Regions wrong")
	}
	// rows 0,1,6 in region 0; rows 2,3,4 in region 1; row 5 (null age) rest
	if a.Counts[0] != 3 || a.Counts[1] != 3 {
		t.Fatalf("Counts = %v", a.Counts)
	}
	if a.Rest != 1 {
		t.Fatalf("Rest = %d", a.Rest)
	}
	if l := a.Labels(); l[0] != 0 || l[2] != 1 || l[5] != -1 {
		t.Fatalf("Labels = %v", l)
	}
}

func TestAssignUnderBase(t *testing.T) {
	tbl := people(t)
	base := bitvec.FromIndexes(tbl.NumRows(), []int{0, 1})
	regions := []query.Query{query.New("people", query.NewRange("age", 0, 100))}
	a, err := Assign(tbl, regions, base)
	if err != nil {
		t.Fatal(err)
	}
	if a.Counts[0] != 2 || a.Rest != 0 {
		t.Fatalf("Counts=%v Rest=%d", a.Counts, a.Rest)
	}
	if a.Labels()[2] != -1 {
		t.Fatal("row outside base must be unassigned")
	}
}

func TestAssignErrors(t *testing.T) {
	tbl := people(t)
	if _, err := Assign(tbl, nil, bitvec.NewFull(tbl.NumRows())); err == nil {
		t.Fatal("expected error for zero regions")
	}
	if _, err := Assign(tbl, []query.Query{query.New("p")}, bitvec.New(3)); err == nil {
		t.Fatal("expected error for base length mismatch")
	}
	bad := []query.Query{query.New("p", query.NewRange("ghost", 0, 1))}
	if _, err := Assign(tbl, bad, bitvec.NewFull(tbl.NumRows())); err == nil {
		t.Fatal("expected error for bad region query")
	}
}

func TestAssignmentEntropy(t *testing.T) {
	a := &Assignment{Counts: []int{5, 5}, Regions: 2, Rest: 0}
	if got := a.Entropy(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Entropy = %v, want 1", got)
	}
	// rest becomes an extra outcome
	b := &Assignment{Counts: []int{5, 5}, Regions: 2, Rest: 10}
	if got := b.Entropy(); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("Entropy with rest = %v, want 1.5", got)
	}
}

func TestContingencyFromAssignments(t *testing.T) {
	tbl := people(t)
	base := bitvec.NewFull(tbl.NumRows())
	young := query.New("p", query.NewRangeHalfOpen("age", 0, 40))
	old := query.New("p", query.NewRange("age", 40, 200))
	lowPay := query.New("p", query.NewRangeHalfOpen("salary", 0, 50000))
	highPay := query.New("p", query.NewRange("salary", 50000, 1e9))

	aAge, err := Assign(tbl, []query.Query{young, old}, base)
	if err != nil {
		t.Fatal(err)
	}
	aPay, err := Assign(tbl, []query.Query{lowPay, highPay}, base)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := Contingency(aAge, aPay)
	if err != nil {
		t.Fatal(err)
	}
	// age young: rows 0,1,6 → salaries 30000,55000,35000 → low,high,low
	if ct.At(0, 0) != 2 || ct.At(0, 1) != 1 {
		t.Fatalf("young row wrong: %d %d", ct.At(0, 0), ct.At(0, 1))
	}
	// age old: rows 2,3,4 → 80000(high), 42000(low), NULL(rest)
	if ct.At(1, 0) != 1 || ct.At(1, 1) != 1 {
		t.Fatalf("old row wrong: %d %d", ct.At(1, 0), ct.At(1, 1))
	}
	// Totals: every row covered by at least one side is accounted.
	if ct.Total() != 7 {
		t.Fatalf("Total = %d, want 7", ct.Total())
	}
}

func TestContingencyLengthMismatch(t *testing.T) {
	a := &Assignment{n: 3, Regions: 1}
	b := &Assignment{n: 4, Regions: 1}
	if _, err := Contingency(a, b); err == nil {
		t.Fatal("expected error")
	}
}

func orders(t testing.TB) (*storage.Table, *storage.Table) {
	t.Helper()
	os := storage.MustSchema(
		storage.Field{Name: "oid", Type: storage.Int64},
		storage.Field{Name: "cid", Type: storage.Int64},
		storage.Field{Name: "amount", Type: storage.Float64},
	)
	ob := storage.NewBuilder("orders", os)
	ob.MustAppendRow(1, 100, 10.0)
	ob.MustAppendRow(2, 101, 20.0)
	ob.MustAppendRow(3, 100, 30.0)
	ob.MustAppendRow(4, 999, 40.0) // dangling FK
	ob.MustAppendRow(5, nil, 50.0) // null FK
	cs := storage.MustSchema(
		storage.Field{Name: "cid", Type: storage.Int64},
		storage.Field{Name: "segment", Type: storage.String},
		storage.Field{Name: "amount", Type: storage.Float64}, // name clash
	)
	cb := storage.NewBuilder("customers", cs)
	cb.MustAppendRow(100, "gold", 1.0)
	cb.MustAppendRow(101, "silver", 2.0)
	return ob.MustBuild(), cb.MustBuild()
}

func TestJoinFK(t *testing.T) {
	ot, ct := orders(t)
	j, err := JoinFK(ot, "cid", ct, "cid", "orders_customers")
	if err != nil {
		t.Fatal(err)
	}
	// dangling + null FK rows dropped
	if j.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", j.NumRows())
	}
	// columns: oid, cid, amount, segment, customers_amount
	if j.NumCols() != 5 {
		t.Fatalf("cols = %d, want 5", j.NumCols())
	}
	if !j.Schema().HasField("segment") || !j.Schema().HasField("customers_amount") {
		t.Fatalf("schema = %+v", j.Schema().Fields())
	}
	seg, _ := j.ColumnByName("segment")
	if seg.(*storage.StringColumn).At(0) != "gold" {
		t.Fatal("join values wrong")
	}
	amt, _ := j.ColumnByName("amount")
	if amt.(*storage.Float64Column).At(2) != 30.0 {
		t.Fatal("fact values wrong")
	}
}

func TestJoinFKStringKey(t *testing.T) {
	fs := storage.MustSchema(
		storage.Field{Name: "k", Type: storage.String},
		storage.Field{Name: "v", Type: storage.Int64},
	)
	fb := storage.NewBuilder("f", fs)
	fb.MustAppendRow("a", 1)
	fb.MustAppendRow("b", 2)
	ds := storage.MustSchema(
		storage.Field{Name: "k", Type: storage.String},
		storage.Field{Name: "label", Type: storage.String},
	)
	db := storage.NewBuilder("d", ds)
	db.MustAppendRow("a", "alpha")
	db.MustAppendRow("b", "beta")
	j, err := JoinFK(fb.MustBuild(), "k", db.MustBuild(), "k", "j")
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != 2 {
		t.Fatalf("rows = %d", j.NumRows())
	}
	lab, _ := j.ColumnByName("label")
	if lab.(*storage.StringColumn).At(1) != "beta" {
		t.Fatal("values wrong")
	}
}

func TestJoinFKErrors(t *testing.T) {
	ot, ct := orders(t)
	if _, err := JoinFK(ot, "ghost", ct, "cid", "x"); err == nil {
		t.Fatal("expected missing fact key error")
	}
	if _, err := JoinFK(ot, "cid", ct, "ghost", "x"); err == nil {
		t.Fatal("expected missing dim key error")
	}
	if _, err := JoinFK(ot, "amount", ct, "segment", "x"); err == nil {
		t.Fatal("expected type mismatch error")
	}
	// duplicate dimension keys
	ds := storage.MustSchema(storage.Field{Name: "cid", Type: storage.Int64})
	db := storage.NewBuilder("dup", ds)
	db.MustAppendRow(7)
	db.MustAppendRow(7)
	if _, err := JoinFK(ot, "cid", db.MustBuild(), "cid", "x"); err == nil {
		t.Fatal("expected duplicate key error")
	}
}

// TestPropertyEvalMatchesNaive cross-checks the columnar evaluation against
// a row-at-a-time reference on random tables and queries.
func TestPropertyEvalMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	cats := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 30; trial++ {
		n := 1 + r.Intn(200)
		schema := storage.MustSchema(
			storage.Field{Name: "x", Type: storage.Float64},
			storage.Field{Name: "c", Type: storage.String},
		)
		b := storage.NewBuilder("t", schema)
		xs := make([]float64, n)
		cs := make([]string, n)
		for i := 0; i < n; i++ {
			xs[i] = r.Float64() * 100
			cs[i] = cats[r.Intn(len(cats))]
			b.MustAppendRow(xs[i], cs[i])
		}
		tbl := b.MustBuild()
		lo := r.Float64() * 100
		hi := lo + r.Float64()*50
		set := cats[:1+r.Intn(len(cats))]
		q := query.New("t", query.NewRange("x", lo, hi), query.NewIn("c", set...))
		sel, err := Eval(tbl, q)
		if err != nil {
			t.Fatal(err)
		}
		inSet := func(s string) bool {
			for _, v := range set {
				if v == s {
					return true
				}
			}
			return false
		}
		for i := 0; i < n; i++ {
			want := xs[i] >= lo && xs[i] <= hi && inSet(cs[i])
			if sel.Get(i) != want {
				t.Fatalf("row %d: got %v want %v", i, sel.Get(i), want)
			}
		}
	}
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
