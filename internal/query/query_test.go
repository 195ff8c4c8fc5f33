package query

import (
	"testing"
)

func TestNewRange(t *testing.T) {
	p := NewRange("age", 17, 90)
	if p.Kind != Range || !p.LoIncl || !p.HiIncl {
		t.Fatal("NewRange shape wrong")
	}
	cases := []struct {
		v    float64
		want bool
	}{
		{16.9, false}, {17, true}, {50, true}, {90, true}, {90.1, false},
	}
	for _, c := range cases {
		if got := p.MatchFloat(c.v); got != c.want {
			t.Errorf("MatchFloat(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestHalfOpenRange(t *testing.T) {
	p := NewRangeHalfOpen("x", 0, 10)
	if p.MatchFloat(10) {
		t.Error("upper endpoint should be excluded")
	}
	if !p.MatchFloat(0) || !p.MatchFloat(9.999) {
		t.Error("interior points should match")
	}
}

func TestHalfOpenPartition(t *testing.T) {
	// [0,5) and [5,10] must partition [0,10]: no value matches both,
	// every value in range matches exactly one.
	left := NewRangeHalfOpen("x", 0, 5)
	right := NewRange("x", 5, 10)
	for v := 0.0; v <= 10; v += 0.25 {
		l, r := left.MatchFloat(v), right.MatchFloat(v)
		if l == r {
			t.Errorf("v=%v: left=%v right=%v, want exactly one", v, l, r)
		}
	}
}

func TestNewInSortsAndDedups(t *testing.T) {
	p := NewIn("edu", "MSc", "BSc", "MSc")
	if len(p.Values) != 2 || p.Values[0] != "BSc" || p.Values[1] != "MSc" {
		t.Fatalf("Values = %v", p.Values)
	}
	if !p.MatchString("BSc") || p.MatchString("PhD") {
		t.Fatal("MatchString wrong")
	}
}

func TestBoolEq(t *testing.T) {
	p := NewBoolEq("active", true)
	if !p.MatchBool(true) || p.MatchBool(false) {
		t.Fatal("MatchBool wrong")
	}
}

func TestKindMismatchNeverMatches(t *testing.T) {
	r := NewRange("x", 0, 1)
	if r.MatchString("a") || r.MatchBool(true) {
		t.Error("range should not match non-numeric")
	}
	s := NewIn("x", "a")
	if s.MatchFloat(0) || s.MatchBool(true) {
		t.Error("in should not match non-string")
	}
}

func TestPredicateEmpty(t *testing.T) {
	cases := []struct {
		name string
		p    Predicate
		want bool
	}{
		{"normal range", NewRange("x", 0, 1), false},
		{"inverted range", NewRange("x", 2, 1), true},
		{"point closed", NewRange("x", 1, 1), false},
		{"point half-open", NewRangeHalfOpen("x", 1, 1), true},
		{"empty set", NewIn("x"), true},
		{"nonempty set", NewIn("x", "a"), false},
		{"bool", NewBoolEq("x", false), false},
	}
	for _, c := range cases {
		if got := c.p.Empty(); got != c.want {
			t.Errorf("%s: Empty = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestPredicateString(t *testing.T) {
	cases := []struct {
		p    Predicate
		want string
	}{
		{NewRange("age", 17, 90), "age IN [17, 90]"},
		{NewRangeHalfOpen("age", 17, 37.5), "age IN [17, 37.5)"},
		{NewIn("edu", "MSc", "BSc"), "edu IN {'BSc', 'MSc'}"},
		{NewBoolEq("active", true), "active = true"},
		{NewIn("note", "it's"), "note IN {'it''s'}"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestPredicateEqual(t *testing.T) {
	a := NewRange("x", 0, 1)
	if !a.Equal(NewRange("x", 0, 1)) {
		t.Error("identical ranges should be equal")
	}
	if a.Equal(NewRangeHalfOpen("x", 0, 1)) {
		t.Error("different inclusivity should differ")
	}
	if a.Equal(NewRange("y", 0, 1)) {
		t.Error("different attr should differ")
	}
	if !NewIn("x", "b", "a").Equal(NewIn("x", "a", "b")) {
		t.Error("set order should not matter")
	}
	if NewIn("x", "a").Equal(NewIn("x", "a", "b")) {
		t.Error("different sets should differ")
	}
	if NewBoolEq("x", true).Equal(NewBoolEq("x", false)) {
		t.Error("bool values should differ")
	}
	if NewBoolEq("x", true).Equal(NewIn("x", "true")) {
		t.Error("kinds should differ")
	}
}

func TestQueryBasics(t *testing.T) {
	q := New("adult", NewRange("age", 17, 90), NewIn("edu", "BSc"))
	if q.NumPreds() != 2 {
		t.Fatal("NumPreds wrong")
	}
	if q.PredOn("edu") != 1 || q.PredOn("ghost") != -1 {
		t.Fatal("PredOn wrong")
	}
	attrs := q.Attrs()
	if len(attrs) != 2 || attrs[0] != "age" || attrs[1] != "edu" {
		t.Fatalf("Attrs = %v", attrs)
	}
}

func TestQueryAndIsCopy(t *testing.T) {
	q := New("t", NewRange("a", 0, 1))
	q2 := q.And(NewIn("b", "x"))
	if q.NumPreds() != 1 || q2.NumPreds() != 2 {
		t.Fatal("And should not mutate the receiver")
	}
}

func TestQueryReplacePred(t *testing.T) {
	q := New("t", NewRange("a", 0, 10), NewIn("b", "x"))
	q2 := q.ReplacePred(0, NewRange("a", 0, 5))
	if q.Preds[0].Hi != 10 {
		t.Fatal("ReplacePred mutated receiver")
	}
	if q2.Preds[0].Hi != 5 || !q2.Preds[1].Equal(q.Preds[1]) {
		t.Fatal("ReplacePred result wrong")
	}
}

func TestQueryString(t *testing.T) {
	q := New("adult", NewRange("age", 17, 90), NewIn("sex", "Male"))
	want := "EXPLORE adult WHERE age IN [17, 90] AND sex IN {'Male'}"
	if got := q.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if got := New("t").String(); got != "EXPLORE t" {
		t.Errorf("bare query String = %q", got)
	}
	if got := New("").String(); got != "EXPLORE ?" {
		t.Errorf("unnamed query String = %q", got)
	}
}

func TestQueryEmpty(t *testing.T) {
	if New("t", NewRange("a", 0, 1)).Empty() {
		t.Error("satisfiable query marked empty")
	}
	if !New("t", NewRange("a", 1, 0)).Empty() {
		t.Error("unsatisfiable query not marked empty")
	}
}

func TestQueryEqual(t *testing.T) {
	a := New("t", NewRange("x", 0, 1))
	b := New("t", NewRange("x", 0, 1))
	c := New("t", NewRange("x", 0, 2))
	d := New("u", NewRange("x", 0, 1))
	if !a.Equal(b) || a.Equal(c) || a.Equal(d) {
		t.Fatal("Equal wrong")
	}
}

func TestQueryAttrsDedup(t *testing.T) {
	q := New("t", NewRange("a", 0, 1), NewRange("a", 0, 0.5), NewIn("b", "x"))
	attrs := q.Attrs()
	if len(attrs) != 2 {
		t.Fatalf("Attrs = %v, want deduped", attrs)
	}
}

func TestFmtNum(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{1, "1"}, {-3, "-3"}, {1.5, "1.5"}, {0, "0"},
	}
	for _, c := range cases {
		if got := string(appendNum(nil, c.v)); got != c.want {
			t.Errorf("appendNum(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}
