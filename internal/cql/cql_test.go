package cql

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/storage"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex("EXPLORE adult WHERE age >= 17 AND edu IN ('BSc', 'MSc')")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokenKind{
		TokIdent, TokIdent, TokIdent, TokIdent, TokGe, TokNumber,
		TokIdent, TokIdent, TokIdent, TokLParen, TokString, TokComma,
		TokString, TokRParen, TokEOF,
	}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(kinds))
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d: kind %v, want %v", i, toks[i].Kind, k)
		}
	}
}

func TestLexStringEscapes(t *testing.T) {
	toks, err := Lex("'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "it's" {
		t.Fatalf("decoded = %q", toks[0].Text)
	}
}

func TestLexErrors(t *testing.T) {
	cases := []string{"'unterminated", "age @ 5", "x = -"}
	for _, in := range cases {
		if _, err := Lex(in); err == nil {
			t.Errorf("Lex(%q) should fail", in)
		}
	}
}

func TestLexNumbers(t *testing.T) {
	cases := map[string]string{
		"42":     "42",
		"-3.5":   "-3.5",
		"1e6":    "1e6",
		"2.5e-3": "2.5e-3",
		"+7":     "+7",
	}
	for in, want := range cases {
		toks, err := Lex(in)
		if err != nil {
			t.Errorf("Lex(%q): %v", in, err)
			continue
		}
		if toks[0].Kind != TokNumber || toks[0].Text != want {
			t.Errorf("Lex(%q) = %v %q", in, toks[0].Kind, toks[0].Text)
		}
	}
}

func TestParseMinimal(t *testing.T) {
	stmt, err := parse("EXPLORE adult")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Table != "adult" || len(stmt.Preds) != 0 {
		t.Fatalf("stmt = %+v", stmt)
	}
}

func TestParseFullQuery(t *testing.T) {
	in := "explore adult where age between 17 and 90 and sex = 'Male' and edu in {'BSc','MSc'} and salary in [0, 50000) and active = true and score < 10"
	stmt, err := parse(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Preds) != 6 {
		t.Fatalf("preds = %d", len(stmt.Preds))
	}
	r, ok := stmt.Preds[0].(*rangePred)
	if !ok || r.Lo != 17 || r.Hi != 90 || !r.LoIncl || !r.HiIncl {
		t.Fatalf("pred 0 = %#v", stmt.Preds[0])
	}
	e, ok := stmt.Preds[1].(*eqPred)
	if !ok || e.Kind != litString || e.StrVal != "Male" {
		t.Fatalf("pred 1 = %#v", stmt.Preds[1])
	}
	s, ok := stmt.Preds[2].(*setPred)
	if !ok || len(s.Values) != 2 {
		t.Fatalf("pred 2 = %#v", stmt.Preds[2])
	}
	r2, ok := stmt.Preds[3].(*rangePred)
	if !ok || r2.HiIncl {
		t.Fatalf("pred 3 = %#v (interval [0,50000) must be half-open)", stmt.Preds[3])
	}
	b, ok := stmt.Preds[4].(*eqPred)
	if !ok || b.Kind != litBool || !b.BoolVal {
		t.Fatalf("pred 4 = %#v", stmt.Preds[4])
	}
	c, ok := stmt.Preds[5].(*cmpPred)
	if !ok || c.Op != TokLt || c.Val != 10 {
		t.Fatalf("pred 5 = %#v", stmt.Preds[5])
	}
}

func TestParseWithOptions(t *testing.T) {
	stmt, err := parse("EXPLORE t WITH MAPS 5 REGIONS 6 PREDICATES 2 SPLITS 3 CUT variance MERGE product DISTANCE nmi THRESHOLD 0.8 SAMPLE 0.25")
	if err != nil {
		t.Fatal(err)
	}
	o := stmt.Options
	if o.Maps != 5 || o.Regions != 6 || o.Predicates != 2 || o.Splits != 3 {
		t.Fatalf("numeric options = %+v", o)
	}
	if o.Cut != "variance" || o.Merge != "product" || o.Distance != "nmi" {
		t.Fatalf("string options = %+v", o)
	}
	if o.Threshold != 0.8 || o.Sample != 0.25 {
		t.Fatalf("float options = %+v", o)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"SELECT * FROM t",
		"EXPLORE",
		"EXPLORE t WHERE",
		"EXPLORE t WHERE age",
		"EXPLORE t WHERE age BETWEEN 1",
		"EXPLORE t WHERE age BETWEEN 1 AND",
		"EXPLORE t WHERE edu IN",
		"EXPLORE t WHERE edu IN ()",
		"EXPLORE t WHERE edu IN ('a'",
		"EXPLORE t WHERE age IN [1, 2",
		"EXPLORE t WHERE age = ",
		"EXPLORE t WITH BOGUS 3",
		"EXPLORE t WITH MAPS 0",
		"EXPLORE t WITH MAPS 2 MAPS 3",
		"EXPLORE t WITH SAMPLE -1",
		"EXPLORE t WITH SAMPLE 1.5",
		"EXPLORE t trailing",
	}
	for _, in := range cases {
		if _, err := parse(in); err == nil {
			t.Errorf("parse(%q) should fail", in)
		}
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	tbl := testTable(t)
	inputs := []string{
		"EXPLORE adult",
		"EXPLORE adult WHERE age IN [17, 90] AND edu = 'BSc'",
		"EXPLORE adult WHERE edu IN {'BSc', 'MSc'} AND salary IN [0, 1) AND active = true",
		"EXPLORE adult WITH MAPS 4 CUT median",
		"EXPLORE adult WHERE age > 17 AND salary <= 5000 AND age IN (17, 90]",
	}
	for _, in := range inputs {
		s1, err := Parse(in, tbl)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		s2, err := Parse(s1.String(), tbl)
		if err != nil {
			t.Fatalf("reparse of %q: %v", s1.String(), err)
		}
		if s1.String() != s2.String() {
			t.Errorf("round trip unstable: %q -> %q", s1.String(), s2.String())
		}
	}
}

func testTable(t *testing.T) *storage.Table {
	t.Helper()
	s := storage.MustSchema(
		storage.Field{Name: "age", Type: storage.Int64},
		storage.Field{Name: "salary", Type: storage.Float64},
		storage.Field{Name: "edu", Type: storage.String},
		storage.Field{Name: "active", Type: storage.Bool},
	)
	b := storage.NewBuilder("adult", s)
	b.MustAppendRow(30, 50000.0, "BSc", true)
	return b.MustBuild()
}

func TestBindTypesCorrectly(t *testing.T) {
	tbl := testTable(t)
	st, err := Parse(
		"EXPLORE adult WHERE age BETWEEN 17 AND 90 AND edu IN ('BSc','MSc') AND active = true AND salary >= 1000 WITH MAPS 3",
		tbl)
	if err != nil {
		t.Fatal(err)
	}
	q := st.Query
	if st.With.Maps != 3 {
		t.Fatalf("opts = %+v", st.With)
	}
	if q.NumPreds() != 4 {
		t.Fatalf("preds = %d", q.NumPreds())
	}
	if q.Preds[0].Kind != query.Range || q.Preds[0].Lo != 17 {
		t.Fatalf("pred 0 = %+v", q.Preds[0])
	}
	if q.Preds[1].Kind != query.In || len(q.Preds[1].Values) != 2 {
		t.Fatalf("pred 1 = %+v", q.Preds[1])
	}
	if q.Preds[2].Kind != query.BoolEq || !q.Preds[2].BoolVal {
		t.Fatalf("pred 2 = %+v", q.Preds[2])
	}
	if !math.IsInf(q.Preds[3].Hi, 1) || q.Preds[3].Lo != 1000 {
		t.Fatalf("pred 3 = %+v", q.Preds[3])
	}
}

func TestBindComparisonOperators(t *testing.T) {
	tbl := testTable(t)
	cases := []struct {
		in             string
		lo, hi         float64
		loIncl, hiIncl bool
	}{
		{"EXPLORE adult WHERE age < 30", math.Inf(-1), 30, true, false},
		{"EXPLORE adult WHERE age <= 30", math.Inf(-1), 30, true, true},
		{"EXPLORE adult WHERE age > 30", 30, math.Inf(1), false, true},
		{"EXPLORE adult WHERE age >= 30", 30, math.Inf(1), true, true},
		{"EXPLORE adult WHERE age = 30", 30, 30, true, true},
	}
	for _, c := range cases {
		st, err := Parse(c.in, tbl)
		if err != nil {
			t.Fatalf("%s: %v", c.in, err)
		}
		p := st.Query.Preds[0]
		if p.Lo != c.lo || p.Hi != c.hi || p.LoIncl != c.loIncl || p.HiIncl != c.hiIncl {
			t.Errorf("%s: bound to %+v", c.in, p)
		}
	}
}

func TestBindErrors(t *testing.T) {
	tbl := testTable(t)
	cases := []string{
		"EXPLORE other WHERE age = 1",                // wrong table
		"EXPLORE adult WHERE ghost = 1",              // unknown column
		"EXPLORE adult WHERE edu BETWEEN 1 AND 2",    // range on string
		"EXPLORE adult WHERE age IN ('a','b')",       // set on numeric w/ text
		"EXPLORE adult WHERE age IN (1, 2)",          // multi-number set on numeric
		"EXPLORE adult WHERE active = 'yes'",         // bool vs string
		"EXPLORE adult WHERE edu = 5",                // string vs number
		"EXPLORE adult WHERE edu < 3",                // comparison on string
		"EXPLORE adult WHERE active BETWEEN 0 AND 1", // range on bool
		"EXPLORE adult WHERE edu = true",             // string vs bool
		"EXPLORE adult WHERE age = 'x'",              // numeric vs string
	}
	for _, in := range cases {
		if _, err := Parse(in, tbl); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
}

func TestBindNumericSingletonInList(t *testing.T) {
	tbl := testTable(t)
	st, err := Parse("EXPLORE adult WHERE age IN (30)", tbl)
	if err != nil {
		t.Fatal(err)
	}
	if p := st.Query.Preds[0]; p.Lo != 30 || p.Hi != 30 {
		t.Fatalf("pred = %+v", p)
	}
}

func TestBindErrorMessages(t *testing.T) {
	tbl := testTable(t)
	_, err := Parse("EXPLORE adult WHERE ghost = 1", tbl)
	if err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("error should name the column: %v", err)
	}
}

func TestStatementStringWithOptions(t *testing.T) {
	stmt, err := Parse("EXPLORE adult WITH MAPS 4 THRESHOLD 0.9", testTable(t))
	if err != nil {
		t.Fatal(err)
	}
	s := stmt.String()
	if !strings.Contains(s, "MAPS 4") || !strings.Contains(s, "THRESHOLD 0.9") {
		t.Fatalf("String = %q", s)
	}
}

// TestLexUTF8: identifiers are runs of Unicode letters, whatever their
// encoded length, and a byte that is not UTF-8 is a syntax error rather
// than a Latin-1 letter.
func TestLexUTF8(t *testing.T) {
	stmt, err := parse("EXPLORE größe WHERE höhe_2 >= 1 WITH CUT Médian")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Table != "größe" || stmt.Preds[0].Attr() != "höhe_2" || stmt.Options.Cut != "médian" {
		t.Errorf("parsed %+v", stmt)
	}
	for _, in := range []string{"EXPLORE \xf3", "EXPLORE t WITH MERGE \xf3", "EXPLORE t WHERE a = 1\xff"} {
		if _, err := parse(in); err == nil {
			t.Errorf("parse(%q) accepted a byte that is not UTF-8", in)
		} else if _, ok := err.(*SyntaxError); !ok {
			t.Errorf("parse(%q): %T, want *SyntaxError", in, err)
		}
	}
}

// TestParseBindsWithClause: Parse checks each WITH value against the
// pipeline's rules, naming the option it refuses, reads CUT sketch as
// median, and renders the statement as its query's text and its clause.
func TestParseBindsWithClause(t *testing.T) {
	tbl := testTable(t)
	for _, opt := range []string{"SPLITS 1", "REGIONS 1", "CUT bogus", "MERGE bogus", "DISTANCE bogus"} {
		_, err := Parse("EXPLORE adult WITH "+opt, tbl)
		if err == nil || !strings.Contains(err.Error(), "WITH "+opt) {
			t.Errorf("WITH %s: %v, want an error naming it", opt, err)
		}
	}
	st, err := Parse("EXPLORE adult WHERE age BETWEEN 17 AND 90 WITH CUT sketch MAPS 2", tbl)
	if err != nil {
		t.Fatal(err)
	}
	if want := "EXPLORE adult WHERE age IN [17, 90] WITH MAPS 2 CUT median"; st.String() != want {
		t.Errorf("String = %q, want %q", st.String(), want)
	}
	if _, err := st.Plain(); !errors.Is(err, ErrWithClause) || !strings.Contains(err.Error(), "MAPS 2") {
		t.Errorf("Plain: %v, want ErrWithClause naming the clause", err)
	}
	plain, err := Parse("EXPLORE adult WHERE age BETWEEN 17 AND 90", tbl)
	if err != nil {
		t.Fatal(err)
	}
	if q, err := plain.Plain(); err != nil || plain.String() != q.String() {
		t.Errorf("plain statement: %q, %v; want its query's text", plain.String(), err)
	}
}

// TestStatementKey: a statement's cache key is its query's text plus
// only the WITH options that differ from the Cartographer's, so a
// clause that restates them keys as the plain query; SAMPLE always
// counts, and the statement's own text keeps the whole clause.
func TestStatementKey(t *testing.T) {
	tbl := testTable(t)
	base := core.DefaultOptions()
	for _, tc := range []struct{ in, key string }{
		{"EXPLORE adult", "EXPLORE adult"},
		{"EXPLORE adult WITH MAPS 8", "EXPLORE adult"},
		{"EXPLORE adult WITH MAPS 8 REGIONS 8 PREDICATES 3 CUT median MERGE compose DISTANCE nvi THRESHOLD 0.95", "EXPLORE adult"},
		{"EXPLORE adult WITH MAPS 2", "EXPLORE adult WITH MAPS 2"},
		{"EXPLORE adult WITH MAPS 8 CUT variance", "EXPLORE adult WITH CUT variance"},
		{"EXPLORE adult WITH SAMPLE 1", "EXPLORE adult WITH SAMPLE 1"},
	} {
		st, err := Parse(tc.in, tbl)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Key(base); got != tc.key {
			t.Errorf("%q: key %q, want %q", tc.in, got, tc.key)
		}
		if got := st.String(); got != tc.in {
			t.Errorf("%q: text %q", tc.in, got)
		}
	}
}
