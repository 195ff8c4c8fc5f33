package cql

import (
	"testing"

	"repro/internal/storage"
)

// FuzzParseCQL: any input either fails to parse with a *SyntaxError, or
// parses to a statement that, bound against a table shaped after it,
// has a canonical text (Statement.String) that parses and binds back
// to the same text — parsing never panics, and the text that keys and
// echoes results is CQL. Seed corpus under testdata/fuzz.
func FuzzParseCQL(f *testing.F) {
	for _, s := range []string{
		"EXPLORE census",
		"EXPLORE census WHERE age BETWEEN 17 AND 90 AND sex = 'Male'",
		"EXPLORE t WHERE edu IN {'BSc', 'MSc'} AND x IN [0, 1) AND b = true",
		"EXPLORE t WHERE x >= -1.5e3 AND y < 7 WITH MAPS 4 CUT median MERGE product SAMPLE 0.1",
		"EXPLORE t WITH SPLITS 3 REGIONS 6 PREDICATES 2 DISTANCE vi THRESHOLD 0.9",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := parse(in)
		if err != nil {
			if _, ok := err.(*SyntaxError); !ok {
				t.Fatalf("parse(%q): %T is not a *SyntaxError: %v", in, err, err)
			}
			return
		}
		tbl := tableFor(s)
		st, err := Parse(in, tbl)
		if err != nil {
			return // a predicate the shape cannot type, or a refused WITH value
		}
		out := st.String()
		again, err := Parse(out, tbl)
		if err != nil {
			t.Fatalf("canonical text %q of %q does not parse: %v", out, in, err)
		}
		if again.String() != out {
			t.Fatalf("canonical text of %q unstable: %q -> %q", in, out, again.String())
		}
	})
}

// tableFor returns an empty table named as s explores, with one column
// per attribute its predicates constrain, typed after the first of them.
func tableFor(s *tree) *storage.Table {
	var fields []storage.Field
	seen := map[string]bool{}
	for _, p := range s.Preds {
		if seen[p.Attr()] {
			continue
		}
		seen[p.Attr()] = true
		typ := storage.Float64
		switch v := p.(type) {
		case *setPred:
			typ = storage.String
		case *eqPred:
			typ = [...]storage.DataType{litNumber: storage.Float64, litString: storage.String, litBool: storage.Bool}[v.Kind]
		}
		fields = append(fields, storage.Field{Name: p.Attr(), Type: typ})
	}
	return storage.NewBuilder(s.Table, storage.MustSchema(fields...)).MustBuild()
}
