package cql

import "testing"

// FuzzParseCQL: any input either fails to parse with a *SyntaxError or
// parses to a statement whose rendering parses back to a statement that
// renders the same — Parse never panics, and String() is CQL. Seed
// corpus under testdata/fuzz.
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
		s1, err := Parse(in)
		if err != nil {
			if _, ok := err.(*SyntaxError); !ok {
				t.Fatalf("Parse(%q): %T is not a *SyntaxError: %v", in, err, err)
			}
			return
		}
		out := s1.String()
		s2, err := Parse(out)
		if err != nil {
			t.Fatalf("rendering %q of %q does not parse: %v", out, in, err)
		}
		if again := s2.String(); again != out {
			t.Fatalf("rendering of %q unstable: %q -> %q", in, out, again)
		}
	})
}
