package cql

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/query"
	"repro/internal/storage"
)

// TestPropertyQueryRoundTrip: rendering a bound query with
// query.Query.String() yields CQL that re-parses and re-binds to an
// equal query. This locks the language and the logical model together.
func TestPropertyQueryRoundTrip(t *testing.T) {
	schema := storage.MustSchema(
		storage.Field{Name: "age", Type: storage.Int64},
		storage.Field{Name: "score", Type: storage.Float64},
		storage.Field{Name: "city", Type: storage.String},
		storage.Field{Name: "active", Type: storage.Bool},
	)
	b := storage.NewBuilder("t", schema)
	b.MustAppendRow(1, 1.0, "x", true)
	tbl := b.MustBuild()

	r := rand.New(rand.NewSource(21))
	cities := []string{"ams", "utr", "rot", "ein", "gro"}
	randPred := func() query.Predicate {
		switch r.Intn(4) {
		case 0:
			lo := float64(r.Intn(50))
			p := query.NewRange("age", lo, lo+float64(r.Intn(50)))
			p.HiIncl = r.Intn(2) == 0
			return p
		case 1:
			lo := r.Float64() * 10
			return query.NewRange("score", lo, lo+r.Float64()*5)
		case 2:
			k := 1 + r.Intn(3)
			vals := make([]string, k)
			for i := range vals {
				vals[i] = cities[r.Intn(len(cities))]
			}
			return query.NewIn("city", vals...)
		default:
			return query.NewBoolEq("active", r.Intn(2) == 0)
		}
	}

	for trial := 0; trial < 200; trial++ {
		// distinct attrs per query: the binder allows duplicates but
		// keeping them distinct makes Equal comparison strict
		used := map[string]bool{}
		var preds []query.Predicate
		for len(preds) < 1+r.Intn(4) {
			p := randPred()
			if used[p.Attr] {
				continue
			}
			used[p.Attr] = true
			preds = append(preds, p)
		}
		orig := query.New("t", preds...)
		text := orig.String()
		st, err := Parse(text, tbl)
		if err != nil {
			t.Fatalf("round trip parse failed for %q: %v", text, err)
		}
		if got := st.Query; !got.Equal(orig) {
			t.Fatalf("round trip changed the query:\n  orig %s\n  got  %s", orig, got)
		}
	}
}

// TestPropertyStatementStringStable: any statement that parses and
// binds renders to a canonical text that parses and binds to the same
// text (idempotent normal form), WITH clause included.
func TestPropertyStatementStringStable(t *testing.T) {
	b := storage.NewBuilder("t", storage.MustSchema(
		storage.Field{Name: "a", Type: storage.Float64},
		storage.Field{Name: "b", Type: storage.Int64},
		storage.Field{Name: "c", Type: storage.Float64},
		storage.Field{Name: "s", Type: storage.String},
	))
	b.MustAppendRow(1.0, int64(1), 1.0, "v1")
	tbl := b.MustBuild()
	r := rand.New(rand.NewSource(31))
	attrs := []string{"a", "b", "c"}
	withs := []string{"", " WITH MAPS 3", " WITH CUT variance SAMPLE 0.5", " WITH SPLITS 4 MERGE product DISTANCE vi THRESHOLD 0.25"}
	for trial := 0; trial < 100; trial++ {
		var parts []string
		for i := 0; i < 1+r.Intn(3); i++ {
			attr := attrs[r.Intn(len(attrs))]
			switch r.Intn(5) {
			case 0:
				parts = append(parts, fmt.Sprintf("%s BETWEEN %d AND %d", attr, r.Intn(10), 10+r.Intn(10)))
			case 1:
				parts = append(parts, fmt.Sprintf("%s IN [%d, %d)", attr, r.Intn(10), 10+r.Intn(10)))
			case 2:
				parts = append(parts, fmt.Sprintf("s IN ('v%d', 'v%d')", r.Intn(5), r.Intn(5)))
			case 3:
				parts = append(parts, fmt.Sprintf("%s = %d", attr, r.Intn(100)))
			default:
				parts = append(parts, fmt.Sprintf("%s < %d", attr, r.Intn(100)))
			}
		}
		in := "EXPLORE t WHERE " + strings.Join(parts, " AND ") + withs[r.Intn(len(withs))]
		s1, err := Parse(in, tbl)
		if err != nil {
			t.Fatalf("parse %q: %v", in, err)
		}
		s2, err := Parse(s1.String(), tbl)
		if err != nil {
			t.Fatalf("reparse %q: %v", s1.String(), err)
		}
		if s1.String() != s2.String() {
			t.Fatalf("render not idempotent:\n  %q\n  %q", s1.String(), s2.String())
		}
	}
}
