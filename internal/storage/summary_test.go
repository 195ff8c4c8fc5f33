package storage_test

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/storage"
)

// summaryChunkRows is the chunk size of the .atl residencies: small
// enough that a few hundred rows span several chunks.
const summaryChunkRows = 64

// residencies returns tbl the three ways a column can be held: in
// memory, as an eager .atl and as a lazy .atl behind a one-chunk cache.
func residencies(t *testing.T, tbl *storage.Table) []struct {
	name string
	tbl  *storage.Table
} {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.atl")
	if err := colstore.WriteFile(path, tbl, summaryChunkRows); err != nil {
		t.Fatal(err)
	}
	open := func(o colstore.Options) *storage.Table {
		s, err := colstore.OpenWith(path, o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s.Table()
	}
	return []struct {
		name string
		tbl  *storage.Table
	}{
		{"memory", tbl},
		{"eager", open(colstore.Options{Mode: colstore.ModeEager})},
		{"lazy", open(colstore.Options{Mode: colstore.ModeLazy, CacheBytes: summaryChunkRows * 9})},
	}
}

// summarizeEach runs check on the summaries of tbl at every residency.
func summarizeEach(t *testing.T, tbl *storage.Table, check func(t *testing.T, sums []storage.ColumnSummary)) {
	t.Helper()
	for _, r := range residencies(t, tbl) {
		t.Run(r.name, func(t *testing.T) {
			sums, err := storage.Summarize(r.tbl)
			if err != nil {
				t.Fatal(err)
			}
			check(t, sums)
		})
	}
}

func TestSummarize(t *testing.T) {
	schema := storage.MustSchema(
		storage.Field{Name: "n", Type: storage.Int64},
		storage.Field{Name: "f", Type: storage.Float64},
		storage.Field{Name: "c", Type: storage.String},
		storage.Field{Name: "b", Type: storage.Bool},
	)
	b := storage.NewBuilder("t", schema)
	b.MustAppendRow(1, 1.5, "x", true)
	b.MustAppendRow(5, 2.5, "y", false)
	b.MustAppendRow(3, nil, "x", true)
	b.MustAppendRow(nil, 4.0, "z", nil)
	summarizeEach(t, b.MustBuild(), func(t *testing.T, sums []storage.ColumnSummary) {
		if len(sums) != 4 {
			t.Fatalf("summaries = %d", len(sums))
		}
		n := sums[0]
		if n.Min != 1 || n.Max != 5 || n.Mean != 3 || n.Nulls != 1 {
			t.Fatalf("int summary = %+v", n)
		}
		f := sums[1]
		if f.Min != 1.5 || f.Max != 4.0 || f.Nulls != 1 {
			t.Fatalf("float summary = %+v", f)
		}
		c := sums[2]
		if c.Cardinality != 3 {
			t.Fatalf("cardinality = %d", c.Cardinality)
		}
		if len(c.TopValues) != 3 || c.TopValues[0].Value != "x" || c.TopValues[0].Count != 2 {
			t.Fatalf("top values = %+v", c.TopValues)
		}
		bl := sums[3]
		if bl.TrueCount != 2 || bl.Nulls != 1 {
			t.Fatalf("bool summary = %+v", bl)
		}
	})
}

func TestSummarizeTopValuesCapped(t *testing.T) {
	b := storage.NewBuilder("t", storage.MustSchema(storage.Field{Name: "c", Type: storage.String}))
	for i := 0; i < 100; i++ {
		b.MustAppendRow(string(rune('a' + i%10)))
	}
	summarizeEach(t, b.MustBuild(), func(t *testing.T, sums []storage.ColumnSummary) {
		if len(sums[0].TopValues) != 5 {
			t.Fatalf("top values = %d, want capped at 5", len(sums[0].TopValues))
		}
	})
}

func TestSummarizeAllNullNumeric(t *testing.T) {
	b := storage.NewBuilder("t", storage.MustSchema(storage.Field{Name: "x", Type: storage.Float64}))
	b.MustAppendRow(nil)
	summarizeEach(t, b.MustBuild(), func(t *testing.T, sums []storage.ColumnSummary) {
		if sums[0].Min != 0 || sums[0].Max != 0 || sums[0].Mean != 0 {
			t.Fatalf("all-null summary = %+v", sums[0])
		}
	})
}

// TestSummarizeNaN pins Min and Max to the extremes of the values other
// than NaN, wherever the NaN sits and whichever chunk holds it, with 0/0
// when no such value exists; Mean averages every non-NULL value, so a
// NaN makes it NaN.
func TestSummarizeNaN(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name     string
		vals     []any
		min, max float64
		nulls    int
		meanNaN  bool
		mean     float64
	}{
		{name: "nan first", vals: []any{nan, 1.0, 2.0, 3.0}, min: 1, max: 3, meanNaN: true},
		{name: "all nan", vals: []any{nan, nan}, meanNaN: true},
		{name: "all null", vals: []any{nil, nil, nil}, nulls: 3},
		{name: "nan in a later chunk", vals: append(repeat(5.0, summaryChunkRows), nan, -1.0), min: -1, max: 5, meanNaN: true},
		{name: "infinities", vals: []any{math.Inf(1), nan, math.Inf(-1)}, min: math.Inf(-1), max: math.Inf(1), meanNaN: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := storage.NewBuilder("t", storage.MustSchema(storage.Field{Name: "x", Type: storage.Float64}))
			for _, v := range tc.vals {
				b.MustAppendRow(v)
			}
			summarizeEach(t, b.MustBuild(), func(t *testing.T, sums []storage.ColumnSummary) {
				s := sums[0]
				if s.Min != tc.min || s.Max != tc.max || s.Nulls != tc.nulls {
					t.Errorf("min/max/nulls = %v/%v/%d, want %v/%v/%d", s.Min, s.Max, s.Nulls, tc.min, tc.max, tc.nulls)
				}
				if math.IsNaN(s.Mean) != tc.meanNaN || !tc.meanNaN && s.Mean != tc.mean {
					t.Errorf("mean = %v, want NaN=%v (%v)", s.Mean, tc.meanNaN, tc.mean)
				}
			})
		})
	}
}

func repeat(v any, n int) []any {
	out := make([]any, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestColumnSummaryString(t *testing.T) {
	schema := storage.MustSchema(storage.Field{Name: "age", Type: storage.Int64}, storage.Field{Name: "city", Type: storage.String}, storage.Field{Name: "ok", Type: storage.Bool})
	b := storage.NewBuilder("t", schema)
	b.MustAppendRow(30, "ams", true)
	summarizeEach(t, b.MustBuild(), func(t *testing.T, sums []storage.ColumnSummary) {
		if !strings.Contains(sums[0].String(), "mean=30") {
			t.Errorf("int String = %q", sums[0].String())
		}
		if !strings.Contains(sums[1].String(), "distinct=1") {
			t.Errorf("string String = %q", sums[1].String())
		}
		if !strings.Contains(sums[2].String(), "true=1") {
			t.Errorf("bool String = %q", sums[2].String())
		}
	})
}
