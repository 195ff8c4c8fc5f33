package core

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/colstore"
	"repro/internal/datagen"
	"repro/internal/storage"
)

// screenEach screens tbl held in memory, as an eager .atl and as a lazy
// .atl behind a one-chunk cache, fails unless all three agree, and
// returns the findings.
func screenEach(t *testing.T, tbl *storage.Table, sel *bitvec.Vector, opts ScreenOptions) (keep []string, flagged []ScreenFinding) {
	t.Helper()
	keep, flagged = ScreenColumns(tbl, sel, opts)
	const chunkRows = 64
	path := filepath.Join(t.TempDir(), "screen.atl")
	if err := colstore.WriteFile(path, tbl, chunkRows); err != nil {
		t.Fatal(err)
	}
	for _, o := range []colstore.Options{{Mode: colstore.ModeEager}, {Mode: colstore.ModeLazy, CacheBytes: chunkRows * 9}} {
		st, err := colstore.OpenWith(path, o)
		if err != nil {
			t.Fatal(err)
		}
		k, f := ScreenColumns(st.Table(), sel, opts)
		st.Close()
		if !reflect.DeepEqual(k, keep) || !reflect.DeepEqual(f, flagged) {
			t.Errorf("mode %v: keep=%v flagged=%v, in memory keep=%v flagged=%v", o.Mode, k, f, keep, flagged)
		}
	}
	return keep, flagged
}

func TestScreenFlagsJunkColumns(t *testing.T) {
	tbl := datagen.WithJunkColumns(datagen.Census(2000, 1), 2)
	keep, flagged := screenEach(t, tbl, bitvec.NewFull(tbl.NumRows()), DefaultScreenOptions())

	keepSet := map[string]bool{}
	for _, k := range keep {
		keepSet[k] = true
	}
	for _, want := range []string{"age", "sex", "education", "salary", "eye_color"} {
		if !keepSet[want] {
			t.Errorf("column %q should be kept", want)
		}
	}
	flaggedSet := map[string]ScreenReason{}
	for _, f := range flagged {
		flaggedSet[f.Attr] = f.Reason
	}
	for _, junk := range []string{"row_id", "code", "comment"} {
		if r, ok := flaggedSet[junk]; !ok {
			t.Errorf("column %q should be flagged", junk)
		} else if r != ScreenNearUnique && r != ScreenHighCardinality {
			t.Errorf("column %q flagged as %q", junk, r)
		}
	}
}

func TestScreenConstantAndNull(t *testing.T) {
	s := storage.MustSchema(
		storage.Field{Name: "const_str", Type: storage.String},
		storage.Field{Name: "const_num", Type: storage.Float64},
		storage.Field{Name: "null_col", Type: storage.Int64},
		storage.Field{Name: "const_bool", Type: storage.Bool},
		storage.Field{Name: "ok", Type: storage.Float64},
	)
	b := storage.NewBuilder("t", s)
	for i := 0; i < 100; i++ {
		b.MustAppendRow("same", 3.14, nil, true, float64(i))
	}
	tbl := b.MustBuild()
	keep, flagged := screenEach(t, tbl, bitvec.NewFull(100), DefaultScreenOptions())
	if len(keep) != 1 || keep[0] != "ok" {
		t.Fatalf("keep = %v", keep)
	}
	reasons := map[string]ScreenReason{}
	for _, f := range flagged {
		reasons[f.Attr] = f.Reason
	}
	if reasons["const_str"] != ScreenConstant {
		t.Errorf("const_str: %v", reasons["const_str"])
	}
	if reasons["const_num"] != ScreenConstant {
		t.Errorf("const_num: %v", reasons["const_num"])
	}
	if reasons["null_col"] != ScreenAllNull {
		t.Errorf("null_col: %v", reasons["null_col"])
	}
	if reasons["const_bool"] != ScreenConstant {
		t.Errorf("const_bool: %v", reasons["const_bool"])
	}
}

func TestScreenIntegerKeys(t *testing.T) {
	s := storage.MustSchema(
		storage.Field{Name: "oid", Type: storage.Int64},
		storage.Field{Name: "bucket", Type: storage.Int64},
	)
	b := storage.NewBuilder("t", s)
	for i := 0; i < 1000; i++ {
		b.MustAppendRow(i, i%7)
	}
	tbl := b.MustBuild()
	keep, flagged := screenEach(t, tbl, bitvec.NewFull(1000), DefaultScreenOptions())
	if len(keep) != 1 || keep[0] != "bucket" {
		t.Fatalf("keep = %v", keep)
	}
	if len(flagged) != 1 || flagged[0].Attr != "oid" || flagged[0].Reason != ScreenNearUnique {
		t.Fatalf("flagged = %v", flagged)
	}
}

func TestScreenHighCardinalityCategorical(t *testing.T) {
	// 300 distinct values over 3000 rows: 10% unique ratio (not
	// near-unique) but way past MaxCardinality.
	vals := make([]string, 3000)
	for i := range vals {
		v := i % 300
		vals[i] = string(rune('a'+v%26)) + string(rune('a'+(v/26)%26))
	}
	tbl := catTable(t, vals)
	opts := DefaultScreenOptions()
	_, flagged := screenEach(t, tbl, bitvec.NewFull(3000), opts)
	if len(flagged) != 1 || flagged[0].Reason != ScreenHighCardinality {
		t.Fatalf("flagged = %v", flagged)
	}
}

func TestScreenRespectsSelection(t *testing.T) {
	// Column is diverse globally but constant under the selection.
	vals := []string{"a", "a", "a", "b", "c", "d"}
	tbl := catTable(t, vals)
	sel := bitvec.FromIndexes(6, []int{0, 1, 2})
	_, flagged := screenEach(t, tbl, sel, DefaultScreenOptions())
	if len(flagged) != 1 || flagged[0].Reason != ScreenConstant {
		t.Fatalf("flagged = %v", flagged)
	}
}

func TestScreenDefaultsAppliedOnZeroOptions(t *testing.T) {
	tbl := catTable(t, []string{"a", "b", "a", "b"})
	keep, flagged := screenEach(t, tbl, bitvec.NewFull(4), ScreenOptions{})
	if len(keep) != 1 || len(flagged) != 0 {
		t.Fatalf("keep=%v flagged=%v", keep, flagged)
	}
}

func TestScreenFloatColumnsNotFlaggedForUniqueness(t *testing.T) {
	// Continuous measurements are near-unique by nature and must be kept.
	vals := make([]float64, 500)
	for i := range vals {
		vals[i] = float64(i) * 1.37
	}
	tbl := numTable(t, vals)
	keep, flagged := screenEach(t, tbl, bitvec.NewFull(500), DefaultScreenOptions())
	if len(keep) != 1 || len(flagged) != 0 {
		t.Fatalf("keep=%v flagged=%v", keep, flagged)
	}
}
