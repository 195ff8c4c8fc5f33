package core

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync/atomic"
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

// screenOracle is the screen without any early exit: every column's
// selected non-NULL rows are read row by row up to the sample limit, and
// the verdict rules are applied to what was read.
func screenOracle(tbl *storage.Table, sel *bitvec.Vector, opts ScreenOptions) (keep []string, flagged []ScreenFinding) {
	if opts.MaxCardinality <= 0 {
		opts.MaxCardinality = DefaultScreenOptions().MaxCardinality
	}
	if opts.UniqueRatio <= 0 || opts.UniqueRatio > 1 {
		opts.UniqueRatio = DefaultScreenOptions().UniqueRatio
	}
	limit := opts.SampleRows
	if limit <= 0 {
		limit = sel.Count()
	}
	for ci := 0; ci < tbl.NumCols(); ci++ {
		f, col := tbl.Schema().Field(ci), tbl.Column(ci)
		rows, distinct := 0, map[any]bool{}
		sel.ForEach(func(r int) bool {
			if !col.IsNull(r) {
				rows++
				distinct[col.Value(r)] = true
			}
			return rows < limit
		})
		d := len(distinct)
		var finding *ScreenFinding
		switch {
		case rows == 0:
			finding = &ScreenFinding{f.Name, ScreenAllNull, 0}
		case d <= 1 && (f.Type == storage.String || f.Type == storage.Int64):
			finding = &ScreenFinding{f.Name, ScreenConstant, d}
		case d <= 1:
			finding = &ScreenFinding{f.Name, ScreenConstant, 1}
		case f.Type == storage.String && float64(d) > opts.UniqueRatio*float64(rows):
			finding = &ScreenFinding{f.Name, ScreenNearUnique, d}
		case f.Type == storage.String && d > opts.MaxCardinality:
			finding = &ScreenFinding{f.Name, ScreenHighCardinality, d}
		case f.Type == storage.Int64 && rows >= 100 && float64(d) > 0.95*float64(rows):
			finding = &ScreenFinding{f.Name, ScreenNearUnique, d}
		}
		if finding == nil {
			keep = append(keep, f.Name)
		} else {
			flagged = append(flagged, *finding)
		}
	}
	return keep, flagged
}

// tallySource serves a chunked resident table's chunks to lazy
// columns and counts the fetches.
type tallySource struct {
	tbl     *storage.Table
	fetches atomic.Int64
}

func (s *tallySource) FetchChunk(ctx context.Context, ci, k int) (*storage.ChunkPayload, bool, error) {
	s.fetches.Add(1)
	p, err := s.tbl.Runs(ci).Run(ctx, k, nil)
	return p, true, err
}

func (s *tallySource) PrefetchChunks(context.Context, int, []int) {}

// tallyTable holds tbl as lazy columns over a tallySource whose
// dictionaries resolve on first use, counting the resolutions in loads.
func tallyTable(t *testing.T, tbl *storage.Table, chunkRows int, loads *atomic.Int64) (*storage.Table, *tallySource) {
	t.Helper()
	ck, err := storage.ComputeChunking(tbl, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([]storage.Column, tbl.NumCols())
	for ci := range cols {
		cols[ci] = tbl.Column(ci)
	}
	chunked, err := storage.NewChunkedTable(tbl.Name(), tbl.Schema(), cols, ck)
	if err != nil {
		t.Fatal(err)
	}
	src := &tallySource{tbl: chunked}
	lazy := make([]storage.Column, tbl.NumCols())
	for ci := range lazy {
		col := tbl.Column(ci)
		cfg := storage.LazyColumnConfig{Source: src, Col: ci, Type: col.Type(), Rows: tbl.NumRows(), ChunkSize: chunkRows, NullCount: col.NullCount()}
		if col.Type() == storage.String {
			cfg.DictFn = func() ([]string, error) {
				loads.Add(1)
				return storage.Dictionary(col)
			}
		}
		if lazy[ci], err = storage.NewLazyColumn(cfg); err != nil {
			t.Fatal(err)
		}
	}
	out, err := storage.NewChunkedTable(tbl.Name(), tbl.Schema(), lazy, ck)
	if err != nil {
		t.Fatal(err)
	}
	return out, src
}

// screenPropertyTable generates one column of each shape the early exit
// must get right: near-unique and low-cardinality ints, ints right at the
// key rule's 0.95, high-cardinality strings, strings with a dictionary of
// at most 64 entries, strings whose large dictionary the selection uses
// only a little of, strings right at UniqueRatio, columns constant over
// their first half, constant and all-NULL columns of every type, and
// NULLs sprinkled through the rest.
func screenPropertyTable(n int, rnd *rand.Rand) *storage.Table {
	fields := []storage.Field{
		{Name: "int_key", Type: storage.Int64},
		{Name: "int_low", Type: storage.Int64},
		{Name: "int_edge", Type: storage.Int64},
		{Name: "int_over", Type: storage.Int64},
		{Name: "int_lead", Type: storage.Int64},
		{Name: "int_const", Type: storage.Int64},
		{Name: "int_null", Type: storage.Int64},
		{Name: "str_high", Type: storage.String},
		{Name: "str_small", Type: storage.String},
		{Name: "str_skewed", Type: storage.String},
		{Name: "str_edge", Type: storage.String},
		{Name: "str_over", Type: storage.String},
		{Name: "str_lead", Type: storage.String},
		{Name: "str_const", Type: storage.String},
		{Name: "str_null", Type: storage.String},
		{Name: "flt", Type: storage.Float64},
		{Name: "flt_const", Type: storage.Float64},
		{Name: "bool", Type: storage.Bool},
		{Name: "bool_null", Type: storage.Bool},
	}
	b := storage.NewBuilder("p", storage.MustSchema(fields...))
	perm := rnd.Perm(n)
	nullable := func(v any) any {
		if rnd.Intn(25) == 0 {
			return nil
		}
		return v
	}
	for r := 0; r < n; r++ {
		key := perm[r]
		if rnd.Intn(40) == 0 {
			key = perm[rnd.Intn(n)]
		}
		// edge repeats its value once in twenty rows: 0.95 distinct, not
		// above it; over has one duplicate less. str_edge and str_over
		// do the same at 0.8.
		edge, over := r, r
		if r%20 == 19 {
			edge, over = r-1, r-1
		}
		if r == n-1 {
			over = -1
		}
		// lead is constant over the first half of the rows, then varies
		lead := 0
		if r >= n/2 {
			lead = rnd.Intn(5)
		}
		strEdge := fmt.Sprintf("e%d", r*4/5)
		strOver := strEdge
		if r == n-1 {
			strOver = "last"
		}
		skewed := fmt.Sprintf("s%d", rnd.Intn(3))
		if r < n/3 {
			skewed = fmt.Sprintf("tail%d", rnd.Intn(200))
		}
		b.MustAppendRow(
			nullable(key), nullable(rnd.Intn(9)), edge, over, lead, 7, nil,
			nullable(fmt.Sprintf("h%d", rnd.Intn(n/4+2))), nullable(fmt.Sprintf("c%d", rnd.Intn(1+rnd.Intn(64)))),
			skewed, strEdge, strOver, fmt.Sprintf("l%d", lead), "same", nil,
			nullable(rnd.NormFloat64()), 2.5, nullable(rnd.Intn(2) == 0), nil,
		)
	}
	return b.MustBuild()
}

// TestScreenEarlyExitMatchesFullScan: over generated columns, selections
// and options, the screen — in memory, and lazy with its dictionaries
// unresolved and resolved — reports exactly the findings, reasons and
// Cardinality included, of reading every column to the sample limit. It
// resolves no dictionary of its own, and with a resolved one it stops
// early on the columns whose verdict is settled.
func TestScreenEarlyExitMatchesFullScan(t *testing.T) {
	const chunkRows = 256
	rnd := rand.New(rand.NewSource(41))
	for _, n := range []int{150, 4000} {
		tbl := screenPropertyTable(n, rnd)
		half, band := bitvec.New(n), bitvec.New(n)
		for r := 0; r < n; r++ {
			if rnd.Intn(2) == 0 {
				half.Set(r)
			}
			if r >= n/3 {
				band.Set(r)
			}
		}
		sels := map[string]*bitvec.Vector{"full": bitvec.NewFull(n), "half": half, "band": band, "empty": bitvec.New(n)}
		for selName, sel := range sels {
			for _, opts := range []ScreenOptions{DefaultScreenOptions(), {SampleRows: 100}, {MaxCardinality: 250}, {UniqueRatio: 0.5, MaxCardinality: 250}, {UniqueRatio: 0.99}} {
				label := fmt.Sprintf("n=%d %s %+v", n, selName, opts)
				wantKeep, wantFlagged := screenOracle(tbl, sel, opts)
				keep, flagged := ScreenColumns(tbl, sel, opts)
				if !reflect.DeepEqual(keep, wantKeep) || !reflect.DeepEqual(flagged, wantFlagged) {
					t.Errorf("%s: in memory keep=%v flagged=%v, full scan keep=%v flagged=%v", label, keep, flagged, wantKeep, wantFlagged)
				}
				var loads atomic.Int64
				lazy, src := tallyTable(t, tbl, chunkRows, &loads)
				keep, flagged = ScreenColumns(lazy, sel, opts)
				if !reflect.DeepEqual(keep, wantKeep) || !reflect.DeepEqual(flagged, wantFlagged) {
					t.Errorf("%s: lazy keep=%v flagged=%v, full scan keep=%v flagged=%v", label, keep, flagged, wantKeep, wantFlagged)
				}
				if loads.Load() != 0 {
					t.Errorf("%s: the screen resolved %d dictionaries", label, loads.Load())
				}
				cold := src.fetches.Swap(0)
				for ci := 0; ci < lazy.NumCols(); ci++ {
					if lazy.Schema().Field(ci).Type == storage.String {
						if _, err := storage.Dictionary(lazy.Column(ci)); err != nil {
							t.Fatal(err)
						}
					}
				}
				keep, flagged = ScreenColumns(lazy, sel, opts)
				if !reflect.DeepEqual(keep, wantKeep) || !reflect.DeepEqual(flagged, wantFlagged) {
					t.Errorf("%s: resolved lazy keep=%v flagged=%v, full scan keep=%v flagged=%v", label, keep, flagged, wantKeep, wantFlagged)
				}
				if warm := src.fetches.Load(); warm > cold || n == 4000 && selName == "full" && opts.SampleRows == 0 && opts.UniqueRatio == 0.8 && warm == cold {
					t.Errorf("%s: %d chunk fetches with dictionaries resolved, %d without", label, warm, cold)
				}
			}
		}
	}
}
