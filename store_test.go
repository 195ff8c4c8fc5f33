package atlas

// Property-style round-trip tests for the on-disk columnar store: the
// acceptance bar is that a store-backed table is indistinguishable from
// a CSV-loaded one — byte-identical Explore output at any parallelism —
// while scanning fewer chunks thanks to zone maps.

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/storage"
)

// lazyThrash is the open every identity test runs next to the auto-mode
// one: lazy, behind a 64 KiB decoded-chunk cache, so eviction races and
// budget edge cases cannot hide behind the default eager mode.
var lazyThrash = StoreOpenOptions{Lazy: true, CacheBytes: 65536}

// storeCSVTables runs one table through CSV and through CSV→store,
// returning the CSV load and the store's path.
func storeCSVTables(t *testing.T, src *Table, chunkSize int) (fromCSV *Table, path string) {
	t.Helper()
	var csvBuf bytes.Buffer
	if err := WriteCSV(src, &csvBuf); err != nil {
		t.Fatal(err)
	}
	fromCSV, err := LoadCSV(src.Name(), bytes.NewReader(csvBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(t.TempDir(), "t.atl")
	if err := colstore.WriteFile(path, fromCSV, chunkSize); err != nil {
		t.Fatal(err)
	}
	return fromCSV, path
}

// TestStoreExploreByteIdentical is the acceptance test: CSV→store→Table
// yields byte-identical Explore output vs. direct CSV load, across
// parallelism settings.
func TestStoreExploreByteIdentical(t *testing.T) {
	datasets := []struct {
		name string
		tbl  *Table
		cql  string
	}{
		{"census", CensusDataset(20000, 3), "EXPLORE census WHERE age BETWEEN 20 AND 70"},
		{"census-all", CensusDataset(12345, 7), "EXPLORE census"},
		{"sky", SkySurveyDataset(8000, 5), "EXPLORE sky"},
	}
	for _, ds := range datasets {
		t.Run(ds.name, func(t *testing.T) {
			fromCSV, path := storeCSVTables(t, ds.tbl, 1024)
			auto, err := OpenStore(path)
			if err != nil {
				t.Fatal(err)
			}
			thrash, err := OpenStoreWith(path, lazyThrash)
			if err != nil {
				t.Fatal(err)
			}
			defer thrash.Close()
			for _, open := range []struct {
				mode string
				tbl  *Table
			}{{"auto", auto}, {"lazy/64KiB", thrash.Table()}} {
				fromStore := open.tbl
				if fromStore.Chunking() == nil {
					t.Fatalf("%s: store table lost chunk metadata", open.mode)
				}
				for _, parallelism := range []int{1, 2, 8, 0} {
					opts := DefaultOptions()
					opts.Parallelism = parallelism
					exCSV, err := New(fromCSV, opts)
					if err != nil {
						t.Fatal(err)
					}
					exStore, err := New(fromStore, opts)
					if err != nil {
						t.Fatal(err)
					}
					resCSV, err := exCSV.Explore(ds.cql)
					if err != nil {
						t.Fatal(err)
					}
					resStore, err := exStore.Explore(ds.cql)
					if err != nil {
						t.Fatal(err)
					}
					got := FormatResult(resStore)
					want := FormatResult(resCSV)
					// Elapsed differs run to run; compare everything after the
					// timing line plus the structural counts.
					if resStore.BaseCount != resCSV.BaseCount || resStore.TotalRows != resCSV.TotalRows {
						t.Fatalf("%s parallelism %d: counts differ: %d/%d vs %d/%d", open.mode, parallelism,
							resStore.BaseCount, resStore.TotalRows, resCSV.BaseCount, resCSV.TotalRows)
					}
					if g, w := stripTiming(got), stripTiming(want); g != w {
						t.Errorf("%s parallelism %d: store-backed result differs:\n got: %s\nwant: %s", open.mode, parallelism, g, w)
					}
				}
			}
		})
	}
}

// stripTiming removes the per-run timing suffix from FormatResult's
// second line so byte comparison covers everything deterministic.
func stripTiming(s string) string {
	lines := strings.SplitN(s, "\n", 3)
	if len(lines) >= 2 {
		if i := strings.LastIndex(lines[1], " in "); i >= 0 {
			lines[1] = lines[1][:i]
		}
	}
	return strings.Join(lines, "\n")
}

// TestStoreRoundTripCells: CSV→store→Table preserves every cell,
// including NULLs, empty-looking strings and unicode categories.
func TestStoreRoundTripCells(t *testing.T) {
	var b strings.Builder
	b.WriteString("name,score,age,tag\n")
	names := []string{"zoë", "Ōtawara", "漢字", "emoji🚀", "plain"}
	for i := 0; i < 3000; i++ {
		name := names[i%len(names)]
		score := fmt.Sprintf("%.3f", float64(i)/17)
		age := fmt.Sprintf("%d", 18+i%60)
		tag := fmt.Sprintf("t%d", i%7)
		if i%13 == 2 {
			score = "" // NULL
		}
		if i%19 == 4 {
			name = "" // NULL (CSV cannot express empty-vs-NULL; both read as NULL)
		}
		fmt.Fprintf(&b, "%s,%s,%s,%s\n", name, score, age, tag)
	}
	fromCSV, err := LoadCSV("u", strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := colstore.Write(&buf, fromCSV, 256); err != nil {
		t.Fatal(err)
	}
	st, err := colstore.Read(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	fromStore := st.Table()
	for c := 0; c < fromCSV.NumCols(); c++ {
		for r := 0; r < fromCSV.NumRows(); r++ {
			gv := fromStore.Column(c).Value(r)
			wv := fromCSV.Column(c).Value(r)
			if !reflect.DeepEqual(gv, wv) {
				t.Fatalf("col %d row %d: %v != %v", c, r, gv, wv)
			}
		}
	}
	// Empty string as a *value* (not NULL) only exists on the direct
	// table→store path; check it survives too.
	schema := storage.MustSchema(storage.Field{Name: "s", Type: storage.String})
	sb := storage.NewBuilder("e", schema)
	sb.MustAppendRow("")
	sb.MustAppendRow(nil)
	sb.MustAppendRow("x")
	direct := sb.MustBuild()
	var buf2 bytes.Buffer
	if err := colstore.Write(&buf2, direct, 64); err != nil {
		t.Fatal(err)
	}
	st2, err := colstore.Read(buf2.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got := st2.Table().Column(0)
	if got.Value(0) != "" || got.IsNull(0) {
		t.Error("empty string value became NULL")
	}
	if !got.IsNull(1) {
		t.Error("NULL became non-NULL")
	}
	if got.Value(2) != "x" {
		t.Error("string value lost")
	}
}

// TestSaveOpenStoreFacade exercises the public SaveStore/OpenStore pair.
func TestSaveOpenStoreFacade(t *testing.T) {
	tbl := CensusDataset(5000, 9)
	path := filepath.Join(t.TempDir(), "census.atl")
	if err := SaveStore(tbl, path); err != nil {
		t.Fatal(err)
	}
	got, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != tbl.Name() || got.NumRows() != tbl.NumRows() {
		t.Fatalf("reopened table = %q/%d rows", got.Name(), got.NumRows())
	}
	if got.Chunking() == nil {
		t.Fatal("reopened table is not chunk-aware")
	}
	ex, err := New(got, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Explore("EXPLORE census")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Maps) == 0 {
		t.Fatal("no maps from store-backed exploration")
	}
}
