package shard

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/query"
	"repro/internal/storage"
)

// writeTestSet ingests a table into a sharded store under a temp dir and
// opens it.
func writeTestSet(t *testing.T, tbl *storage.Table, o IngestOptions) (*Set, string) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "t.atlm")
	if _, err := WriteSharded(path, tbl, o); err != nil {
		t.Fatal(err)
	}
	set, err := OpenWith(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return set, path
}

// renderResult flattens a Result into a deterministic string (everything
// except timing).
func renderResult(r *core.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s | base=%d/%d\n", r.Input.String(), r.BaseCount, r.TotalRows)
	for _, f := range r.Flagged {
		fmt.Fprintf(&b, "flag %s %s\n", f.Attr, f.Reason)
	}
	for _, m := range r.Maps {
		b.WriteString(m.String())
	}
	return b.String()
}

// TestShardedExploreByteIdentical is the tentpole acceptance test:
// Explore over a shard set must be byte-identical to Explore over the
// unsharded table, at every (shard count, parallelism) pair. The
// no-predicate sky query runs six float columns through the provider's
// numeric statistics.
func TestShardedExploreByteIdentical(t *testing.T) {
	census, sky := datagen.Census(20_000, 3), datagen.SkySurvey(20_000, 3)
	for _, tc := range []struct {
		tbl *storage.Table
		q   query.Query
	}{
		{census, query.New("census")},
		{census, query.New("census", query.NewRange("age", 20, 70))},
		{census, query.New("census", query.NewRange("age", 25, 60), query.NewIn("sex", "F"))},
		{sky, query.New("sky")},
	} {
		tbl, q := tc.tbl, tc.q
		// Unsharded reference at serial parallelism.
		refOpts := core.DefaultOptions()
		refOpts.Parallelism = 1
		refCart, err := core.NewCartographer(tbl, refOpts)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := refCart.Explore(q)
		if err != nil {
			t.Fatal(err)
		}
		want := renderResult(ref)
		for _, shards := range []int{1, 2, 4, 8} {
			set, _ := writeTestSet(t, tbl, IngestOptions{Shards: shards, ChunkSize: 256})
			if set.NumShards() != shards {
				t.Fatalf("requested %d shards, got %d", shards, set.NumShards())
			}
			for _, workers := range []int{1, 2, 8} {
				opts := core.DefaultOptions()
				opts.Parallelism = workers
				cart, err := core.NewCartographerWith(set.Table(), opts, set.Provider(workers))
				if err != nil {
					t.Fatal(err)
				}
				res, err := cart.Explore(q)
				if err != nil {
					t.Fatal(err)
				}
				if got := renderResult(res); got != want {
					t.Errorf("query %s, shards=%d workers=%d: sharded result differs:\n got: %s\nwant: %s",
						q.String(), shards, workers, got, want)
				}
			}
		}
	}
}

// TestShardRoundTripCells: the combined table of a range-sharded set
// holds exactly the original cells.
func TestShardRoundTripCells(t *testing.T) {
	tbl := datagen.Census(5_000, 7)
	set, _ := writeTestSet(t, tbl, IngestOptions{Shards: 4, ChunkSize: 128})
	got := set.Table()
	if got.NumRows() != tbl.NumRows() || got.NumCols() != tbl.NumCols() {
		t.Fatalf("combined shape %dx%d, want %dx%d", got.NumRows(), got.NumCols(), tbl.NumRows(), tbl.NumCols())
	}
	for c := 0; c < tbl.NumCols(); c++ {
		for r := 0; r < tbl.NumRows(); r++ {
			if gv, wv := got.Column(c).Render(r), tbl.Column(c).Render(r); gv != wv {
				t.Fatalf("col %d row %d: %q != %q", c, r, gv, wv)
			}
		}
	}
	// Shard views concatenate to the same cells.
	row := 0
	for i := 0; i < set.NumShards(); i++ {
		view := set.ShardTable(i)
		if set.ShardOffset(i) != row {
			t.Fatalf("shard %d offset %d, want %d", i, set.ShardOffset(i), row)
		}
		for r := 0; r < view.NumRows(); r++ {
			for c := 0; c < view.NumCols(); c++ {
				if gv, wv := view.Column(c).Render(r), tbl.Column(c).Render(row+r); gv != wv {
					t.Fatalf("shard %d col %d row %d: %q != %q", i, c, r, gv, wv)
				}
			}
		}
		row += view.NumRows()
	}
}

// TestHashPartitioning: hash sharding keeps every key's rows in one
// shard and loses no rows.
func TestHashPartitioning(t *testing.T) {
	tbl := datagen.Census(8_000, 11)
	set, _ := writeTestSet(t, tbl, IngestOptions{Shards: 4, HashKey: "education", ChunkSize: 128})
	if set.Manifest().Partitioning != PartitionHash {
		t.Fatalf("partitioning = %q", set.Manifest().Partitioning)
	}
	if set.Table().NumRows() != tbl.NumRows() {
		t.Fatalf("combined rows %d, want %d", set.Table().NumRows(), tbl.NumRows())
	}
	// Each education value must appear in exactly one shard.
	valueShard := map[string]int{}
	for i := 0; i < set.NumShards(); i++ {
		view := set.ShardTable(i)
		ci := view.Schema().Index("education")
		for r := 0; r < view.NumRows(); r++ {
			v := view.Column(ci).Render(r)
			if prev, ok := valueShard[v]; ok && prev != i {
				t.Fatalf("education %q in shards %d and %d", v, prev, i)
			}
			valueShard[v] = i
		}
	}
	// Row multiset is preserved: compare sorted per-column renderings.
	for c := 0; c < tbl.NumCols(); c++ {
		var a, b []string
		for r := 0; r < tbl.NumRows(); r++ {
			a = append(a, tbl.Column(c).Render(r))
			b = append(b, set.Table().Column(c).Render(r))
		}
		sort.Strings(a)
		sort.Strings(b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("col %d: row multiset differs at %d: %q vs %q", c, i, a[i], b[i])
			}
		}
	}
	// A hash set still explores byte-identically to its own combined
	// table (the reference order for hash layouts).
	opts := core.DefaultOptions()
	opts.Parallelism = 1
	refCart, err := core.NewCartographer(set.Table(), opts)
	if err != nil {
		t.Fatal(err)
	}
	q := query.New("census", query.NewRange("age", 20, 70))
	ref, err := refCart.Explore(q)
	if err != nil {
		t.Fatal(err)
	}
	cart, err := core.NewCartographerWith(set.Table(), opts, set.Provider(4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cart.Explore(q)
	if err != nil {
		t.Fatal(err)
	}
	if renderResult(res) != renderResult(ref) {
		t.Errorf("hash-sharded result differs from combined-table result")
	}
}

// TestOpenMissingShard: a manifest referencing a missing shard file
// fails with an error naming it.
func TestOpenMissingShard(t *testing.T) {
	tbl := datagen.Census(2_000, 1)
	dir := t.TempDir()
	path := filepath.Join(dir, "t.atlm")
	m, err := WriteSharded(path, tbl, IngestOptions{Shards: 4, ChunkSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(dir, m.Shards[2].File)
	if err := os.Remove(victim); err != nil {
		t.Fatal(err)
	}
	_, err = OpenWith(path, Options{})
	if err == nil {
		t.Fatal("open with missing shard succeeded")
	}
	if !strings.Contains(err.Error(), "shard 2") {
		t.Errorf("error %q does not name the missing shard", err)
	}
}

// TestOpenCorruptShard: a corrupted shard file fails the CRC with an
// error naming the shard on an eager open; a lazy open defers the
// check to the corrupted chunk's first touch, which must error (per
// chunk CRC), not panic or return wrong data.
func TestOpenCorruptShard(t *testing.T) {
	tbl := datagen.Census(2_000, 1)
	dir := t.TempDir()
	path := filepath.Join(dir, "t.atlm")
	m, err := WriteSharded(path, tbl, IngestOptions{Shards: 2, ChunkSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(dir, m.Shards[1].File)
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenWith(path, Options{Store: colstore.Options{Mode: colstore.ModeEager}})
	if err == nil {
		t.Fatal("eager open with corrupt shard succeeded")
	}
	if !strings.Contains(err.Error(), "shard 1") || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("error %q does not report the corrupt shard", err)
	}

	// Lazy open succeeds (metadata is intact) but touching every chunk
	// must surface the corruption as an error.
	s, err := OpenWith(path, Options{Store: colstore.Options{Mode: colstore.ModeLazy}})
	if err != nil {
		t.Fatalf("lazy open should defer value corruption to first touch, got %v", err)
	}
	defer s.Close()
	var touchErr error
	for ci := 0; ci < s.Table().NumCols() && touchErr == nil; ci++ {
		if lc, ok := s.Table().Column(ci).(*storage.LazyColumn); ok {
			_, touchErr = lc.Materialize()
		}
	}
	if touchErr == nil {
		t.Fatal("touching all chunks of a corrupt lazy shard reported no error")
	}
	if !strings.Contains(touchErr.Error(), "checksum") {
		t.Errorf("error %q does not report the checksum failure", touchErr)
	}
}

// TestOpenMixedSchema: shards with different schemas are rejected.
func TestOpenMixedSchema(t *testing.T) {
	dir := t.TempDir()
	a := datagen.Census(1_000, 1)
	b := datagen.SkySurvey(1_000, 1)
	for i, tbl := range []*storage.Table{a, b} {
		if err := colstore.WriteFile(filepath.Join(dir, fmt.Sprintf("t.%05d.atl", i)), tbl, 128); err != nil {
			t.Fatal(err)
		}
	}
	cols, stats := schemaColumns(a.Schema())
	m := &Manifest{
		Version:      ManifestVersion,
		Table:        "mixed",
		Partitioning: PartitionRange,
		ChunkSize:    128,
		Rows:         2_000,
		Columns:      cols,
		Shards: []ShardFile{
			{File: "t.00000.atl", Rows: 1_000, Stats: stats},
			{File: "t.00001.atl", Rows: 1_000, Stats: stats},
		},
	}
	path := filepath.Join(dir, "t.atlm")
	if err := writeManifest(path, m); err != nil {
		t.Fatal(err)
	}
	_, err := OpenWith(path, Options{})
	if err == nil {
		t.Fatal("open with mixed schemas succeeded")
	}
	if !strings.Contains(err.Error(), "schema mismatch") {
		t.Errorf("error %q does not report the schema mismatch", err)
	}
}

// TestOpenRowCountMismatch: a manifest lying about a shard's rows fails.
func TestOpenRowCountMismatch(t *testing.T) {
	tbl := datagen.Census(2_000, 1)
	dir := t.TempDir()
	path := filepath.Join(dir, "t.atlm")
	m, err := WriteSharded(path, tbl, IngestOptions{Shards: 2, ChunkSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	m.Shards[0].Rows += 64
	m.Shards[1].Rows -= 64
	if err := writeManifest(path, m); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWith(path, Options{}); err == nil || !strings.Contains(err.Error(), "manifest says") {
		t.Errorf("row-count lie not caught: %v", err)
	}
}

// TestManifestValidation covers manifest-level failure paths.
func TestManifestValidation(t *testing.T) {
	base := func() *Manifest {
		return &Manifest{
			Version: ManifestVersion, Table: "t", Partitioning: PartitionRange,
			ChunkSize: 128, Rows: 10, Columns: []ColumnSchema{{Name: "x", Type: "int64"}},
			Shards: []ShardFile{{File: "x.atl", Rows: 10, Stats: []ColumnStats{{}}}},
		}
	}
	cases := []struct {
		name  string
		mut   func(*Manifest)
		wants string
	}{
		{"bad version", func(m *Manifest) { m.Version = 99 }, "version"},
		{"pre-v3 version", func(m *Manifest) { m.Version = 2 }, "atlas ingest"},
		{"no columns", func(m *Manifest) { m.Columns = nil }, "no columns"},
		{"bad column type", func(m *Manifest) { m.Columns[0].Type = "decimal" }, "unknown column type"},
		{"missing stats", func(m *Manifest) { m.Shards[0].Stats = nil }, "column stats"},
		{"bad partitioning", func(m *Manifest) { m.Partitioning = "round-robin" }, "partitioning"},
		{"hash without key", func(m *Manifest) { m.Partitioning = PartitionHash }, "key"},
		{"range with key", func(m *Manifest) { m.Key = "x" }, "key"},
		{"bad chunk", func(m *Manifest) { m.ChunkSize = 100 }, "chunk"},
		{"no shards", func(m *Manifest) { m.Shards = nil }, "no shards"},
		{"absolute path", func(m *Manifest) { m.Shards[0].File = "/etc/passwd" }, "relative"},
		{"row sum", func(m *Manifest) { m.Rows = 11 }, "sum"},
	}
	for _, tc := range cases {
		m := base()
		tc.mut(m)
		err := m.validate()
		if err == nil || !strings.Contains(err.Error(), tc.wants) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.wants)
		}
	}
}

// TestIsManifest distinguishes manifests from stores and garbage.
func TestIsManifest(t *testing.T) {
	dir := t.TempDir()
	tbl := datagen.Census(1_000, 1)
	atl := filepath.Join(dir, "t.atl")
	if err := colstore.WriteFile(atl, tbl, 128); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "t.atlm")
	if _, err := WriteSharded(manifest, tbl, IngestOptions{Shards: 2, ChunkSize: 128}); err != nil {
		t.Fatal(err)
	}
	if IsManifest(atl) {
		t.Error("store file sniffed as manifest")
	}
	if !IsManifest(manifest) {
		t.Error("manifest not sniffed")
	}
	if IsManifest(filepath.Join(dir, "missing")) {
		t.Error("missing file sniffed as manifest")
	}
}

// TestPartialsWithNaN: a NaN-containing chunk drops its zone-map bounds,
// but the merged histogram edges must still span every finite value —
// Partials falls back to an exact range pass for such columns.
func TestPartialsWithNaN(t *testing.T) {
	schema := storage.MustSchema(storage.Field{Name: "v", Type: storage.Float64})
	b := storage.NewBuilder("t", schema)
	for i := 0; i < 64; i++ { // chunk 0: 0..10, clean
		b.MustAppendRow(float64(i % 11))
	}
	for i := 0; i < 64; i++ { // chunk 1: NaN + a value far outside chunk 0's range
		if i == 7 {
			b.MustAppendRow(math.NaN())
		} else {
			b.MustAppendRow(1000.0)
		}
	}
	set, _ := writeTestSet(t, b.MustBuild(), IngestOptions{Shards: 2, ChunkSize: 64})
	partials, err := set.Partials(0)
	if err != nil {
		t.Fatal(err)
	}
	p := partials[0]
	if p.Min != 0 || p.Max != 1000 {
		t.Fatalf("min/max = %g/%g, want 0/1000", p.Min, p.Max)
	}
	if p.Hist == nil {
		t.Fatal("no histogram")
	}
	if got := p.Hist.Edges[len(p.Hist.Edges)-1]; got != 1000 {
		t.Errorf("histogram upper edge %g, want 1000 (finite values dropped)", got)
	}
	// Every finite value lands in a bin; only the NaN is dropped.
	if got := p.Hist.Total(); got != p.Count-1 {
		t.Errorf("histogram holds %d of %d values", got, p.Count-1)
	}
}

// TestPartials: merged per-shard partials equal whole-table statistics.
func TestPartials(t *testing.T) {
	tbl := datagen.Census(6_000, 13)
	set, _ := writeTestSet(t, tbl, IngestOptions{Shards: 3, ChunkSize: 128})
	partials, err := set.Partials(0)
	if err != nil {
		t.Fatal(err)
	}
	sums := storage.Summarize(tbl)
	for ci, p := range partials {
		s := sums[ci]
		if p.Rows != s.Rows || p.Nulls != s.Nulls {
			t.Errorf("col %d: rows/nulls %d/%d, want %d/%d", ci, p.Rows, p.Nulls, s.Rows, s.Nulls)
		}
		f := tbl.Schema().Field(ci)
		switch f.Type {
		case storage.Int64, storage.Float64:
			if p.Min != s.Min || p.Max != s.Max {
				t.Errorf("col %s: min/max %g/%g, want %g/%g", f.Name, p.Min, p.Max, s.Min, s.Max)
			}
			mean := p.Sum / float64(p.Count)
			if math.Abs(mean-s.Mean) > 1e-9*math.Max(1, math.Abs(s.Mean)) {
				t.Errorf("col %s: mean %g, want %g", f.Name, mean, s.Mean)
			}
			if p.Hist == nil || p.Hist.Total() != p.Count {
				t.Errorf("col %s: merged histogram total %v, want %d", f.Name, p.Hist, p.Count)
			}
		case storage.String:
			total := 0
			for _, c := range p.CatCounts {
				total += c
			}
			if total != s.Rows-s.Nulls {
				t.Errorf("col %s: category counts sum %d, want %d", f.Name, total, s.Rows-s.Nulls)
			}
		case storage.Bool:
			if p.Trues != s.TrueCount {
				t.Errorf("col %s: trues %d, want %d", f.Name, p.Trues, s.TrueCount)
			}
		}
	}
}
