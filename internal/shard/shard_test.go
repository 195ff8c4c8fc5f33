package shard

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
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

// unalignedManifest writes a 2 048-row census table as two shards of
// 1 000 and 1 048 rows in 128-row chunks, with a manifest whose zone
// maps match the files: a set consistent in every respect but chunk
// alignment. It returns the manifest's path.
func unalignedManifest(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "t.atlm")
	tbl := datagen.Census(2_048, 1)
	m, err := WriteSharded(path, tbl, IngestOptions{Shards: 2, ChunkSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i, rows := range [][2]int{{0, 1_000}, {1_000, 2_048}} {
		part, err := tbl.SliceRows("census", rows[0], rows[1])
		if err != nil {
			t.Fatal(err)
		}
		ck, err := colstore.WriteFileStats(filepath.Join(dir, m.Shards[i].File), part, 128)
		if err != nil {
			t.Fatal(err)
		}
		m.Shards[i].Rows = part.NumRows()
		for ci, zones := range ck.Zones {
			m.Shards[i].Zones[ci] = colstore.EncodeZones(zones)
		}
	}
	if err := writeManifest(path, m); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestManifestRefusesUnaligned: a manifest whose non-final shard holds
// a partial chunk is refused — read, opened whole and opened deferred —
// with an error naming the shard, its rows and the chunk size.
func TestManifestRefusesUnaligned(t *testing.T) {
	path := unalignedManifest(t)
	const want = "shard 0 (t.00000.atl) holds 1000 rows, not a multiple of the chunk size 128"
	_, err := ReadManifest(path)
	errs := []error{err}
	for _, o := range []Options{{}, {Store: colstore.Options{Mode: colstore.ModeLazy}, Defer: true}} {
		_, err := OpenWith(path, o)
		errs = append(errs, err)
	}
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("open %d: err = %v, want %q", i, err, want)
		}
	}
}

// TestManifestRefusesHash: a hash-partitioned manifest — as the removed
// hash ingest wrote it, with its key, or naming only the partitioning —
// is refused, read, opened whole and opened deferred, with an error
// naming the file. So is the fuzz corpus's hash-written manifest.
func TestManifestRefusesHash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.atlm")
	if _, err := WriteSharded(path, datagen.Census(2_048, 1), IngestOptions{Shards: 2, ChunkSize: 128}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	range_ := []byte(`"partitioning": "range",`)
	if !bytes.Contains(data, range_) {
		t.Fatalf("manifest has no range partitioning: %s", data)
	}
	corpus, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzReadManifest", "hash-written"))
	if err != nil {
		t.Fatal(err)
	}
	lit := strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(strings.SplitN(string(corpus), "\n", 2)[1]), "[]byte("), ")")
	written, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatal(err)
	}
	for name, manifest := range map[string][]byte{
		"with key":    bytes.Replace(data, range_, []byte(`"partitioning": "hash", "key": "education",`), 1),
		"without key": bytes.Replace(data, range_, []byte(`"partitioning": "hash",`), 1),
		"fuzz corpus": []byte(written),
	} {
		hashed := filepath.Join(filepath.Dir(path), "hash.atlm")
		if err := os.WriteFile(hashed, manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadManifest(hashed)
		errs := []error{err}
		for _, o := range []Options{{}, {Store: colstore.Options{Mode: colstore.ModeLazy}, Defer: true}} {
			_, err := OpenWith(hashed, o)
			errs = append(errs, err)
		}
		for i, err := range errs {
			if err == nil || !strings.Contains(err.Error(), hashed) || !strings.Contains(err.Error(), `"hash" partitioning is not supported`) {
				t.Errorf("%s, open %d: err = %v, want the file named and hash refused", name, i, err)
			}
		}
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

// swappedShardManifest writes a 2 048-row census table as two shards,
// then overwrites shard 1's file with what replace returns for
// its row count: a shard file that disagrees with the manifest it was
// ingested with.
func swappedShardManifest(t *testing.T, replace func(tbl *storage.Table, rows int) *storage.Table) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "t.atlm")
	tbl := datagen.Census(2_048, 1)
	m, err := WriteSharded(path, tbl, IngestOptions{Shards: 2, ChunkSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := colstore.WriteFile(filepath.Join(dir, m.Shards[1].File), replace(tbl, m.Shards[1].Rows), 128); err != nil {
		t.Fatal(err)
	}
	return path
}

// wantRefusal checks that err refuses shard 1 as disagreeing with the
// manifest, saying each of wants.
func wantRefusal(t *testing.T, err error, wants ...string) {
	t.Helper()
	if err == nil {
		t.Fatal("a shard that disagrees with its manifest was accepted")
	}
	for _, want := range append([]string{"shard 1 (t.00001.atl) disagrees with the manifest"}, wants...) {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
}

// exploreAll opens path deferred — which touches no shard — and explores
// every row, which opens every shard.
func exploreAll(t *testing.T, path string) error {
	t.Helper()
	s, err := OpenWith(path, Options{Store: colstore.Options{Mode: colstore.ModeLazy}, Defer: true})
	if err != nil {
		t.Fatalf("deferred open touched a shard: %v", err)
	}
	defer s.Close()
	cart, err := core.NewCartographer(s.Table(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, err = cart.Explore(query.New("census"))
	return err
}

// TestOpenMixedSchema: a shard whose schema differs from the manifest's
// is refused, naming the shard and the column.
func TestOpenMixedSchema(t *testing.T) {
	wider := swappedShardManifest(t, func(_ *storage.Table, rows int) *storage.Table {
		return datagen.SkySurvey(rows, 1)
	})
	_, err := OpenWith(wider, Options{})
	wantRefusal(t, err, "7 columns, manifest declares 5")
	renamed := swappedShardManifest(t, func(tbl *storage.Table, rows int) *storage.Table {
		fields := tbl.Schema().Fields()
		fields[1].Name = "years"
		cols := make([]storage.Column, tbl.NumCols())
		for ci := range cols {
			cols[ci] = tbl.Column(ci)
		}
		p, err := storage.NewTable("census", storage.MustSchema(fields...), cols)
		if err == nil {
			p, err = p.SliceRows("census", 0, rows)
		}
		if err != nil {
			t.Fatal(err)
		}
		return p
	})
	_, err = OpenWith(renamed, Options{})
	wantRefusal(t, err, `column 1 is "years"`)
	wantRefusal(t, exploreAll(t, renamed), `column 1 is "years"`)
}

// TestOpenMixedDictionaries: a shard file written with another
// dictionary than the manifest's is refused — opened whole and deferred
// (when it opens) — with an error naming the shard and the column.
func TestOpenMixedDictionaries(t *testing.T) {
	other := func(_ *storage.Table, rows int) *storage.Table { return datagen.Census(rows, 2) }
	aligned := swappedShardManifest(t, other)
	_, err := OpenWith(aligned, Options{Store: colstore.Options{Mode: colstore.ModeLazy}})
	wantRefusal(t, err, "dictionary mismatch on column")
	wantRefusal(t, exploreAll(t, aligned), "dictionary mismatch on column")
}

// TestOpenRefusesZoneMismatch: a shard file whose zone maps differ from
// the manifest's — same schema and dictionary, other rows — is refused
// opened whole and deferred, naming the shard, the column and the chunk: the set plans with the manifest's zone maps, so
// such a shard would answer wrongly.
func TestOpenRefusesZoneMismatch(t *testing.T) {
	head := func(tbl *storage.Table, rows int) *storage.Table {
		p, err := tbl.SliceRows("census", 0, rows)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	aligned := swappedShardManifest(t, head)
	_, err := OpenWith(aligned, Options{Store: colstore.Options{Mode: colstore.ModeLazy}})
	wantRefusal(t, err, `zone map mismatch on column "age" chunk 0`)
	wantRefusal(t, exploreAll(t, aligned), `zone map mismatch on column "age" chunk 0`)
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
	// A lie that keeps every shard's chunk count is caught when the shard
	// opens; one that moves a chunk no longer matches the manifest's zone
	// maps, and the manifest does not read.
	m.Shards[1].Rows -= 16
	m.Rows -= 16
	if err := writeManifest(path, m); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWith(path, Options{}); err == nil || !strings.Contains(err.Error(), "manifest says") {
		t.Errorf("row-count lie not caught: %v", err)
	}
	m.Shards[0].Rows += 64
	m.Shards[1].Rows -= 48
	m.Rows += 16
	if err := writeManifest(path, m); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWith(path, Options{}); err == nil || !strings.Contains(err.Error(), "8 zone maps for 9 chunks") {
		t.Errorf("row-count lie across a chunk not caught: %v", err)
	}
}

// TestManifestValidation covers manifest-level failure paths.
func TestManifestValidation(t *testing.T) {
	base := func() *Manifest {
		return &Manifest{
			Version: ManifestVersion, Table: "t", Partitioning: PartitionRange,
			ChunkSize: 128, Rows: 10, Columns: []ColumnSchema{{Name: "x", Type: "int64"}},
			Shards: []ShardFile{{File: "x.atl", Rows: 10, Zones: []string{colstore.EncodeZones(make([]storage.ZoneMap, 1))}}},
		}
	}
	cases := []struct {
		name  string
		mut   func(*Manifest)
		wants string
	}{
		{"bad version", func(m *Manifest) { m.Version = 99 }, "version"},
		{"pre-v4 version", func(m *Manifest) { m.Version = 3 }, "atlas ingest"},
		{"no columns", func(m *Manifest) { m.Columns = nil }, "no columns"},
		{"bad column type", func(m *Manifest) { m.Columns[0].Type = "decimal" }, "unknown column type"},
		{"missing zone maps", func(m *Manifest) { m.Shards[0].Zones = nil }, "zone maps for 0 columns"},
		{"bad partitioning", func(m *Manifest) { m.Partitioning = "round-robin" }, "partitioning"},
		{"hash partitioning", func(m *Manifest) { m.Partitioning = "hash" }, "chunk-aligned range partition"},
		{"unaligned shard", func(m *Manifest) {
			m.Shards = append(m.Shards, m.Shards[0])
			m.Shards[1].File = "y.atl"
			m.Rows = 20
		}, "shard 0 (x.atl) holds 10 rows, not a multiple of the chunk size 128"},
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

// TestPartials: merged per-shard partials equal whole-table statistics,
// and the set's shards opened eagerly or lazily merge to the same
// partials. TestColumnTableResidencies, at the root, holds every
// residency to a gathered oracle.
func TestPartials(t *testing.T) {
	tbl := datagen.Census(6_000, 13)
	set, path := writeTestSet(t, tbl, IngestOptions{Shards: 3, ChunkSize: 128})
	partials, err := set.Partials(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []colstore.Mode{colstore.ModeEager, colstore.ModeLazy} {
		other, err := OpenWith(path, Options{Store: colstore.Options{Mode: mode, CacheBytes: 128 * 9}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := other.Partials(0)
		other.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, partials) {
			t.Errorf("shards opened in mode %v: partials differ", mode)
		}
	}
	sums, err := storage.Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
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
