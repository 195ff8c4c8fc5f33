package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/storage"
)

// eventsTable builds a table whose ts column is monotone in row order,
// so range sharding gives disjoint per-shard ts ranges — the
// clustered/time-ordered ingest shape shard-file pruning exists for.
func eventsTable(t testing.TB, n int) *storage.Table {
	t.Helper()
	schema := storage.MustSchema(
		storage.Field{Name: "ts", Type: storage.Int64},
		storage.Field{Name: "load", Type: storage.Float64},
		storage.Field{Name: "kind", Type: storage.String},
		storage.Field{Name: "ok", Type: storage.Bool},
	)
	b := storage.NewBuilder("events", schema)
	for i := 0; i < n; i++ {
		b.MustAppendRow(int64(i), float64((i*37)%1000)/10, fmt.Sprintf("k%d", i%6), i%4 != 0)
	}
	return b.MustBuild()
}

// stripResultTimes renders a result without its timing for comparison.
func formatStable(r *core.Result) string {
	out := fmt.Sprintf("%s base=%d/%d", r.Input.String(), r.BaseCount, r.TotalRows)
	for _, m := range r.Maps {
		out += "\n" + m.String()
	}
	return out
}

// TestLazyShardedExploreMatchesEager: a set whose shard files open
// lazily, deferred or not, explores byte-identically to one whose shard
// files decode eagerly.
func TestLazyShardedExploreMatchesEager(t *testing.T) {
	tbl := datagen.Census(6_000, 7)
	dir := t.TempDir()
	path := filepath.Join(dir, "census.atlm")
	if _, err := WriteSharded(path, tbl, IngestOptions{Shards: 4, ChunkSize: 256}); err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Parallelism = 2
	explore := func(s *Set, q query.Query) string {
		t.Helper()
		cart, err := core.NewCartographerWith(s.Table(), opts, s.Provider(opts.Parallelism))
		if err != nil {
			t.Fatal(err)
		}
		res, err := cart.Explore(q)
		if err != nil {
			t.Fatal(err)
		}
		return formatStable(res)
	}
	q := query.New("census", query.NewRange("age", 20, 70))
	baseline, err := OpenWith(path, Options{Store: colstore.Options{Mode: colstore.ModeEager}})
	if err != nil {
		t.Fatal(err)
	}
	want := explore(baseline, q)
	for _, tc := range []struct {
		name string
		o    Options
	}{
		{"lazy", Options{Store: colstore.Options{Mode: colstore.ModeLazy}}},
		{"lazy/1chunk", Options{Store: colstore.Options{Mode: colstore.ModeLazy, CacheBytes: 3000}}},
		{"deferred", Options{Store: colstore.Options{Mode: colstore.ModeLazy}, Defer: true}},
		{"deferred/1chunk", Options{Store: colstore.Options{Mode: colstore.ModeLazy, CacheBytes: 3000}, Defer: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := OpenWith(path, tc.o)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if got := explore(s, q); got != want {
				t.Errorf("explore differs from eager:\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// eventsNumTable is eventsTable without categorical columns.
func eventsNumTable(t testing.TB, n int) *storage.Table {
	t.Helper()
	schema := storage.MustSchema(
		storage.Field{Name: "ts", Type: storage.Int64},
		storage.Field{Name: "load", Type: storage.Float64},
	)
	b := storage.NewBuilder("events", schema)
	for i := 0; i < n; i++ {
		b.MustAppendRow(int64(i), float64((i*37)%1000)/10)
	}
	return b.MustBuild()
}

// TestDeferredShardFilePruning: a selective exploration over a deferred
// set must leave shard files that cannot match unopened — with or
// without a string column, whose dictionary the manifest holds — and
// decode well under half the chunks.
func TestDeferredShardFilePruning(t *testing.T) {
	tbl := eventsNumTable(t, 8_192)
	dir := t.TempDir()
	path := filepath.Join(dir, "events.atlm")
	if _, err := WriteSharded(path, tbl, IngestOptions{Shards: 4, ChunkSize: 128}); err != nil {
		t.Fatal(err)
	}
	s, err := OpenWith(path, Options{Store: colstore.Options{Mode: colstore.ModeLazy}, Defer: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.OpenedShards(); got != 0 {
		t.Fatalf("deferred open touched %d shard files", got)
	}
	// The query touches rows of shard 1 only (ts is monotone).
	q := query.New("events", query.NewRange("ts", 2100, 2300))
	opts := core.DefaultOptions()
	cart, err := core.NewCartographer(s.Table(), opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cart.Explore(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.BaseCount != 201 {
		t.Fatalf("base count %d, want 201", res.BaseCount)
	}
	if got := s.OpenedShards(); got != 1 {
		t.Errorf("selective explore opened %d shard files, want 1", got)
	}
	io := s.IOStats()
	totalChunks := int64(4 * (8192 / 4 / 128) * 2) // shards × chunks × columns
	if io.ChunksDecoded >= totalChunks/2 {
		t.Errorf("decoded %d of %d chunks; want under half", io.ChunksDecoded, totalChunks)
	}

	// Mixed schema (categorical column present): the dictionaries come
	// from the manifest, so the exploration opens the selected shard
	// alone.
	mixed := eventsTable(t, 8_192)
	mpath := filepath.Join(dir, "mixed.atlm")
	if _, err := WriteSharded(mpath, mixed, IngestOptions{Shards: 4, ChunkSize: 128}); err != nil {
		t.Fatal(err)
	}
	ms, err := OpenWith(mpath, Options{Store: colstore.Options{Mode: colstore.ModeLazy}, Defer: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	mcart, err := core.NewCartographer(ms.Table(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mcart.Explore(q); err != nil {
		t.Fatal(err)
	}
	if got := ms.OpenedShards(); got != 1 {
		t.Errorf("mixed schema: selective explore opened %d shard files, want 1", got)
	}
	mio := ms.IOStats()
	mTotal := int64(4 * (8192 / 4 / 128) * 4)
	if mio.ChunksDecoded >= mTotal/2 {
		t.Errorf("mixed schema decoded %d of %d chunks; want under half", mio.ChunksDecoded, mTotal)
	}
	// The result must equal the same exploration over the fully
	// materialized set.
	eager, err := OpenWith(path, Options{Store: colstore.Options{Mode: colstore.ModeEager}})
	if err != nil {
		t.Fatal(err)
	}
	cart2, err := core.NewCartographer(eager.Table(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cart2.Explore(q)
	if err != nil {
		t.Fatal(err)
	}
	if formatStable(res) != formatStable(want) {
		t.Errorf("deferred result differs:\n got: %s\nwant: %s", formatStable(res), formatStable(want))
	}
}

// TestManifestCarriesShardZones: WriteSharded records every shard's zone
// maps and each string column's dictionary, and they read back equal to
// what the shard files hold.
func TestManifestCarriesShardZones(t *testing.T) {
	tbl := eventsTable(t, 2_000)
	dir := t.TempDir()
	path := filepath.Join(dir, "events.atlm")
	m, err := WriteSharded(path, tbl, IngestOptions{Shards: 4, ChunkSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != ManifestVersion {
		t.Fatalf("manifest version %d, want %d", m.Version, ManifestVersion)
	}
	if len(m.Columns) != 4 || m.Columns[0].Name != "ts" || m.Columns[0].Type != "int64" {
		t.Fatalf("bad manifest schema %+v", m.Columns)
	}
	want, _ := storage.Dictionary(tbl.Column(2))
	if !slices.Equal(m.Columns[2].Dict, want) || m.Columns[0].Dict != nil {
		t.Errorf("manifest dictionaries %v / %v, want the kind column's %v only", m.Columns[2].Dict, m.Columns[0].Dict, want)
	}
	m2, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, sf := range m2.Shards {
		st, err := colstore.OpenWith(filepath.Join(dir, sf.File), colstore.Options{Mode: colstore.ModeLazy})
		if err != nil {
			t.Fatal(err)
		}
		fileZones := st.Table().Chunking().Zones
		for ci, zones := range m2.zones[i] {
			if len(zones) != len(fileZones[ci]) {
				t.Fatalf("shard %d column %d: %d zone maps, file holds %d", i, ci, len(zones), len(fileZones[ci]))
			}
			for k, zm := range zones {
				if !sameZone(zm, fileZones[ci][k]) {
					t.Errorf("shard %d column %d chunk %d: manifest %+v, file %+v", i, ci, k, zm, fileZones[ci][k])
				}
			}
		}
		st.Close()
	}
}

// TestParallelIngestDeterministic: WriteSharded must produce
// byte-identical shard files and manifest at any parallelism.
func TestParallelIngestDeterministic(t *testing.T) {
	tbl := datagen.Census(4_000, 9)
	read := func(parallelism int) map[string][]byte {
		t.Helper()
		dir := t.TempDir()
		path := filepath.Join(dir, "census.atlm")
		m, err := WriteSharded(path, tbl, IngestOptions{Shards: 4, ChunkSize: 128, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		files := []string{filepath.Base(path)}
		for _, sf := range m.Shards {
			files = append(files, sf.File)
		}
		for _, f := range files {
			b, err := os.ReadFile(filepath.Join(dir, f))
			if err != nil {
				t.Fatal(err)
			}
			out[f] = b
		}
		return out
	}
	serial := read(1)
	parallel := read(8)
	if len(serial) != len(parallel) {
		t.Fatalf("file sets differ: %d vs %d", len(serial), len(parallel))
	}
	for name, want := range serial {
		got, ok := parallel[name]
		if !ok {
			t.Fatalf("parallel ingest missing %s", name)
		}
		if string(got) != string(want) {
			t.Errorf("%s differs between serial and parallel ingest", name)
		}
	}
}

// TestSessionShardPruning: the manifest's zone maps prune every chunk of
// exactly the shards disjoint with the query, the judgement that lets a
// deferred set skip scanning (and opening) them — planned without
// opening any shard.
func TestSessionShardPruning(t *testing.T) {
	tbl := eventsTable(t, 4_096)
	dir := t.TempDir()
	path := filepath.Join(dir, "events.atlm")
	if _, err := WriteSharded(path, tbl, IngestOptions{Shards: 4, ChunkSize: 128}); err != nil {
		t.Fatal(err)
	}
	s, err := OpenWith(path, Options{Store: colstore.Options{Mode: colstore.ModeLazy}, Defer: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, q := range []query.Query{
		query.New("events", query.NewRange("ts", 1100, 1200)),
		query.New("events", query.NewRange("ts", 1100, 1200), query.NewIn("kind", "k3")),
	} {
		for i := 0; i < 4; i++ {
			ex, err := engine.ExplainQuery(s.ShardTable(i), q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if pruned := ex.ChunksScanned+ex.ChunksFull == 0; pruned != (i != 1) {
				t.Errorf("%s: shard %d pruned = %v, want %v", q, i, pruned, i != 1)
			}
		}
	}
	ex, err := engine.ExplainQuery(s.Table(), query.New("events", query.NewIn("kind", "nosuchkind")), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ex.ChunksScanned+ex.ChunksFull != 0 {
		t.Errorf("a value outside the dictionary left %d chunks to read", ex.ChunksScanned+ex.ChunksFull)
	}
	if n := s.OpenedShards(); n != 0 {
		t.Errorf("planning opened %d shards", n)
	}
}
