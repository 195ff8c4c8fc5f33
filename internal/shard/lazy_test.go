package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/datagen"
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

// TestLazyShardedExploreMatchesEager: the lazy-view assembly (open
// modes eager and lazy, deferred and not) must explore byte-identically
// to the materializing reassembly.
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

// eventsNumTable is eventsTable without categorical columns: no
// dictionary is needed, so a selective exploration opens exactly the
// shards its base touches (a mixed schema also opens the shard the
// dictionaries come from — see the mixed leg of
// TestDeferredShardFilePruning).
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
// set must leave shard files that cannot match unopened, and decode
// well under half the chunks.
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
	// from one shard, so the exploration opens at most that one and the
	// selected shard, and confines chunk decodes to the selected shard.
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
	if got := ms.OpenedShards(); got > 2 {
		t.Errorf("mixed schema: selective explore opened %d shard files, want at most 2", got)
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

// TestManifestV2Stats: WriteSharded records schema and per-shard stats
// (the fields manifest version 2 introduced), and ShardMayMatch prunes
// on them.
func TestManifestV2Stats(t *testing.T) {
	tbl := eventsTable(t, 2_048)
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
	m2, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, sf := range m2.Shards {
		if len(sf.Stats) != 4 {
			t.Fatalf("shard %d has %d stats", i, len(sf.Stats))
		}
		ts := sf.Stats[0] // column 0 = ts
		if !ts.HasMinMax {
			t.Fatalf("shard %d ts stats missing min/max", i)
		}
		if want := float64(i * 512); ts.Min != want {
			t.Errorf("shard %d ts min %g, want %g", i, ts.Min, want)
		}
	}
	// Range pruning: a band inside shard 2 must exclude the others.
	p := query.NewRange("ts", 1100, 1200)
	for i := 0; i < 4; i++ {
		want := i == 2
		if got := m2.ShardMayMatch(i, p); got != want {
			t.Errorf("ShardMayMatch(%d, ts∈[1100,1200]) = %v, want %v", i, got, want)
		}
	}
	// Category pruning: every shard holds every kind value, so an In on
	// a present value matches everywhere; a foreign value nowhere.
	for i := 0; i < 4; i++ {
		if !m2.ShardMayMatch(i, query.NewIn("kind", "k3")) {
			t.Errorf("shard %d should admit kind=k3", i)
		}
		if m2.ShardMayMatch(i, query.NewIn("kind", "nosuchkind")) {
			t.Errorf("shard %d should prune kind=nosuchkind", i)
		}
	}
	// Unknown columns and predicate shapes stay conservative.
	if !m2.ShardMayMatch(0, query.NewRange("nosuchcol", 0, 1)) {
		t.Error("unknown column must not prune")
	}
	if !m2.ShardMayMatch(0, query.NewBoolEq("ok", true)) {
		t.Error("bool predicates must not prune")
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

// TestSessionShardPruning: the manifest proves exactly the shards
// disjoint with the query, the judgement that lets a deferred set skip
// scanning (and opening) them.
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
	var p query.Predicate = query.NewRange("ts", 1100, 1200)
	for i := 0; i < 4; i++ {
		want := i == 1
		if got := s.ShardMayMatch(i, p); got != want {
			t.Errorf("ShardMayMatch(%d) = %v, want %v", i, got, want)
		}
	}
}
