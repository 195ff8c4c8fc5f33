package shard

import (
	"encoding/base64"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/query"
	"repro/internal/storage"
)

// remoteTestManifest builds a minimal valid remote manifest with the
// given shard locations (primary + replicas): one int64 column, and
// empty statistics for every shard that names none.
func remoteTestManifest(shards []ShardFile, rows int) *Manifest {
	for i := range shards {
		if shards[i].Stats == nil {
			shards[i].Stats = []ColumnStats{{}}
		}
	}
	return &Manifest{
		Version:      ManifestVersion,
		Table:        "t",
		Partitioning: PartitionRange,
		ChunkSize:    64,
		Rows:         rows,
		Columns:      []ColumnSchema{{Name: "v", Type: "int64"}},
		Shards:       shards,
	}
}

// schemaColumns declares schema's columns in a manifest, returning them
// with one empty statistics entry per column.
func schemaColumns(schema *storage.Schema) ([]ColumnSchema, []ColumnStats) {
	cols := make([]ColumnSchema, schema.NumFields())
	for i, f := range schema.Fields() {
		cols[i] = ColumnSchema{Name: f.Name, Type: columnTypeName(f.Type)}
	}
	return cols, make([]ColumnStats, len(cols))
}

// TestManifestStatsValidation: per-shard statistics are outside input —
// pruning and deferred opens trust them without reading a shard — so a
// malformed entry fails validation with an error naming the shard and
// the column.
func TestManifestStatsValidation(t *testing.T) {
	bits := base64.StdEncoding.EncodeToString(make([]byte, CatBitsSize))
	for _, tc := range []struct {
		name  string
		col   int // 0 = int64 "n", 1 = string "s"
		st    ColumnStats
		wants string // "" = valid
	}{
		{"valid range", 0, ColumnStats{Min: 1, Max: 9, HasMinMax: true, Nulls: 10}, ""},
		{"valid cat bits", 1, ColumnStats{CatBits: bits}, ""},
		{"negative nulls", 0, ColumnStats{Nulls: -1}, "nulls"},
		{"nulls past rows", 0, ColumnStats{Nulls: 11}, "nulls"},
		{"min above max", 0, ColumnStats{Min: 9, Max: 1, HasMinMax: true}, "ordered range"},
		{"NaN min", 0, ColumnStats{Min: math.NaN(), Max: 1, HasMinMax: true}, "ordered range"},
		{"NaN max", 0, ColumnStats{Min: 1, Max: math.NaN(), HasMinMax: true}, "ordered range"},
		{"cat bits not base64", 1, ColumnStats{CatBits: "!!"}, "cat_bits"},
		{"cat bits too short", 1, ColumnStats{CatBits: base64.StdEncoding.EncodeToString(make([]byte, 8))}, "cat_bits"},
		{"cat bits on a number", 0, ColumnStats{CatBits: bits}, "cat_bits on"},
	} {
		m := &Manifest{
			Version: ManifestVersion, Table: "t", Partitioning: PartitionRange, ChunkSize: 64, Rows: 10,
			Columns: []ColumnSchema{{Name: "n", Type: "int64"}, {Name: "s", Type: "string"}},
			Shards:  []ShardFile{{File: "t.00000.atl", Rows: 10, Stats: make([]ColumnStats, 2)}},
		}
		m.Shards[0].Stats[tc.col] = tc.st
		err := m.validate()
		switch {
		case tc.wants == "" && err != nil:
			t.Errorf("%s: valid stats rejected: %v", tc.name, err)
		case tc.wants == "":
		case err == nil || !strings.Contains(err.Error(), tc.wants):
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.wants)
		case !strings.Contains(err.Error(), "shard 0") || !strings.Contains(err.Error(), `"`+m.Columns[tc.col].Name+`"`):
			t.Errorf("%s: error %q does not name the shard and the column", tc.name, err)
		}
	}
}

// FuzzReadManifest: arbitrary manifest bytes either read into a
// validated manifest or fail with a named error — never a panic.
func FuzzReadManifest(f *testing.F) {
	f.Add([]byte(`{"version":3,"table":"t","partitioning":"range","chunk_size":64,"rows":10,` +
		`"columns":[{"name":"n","type":"int64"},{"name":"s","type":"string"}],` +
		`"shards":[{"file":"t.00000.atl","rows":10,"stats":[{"min":1,"max":9,"has_min_max":true,"nulls":0},{"nulls":1}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.atlm")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := ReadManifest(path)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "shard: ") {
				t.Fatalf("unnamed error %q", err)
			}
			return
		}
		// A manifest that reads is one pruning can trust: every shard has
		// a statistics entry per column.
		for i := range m.Shards {
			for _, c := range m.Columns {
				m.ShardMayMatch(i, query.NewRange(c.Name, 0, 1))
				m.ShardMayMatch(i, query.NewIn(c.Name, "x"))
			}
		}
	})
}

// TestManifestV3ReplicaRoundTrip: replica locations survive a
// write/read cycle and Locations() yields the dial order.
func TestManifestV3ReplicaRoundTrip(t *testing.T) {
	m := remoteTestManifest([]ShardFile{
		{File: "http://a:8093", Rows: 64, Replicas: []string{"http://b:8093", "https://c:8443"}},
		{File: "http://d:8093", Rows: 64},
	}, 128)
	path := filepath.Join(t.TempDir(), "r.atlm")
	if err := WriteManifestFile(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != ManifestVersion {
		t.Errorf("version %d, want %d", got.Version, ManifestVersion)
	}
	locs := got.Shards[0].Locations()
	want := []string{"http://a:8093", "http://b:8093", "https://c:8443"}
	if len(locs) != len(want) {
		t.Fatalf("shard 0 locations %v, want %v", locs, want)
	}
	for i := range want {
		if locs[i] != want[i] {
			t.Errorf("location %d = %q, want %q", i, locs[i], want[i])
		}
	}
	if locs := got.Shards[1].Locations(); len(locs) != 1 || locs[0] != "http://d:8093" {
		t.Errorf("replica-less shard locations %v, want just the primary", locs)
	}
}

// TestManifestReplicaValidation: replicas demand a v3 manifest and a
// remote primary, and must themselves be http(s):// locations.
func TestManifestReplicaValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.atlm")

	local := remoteTestManifest([]ShardFile{
		{File: "t.00000.atl", Rows: 64, Replicas: []string{"http://b:8093"}},
	}, 64)
	if err := WriteManifestFile(path, local); err == nil {
		t.Error("replicas on a local shard file validated")
	} else if !strings.Contains(err.Error(), "remote primary") {
		t.Errorf("error %q does not explain the remote-primary rule", err)
	}

	badURL := remoteTestManifest([]ShardFile{
		{File: "http://a:8093", Rows: 64, Replicas: []string{"b:8093"}},
	}, 64)
	if err := WriteManifestFile(path, badURL); err == nil {
		t.Error("non-URL replica validated")
	} else if !strings.Contains(err.Error(), "http(s)") {
		t.Errorf("error %q does not name the URL rule", err)
	}

	old := remoteTestManifest([]ShardFile{
		{File: "http://a:8093", Rows: 64, Replicas: []string{"http://b:8093"}},
	}, 64)
	old.Version = 2
	if err := WriteManifestFile(path, old); err == nil {
		t.Error("v2 manifest with replicas validated")
	} else if !strings.Contains(err.Error(), "version") {
		t.Errorf("error %q does not name the version rule", err)
	}
}

// TestRemoteManifestReplicaSyntax: '|'-separated URL entries split into
// primary + replicas, with whitespace and trailing slashes normalized.
func TestRemoteManifestReplicaSyntax(t *testing.T) {
	tbl := eventsTable(t, 512)
	dir := t.TempDir()
	local, err := WriteSharded(filepath.Join(dir, "e.atlm"), tbl, IngestOptions{Shards: 2, ChunkSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	rm, err := RemoteManifest(local, []string{
		"http://a:8093/ | http://b:8093",
		"http://c:8093",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rm.Version != ManifestVersion {
		t.Errorf("remote manifest version %d, want %d", rm.Version, ManifestVersion)
	}
	s0 := rm.Shards[0]
	if s0.File != "http://a:8093" {
		t.Errorf("shard 0 primary %q, want normalized http://a:8093", s0.File)
	}
	if len(s0.Replicas) != 1 || s0.Replicas[0] != "http://b:8093" {
		t.Errorf("shard 0 replicas %v, want [http://b:8093]", s0.Replicas)
	}
	if s1 := rm.Shards[1]; s1.File != "http://c:8093" || len(s1.Replicas) != 0 {
		t.Errorf("shard 1 = %q/%v, want lone http://c:8093", s1.File, s1.Replicas)
	}
	// The local manifest is untouched (RemoteManifest copies).
	if local.Shards[0].File == s0.File || len(local.Shards[0].Replicas) != 0 {
		t.Error("RemoteManifest mutated its input manifest")
	}
	if _, err := RemoteManifest(local, []string{"http://a:8093|not a url", ""}); err == nil {
		t.Error("bad replica URL accepted")
	}
}
